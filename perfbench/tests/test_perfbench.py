"""Tests of the benchmark itself: inputs, oracles, failure counting, tracing.

    python -m pytest perfbench/tests -q
"""

import json
import math
import os

import numpy as np
import pytest

import gen
import oracles
import run
import tracing
import workloads
from alphafam import compact
from conftest import ROOT


def read_bytes(paths: dict) -> dict:
    out = {}
    for key, path in paths.items():
        with open(path, "rb") as handle:
            out[key] = handle.read()
    return out


@pytest.mark.parametrize("workload", ["compact-sweep", "cold-small"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = read_bytes(gen.generate(workload, 7, str(tmp_path / "a")))
    second = read_bytes(gen.generate(workload, 7, str(tmp_path / "b")))
    other = read_bytes(gen.generate(workload, 8, str(tmp_path / "c")))
    assert first == second
    assert first != other


def test_fit_large_simulate_seed_follows_the_seed(tmp_path):
    assert gen.generate("fit-large", 7, str(tmp_path)) == gen.generate("fit-large", 7, str(tmp_path))
    assert gen.generate("fit-large", 7, str(tmp_path)) != gen.generate("fit-large", 8, str(tmp_path))


def test_compact_layouts_have_the_intended_active_sets(tmp_path):
    paths = gen.generate("compact-sweep", 3, str(tmp_path))
    clustered = oracles.load_csv(paths["clustered"]).ravel()
    spread = oracles.load_csv(paths["spread"]).ravel()
    assert clustered.max() - clustered.min() <= 2 * oracles.ROOT5
    window = np.searchsorted(np.sort(spread), np.sort(spread) + oracles.ROOT5) - np.arange(len(spread))
    assert 2 <= window.mean() <= 8


def test_compact_oracle_reproduces_the_reference_example():
    mu_hat, best = oracles.brute_force_compact(compact.REFERENCE_SAMPLE)
    assert mu_hat == pytest.approx(8.46, abs=0.01)
    assert best == pytest.approx(6.42, abs=0.05)


def test_compact_oracle_matches_a_dense_grid():
    xs = np.random.default_rng(0).uniform(0.0, 12.0, size=25)
    grid = np.linspace(xs.min() - 3, xs.max() + 3, 200_001)
    mu_hat, best = oracles.brute_force_compact(xs)
    assert best >= oracles.ell(xs, grid).max() - 1e-9
    assert oracles.ell(xs, np.array([mu_hat]))[0] == pytest.approx(best, abs=1e-12)


def test_normal_closed_form_agrees_with_quadrature():
    for alpha in (0.6, 0.999, 1.5, 2.0):
        i_alpha, kl = oracles.normal_divergences(0.0, 1.0, 0.5, 2.0, alpha)
        p, q = oracles.normal_handle(0.0, 1.0), oracles.normal_handle(0.5, 2.0)
        assert i_alpha == pytest.approx(oracles.quadrature_i_alpha(p, q, alpha), rel=1e-8)
        assert kl == pytest.approx(oracles.quadrature_kl(p, q), rel=1e-8)


def test_t_power_integral_agrees_with_quadrature():
    alpha, nu = 0.8, 9.0
    dist = oracles.t_handle(alpha, 0.0, 1.5)[0]
    want = math.log(oracles._quad(lambda x: dist(x) ** alpha, -math.inf, math.inf))
    assert oracles.t_log_power_integral(alpha, np.array([[1.5]])) == pytest.approx(want, rel=1e-9)


def test_estimate_oracle_rejects_a_wrong_mean():
    data = np.random.default_rng(1).normal(size=(50, 2))
    cov = np.cov(data.T, bias=True)
    report = {"n": 50, "d": 2, "mu_hat": data.mean(axis=0).tolist(), "sigma_hat": cov.tolist(),
              "singular_flag": False}
    assert oracles.check_estimate(0, json.dumps(report), data) is None
    report["mu_hat"][0] += 1e-6
    assert "mu_hat" in oracles.check_estimate(0, json.dumps(report), data)
    assert oracles.check_estimate(10, "", data) == "exit 10"


def make_runner(tmp_path):
    return run.Runner(ROOT, str(tmp_path))


def test_forced_nonzero_exit_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    missing = str(tmp_path / "missing.csv")
    ops = [
        workloads.Op("estimate_s", ("estimate", "--alpha", "0.8", "--input", missing), 0,
                     lambda code, out, ctx: oracles.check_estimate(code, out, None)),
        workloads.Op("verify_s", ("verify-paper-example",), 0,
                     lambda code, out, ctx: oracles.check_verify(code, out)),
    ]
    runner = make_runner(tmp_path)
    metrics = run.timed_run(runner, ops, seconds=0)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert metrics["ok_ratio"] == 0.5
    assert "exit 10" in runner.failures[0]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert set(metrics) == {m["name"] for m in json.load(handle)["end_to_end"]}


def test_known_defect_exit_is_reported_and_other_exits_still_fail(tmp_path):
    runner = make_runner(tmp_path)
    probe = workloads.Op("divergence_s", ("divergence", "--alpha", "0.8", "--p", "t:0.8,0,1", "--q", "normal:0.5,1"),
                         0, lambda code, out, ctx: "wrong", known_exit=20, known_reason="known")
    runner.run(probe, runner.cli(probe.args), {})
    assert runner.failed == 0 and list(runner.known.values()) == [("known", 1)]
    bad = workloads.Op("divergence_s", ("divergence", "--alpha", "0.8", "--p", "nope", "--q", "normal:0,1"),
                       0, lambda code, out, ctx: oracles.check_divergence(code, out, (0.0, 0.0), 1e-6), known_exit=20)
    runner.run(bad, runner.cli(bad.args), {})
    assert runner.failed == 1 and "exit 2" in runner.failures[0]


def test_traced_op_spans_add_up_and_count_quadrature(tmp_path):
    runner = make_runner(tmp_path)
    spans_path = str(tmp_path / "spans.json")
    argv = [run.sys.executable, "-X", "importtime", os.path.join(run.HERE, "traced_op.py"), spans_path, "--",
            "divergence", "--alpha", "0.8", "--p", "t:0.8,0,1", "--q", "t:0.8,0.5,2"]
    code, _, _ = run.spawn(argv, runner.env, runner.path("out"), runner.path("err"), str(tmp_path))
    assert code == 0
    with open(spans_path) as handle:
        spans = json.load(handle)
    assert tracing.check_spans(spans) is None
    assert spans[0]["name"] == "cli.run"
    assert {"divergence.i_alpha", "divergence.kl", "divergence.quad", "core.make_student_t"} <= {s["name"] for s in spans}
    with open(runner.path("err")) as handle:
        import_s, scipy_s = tracing.parse_importtime(handle.read())
    assert 0 < scipy_s < import_s
    metrics = tracing.layer_metrics([{"spans": spans, "import_s": import_s, "scipy_s": scipy_s,
                                      "traced_s": 1.0, "untraced_s": 1.0}])
    assert metrics["divergence.quad.calls"] == 4 and metrics["divergence.quad.evals"] > 0
    assert metrics["core.make_student_t.calls"] == 2


def test_check_spans_rejects_a_child_outside_its_parent():
    spans = [{"name": "cli.run", "start": 0.0, "end": 1.0, "parent": -1, "counts": {}},
             {"name": "cli.ingest_csv", "start": 0.5, "end": 1.5, "parent": 0, "counts": {}}]
    assert "not inside" in tracing.check_spans(spans)


def test_parse_importtime_attributes_nested_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:       400 |        450 |   scipy.special",
        "import time:      1000 |       1750 | alphafam",
        "import time:        10 |         10 | json",
    ])
    assert tracing.parse_importtime(log) == pytest.approx((1750e-6, 450e-6))


def test_benchmark_json_names_match_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    op = {"spans": [{"name": "cli.run", "start": 0.0, "end": 1.0, "parent": -1, "counts": {}}],
          "import_s": 0.5, "scipy_s": 0.25, "traced_s": 2.0, "untraced_s": 1.5}
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.layer_metrics([op]))
