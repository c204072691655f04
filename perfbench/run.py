"""alphafam benchmark: cold CLI calls on seeded inputs, checked against oracles.

    python3 perfbench/run.py --workload fit-large --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client runs the workload's ops in a
closed loop, one ``python -m alphafam.cli`` process at a time, for
``--seconds``; every output is checked against an oracle in oracles.py.
With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` each op runs twice, once as above and
once in-process under traced_op.py, and the line reports the per-layer
metrics, the tracing overhead among them.  Earlier lines give per-command
medians, known defects and the self-time table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5  # cold imports per run; setup_s is their median
OP_TIMEOUT_S = 100  # a hung op is killed and counts as failed


def child_env(root: str) -> dict:
    """The program from this checkout's source, default float precision, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("ALPHAFAM_FLOAT_DIGITS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list, env: dict, stdout_path: str, stderr_path: str, cwd: str) -> tuple:
    """Run one child to completion; (exit code, wall seconds, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Runner:
    """Runs ops of one workload and tallies attempts, failures and known defects."""

    def __init__(self, root: str, workdir: str):
        self.env = child_env(root)
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.known = {}  # op command line -> (reason, count)
        self.failures = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, args) -> list:
        return [sys.executable, "-m", "alphafam.cli", *args]

    def run(self, op, argv: list, ctx: dict) -> dict:
        """Run and check one op; returns its wall time, peak RSS and bytes written."""
        stdout_path, stderr_path = self.path("stdout"), self.path("stderr")
        code, wall, rss = spawn(argv, self.env, stdout_path, stderr_path, self.workdir)
        self.attempted += 1
        written = os.path.getsize(stdout_path)
        if op.writes and os.path.exists(op.writes):
            written += os.path.getsize(op.writes)
        self.judge(op, code, stdout_path, stderr_path, ctx)
        return {"wall": wall, "rss_kib": rss, "bytes": written}

    def judge(self, op, code: int, stdout_path: str, stderr_path: str, ctx: dict):
        line = " ".join(op.args)
        if op.known_exit is not None and code == op.known_exit:
            reason, count = self.known.get(line, (op.known_reason, 0))
            self.known[line] = (reason, count + 1)
            return
        with open(stdout_path, encoding="utf-8", errors="replace") as handle:
            text = handle.read()
        try:
            reason = op.check(code, text, ctx)
        except Exception as exc:  # an oracle that cannot read the output counts the op as failed
            reason = f"oracle raised {exc!r}"
        if reason is not None:
            self.failed += 1
            with open(stderr_path, encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-300:].strip()
            self.failures.append(f"{line}: {reason}; stderr: {tail}")

    def import_once(self) -> float:
        code, wall, _ = spawn([sys.executable, "-c", "import alphafam.cli"], self.env,
                              self.path("stdout"), self.path("stderr"), self.workdir)
        if code != 0:
            with open(self.path("stderr"), encoding="utf-8", errors="replace") as handle:
                raise RuntimeError(f"import alphafam.cli exits {code}: {handle.read()[-500:]}")
        return wall


def percentile_summary(samples: list) -> dict:
    """Median, count, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    out = {"median_s": statistics.median(ordered), "samples": len(ordered)}
    if len(ordered) >= 11:
        index = len(ordered) - 11  # exactly ten samples lie above this one
        out["p"] = 100 * (index + 1) // len(ordered)
        out["p_s"] = ordered[index]
    return out


def timed_run(runner: Runner, ops: list, seconds: float) -> dict:
    """Ops in pass order, round after round, until ``seconds`` have passed.

    The first pass always completes; after it the loop stops at the first op
    that ends past the deadline, so a run overshoots by one op, not one pass.
    A pass's wall time is the sum over ops of each op's mean wall time.  The
    mean, not the median, because single calls on a shared host vary by about
    15% in a few-second rhythm, and the mean of a run's calls settles faster.
    """
    setup = [runner.import_once() for _ in range(SETUP_SAMPLES)]
    results = [[] for _ in ops]
    deadline, calls, ctx = time.perf_counter() + seconds, 0, {}
    while calls < len(ops) or time.perf_counter() < deadline:
        index = calls % len(ops)
        if index == 0:
            ctx = {}
        results[index].append(runner.run(ops[index], runner.cli(ops[index].args), ctx))
        calls += 1
    per_command = {}
    for op, samples in zip(ops, results):
        per_command.setdefault(op.metric, []).extend(r["wall"] for r in samples)
    print(json.dumps({"calls": calls,
                      "per_command": {k: percentile_summary(v) for k, v in per_command.items()}}))
    wall = sum(statistics.fmean(r["wall"] for r in samples) for samples in results)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "rows_per_s": sum(op.rows for op in ops) / wall,
        "output_mb": sum(statistics.median(r["bytes"] for r in samples) for samples in results) / 1e6,
        "peak_rss_mb": max(r["rss_kib"] for samples in results for r in samples) * 1024 / 1e6,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }


def traced_run(runner: Runner, ops: list, seconds: float) -> dict:
    """Each op untraced, then traced in a fresh interpreter; per-layer medians over passes."""
    spans_path, tracer = runner.path("spans.json"), os.path.join(HERE, "traced_op.py")
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        ctx, records = {}, []
        for op in ops:
            untraced = runner.run(op, runner.cli(op.args), ctx)
            if os.path.exists(spans_path):
                os.remove(spans_path)
            argv = [sys.executable, "-X", "importtime", tracer, spans_path, "--", *op.args]
            traced = runner.run(op, argv, ctx)
            spans = []
            if os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as handle:
                    spans = json.load(handle)
            problem = tracing.check_spans(spans)
            if problem:
                runner.failed += 1
                runner.failures.append(f"trace of {' '.join(op.args)}: {problem}")
                continue
            with open(runner.path("stderr"), encoding="utf-8", errors="replace") as handle:
                import_s, scipy_s = tracing.parse_importtime(handle.read())
            records.append({"spans": spans, "import_s": import_s, "scipy_s": scipy_s,
                            "traced_s": traced["wall"], "untraced_s": untraced["wall"]})
        if not passes:
            print(json.dumps({"self_s_by_span_first_pass": dict(tracing.self_time_table(records))}))
        passes.append(tracing.layer_metrics(records))
    print(json.dumps({"passes": len(passes)}))
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "alphafam", "cli.py")) or not os.path.isfile(spec_path):
        print("run from the repository root: src/alphafam/cli.py or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(root, workdir)
        runner.import_once()  # compiles the package's bytecode outside any timing
        measure = traced_run if args.trace else timed_run
        values = measure(runner, ops, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    for line, (reason, count) in runner.known.items():
        print(json.dumps({"known_defect": line, "reason": reason, "occurrences": count}))
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark does not produce {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
