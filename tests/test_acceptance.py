"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with -s or -v to see
them); a pytest failure line identifies the criterion otherwise.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import alphafam as af
from alphafam import compact, divergence as dv, estimators as est, studentt

ROOT5 = math.sqrt(5.0)

MU_TABLE = [
    2.46, 3.76, 4.76, 5.57, 6.1, 6.46, 6.56, 6.66, 6.76,
    6.84,
    6.94, 8.15, 8.46, 9.24, 10.44, 10.84, 10.94, 11.04, 11.14,
]
OBJECTIVE_TABLE = [
    0.08, 1.68, 2.69, 3.21, 3.11, 3.07, 3.15, 3.3, 3.5,
    3.7,
    4.02, 6.37, 6.42, 5.57, 2.3, 0.82, 0.5, 0.25, 0.084,
]


def _pass(number, message):
    print(f"PASS criterion {number}: {message}")


def _criterion_batches():
    rng = np.random.default_rng(20240501)
    batches = []
    for i in range(100):
        d = (i % 3) + 1
        n = int(rng.integers(5, 51))
        data = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d) + rng.normal(
            scale=3.0, size=d
        )
        batches.append(af.SampleBatch(data))
    return batches


def test_criterion_1_reference_point_estimate():
    start = time.perf_counter()
    result = compact.maximize_l2(np.array(compact.REFERENCE_SAMPLE))
    elapsed = time.perf_counter() - start
    assert abs(result.mu_hat - 8.46) <= 0.01
    assert abs(result.objective_over_n2 - 6.42) <= 0.05
    x_bar = float(np.mean(compact.REFERENCE_SAMPLE))
    assert x_bar == pytest.approx(7.45, abs=1e-12)
    assert abs(result.mu_hat - x_bar) > 0.01
    assert elapsed < 1.0
    _pass(1, f"mu_hat={result.mu_hat:.4f}, objective={result.objective_over_n2:.4f}N2, "
             f"x_bar={x_bar}, {elapsed * 1e3:.1f} ms")


def test_criterion_2_reference_tables():
    start = time.perf_counter()
    candidates = compact.enumerate_segments(np.array(compact.REFERENCE_SAMPLE))
    elapsed = time.perf_counter() - start
    assert len(candidates) == 19
    worst_mu = max(abs(c.maximizer - mu) for c, mu in zip(candidates, MU_TABLE))
    assert worst_mu <= 0.01
    got = sorted(c.objective for c in candidates)
    expected = sorted(OBJECTIVE_TABLE)
    worst_obj = max(abs(g - e) for g, e in zip(got, expected))
    assert worst_obj <= 0.05
    assert elapsed < 1.0
    _pass(2, f"19 maximizers within {worst_mu:.4f}, objectives within {worst_obj:.4f}N2")


def test_criterion_3_closed_form_identity():
    batches = _criterion_batches()
    for batch in batches:
        alphas = [a for a in (0.5, 0.7, 0.9) if a > batch.dim / (batch.dim + 2.0)]
        fits = [est.estimate_student_t(batch, a) for a in alphas]
        first = fits[0]
        mean = batch.data.mean(axis=0)
        centered = batch.data - mean
        cov = centered.T @ centered / batch.n
        assert np.allclose(first.mu_hat, mean, rtol=0.0, atol=0.0)
        assert np.max(np.abs(first.sigma_hat - cov)) <= 1e-15 * max(1.0, np.abs(cov).max())
        for other in fits[1:]:
            assert first.mu_hat.tobytes() == other.mu_hat.tobytes()
            assert first.sigma_hat.tobytes() == other.sigma_hat.tobytes()
    _pass(3, f"{len(batches)} batches, moment formulas exact, alpha-invariant bits")


def test_criterion_4_plugin_residual():
    batches = _criterion_batches()
    worst = 0.0
    for batch in batches:
        alpha = 0.9
        fit = est.estimate_student_t(batch, alpha)
        assert not fit.singular
        params = af.make_student_t(alpha, fit.mu_hat, fit.sigma_hat)
        desc = studentt.decompose(params)
        stats_b = est.sufficient_stats(batch, desc, alpha)
        pop = est.student_t_population_moments(params)
        theta = af.pack_theta(params.mu, params.sigma_inv)
        report = est.residual_regular_malpha(desc, theta, stats_b, pop)
        worst = max(worst, report.norm)
        assert report.norm <= 1e-10
    _pass(4, f"worst plug-in residual norm {worst:.3e}")


def test_criterion_5_expectation_identity():
    start = time.perf_counter()
    for d, alpha, seed in ((1, 0.5, 11), (2, 0.8, 12), (3, 0.9, 13)):
        rng = np.random.default_rng(seed + 50)
        a_mat = rng.normal(size=(d, d))
        params = af.make_student_t(
            alpha, rng.normal(size=d), a_mat @ a_mat.T + d * np.eye(d)
        )
        draws = studentt.sample(params, 200_000, seed).data
        lam = params.sigma_inv
        quad_form = np.einsum("ni,ij,nj->n", draws, lam, draws)
        y = 1.0 + params.b_alpha * (
            quad_form - 2.0 * (lam @ params.mu) @ draws.T + params.mu @ lam @ params.mu
        )
        target = 1.0 + d * params.b_alpha
        se = y.std(ddof=1) / math.sqrt(y.size)
        assert abs(y.mean() - target) <= 3.0 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(5, f"three (d, alpha) pairs within 3 SE, {elapsed:.1f} s")


def test_criterion_6_normalization_and_density_oracle():
    for alpha in (0.6, 0.8, 2.0, 3.0):
        params = af.make_student_t(alpha, [0.0], [[1.0]])
        if alpha < 1.0:
            lo, hi = -np.inf, np.inf
        else:
            r = math.sqrt(params.radius_sq)
            lo, hi = -r, r
        mass = quad(lambda x: studentt.density(params, [x]), lo, hi, epsabs=1e-12, epsrel=1e-10)[0]
        assert abs(mass - 1.0) <= 1e-8
    params = af.make_student_t(0.5, [0.0], [[1.0]])
    grid = np.linspace(-6.0, 6.0, 100)
    mine = np.array([studentt.density(params, [x]) for x in grid])
    oracle = stats.t.pdf(grid, df=3, loc=0.0, scale=math.sqrt(1.0 / 3.0))
    rel = np.max(np.abs(mine - oracle) / oracle)
    assert rel <= 1e-9
    _pass(6, f"four normalizations at 1e-8; t(3) oracle max rel err {rel:.2e}")


def test_criterion_7_divergence_limit():
    gp, gq = dv.gaussian(0.0, 1.0), dv.gaussian(0.5, 1.0)
    bp, bq = dv.bernoulli(0.3), dv.bernoulli(0.5)
    kl_g = dv.kl(gp, gq)
    assert kl_g == pytest.approx(0.125, abs=1e-8)
    kl_b = dv.kl(bp, bq)
    worst = 0.0
    for alpha in (1.0 - 1e-3, 1.0 + 1e-3):
        worst = max(worst, abs(dv.i_alpha(gp, gq, alpha) - kl_g))
        worst = max(worst, abs(dv.i_alpha(bp, bq, alpha) - kl_b))
    assert worst <= 5e-3
    assert abs(dv.i_alpha(gp, gp, 0.5)) <= 1e-9
    assert abs(dv.i_alpha(bp, bp, 2.0)) <= 1e-9
    _pass(7, f"limit gap {worst:.2e}; self-divergence at 1e-9")


def test_criterion_8_piecewise_maximizer_against_grid():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    spacing = 1e-4
    worst_gap = -math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        layout = rng.integers(0, 3)
        if layout == 0:
            xs = rng.uniform(0.0, 6.0, size=n)
        elif layout == 1:
            half = max(1, n // 2)
            xs = np.concatenate(
                [rng.uniform(0.0, 3.0, size=half), rng.uniform(9.0, 12.0, size=n - half)]
            )
        else:
            xs = rng.uniform(0.0, 14.0, size=n)
        result = compact.maximize_l2(xs)
        xs_sorted = np.sort(xs)
        grid = np.arange(xs_sorted[0] - ROOT5, xs_sorted[-1] + ROOT5 + spacing, spacing)
        total = np.zeros_like(grid)
        for x in xs_sorted:
            total += np.clip(1.0 - (x - grid) ** 2 / 5.0, 0.0, None)
        grid_best = float(total.max())
        assert result.objective_over_n2 >= grid_best - 1e-8
        assert result.objective_over_n2 <= grid_best + 1e-3
        worst_gap = max(worst_gap, grid_best - result.objective_over_n2)
        for cand in result.candidates:
            med = sorted([cand.lo, cand.unconstrained_max, cand.hi])[1]
            assert cand.maximizer == med
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(8, f"1000 batches, worst grid gap {worst_gap:.2e}, {elapsed:.1f} s")


def test_criterion_9_score_regularity():
    params = af.make_student_t(0.5, [0.0], [[1.0]])
    theta = af.pack_theta(params.mu, params.sigma_inv)
    h = 1e-6
    worst = 0.0
    for x in (-1.3, 0.7, 2.4):
        g = studentt.score(params, [x])
        for r in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[r] += h
            tm[r] -= h
            fd = (
                studentt.log_density_given_theta(tp, 0.5, [x])
                - studentt.log_density_given_theta(tm, 0.5, [x])
            ) / (2.0 * h)
            rel = abs(g[r] - fd) / max(abs(fd), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-5
    draws = studentt.sample(params, 200_000, 9).data
    scores = studentt.score_batch(params, draws)
    means = scores.mean(axis=0)
    ses = scores.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(means) <= 3.0 * ses)
    spot = studentt.score(params, draws[0])
    assert np.allclose(spot, scores[0], rtol=1e-13)
    _pass(9, f"FD max rel err {worst:.2e}; mean score |z| max {np.max(np.abs(means / ses)):.2f}")
