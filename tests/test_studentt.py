import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln

import alphafam as af
from alphafam import core, divergence, studentt

N2 = 3.0 / (4.0 * math.sqrt(5.0))


def random_params(d, alpha, seed):
    rng = np.random.default_rng(seed)
    a_mat = rng.normal(size=(d, d))
    return af.make_student_t(alpha, rng.normal(size=d), a_mat @ a_mat.T + d * np.eye(d))


class TestDensity:
    @pytest.mark.parametrize("mu,x", [
        (0.0, 0.0), (1.5, 1.5), (0.0, 1.0), (0.0, math.sqrt(5.0)),
        (0.3, -1.0), (0.3, 0.3), (0.3, 1.7), (0.3, 2.4),
    ])
    def test_alpha2_is_the_parabola(self, mu, x):
        p = af.make_student_t(2.0, [mu], [[1.0]])
        want = N2 * max(0.0, 1.0 - (x - mu) ** 2 / 5.0)
        assert studentt.density(p, [x]) == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_alpha2_outside_support_is_zero(self):
        p = af.make_student_t(2.0, [0.0], [[1.0]])
        assert studentt.density(p, [3.0]) == 0.0
        assert studentt.log_density(p, [3.0]) == -math.inf

    def test_alpha_half_matches_t3_oracle(self):
        p = af.make_student_t(0.5, [0.0], [[1.0]])
        oracle = stats.t.pdf(1.2, df=3, loc=0.0, scale=math.sqrt(1.0 / 3.0))
        assert studentt.density(p, [1.2]) == pytest.approx(oracle, rel=1e-12)

    def test_positive_everywhere_iff_alpha_below_one(self):
        heavy = af.make_student_t(0.6, [0.0], [[1.0]])
        compactly = af.make_student_t(2.0, [0.0], [[1.0]])
        for x in (-50.0, -3.0, 0.0, 7.0, 40.0):
            assert studentt.density(heavy, [x]) > 0.0
        assert studentt.density(compactly, [7.0]) == 0.0


@st.composite
def params_and_points(draw):
    """A Student-t of d in {1, 2, 3} with alpha on either side of 1, rows
    at Mahalanobis radii up to twice the alpha > 1 support radius, and one
    far row at a radius up to 1e300."""
    d = draw(st.sampled_from([1, 2, 3]))
    lo = d / (d + 2.0)
    if draw(st.booleans()):
        alpha = draw(st.floats(lo + 0.02, 0.98))
    else:
        alpha = draw(st.floats(1.02, 5.0))
    p = random_params(d, alpha, draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    m = draw(st.integers(1, 8))
    directions = rng.normal(size=(m + 1, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    reach = math.sqrt(p.radius_sq) if alpha > 1.0 else 4.0
    radii = np.append(rng.uniform(0.0, 2.0 * reach, size=m), 10.0 ** draw(st.floats(0.0, 300.0)))
    return p, p.mu + (directions * radii[:, None]) @ np.linalg.cholesky(p.sigma).T


class TestPointWrappersMatchBatchKernels:
    @given(params_and_points())
    @settings(max_examples=60, deadline=None)
    def test_density_log_density_and_score_equal_the_batch_rows(self, case):
        p, pts = case
        densities = studentt.density_batch(p, pts)
        log_densities = studentt.log_density_batch(p, pts)
        scores = studentt.score_batch(p, pts)
        assert np.all(np.isnan(scores[log_densities == -math.inf]))
        for x, dens, log_dens, row in zip(pts, densities, log_densities, scores):
            assert studentt.density(p, x) == pytest.approx(dens, rel=1e-13, abs=0.0)
            assert studentt.log_density(p, x) == studentt.log_density_batch(p, [x])[0]
            assert studentt.log_density(p, x) == pytest.approx(log_dens, rel=1e-13, abs=1e-13)
            if log_dens == -math.inf:
                assert p.alpha > 1.0 and dens == 0.0
                with pytest.raises(core.UndefinedScoreError):
                    studentt.score(p, x)
                continue
            assert math.isfinite(log_dens)
            assert np.allclose(studentt.score(p, x), row, rtol=1e-13, atol=1e-13)

    @given(params_and_points())
    @settings(max_examples=60, deadline=None)
    def test_each_row_of_a_batch_is_its_one_row_call(self, case):
        p, pts = case
        rows = np.concatenate([studentt.log_density_batch(p, x[None]) for x in pts])
        assert studentt.log_density_batch(p, pts).tobytes() == rows.tobytes()


def _unscaled_rows(p, pts):
    """log density and score rows from the unscaled bracket m = b r^T Sigma^-1 r,
    summed term by term as the kernels sum it, with c = b/((alpha - 1)(1 + m));
    NaN scores off the support."""
    r = pts - p.mu
    n, d = r.shape
    total = np.zeros(n)
    with np.errstate(all="ignore"):
        for i, j in np.ndindex(p.sigma_inv.shape):
            total += r[:, i] * p.sigma_inv[i, j] * r[:, j]
        m = p.b_alpha * total
        log_density = p.log_norm_const + np.log1p(np.maximum(m, -1.0)) / (p.alpha - 1.0)
        c = p.b_alpha / ((p.alpha - 1.0) * (1.0 + m))
        outer = 0.5 * p.sigma + np.einsum("n,ni,nj->nij", c, r, r)
        score = np.concatenate([-2.0 * c[:, None] * (r @ p.sigma_inv), outer.reshape(n, d * d)], axis=1)
    score[log_density == -math.inf] = math.nan
    return log_density, score


@st.composite
def params_and_residuals(draw):
    """A Student-t of d in {1, 2, 3} on either side of 1, and rows whose
    residual components are 10^U(-300, 150) with either sign.  mu is 0 or
    random: a residual below the ulp of a random mu rounds to 0."""
    d = draw(st.sampled_from([1, 2, 3]))
    lo = d / (d + 2.0)
    alpha = draw(st.floats(lo + 0.02, 0.98) | st.floats(1.02, 5.0))
    p = random_params(d, alpha, draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        p = af.make_student_t(alpha, np.zeros(d), p.sigma)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 8))
    residuals = 10.0 ** rng.uniform(-300.0, 150.0, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
    return p, p.mu + residuals


class TestScaledBracket:
    @given(params_and_residuals())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_unscaled_bracket_wherever_it_is_finite(self, case):
        p, pts = case
        want_log_density, want_score = _unscaled_rows(p, pts)
        log_density, score = studentt.log_density_batch(p, pts), studentt.score_batch(p, pts)
        finite = np.isfinite(want_log_density)
        assert log_density[finite].tobytes() == want_log_density[finite].tobytes()
        finite = np.isfinite(want_score)
        assert score[finite].tobytes() == want_score[finite].tobytes()

    @pytest.mark.filterwarnings("error")
    def test_a_row_near_mu_is_never_scaled_up(self):
        p = af.make_student_t(0.8, 0.0, 1.0)
        assert studentt.score(p, [1e-200]) == pytest.approx([1e-200 / 0.7, 0.5], rel=1e-15, abs=0.0)


class TestFarOutliers:
    # t(0.8, 0, Sigma) with Sigma = 1 in d = 1 and [[1, 0.5], [0.5, 1]] in
    # d = 2, at x = t (1, ..., 1).  mpmath at 50 digits from the same float
    # inputs: log p at t = 1e160 and 1e300, and the likelihood of the rows
    # at t = 0, far, 0.5 with far = 1e160 and 1e150.  Squaring x - mu
    # overflows past 1e154; the 1e150 value keeps the direct mean bracket's bits.
    CASES = {
        1: ([[1.0]], -3675.2276008031441956, -6898.8467309948088695,
            -2936.085363432056973, -2751.8785559925332669, -2751.8785559925332),
        2: ([[1.0, 0.5], [0.5, 1.0]], -3678.0221157643242128, -6901.6412459559888867,
            -2938.5921963207852092, -2754.3853888812615032, -2754.3853888812614),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", [1, 2])
    def test_pinned_values(self, d):
        sigma, at_160, at_300, loglik_160, loglik_150, loglik_150_bits = self.CASES[d]
        p = af.make_student_t(0.8, np.zeros(d), sigma)
        ones = np.ones(d)
        assert studentt.log_density(p, 1e160 * ones) == pytest.approx(at_160, rel=1e-15, abs=0.0)
        assert studentt.log_density(p, 1e300 * ones) == pytest.approx(at_300, rel=1e-15, abs=0.0)
        at = {}
        for far in (1e160, 1e150):
            at[far] = divergence.generalized_log_likelihood(p, af.SampleBatch(np.outer([0.0, far, 0.5], ones)))
            assert type(at[far]) is float
        assert at[1e160] == pytest.approx(loglik_160, rel=1e-15, abs=0.0)
        assert at[1e150] == pytest.approx(loglik_150, rel=1e-15, abs=0.0)
        assert at[1e150] == loglik_150_bits

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d,block", [(1, [-4.5]), (2, [-3.25, -3.5, -3.5, -3.25])])
    def test_score_of_a_far_row_keeps_its_limit(self, d, block):
        # The Sigma^-1 block tends to Sigma/2 + r r^T / ((alpha - 1) r^T Sigma^-1 r).
        p = af.make_student_t(0.8, np.zeros(d), self.CASES[d][0])
        far, near = studentt.score(p, 1e160 * np.ones(d)), studentt.score(p, 1e10 * np.ones(d))
        assert far[d:] == pytest.approx(near[d:], rel=1e-12, abs=0.0)
        assert far[d:] == pytest.approx(block, rel=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_compact_member_is_zero_far_out(self):
        p = af.make_student_t(2.0, [0.0], [[1.0]])
        assert studentt.log_density(p, [1e160]) == -math.inf
        assert studentt.density(p, [1e160]) == 0.0
        assert divergence.generalized_log_likelihood(p, af.SampleBatch(np.array([[1e160]]))) == -math.inf


class TestDecompose:
    @staticmethod
    def weight_blocks(p):
        """The offset w0 and the weights of x and of Vec(x x^T) at the params' own theta."""
        desc = studentt.decompose(p)
        theta = af.pack_theta(p.mu, p.sigma_inv)
        w = desc.w_fn(theta)
        return desc.w0_fn(theta), w[: p.dim], w[p.dim :]

    def test_centered_unit_weights(self):
        p = af.make_student_t(0.5, [0.0], [[1.0]])
        w0, w_x, w_xx = self.weight_blocks(p)
        assert w0 == 0.0
        assert np.array_equal(w_x, [0.0])
        assert w_xx == pytest.approx([1.0], abs=1e-15)

    def test_d2_weight_blocks_match_matrix_arithmetic(self):
        # direct matrix arithmetic oracle at a valid order for d = 2
        alpha = 0.7
        mu = np.array([1.0, 0.0])
        p = af.make_student_t(alpha, mu, np.eye(2))
        w0, w_x, w_xx = self.weight_blocks(p)
        b = (1.0 - alpha) / (2.0 * alpha - 2.0 * (1.0 - alpha))
        assert np.allclose(w_x, -2.0 * b * mu, rtol=1e-14)
        assert np.allclose(w_xx, b * np.eye(2).ravel(), rtol=1e-14)
        assert w0 == pytest.approx(b, rel=1e-14)

    @pytest.mark.parametrize("d,alpha,seed", [(1, 0.6, 1), (2, 0.8, 2), (3, 0.9, 3), (1, 2.0, 4), (2, 3.0, 5)])
    def test_reconstruction_matches_density(self, d, alpha, seed):
        p = random_params(d, alpha, seed)
        desc = studentt.decompose(p)
        theta = af.pack_theta(p.mu, p.sigma_inv)
        for x in studentt.sample(p, 100, seed).data:
            dv = studentt.density(p, x)
            assert dv > 0.0
            rv = af.reconstruct_density(desc, theta, x)
            assert abs(rv - dv) / dv < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_reconstruction_where_the_normalizer_underflows(self):
        # N < 1e-308, so Z = 1/N overflows; the density is 0.0 there, not an OverflowError.
        p = af.make_student_t(0.8, np.zeros(3), 1e300 * np.eye(3))
        desc = studentt.decompose(p)
        theta = af.pack_theta(p.mu, p.sigma_inv)
        assert desc.z_fn(theta) == math.inf
        assert af.reconstruct_density(desc, theta, np.zeros(3)) == studentt.density(p, np.zeros(3)) == 0.0

    def test_jacobian_blocks(self):
        p = random_params(2, 0.8, 11)
        desc = studentt.decompose(p)
        theta = af.pack_theta(p.mu, p.sigma_inv)
        jac = desc.w_jacobian(theta)
        b = p.b_alpha
        assert np.allclose(jac[:2, :2], -2.0 * b * p.sigma_inv, rtol=1e-14)
        assert np.allclose(jac[2:, :2], 0.0)
        assert np.allclose(jac[2:, 2:], b * np.eye(4), rtol=1e-14)
        # mu-gradient of the constant block
        g0 = desc.w0_grad(theta)
        assert np.allclose(g0[:2], 2.0 * b * p.sigma_inv @ p.mu, rtol=1e-13)
        assert np.allclose(g0[2:], b * np.outer(p.mu, p.mu).ravel(), rtol=1e-13)

    def test_jacobian_matches_finite_differences(self):
        p = random_params(2, 0.8, 12)
        desc = studentt.decompose(p)
        theta = af.pack_theta(p.mu, p.sigma_inv)
        h = 1e-7
        jac = desc.w_jacobian(theta)
        for r in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[r] += h
            tm[r] -= h
            col = (desc.w_fn(tp) - desc.w_fn(tm)) / (2.0 * h)
            assert np.allclose(jac[:, r], col, atol=1e-6)


def mahalanobis_sq(p, draws):
    r = draws - p.mu
    return np.einsum("ni,ij,nj->n", r, p.sigma_inv, r)


COMPACT_GRID = [(d, alpha) for d in (1, 2, 3) for alpha in (1.01, 2.0, 10.0)]


class TestSample:
    def test_deterministic_for_fixed_seed(self):
        p = af.make_student_t(0.7, [1.0], [[2.0]])
        a = studentt.sample(p, 500, 42).data
        b = studentt.sample(p, 500, 42).data
        c = studentt.sample(p, 500, 43).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("d,alpha,seed", [(1, 0.7, 5), (2, 0.8, 6), (3, 0.9, 7)])
    def test_heavy_tail_draws_are_pinned(self, d, alpha, seed):
        # The classical t construction, operation for operation, on the same stream.
        p = random_params(d, alpha, seed)
        rng = np.random.default_rng(seed)
        nu = p.nu
        chol = np.linalg.cholesky(p.sigma * (nu - 2.0) / nu)
        z = rng.standard_normal((1000, d))
        w = rng.chisquare(nu, size=1000)
        want = p.mu + (z * np.sqrt(nu / w)[:, None]) @ chol.T
        got = studentt.sample(p, 1000, seed).data
        assert got.tobytes() == want.tobytes()

    def test_mean_within_three_se(self):
        p = af.make_student_t(0.5, [0.0], [[1.0]])
        x = studentt.sample(p, 200_000, 7).scalars()
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean()) <= 3.0 * se

    def test_quadratic_identity_within_three_se(self):
        # E[1 + b (X-mu)^2/sigma^2] = 1 + b for d = 1
        p = af.make_student_t(0.5, [0.0], [[1.0]])
        x = studentt.sample(p, 200_000, 11).scalars()
        y = 1.0 + p.b_alpha * x**2
        se = y.std(ddof=1) / math.sqrt(y.size)
        assert abs(y.mean() - (1.0 + p.b_alpha)) <= 3.0 * se

    @pytest.mark.parametrize("d,alpha", COMPACT_GRID)
    def test_alpha2_draws_stay_in_support(self, d, alpha):
        p = random_params(d, alpha, 40 + d)
        draws = studentt.sample(p, 50_000, 3).data
        assert np.all(mahalanobis_sq(p, draws) <= p.radius_sq)
        assert np.all(studentt.density_batch(p, draws) > 0.0)

    @pytest.mark.parametrize("d,alpha", COMPACT_GRID)
    def test_radial_law_is_beta(self, d, alpha):
        # Whitened squared radius over R^2 ~ Beta(d/2, 1/(alpha-1) + 1).
        p = random_params(d, alpha, 60 + d)
        u = mahalanobis_sq(p, studentt.sample(p, 20_000, 8).data) / p.radius_sq
        law = stats.beta(0.5 * d, 1.0 / (alpha - 1.0) + 1.0)
        assert stats.kstest(u, law.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("alpha,sig", [
        (0.8, [[1.0, 0.4], [0.4, 2.0]]),
        (3.0, [[1.0, 0.4], [0.4, 2.0]]),
        (1.5, [[2.0, 0.3, -0.5], [0.3, 1.0, 0.2], [-0.5, 0.2, 1.5]]),
    ])
    def test_covariance_within_five_percent(self, alpha, sig):
        sig = np.array(sig)
        p = af.make_student_t(alpha, np.zeros(len(sig)), sig)
        draws = studentt.sample(p, 200_000, 12).data
        emp = np.cov(draws.T)
        assert np.linalg.norm(emp - sig) / np.linalg.norm(sig) < 0.05


class TestScore:
    def test_location_block_vanishes_at_center(self):
        p = random_params(2, 0.8, 21)
        g = studentt.score(p, p.mu)
        assert np.allclose(g[:2], 0.0, atol=1e-15)

    @pytest.mark.parametrize("d,alpha,seed", [(1, 0.5, 31), (2, 0.8, 32), (1, 2.0, 33)])
    def test_matches_central_finite_differences(self, d, alpha, seed):
        p = random_params(d, alpha, seed)
        x = p.mu + 0.3 * np.ones(d)
        g = studentt.score(p, x)
        theta = af.pack_theta(p.mu, p.sigma_inv)
        h = 1e-6
        for r in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[r] += h
            tm[r] -= h
            fd = (
                studentt.log_density_given_theta(tp, alpha, x)
                - studentt.log_density_given_theta(tm, alpha, x)
            ) / (2.0 * h)
            assert abs(g[r] - fd) / max(abs(fd), 1e-8) < 1e-5

    def test_boundary_raises(self):
        p = af.make_student_t(2.0, [0.0], [[1.0]])
        with pytest.raises(core.UndefinedScoreError):
            studentt.score(p, [math.sqrt(5.0)])
        with pytest.raises(core.UndefinedScoreError):
            studentt.score(p, [4.0])

    def test_zero_mean_within_three_se(self):
        p = af.make_student_t(0.5, [0.0], [[1.0]])
        draws = studentt.sample(p, 200_000, 9).data
        scores = studentt.score_batch(p, draws)
        assert np.all(np.isfinite(scores))
        means = scores.mean(axis=0)
        ses = scores.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(means) <= 3.0 * ses)


class TestExpectationIdentity:
    @pytest.mark.parametrize("d,alpha,seed", [
        (1, 0.5, 11), (2, 0.8, 12), (3, 0.9, 13), (1, 2.0, 14), (2, 1.5, 15), (3, 3.0, 16),
    ])
    def test_mean_of_y_statistic(self, d, alpha, seed):
        p = random_params(d, alpha, seed + 50)
        draws = studentt.sample(p, 200_000, seed).data
        lam = p.sigma_inv
        quad_form = np.einsum("ni,ij,nj->n", draws, lam, draws)
        y = 1.0 + p.b_alpha * (
            quad_form - 2.0 * (lam @ p.mu) @ draws.T + p.mu @ lam @ p.mu
        )
        se = y.std(ddof=1) / math.sqrt(y.size)
        assert abs(y.mean() - (1.0 + d * p.b_alpha)) <= 3.0 * se


def _gammaln_log_norm_const_shape(alpha, d):
    """log N without the |Sigma| factor, written with scipy's gammaln."""
    b = core.b_alpha(alpha, d)
    if alpha < 1.0:
        z = 1.0 / (1.0 - alpha)
        return 0.5 * d * math.log(b) + gammaln(z) - gammaln(z - 0.5 * d) - 0.5 * d * math.log(math.pi)
    z = alpha / (alpha - 1.0)
    return 0.5 * d * math.log(-b) + gammaln(z + 0.5 * d) - gammaln(z) - 0.5 * d * math.log(math.pi)


def _gammaln_log_power_integral(alpha, d, logdet):
    b = core.b_alpha(alpha, d)
    log_n = _gammaln_log_norm_const_shape(alpha, d) - 0.5 * logdet
    if alpha < 1.0:
        beta = alpha / (1.0 - alpha)
        tail = 0.5 * d * math.log(math.pi / b) + gammaln(beta - 0.5 * d) - gammaln(beta)
    else:
        gamma = alpha / (alpha - 1.0)
        tail = 0.5 * d * math.log(math.pi / (-b)) + gammaln(gamma + 1.0) - gammaln(gamma + 1.0 + 0.5 * d)
    return alpha * log_n + 0.5 * logdet + tail


class TestLgammaMatchesGammaln:
    """math.lgamma replaced scipy.special.gammaln in the normalizer and power integral."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_agree_to_1e13_relative(self, d):
        threshold = d / (d + 2.0)
        grid = [threshold + 0.01, (threshold + 1.0) / 2.0, 0.9, 0.95, 0.99,
                1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 50.0]
        sigma = 1.7 * np.eye(d)
        logdet = d * math.log(1.7)
        for alpha in grid:
            want = _gammaln_log_norm_const_shape(alpha, d) - 0.5 * logdet
            assert core.log_norm_const(alpha, logdet, d) == pytest.approx(want, rel=1e-13, abs=0.0)
            p = af.make_student_t(alpha, np.zeros(d), sigma)
            want_power = math.exp(_gammaln_log_power_integral(alpha, d, logdet))
            assert math.exp(studentt.log_power_integral(p, alpha)) == pytest.approx(want_power, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.995, 0.999, 1.001, 1.005])
    def test_agree_to_rounding_of_the_gamma_terms_near_one(self, d, alpha):
        # Gamma arguments grow like 1/|1-alpha|: the two log-Gamma terms
        # (about 1e4 each at 0.999) cancel, so each implementation's last-ulp
        # rounding is all that separates them.
        z = 1.0 / abs(1.0 - alpha)
        scale = 2.0 * abs(math.lgamma(z + 0.5 * d))
        got = core.log_norm_const(alpha, 0.0, d)
        assert abs(got - _gammaln_log_norm_const_shape(alpha, d)) <= 4.0 * np.finfo(float).eps * scale
