import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import alphafam as af
from alphafam import core, divergence as dv, estimators as est, studentt

REFERENCE_SAMPLE = np.array([4.6, 4.7, 6.0, 7.0, 8.2, 8.6, 8.7, 8.8, 8.9, 9.0])


def random_batch(d, n, seed):
    rng = np.random.default_rng(seed)
    shift = rng.normal(scale=3.0, size=d)
    return af.SampleBatch(rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d) + shift)


def random_params(d, alpha, seed):
    rng = np.random.default_rng(seed)
    a_mat = rng.normal(size=(d, d))
    return af.make_student_t(alpha, rng.normal(size=d), a_mat @ a_mat.T + d * np.eye(d))


def student_t_setup(batch, alpha):
    fit = est.estimate_student_t(batch, alpha)
    params = af.make_student_t(alpha, fit.mu_hat, fit.sigma_hat)
    desc = studentt.decompose(params)
    stats = est.sufficient_stats(batch, desc, alpha)
    theta = af.pack_theta(params.mu, params.sigma_inv)
    return fit, params, desc, stats, theta


class TestSufficientStats:
    def test_reference_sample_mean(self):
        batch = af.SampleBatch(REFERENCE_SAMPLE)
        params = af.make_student_t(0.7, [7.0], [[1.0]])
        desc = studentt.decompose(params)
        stats = est.sufficient_stats(batch, desc, 0.7)
        assert stats.mean_f[0] == pytest.approx(7.45, abs=1e-14)

    def test_constant_batch(self):
        batch = af.SampleBatch(np.full((5, 2), 3.0))
        params = af.make_student_t(0.8, [0.0, 0.0], np.eye(2))
        desc = studentt.decompose(params)
        stats = est.sufficient_stats(batch, desc, 0.8)
        assert np.allclose(stats.mean_f, [3.0, 3.0, 9.0, 9.0, 9.0, 9.0])

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 2.0])
    def test_unit_q_gives_unit_power_mean(self, alpha):
        batch = random_batch(1, 8, 1)
        params = af.make_student_t(alpha, [0.0], [[1.0]])
        desc = studentt.decompose(params)
        stats = est.sufficient_stats(batch, desc, alpha)
        assert stats.mean_q_pow == 1.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mean_f_bit_identical_to_per_row_reference(self, d):
        batch = random_batch(d, 257, 30 + d)
        desc = studentt.decompose(af.make_student_t(0.9, np.zeros(d), np.eye(d)))
        reference = np.mean([np.atleast_1d(desc.f_fn(row)) for row in batch.data], axis=0)
        stats = est.sufficient_stats(batch, desc, 0.9)
        assert stats.mean_f.tobytes() == reference.tobytes()

    def test_custom_descriptor_is_called_once_on_the_batch(self):
        batch = random_batch(2, 100, 5)
        desc = studentt.decompose(af.make_student_t(0.9, np.zeros(2), np.eye(2)))
        calls = []

        def counted(fn):
            def wrapper(x):
                calls.append(np.shape(x))
                return fn(x)
            return wrapper

        custom = core.MAlphaDescriptor(**{**vars(desc), "f_fn": counted(core.moment_statistic), "q_fn": counted(desc.q_fn)})
        fast = est.sufficient_stats(batch, desc, 0.9)
        once = est.sufficient_stats(batch, custom, 0.9)
        assert calls == [(100, 2), (100, 2)]
        assert once.mean_f.tobytes() == fast.mean_f.tobytes()
        assert once.mean_q_pow == fast.mean_q_pow == 1.0

    def test_second_moment_psd(self):
        batch = random_batch(3, 12, 2)
        params = af.make_student_t(0.9, np.zeros(3), np.eye(3))
        desc = studentt.decompose(params)
        stats = est.sufficient_stats(batch, desc, 0.9)
        mean_x, mean_xxT = stats.mean_f[:3], stats.mean_f[3:].reshape(3, 3)
        centered = mean_xxT - np.outer(mean_x, mean_x)
        assert np.all(np.linalg.eigvalsh(centered) > -1e-12)


class TestEstimateStudentT:
    def test_reference_sample(self):
        fit = est.estimate_student_t(af.SampleBatch(REFERENCE_SAMPLE), 0.5)
        assert fit.mu_hat[0] == pytest.approx(7.45, abs=1e-14)
        assert not fit.singular

    def test_constant_batch_flagged_singular(self):
        fit = est.estimate_student_t(af.SampleBatch(np.full((4, 1), 2.0)), 0.5)
        assert fit.mu_hat[0] == 2.0
        assert fit.sigma_hat[0, 0] == 0.0
        assert fit.singular

    def test_four_point_d2_batch(self):
        batch = af.SampleBatch(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]))
        fit = est.estimate_student_t(batch, 0.7)
        assert np.array_equal(fit.mu_hat, [1.0, 1.0])
        assert np.array_equal(fit.sigma_hat, np.eye(2))

    def test_exact_moment_formulas(self):
        batch = random_batch(2, 9, 3)
        fit = est.estimate_student_t(batch, 0.7)
        assert np.array_equal(fit.mu_hat, batch.data.mean(axis=0))
        centered = batch.data - batch.data.mean(axis=0)
        expected = centered.T @ centered / batch.n
        assert np.allclose(fit.sigma_hat, 0.5 * (expected + expected.T), rtol=0, atol=0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_alpha_invariance_bit_identical(self, d):
        # alphas restricted to the valid range (d/(d+2), 1) per dimension
        batch = random_batch(d, 15, 4 + d)
        alphas = [a for a in (0.5, 0.7, 0.9) if a > d / (d + 2.0)]
        assert len(alphas) >= 2
        fits = [est.estimate_student_t(batch, a) for a in alphas]
        for other in fits[1:]:
            assert fits[0].mu_hat.tobytes() == other.mu_hat.tobytes()
            assert fits[0].sigma_hat.tobytes() == other.sigma_hat.tobytes()

    def test_alpha_domain(self):
        batch = random_batch(1, 5, 5)
        with pytest.raises(core.ParameterError) as err:
            est.estimate_student_t(batch, 1.0)
        assert err.value.code == core.ALPHA_NOT_BELOW_ONE
        with pytest.raises(core.ParameterError) as err:
            est.estimate_student_t(batch, 0.3)
        assert err.value.code == core.ALPHA_BELOW_THRESHOLD

    @pytest.mark.filterwarnings("error")
    def test_covariance_past_the_float_range_is_a_parameter_error(self):
        batch = af.SampleBatch(np.array([[0.1, 0.2], [1e200, -1e200], [3.0, 4.0]]))
        with pytest.raises(core.ParameterError) as err:
            est.estimate_student_t(batch, 0.8)
        assert err.value.code == core.SIGMA_NOT_FINITE

    @pytest.mark.filterwarnings("error")
    def test_mean_past_the_float_range_is_a_parameter_error(self):
        with pytest.raises(core.ParameterError) as err:
            est.estimate_student_t(af.SampleBatch(np.array([1.5e308, 1.5e308, -1e308])), 0.5)
        assert err.value.code == core.SIGMA_NOT_FINITE

    def test_n_not_above_d_flagged_singular(self):
        batch = af.SampleBatch(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert est.estimate_student_t(batch, 0.8).singular

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_and_scale_equivariance(self, shift, scale, seed):
        batch = random_batch(1, 7, seed)
        base = est.estimate_student_t(batch, 0.7)
        moved = est.estimate_student_t(af.SampleBatch(batch.data * scale + shift), 0.7)
        assert moved.mu_hat[0] == pytest.approx(base.mu_hat[0] * scale + shift, rel=1e-9, abs=1e-9)
        assert moved.sigma_hat[0, 0] == pytest.approx(base.sigma_hat[0, 0] * scale**2, rel=1e-9)


class TestClosedFormMaximizesGeneralizedLikelihood:
    @given(st.integers(1, 3), st.floats(0.01, 0.99), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_no_perturbation_beats_the_fit(self, d, fraction, seed):
        # alpha anywhere in (d/(d+2), 1).  mu -> mu_hat + eps L g and Sigma ->
        # B Sigma_hat B^T with B = I + eps G, at scales eps from 1e-4 to 1e-1
        # (L L^T = Sigma_hat; g, G standard normal).
        threshold = d / (d + 2.0)
        alpha = threshold + fraction * (1.0 - threshold)
        rng = np.random.default_rng(seed)
        batch = studentt.sample(random_params(d, alpha, seed), 500, seed)
        fit = est.estimate_student_t(batch, alpha)
        best = dv.generalized_log_likelihood(af.make_student_t(alpha, fit.mu_hat, fit.sigma_hat), batch)
        chol = np.linalg.cholesky(fit.sigma_hat)
        for _ in range(40):
            eps = 10.0 ** rng.uniform(-4.0, -1.0)
            b = np.eye(d) + eps * rng.normal(size=(d, d))
            mu = fit.mu_hat + eps * chol @ rng.normal(size=d)
            params = af.make_student_t(alpha, mu, b @ fit.sigma_hat @ b.T)
            assert dv.generalized_log_likelihood(params, batch) < best


class TestResidualsAtClosedForm:
    @pytest.mark.parametrize("d,alpha,seed", [(1, 0.5, 10), (2, 0.7, 11), (3, 0.9, 12)])
    def test_plugin_residuals_vanish(self, d, alpha, seed):
        batch = random_batch(d, 25, seed)
        fit, params, desc, stats, theta = student_t_setup(batch, alpha)
        pop = est.student_t_population_moments(params)
        assert est.residual_regular_malpha(desc, theta, stats, pop).norm <= 1e-10
        assert est.residual_general_malpha(desc, theta, stats, pop).norm <= 1e-10

    @pytest.mark.parametrize("d,alpha,seed", [(1, 0.6, 14), (2, 0.8, 15)])
    def test_sample_bracket_equals_population_value_at_fit(self, d, alpha, seed):
        # the sample-side bracket statistic collapses to 1 + d*b_alpha
        # exactly when evaluated at the closed-form estimate
        batch = random_batch(d, 30, seed)
        fit, params, desc, stats, theta = student_t_setup(batch, alpha)
        y = stats.mean_q_pow + desc.w0_fn(theta) + desc.w_fn(theta) @ stats.mean_f
        assert y == pytest.approx(1.0 + d * params.b_alpha, rel=1e-12)

    def test_population_stats_as_sample_stats(self):
        params = af.make_student_t(0.7, [1.0], [[2.0]])
        desc = studentt.decompose(params)
        pop = est.student_t_population_moments(params)
        theta = af.pack_theta(params.mu, params.sigma_inv)
        assert est.residual_regular_malpha(desc, theta, pop, pop).norm == 0.0
        assert est.residual_general_malpha(desc, theta, pop, pop).norm == 0.0


class TestResidualsOffTruth:
    def _quadrature_moments(self, params):
        def pdf(x):
            return studentt.density(params, [x])

        m1 = quad(lambda x: x * pdf(x), -np.inf, np.inf, epsabs=1e-12, epsrel=1e-10)[0]
        m2 = quad(lambda x: x * x * pdf(x), -np.inf, np.inf, epsabs=1e-12, epsrel=1e-10)[0]
        mass = quad(pdf, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-10)[0]
        return np.array([m1, m2]), mass

    def test_regular_residual_matches_quadrature_oracle(self):
        alpha = 0.7
        batch = random_batch(1, 12, 21)
        fit = est.estimate_student_t(batch, alpha)
        shifted = af.make_student_t(alpha, fit.mu_hat + 0.1, fit.sigma_hat)
        desc = studentt.decompose(shifted)
        stats = est.sufficient_stats(batch, desc, alpha)
        theta = af.pack_theta(shifted.mu, shifted.sigma_inv)
        report = est.residual_regular_malpha(
            desc, theta, stats, est.student_t_population_moments(shifted)
        )
        assert report.norm > 1e-3
        ef, mass = self._quadrature_moments(shifted)
        oracle = ef / mass - stats.mean_f / stats.mean_q_pow
        assert np.max(np.abs(report.residuals - oracle)) < 1e-6
        assert report.norm == pytest.approx(float(np.linalg.norm(report.residuals)), rel=1e-15)

    def test_general_residual_matches_quadrature_oracle(self):
        alpha = 0.7
        batch = random_batch(1, 12, 22)
        fit = est.estimate_student_t(batch, alpha)
        shifted = af.make_student_t(alpha, fit.mu_hat + 0.1, fit.sigma_hat)
        desc = studentt.decompose(shifted)
        stats = est.sufficient_stats(batch, desc, alpha)
        theta = af.pack_theta(shifted.mu, shifted.sigma_inv)
        report = est.residual_general_malpha(
            desc, theta, stats, est.student_t_population_moments(shifted)
        )
        ef, mass = self._quadrature_moments(shifted)
        w = desc.w_fn(theta)
        jac = desc.w_jacobian(theta)
        w0 = desc.w0_fn(theta)
        g0 = desc.w0_grad(theta)
        oracle = (jac.T @ ef + g0) / (mass + w0 + w @ ef) - (
            jac.T @ stats.mean_f + g0
        ) / (stats.mean_q_pow + w0 + w @ stats.mean_f)
        assert report.norm > 0.0
        assert np.max(np.abs(report.residuals - oracle)) < 1e-6

    def test_analytic_moments_match_quadrature(self):
        params = af.make_student_t(0.7, [0.4], [[1.7]])
        analytic = est.student_t_population_moments(params)
        ef, mass = self._quadrature_moments(params)
        assert np.max(np.abs(analytic.mean_f - ef)) < 1e-8
        assert abs(mass - 1.0) < 1e-8

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_jacobian_bridge(self, seed):
        # with a nonsingular weight Jacobian, the general residual vanishes
        # iff the regular one does
        alpha = 0.8
        batch = random_batch(2, 20, seed)
        fit, params, desc, stats, theta = student_t_setup(batch, alpha)
        pop = est.student_t_population_moments(params)
        at_truth_reg = est.residual_regular_malpha(desc, theta, stats, pop)
        at_truth_gen = est.residual_general_malpha(desc, theta, stats, pop)
        assert (at_truth_reg.norm <= 1e-10) and (at_truth_gen.norm <= 1e-10)
        rng = np.random.default_rng(seed)
        shifted = af.make_student_t(alpha, fit.mu_hat + rng.normal(scale=0.2, size=2), fit.sigma_hat)
        desc_s = studentt.decompose(shifted)
        theta_s = af.pack_theta(shifted.mu, shifted.sigma_inv)
        stats_s = est.sufficient_stats(batch, desc_s, alpha)
        pop_s = est.student_t_population_moments(shifted)
        off_reg = est.residual_regular_malpha(desc_s, theta_s, stats_s, pop_s)
        off_gen = est.residual_general_malpha(desc_s, theta_s, stats_s, pop_s)
        assert off_reg.norm > 1e-6
        assert off_gen.norm > 1e-9

    def test_zero_denominator_raises(self):
        params = af.make_student_t(0.7, [0.0], [[1.0]])
        desc = studentt.decompose(params)
        theta = af.pack_theta(params.mu, params.sigma_inv)
        stats = core.SufficientStats(mean_f=np.zeros(2), mean_q_pow=0.0)
        pop = est.student_t_population_moments(params)
        with pytest.raises(core.DegenerateStatisticsError):
            est.residual_regular_malpha(desc, theta, stats, pop)
