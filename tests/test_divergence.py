import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphafam as af
from alphafam import core, divergence as dv, studentt

N2 = 3.0 / (4.0 * math.sqrt(5.0))
REFERENCE_SAMPLE = np.array([4.6, 4.7, 6.0, 7.0, 8.2, 8.6, 8.7, 8.8, 8.9, 9.0])


class TestHandles:
    def test_discrete_validation(self):
        with pytest.raises(dv.InvalidDistributionError):
            dv.DiscreteDistribution(np.array([0.5, 0.6]))
        with pytest.raises(dv.InvalidDistributionError):
            dv.DiscreteDistribution(np.array([-0.1, 1.1]))
        with pytest.raises(dv.InvalidDistributionError):
            dv.bernoulli(math.nan)
        with pytest.raises(dv.InvalidDistributionError):
            dv.DiscreteDistribution(np.array([math.nan, math.nan]))
        assert dv.bernoulli(0.3).probs.tolist() == [0.7, 0.3]

    def test_continuous_validation(self):
        dv.gaussian(0.0, 1.0).validate()
        t_handle = dv.student_t_1d(af.make_student_t(2.0, [0.0], [[1.0]]))
        t_handle.validate()
        bad = dv.ContinuousDistribution1D(pdf=lambda x: 0.5 * math.exp(-abs(x)), support=(-math.inf, math.inf))
        bad_scaled = dv.ContinuousDistribution1D(pdf=lambda x: 2.0 * bad.pdf(x), support=(-math.inf, math.inf))
        bad.validate()
        with pytest.raises(dv.InvalidDistributionError):
            bad_scaled.validate()

    def test_kind_mismatch(self):
        with pytest.raises(core.DimensionMismatchError):
            dv.i_alpha(dv.bernoulli(0.5), dv.gaussian(0.0, 1.0), 0.5)


class TestIAlpha:
    def test_zero_on_identical_arguments(self):
        g = dv.gaussian(0.0, 1.0)
        assert abs(dv.i_alpha(g, g, 0.5)) <= 1e-9
        b = dv.bernoulli(0.3)
        assert abs(dv.i_alpha(b, b, 0.5)) <= 1e-9

    def test_two_atom_hand_computation(self):
        # direct evaluation of the three sums for Bernoulli(0.3), Bernoulli(0.5)
        p, q, alpha = np.array([0.7, 0.3]), np.array([0.5, 0.5]), 2.0
        cross = float(np.sum(p * q ** (alpha - 1.0)))
        expected = (
            alpha / (1.0 - alpha) * math.log(cross)
            - 1.0 / (1.0 - alpha) * math.log(float(np.sum(p**alpha)))
            + math.log(float(np.sum(q**alpha)))
        )
        got = dv.i_alpha(dv.bernoulli(0.3), dv.bernoulli(0.5), 2.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(math.log(1.16), rel=1e-12)

    def test_gaussian_near_one_approaches_kl(self):
        p, q = dv.gaussian(0.0, 1.0), dv.gaussian(0.5, 1.0)
        assert abs(dv.i_alpha(p, q, 0.999) - 0.125) < 1e-2

    @pytest.mark.parametrize("alpha", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_limit_consistency_both_pairs(self, alpha):
        gp, gq = dv.gaussian(0.0, 1.0), dv.gaussian(0.5, 1.0)
        assert abs(dv.i_alpha(gp, gq, alpha) - dv.kl(gp, gq)) <= 5e-3
        bp, bq = dv.bernoulli(0.3), dv.bernoulli(0.5)
        assert abs(dv.i_alpha(bp, bq, alpha) - dv.kl(bp, bq)) <= 5e-3

    def test_infinite_when_q_misses_p_mass(self):
        p = dv.DiscreteDistribution(np.array([0.5, 0.5]))
        q = dv.DiscreteDistribution(np.array([1.0, 0.0]))
        assert dv.i_alpha(p, q, 0.5) == math.inf
        # compact supports that do not overlap: first term degenerates
        t_a = dv.student_t_1d(af.make_student_t(2.0, [0.0], [[1.0]]))
        t_b = dv.student_t_1d(af.make_student_t(2.0, [100.0], [[1.0]]))
        assert dv.i_alpha(t_a, t_b, 2.0) == math.inf

    @given(
        st.sampled_from([0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_pythagorean_identity_through_the_matching_t(self, alpha, m, v, m2, v2):
        # p* is the order-alpha t with p's mean and variance, q any order-alpha t.
        # The log terms carry weights up to alpha/(1-alpha) = 99, which amplify
        # the default epsrel of 1e-8 past the bound, so integrate more tightly.
        p = dv.gaussian(m, v)
        p_star = dv.student_t_1d(af.make_student_t(alpha, [m], [[v]]))
        q = dv.student_t_1d(af.make_student_t(alpha, [m2], [[v2]]))
        divergence = lambda a, b: dv.i_alpha(a, b, alpha, epsabs=1e-12, epsrel=1e-10)
        whole = divergence(p, q)
        residual = whole - divergence(p, p_star) - divergence(p_star, q)
        assert abs(residual) <= 1e-8 * max(1.0, whole)

    def test_alpha_domain_checked(self):
        g = dv.gaussian(0.0, 1.0)
        with pytest.raises(core.ParameterError):
            dv.i_alpha(g, g, 1.0)
        with pytest.raises(core.ParameterError):
            dv.i_alpha(g, g, -0.5)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_on_random_discrete_pairs(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(m))
        p = p / p.sum()
        q = q / q.sum()
        alpha = float(rng.uniform(0.1, 3.0))
        if abs(alpha - 1.0) < 1e-3:
            alpha = 1.2
        value = dv.i_alpha(dv.DiscreteDistribution(p), dv.DiscreteDistribution(q), alpha)
        assert value >= -1e-9


class TestKL:
    def test_zero_on_identical(self):
        g = dv.gaussian(1.0, 2.0)
        assert abs(dv.kl(g, g)) <= 1e-9

    def test_bernoulli_two_term_sum(self):
        expected = 0.3 * math.log(0.6) + 0.7 * math.log(1.4)
        assert dv.kl(dv.bernoulli(0.3), dv.bernoulli(0.5)) == pytest.approx(expected, rel=1e-14)

    def test_gaussian_closed_form(self):
        # equal variances: KL = (mu difference)^2 / 2
        assert dv.kl(dv.gaussian(0.0, 1.0), dv.gaussian(0.5, 1.0)) == pytest.approx(0.125, abs=1e-9)

    def test_support_violation_infinite(self):
        p = dv.DiscreteDistribution(np.array([0.5, 0.5]))
        q = dv.DiscreteDistribution(np.array([1.0, 0.0]))
        assert dv.kl(p, q) == math.inf
        wide = dv.gaussian(0.0, 1.0)
        narrow = dv.student_t_1d(af.make_student_t(2.0, [0.0], [[1.0]]))
        assert dv.kl(wide, narrow) == math.inf


class TestGeneralizedLogLikelihood:
    def test_alpha2_power_integral_closed_form(self):
        p = af.make_student_t(2.0, [0.0], [[1.0]])
        assert math.log(studentt.density_power_integral(p)) == pytest.approx(
            math.log(4.0 * N2 / 5.0), rel=1e-14
        )

    @pytest.mark.parametrize("alpha,sigma2", [(0.6, 1.0), (0.8, 2.5), (2.0, 1.0), (3.0, 0.7)])
    def test_power_integral_matches_quadrature(self, alpha, sigma2):
        from scipy.integrate import quad

        p = af.make_student_t(alpha, [0.3], [[sigma2]])
        closed = studentt.density_power_integral(p)
        if alpha < 1.0:
            lo, hi = -np.inf, np.inf
        else:
            r = math.sqrt(p.support.radius_sq * sigma2)
            lo, hi = 0.3 - r, 0.3 + r
        numeric = quad(lambda x: studentt.density(p, [x]) ** alpha, lo, hi, epsabs=1e-12, epsrel=1e-10)[0]
        assert abs(closed - numeric) < 1e-8

    def test_all_points_outside_support_gives_minus_infinity(self):
        p = af.make_student_t(2.0, [100.0], [[1.0]])
        batch = af.SampleBatch(REFERENCE_SAMPLE)
        assert dv.generalized_log_likelihood(p, batch) == -math.inf

    def test_reference_sample_value_and_ranking(self):
        batch = af.SampleBatch(REFERENCE_SAMPLE)
        at = {}
        for mu in (8.46, 6.84):
            params = af.make_student_t(2.0, [mu], [[1.0]])
            at[mu] = dv.generalized_log_likelihood(params, batch)
            # check against the explicit two-term expression
            ell = sum(
                max(0.0, 1.0 - (x - mu) ** 2 / 5.0) for x in REFERENCE_SAMPLE
            )
            expected = 2.0 * math.log(N2 * ell / 10.0) - math.log(4.0 * N2 / 5.0)
            assert at[mu] == pytest.approx(expected, rel=1e-12)
        assert at[8.46] > at[6.84]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_alpha_to_one_approaches_mean_gaussian_log_likelihood(self, d):
        rng = np.random.default_rng(60 + d)
        a_mat = rng.normal(size=(d, d))
        mu, sigma = rng.normal(size=d), a_mat @ a_mat.T + d * np.eye(d)
        batch = af.SampleBatch(rng.multivariate_normal(mu, sigma, size=500))
        r = batch.data - mu
        mahalanobis = np.einsum("ni,ij,nj->n", r, np.linalg.inv(sigma), r)
        logdet = np.linalg.slogdet(sigma)[1]
        gauss = -0.5 * (d * math.log(2.0 * math.pi) + logdet + float(np.mean(mahalanobis)))
        for side in (-1.0, 1.0):
            gaps = []
            for eps in (1e-3, 1e-4):
                model = af.make_student_t(1.0 + side * eps, mu, sigma)
                gaps.append(abs(dv.generalized_log_likelihood(model, batch) - gauss))
                assert gaps[-1] <= d * eps
            assert gaps[1] <= gaps[0] / 5.0

    def test_monotone_agreement_with_compact_objective(self):
        from alphafam import compact

        batch = af.SampleBatch(REFERENCE_SAMPLE)
        grid = [c.maximizer for c in compact.enumerate_segments(batch)]
        loglik_values = [
            dv.generalized_log_likelihood(af.make_student_t(2.0, [mu], [[1.0]]), batch)
            for mu in grid
        ]
        ell_values = [
            sum(max(0.0, 1.0 - (x - mu) ** 2 / 5.0) for x in REFERENCE_SAMPLE) for mu in grid
        ]
        assert int(np.argmax(loglik_values)) == int(np.argmax(ell_values))
