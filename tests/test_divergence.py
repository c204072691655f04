import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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

    def test_kind_mismatch(self):
        with pytest.raises(core.DimensionMismatchError):
            dv.i_alpha(dv.bernoulli(0.5), dv.Gaussian(0.0, 1.0), 0.5)


class TestIAlpha:
    def test_zero_on_identical_arguments(self):
        g = dv.Gaussian(0.0, 1.0)
        assert abs(dv.i_alpha(g, g, 0.5)) <= 1e-9
        b = dv.bernoulli(0.3)
        assert abs(dv.i_alpha(b, b, 0.5)) <= 1e-9

    @given(st.integers(1, 3), st.integers(0, 10**6), st.sampled_from([0.3, 0.999999, 1.000001, 1.5, 1e5, 1e100]))
    @settings(max_examples=40, deadline=None)
    def test_identical_gaussians_give_exactly_zero(self, d, seed, alpha):
        # Whitening Sigma_q by its own Cholesky factor would leave eigenvalues a few ulps from 1.
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(d, d))
        mu, sigma = rng.uniform(-1.0, 1.0, size=d), a @ a.T + rng.uniform(0.3, 2.0) * np.eye(d)
        assert dv.i_alpha(dv.Gaussian(mu, sigma), dv.Gaussian(mu.copy(), sigma.copy()), alpha) == 0.0

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
        p, q = dv.Gaussian(0.0, 1.0), dv.Gaussian(0.5, 1.0)
        assert abs(dv.i_alpha(p, q, 0.999) - 0.125) < 1e-2

    @given(st.sampled_from(["gaussian", "discrete"]), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    # p and q 1e-5 apart: the sums' logs must keep their digits near alpha = 1.
    @example("discrete", 1, 58442)
    def test_limit_consistency_both_pairs(self, kind, d, seed):
        # I_alpha = KL + c1 (alpha - 1) + c2 (alpha - 1)^2 + ..., and c1 takes
        # either sign, so one side alone can cancel at a given eps; the larger
        # gap of alpha = 1 +- eps is |c1| eps + |c2| eps^2, tenfold smaller
        # per decade of eps.
        rng = np.random.default_rng(seed)
        if kind == "gaussian":
            def moments():
                a = rng.uniform(-1.0, 1.0, size=(d, d))
                return rng.uniform(-1.0, 1.0, size=d), a @ a.T + rng.uniform(0.3, 2.0) * np.eye(d)

            p, q = dv.Gaussian(*moments()), dv.Gaussian(*moments())
        else:  # d + 1 atoms, each of mass at least 0.1 / (d + 1)
            p, q = (dv.DiscreteDistribution(0.9 * rng.dirichlet(np.ones(d + 1)) + 0.1 / (d + 1)) for _ in "pq")
        kl = dv.kl(p, q)
        gaps = [max(abs(dv.i_alpha(p, q, 1.0 + side * eps) - kl) for side in (-1.0, 1.0)) for eps in (1e-3, 1e-4)]
        assert gaps[1] <= gaps[0] / 5.0

    def test_discrete_sums_outside_the_float_range_are_logged_in_the_log_domain(self):
        # 80-digit mpmath values.  At alpha = 2000 q's sums underflow to 0 and p's power sum is subnormal; at
        # alpha = 0.001 the cross sum overflows, without a warning.
        assert abs(dv.i_alpha(dv.bernoulli(0.3), dv.bernoulli(0.6), 2000.0) - 0.84772172124782750) <= 1e-12
        # Subnormal sums, which keep few digits: the cross sum and q's power sum at 1450 (once 3.6e-6 off), p's
        # power sum at 2050 (once 3.5e-10 off).
        assert abs(dv.i_alpha(dv.bernoulli(0.3), dv.bernoulli(0.6), 1450.0) - 0.84788260701272969) <= 1e-12
        assert abs(dv.i_alpha(dv.bernoulli(0.3), dv.bernoulli(0.6), 2050.0) - 0.84771137813263422) <= 1e-12
        assert abs(dv.i_alpha(dv.bernoulli(0.5), dv.bernoulli(5e-324), 0.001) - 0.43925716991972611) <= 1e-12
        # A subnormal atom: q's power sum is within 1/16 of 1, but its w x^(alpha-1) is past expm1's range (once
        # +inf), and KL's p/q overflows (once +inf).  50-digit mpmath.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dv.i_alpha(dv.bernoulli(1e-300), dv.bernoulli(5e-324), 0.01)
            assert got == pytest.approx(0.46644507361188478, rel=1e-12, abs=0.0)
            got = dv.kl(dv.bernoulli(0.5), dv.bernoulli(5e-324))
            assert got == pytest.approx(371.52688878013069, rel=1e-12, abs=0.0)
        # Atoms without shared mass leave no cross terms: log 0, so I_alpha is +inf for alpha > 1.
        assert dv._log_cross(dv.bernoulli(0.0), dv.bernoulli(1.0), 3.0) == -math.inf
        assert dv.i_alpha(dv.bernoulli(0.0), dv.bernoulli(1.0), 3.0) == math.inf

    # I_alpha of Gaussian pairs, by 80-digit mpmath (300 digits and more far from 1) from the
    # product-of-Gaussians three-term sum, at the float orders given.
    D2_P, D2_Q = ([0.3, -0.2], [[1.0, 0.3], [0.3, 2.0]]), ([0.0, 0.5], [[1.5, -0.4], [-0.4, 0.8]])
    GAUSSIAN_PINS = [
        ((0.0, 1.0), (0.5, 2.0), 1e-3, 0.34358755069075605016),
        ((0.0, 1.0), (0.5, 2.0), 0.999, 0.15910486634248907389),
        ((0.0, 1.0), (0.5, 2.0), 1.5, 0.14809125508904071539),
        ((0.0, 1.0), (0.5, 2.0), 0.999999, 0.15907362152999869729),
        ((0.0, 1.0), (0.5, 2.0), 1.000001, 0.15907355902999869893),
        ((0.0, 1.0), (0.5, 2.0), 0.999999999, 0.15907359031122265385),
        ((0.0, 1.0), (0.5, 2.0), 1.000000001, 0.15907359024872265215),
        ((0.0, 1.0), (0.5, 2.0), 0.999999999999, 0.15907359028000390402),
        ((0.0, 1.0), (0.5, 2.0), 1.000000000001, 0.15907359027994140193),
        ((0.0, 1.0), (0.0, 2.0), 1e3, 1.5332990616796188e-4),
        ((0.0, 1.0), (0.0, 2.0), 1e5, 1.534254439911337983e-6),
        ((0.0, 1.0), (0.0, 2.0), 1e9, 1.5342640962345375508e-10),
        ((0.0, 1.0), (0.0, 2.0), 1e15, 1.5342640972002724872e-16),
        ((0.0, 1.0), (0.0, 2.0), 1e100, 1.5342640972002734285e-101),
        ((0.0, 1e-300), (0.0, 2e-300), 100.0, 0.0015246762866508231081),
        # 1 + (alpha-1)(lambda-1)/alpha near 0 (lambda = 1e-12), and rounding to 0 (lambda = 1e-300).
        ((0.0, 1e-12), (1.0, 1.0), 1e9, 499500502.9553758813),
        ((0.0, 1e-300), (0.0, 1.0), 1e100, 230.25850929940456838),
        (D2_P, D2_Q, 0.9, 1.2119224731573399592),
        (D2_P, D2_Q, 1.5, 0.53582139319080655967),
        (D2_P, D2_Q, 0.999999999, 0.94557796823207913444),
        (D2_P, D2_Q, 1e6, 0.20837725978286063317),
    ]

    @pytest.mark.parametrize("p,q,alpha,want", GAUSSIAN_PINS)
    def test_gaussians_keep_their_digits_at_any_order(self, monkeypatch, p, q, alpha, want):
        # Near 1 the three terms once lost digits (8.7e-5 off at 1 - 1e-12); far from 1 they refused from about
        # 2.2e4 (89 at variances near 1e-300).  The closed form is neither integrated nor assembled from terms,
        # and keeps its relative digits however small I_alpha is.
        monkeypatch.setattr(dv, "quad", _refuse_quad)
        got = dv.i_alpha(dv.Gaussian(*map(np.array, p)), dv.Gaussian(*map(np.array, q)), alpha)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @given(st.integers(1, 3), st.integers(0, 10**6), st.floats(-2.0, 1.0), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_gaussian_closed_form_matches_the_three_term_sum(self, d, seed, log_gap, below):
        # Where the three terms keep their digits, |1 - alpha| from 1e-2 to 10, they and the closed form agree
        # to a few eps of the terms' magnitudes, with the same +inf decisions.
        gap = 10.0**log_gap
        assume(not (below and gap >= 0.99))
        alpha = 1.0 - gap if below else 1.0 + gap
        rng = np.random.default_rng(seed)

        def moments():
            a = rng.uniform(-1.0, 1.0, size=(d, d))
            return rng.uniform(-1.0, 1.0, size=d), a @ a.T + rng.uniform(0.3, 2.0) * np.eye(d)

        p, q = dv.Gaussian(*moments()), dv.Gaussian(*moments())
        terms = _three_gaussian_terms(p, q, alpha)
        got = dv.i_alpha(p, q, alpha)
        if terms is None:
            assert got == math.inf
        else:
            assert abs(got - sum(terms)) <= 1e-13 * sum(map(abs, terms))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("var_p, var_q", [(1e300, 1e-300), (1e-300, 1e300)])
    def test_gaussian_kl_at_the_ends_of_the_float_range(self, var_p, var_q):
        # KL = (lambda - 1 - log lambda)/2, lambda = 1e+-600: past the float maximum, or (600 log 10 - 1)/2.
        assert dv.kl(dv.Gaussian(0.0, var_p), dv.Gaussian(0.0, var_q)) == (
            math.inf if var_p > var_q else pytest.approx(0.5 * (600.0 * math.log(10.0) - 1.0), rel=1e-14))

    def test_t_pairs_far_from_one_fail_in_the_assembly(self):
        # Terms of size 1.6e5 leave a result of size 0.1: past I_ALPHA_TOL it is only rounding.
        p, q = af.make_student_t(1e5, 0.0, 1.0), af.make_student_t(1e5, 0.0, 2.0)
        with pytest.raises(core.NumericalError) as info:
            dv.i_alpha(p, q, 1e5)
        assert info.value.diagnostics["integral"] == "assembly"
        assert info.value.diagnostics["bound"] > dv.I_ALPHA_TOL

    def test_infinite_when_q_misses_p_mass(self):
        p = dv.DiscreteDistribution(np.array([0.5, 0.5]))
        q = dv.DiscreteDistribution(np.array([1.0, 0.0]))
        assert dv.i_alpha(p, q, 0.5) == math.inf
        # compact supports that do not overlap: first term degenerates
        t_a, t_b = af.make_student_t(2.0, 0.0, 1.0), af.make_student_t(2.0, 100.0, 1.0)
        assert dv.i_alpha(t_a, t_b, 2.0) == math.inf

    @given(
        st.integers(min_value=1, max_value=3),
        st.sampled_from([0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_pythagorean_identity_through_the_matching_t(self, d, alpha, seed):
        # p* is the order-alpha t with p's mean and covariance, q any order-alpha t.
        if alpha <= d / (d + 2.0):
            alpha = 0.5 * (1.0 + d / (d + 2.0))
        rng = np.random.default_rng(seed)

        def moments():
            a = rng.uniform(-1.0, 1.0, size=(d, d))
            return rng.uniform(-3.0, 3.0, size=d), a @ a.T + rng.uniform(0.2, 2.0) * np.eye(d)

        (m, cov), (m2, cov2) = moments(), moments()
        p, p_star = dv.Gaussian(m, cov), af.make_student_t(alpha, m, cov)
        q = af.make_student_t(alpha, m2, cov2)
        whole = dv.i_alpha(p, q, alpha)
        residual = whole - dv.i_alpha(p, p_star, alpha) - dv.i_alpha(p_star, q, alpha)
        assert abs(residual) <= 1e-8 * max(1.0, whole)

    def test_alpha_domain_checked(self):
        g = dv.Gaussian(0.0, 1.0)
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


def _law(r):
    """(log density, support) of a d = 1 record, from the textbook forms.

    A t of order a < 1 is Student's t with nu = 2/(1 - a) - 1 and scale
    s = sqrt(var (nu - 2)/nu).  One of order a > 1 is (1 - y^2)^m, m =
    1/(a - 1), on y = (x - mu)/R in (-1, 1) with R^2 = var (3a - 1)/(a - 1):
    (y + 1)/2 is Beta(m + 1, m + 1).
    """
    mu, var = float(r.mu[0]), float(r.sigma[0, 0])
    if isinstance(r, dv.Gaussian):
        c = -0.5 * math.log(2.0 * math.pi * var)
        return (lambda x: c - 0.5 * (x - mu) ** 2 / var), (-math.inf, math.inf)
    a = r.alpha
    if a < 1.0:
        nu = 2.0 / (1.0 - a) - 1.0
        s2 = var * (nu - 2.0) / nu
        c = math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu) - 0.5 * math.log(nu * math.pi * s2)
        return (lambda x: c - 0.5 * (nu + 1.0) * math.log1p((x - mu) ** 2 / (nu * s2))), (-math.inf, math.inf)
    m, half = 1.0 / (a - 1.0), math.sqrt(var * (3.0 * a - 1.0) / (a - 1.0))
    log_beta = 2.0 * math.lgamma(m + 1.0) - math.lgamma(2.0 * m + 2.0)
    c = -log_beta - 2.0 * m * math.log(2.0) - math.log(2.0 * half)

    def log_pdf(x):
        y2 = ((x - mu) / half) ** 2
        return c + m * math.log1p(-y2) if y2 < 1.0 else -math.inf

    return log_pdf, (mu - half, mu + half)


def _scipy_quad(fn, lo, hi):
    from scipy import integrate

    return integrate.quad(fn, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=500)[0]


def _quadrature_i_alpha(p, q, alpha):
    """I_alpha of two d = 1 records from scipy quadrature of all three terms, over the overlap of the supports."""
    (log_p, (plo, phi)), (log_q, (qlo, qhi)) = _law(p), _law(q)
    lo, hi = max(plo, qlo), min(phi, qhi)
    cross = _scipy_quad(lambda x: math.exp(log_p(x) + (alpha - 1.0) * log_q(x)), lo, hi)
    power_p = _scipy_quad(lambda x: math.exp(alpha * log_p(x)), plo, phi)
    power_q = _scipy_quad(lambda x: math.exp(alpha * log_q(x)), qlo, qhi)
    return alpha / (1.0 - alpha) * math.log(cross) - math.log(power_p) / (1.0 - alpha) + math.log(power_q)


def _quadrature_kl(p, q):
    """KL of two d = 1 records from scipy quadrature, for supp p inside supp q."""
    (log_p, (plo, phi)), (log_q, _) = _law(p), _law(q)
    return _scipy_quad(lambda x: math.exp(log_p(x)) * (log_p(x) - log_q(x)), plo, phi)


def _normal_i_alpha(m, v, m2, v2, alpha):
    """I_alpha(N(m, v), N(m2, v2)) from the 1-D product-of-Gaussians formula."""
    beta = alpha - 1.0
    precision = 1.0 / v + beta / v2
    if precision <= 0.0:
        return math.inf
    lin = m / v + beta * m2 / v2
    quadratic = m * m / v + beta * m2 * m2 / v2 - lin * lin / precision
    log_cross = (-0.5 * math.log(2 * math.pi * v) - 0.5 * beta * math.log(2 * math.pi * v2)
                 + 0.5 * math.log(2 * math.pi / precision) - 0.5 * quadratic)
    log_pow = lambda var: 0.5 * (1.0 - alpha) * math.log(2 * math.pi * var) - 0.5 * math.log(alpha)
    return alpha / (1 - alpha) * log_cross - log_pow(v) / (1 - alpha) + log_pow(v2)


def _three_gaussian_terms(p, q, alpha):
    """The weighted terms alpha/(1-alpha) log Int p q^(alpha-1), -log Int p^alpha/(1-alpha) and log Int q^alpha.

    For two Gaussians, each in closed form; None where the cross term is +inf (Sigma_q + (alpha-1) Sigma_p is not
    positive definite).
    """
    beta, d, delta = alpha - 1.0, p.dim, p.mu - q.mu
    mix = q.sigma + beta * p.sigma
    eigvals = np.linalg.eigvalsh(mix)
    if eigvals[0] <= 0.0:
        return None
    log_cross = (-0.5 * beta * d * dv.LOG_2PI + 0.5 * (1.0 - beta) * q.logdet - 0.5 * float(np.sum(np.log(eigvals)))
                 - 0.5 * beta * float(delta @ np.linalg.solve(mix, delta)))
    log_power = [-0.5 * beta * (d * dv.LOG_2PI + r.logdet) - 0.5 * d * math.log(alpha) for r in (p, q)]
    return alpha / (1.0 - alpha) * log_cross, -log_power[0] / (1.0 - alpha), log_power[1]


def _refuse_quad(*args, **kwargs):
    raise AssertionError("a closed-form pair reached quadrature")


class TestClosedForms:
    @pytest.mark.parametrize("var", [1e-10, 1e-14, 1e-20, 1e300])
    def test_narrow_and_wide_gaussians(self, var):
        # Quadrature over the real line misses the mass of a narrow p entirely.
        p, q = dv.Gaussian(0.0, var), dv.Gaussian(0.0, 1.0)
        assert dv.kl(p, q) == pytest.approx(0.5 * (var - 1.0 - math.log(var)), rel=1e-13)
        want = _normal_i_alpha(0.0, var, 0.0, 1.0, 0.5)
        assert dv.i_alpha(p, q, 0.5) == (math.inf if want == math.inf else pytest.approx(want, rel=1e-13))

    def test_alpha_near_one_keeps_precision(self):
        # Weights alpha/(1-alpha) = 99 amplify a default quadrature tolerance
        # into a 4e-6 relative error.  Reference: mpmath at 40 digits.
        got = dv.i_alpha(af.make_student_t(0.99, 0.0, 1.26171875), af.make_student_t(0.99, 0.0, 1.0), 0.99)
        assert got == pytest.approx(0.014535526027393640614, rel=1e-9)

    @given(
        st.sampled_from(["t/t", "gaussian/t", "gaussian/gaussian"]),
        st.sampled_from([0.6, 0.8, 0.9, 0.999, 1.5]),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.3, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_forms_match_quadrature(self, kind, alpha, m, v, m2, v2):
        # Gaussian pairs are checked against the textbook form instead: where
        # 1/v + (alpha-1)/v2 is near 0 the cross integrand is wide and
        # quadrature at these tolerances is off by up to 1e-8 (mpmath at 40
        # digits agrees with the closed form to 2e-16).
        if kind == "t/t" and alpha > 1.0:
            # nest supp p inside supp q, where the cross term is affine
            r = math.sqrt(v * (3 * alpha - 1) / (alpha - 1))
            m2, v2 = m + 0.5 * (m2 - m), v * (1.0 + abs(m2 - m) / r) ** 2 * 1.1
        if kind == "gaussian/t" and alpha > 1.0:
            return  # a Gaussian leaves a compact support: no closed form
        # Within rounding of 1/v + (alpha-1)/v2 = 0 the value hangs on the
        # inputs' last bits, so no two formulas need agree there.
        assume(kind != "gaussian/gaussian" or abs(1.0 / v + (alpha - 1.0) / v2) > 1e-9 / v)
        p = af.make_student_t(alpha, m, v) if kind == "t/t" else dv.Gaussian(m, v)
        q = dv.Gaussian(m2, v2) if kind == "gaussian/gaussian" else af.make_student_t(alpha, m2, v2)
        got = dv.i_alpha(p, q, alpha)
        if kind == "gaussian/gaussian":
            want = _normal_i_alpha(m, v, m2, v2, alpha)
            want_kl = _quadrature_kl(p, q)
            assert abs(dv.kl(p, q) - want_kl) <= 1e-10 * max(abs(want_kl), 1.0)
            if want == math.inf:
                assert got == math.inf
                return
        else:
            want = _quadrature_i_alpha(p, q, alpha)
        assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)

    @pytest.mark.parametrize("alpha,d", [(0.6, 1), (0.999, 1), (0.8, 3), (1.001, 2), (2.0, 1), (3.0, 3)])
    def test_power_integral_is_the_cross_term_of_a_t_with_itself(self, alpha, d):
        # Both are N^(alpha-1) (1 + b d); the cross term reads d as tr(Sigma^-1 Sigma).
        r = af.make_student_t(alpha, np.arange(d) * 0.3, np.eye(d) + 0.2)
        want = studentt.log_power_integral(r, alpha)
        assert dv._log_t_cross(r, r) == pytest.approx(want, rel=1e-13, abs=1e-14)

    @given(st.sampled_from([0.4, 0.6, 0.8, 0.95, 0.99, 1.01, 1.2, 2.0, 3.0]), st.floats(0.05, 3.0),
           st.floats(-2.0, 2.0), st.floats(0.3, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_power_integral_of_another_order_matches_quadrature(self, order, alpha, m, v):
        # s = alpha/(1 - order) > 1/2 keeps the integral finite; from 3/4 up
        # the tails |x|^(-2s) are light enough for a tight quadrature.
        assume(alpha != order and (order > 1.0 or alpha / (1.0 - order) >= 0.75))
        h = af.make_student_t(order, m, v)
        log_h, (lo, hi) = _law(h)
        want = math.log(_scipy_quad(lambda x: math.exp(alpha * log_h(x)), lo, hi))
        assert dv._log_power(h, alpha) == pytest.approx(want, rel=1e-9, abs=1e-10)

    @pytest.mark.parametrize("order,alpha", [(0.8, 0.5), (0.6, 1.5), (3.0, 0.7), (1.5, 2.5)])
    def test_power_integral_of_another_order_in_two_dimensions(self, order, alpha):
        # A spherical density depends on r alone: Int p^alpha = Int p^alpha 2 pi r dr.
        from scipy import integrate

        r = af.make_student_t(order, [0.4, -0.3], 1.3 * np.eye(2))
        radius = math.sqrt(r.radius_sq * 1.3) if order > 1.0 else math.inf
        numeric, _ = integrate.quad(lambda rho: af.density(r, [0.4 + rho, -0.3]) ** alpha * 2 * math.pi * rho,
                                    0.0, radius, epsabs=1e-13, epsrel=1e-12)
        assert dv._log_power(r, alpha) == pytest.approx(math.log(numeric), rel=1e-10)

    @pytest.mark.parametrize("order,alpha,d", [(0.6, 0.15, 1), (0.6, 0.3, 2), (0.9, 0.1, 3), (0.8, 0.15, 2)])
    def test_divergent_power_integral_gives_infinity(self, monkeypatch, order, alpha, d):
        # alpha/(1 - order) < d/2: the tails of r^alpha decay more slowly than |x|^-d.
        r = af.make_student_t(order, np.zeros(d), np.eye(d))
        monkeypatch.setattr(dv, "quad", _refuse_quad)
        # The cross term would integrate; the power term, decided first, makes the result +inf.
        assert dv.i_alpha(dv.Gaussian(np.zeros(d), np.eye(d)), r, alpha) == math.inf
        assert dv._log_power(r, alpha) == math.inf

    def test_closed_form_pairs_never_integrate(self, monkeypatch):
        monkeypatch.setattr(dv, "quad", _refuse_quad)
        g, t8 = dv.Gaussian(0.0, 1.0), af.make_student_t(0.8, 0.5, 2.0)
        for p, q, alpha in [(g, dv.Gaussian(0.5, 2.0), 0.999), (g, dv.Gaussian(0.5, 2.0), 1.5),
                            (g, t8, 0.8), (t8, af.make_student_t(0.8, 0.0, 1.0), 0.8),
                            (af.make_student_t(2.0, 0.1, 1.0), af.make_student_t(2.0, 0.0, 2.0), 2.0)]:
            assert math.isfinite(dv.i_alpha(p, q, alpha))
        assert dv.i_alpha(af.make_student_t(0.8, 0.0, 1.0), dv.Gaussian(0.5, 1.0), 0.8) == math.inf
        assert dv.i_alpha(dv.Gaussian(0.0, 1.0), dv.Gaussian(0.0, 0.4), 0.5) == math.inf
        assert dv.i_alpha(dv.Gaussian(0.0, 4.0), dv.Gaussian(0.0, 0.5), 0.875) == math.inf  # exactly 0
        for p in (g, t8, af.make_student_t(3.0, 0.0, 1.0)):
            assert math.isfinite(dv.kl(p, dv.Gaussian(0.5, 2.0)))
        assert dv.kl(g, af.make_student_t(2.0, 0.0, 1.0)) == math.inf

    def test_cross_term_against_dblquad(self):
        from scipy import integrate, stats

        alpha = 0.8
        p = dv.Gaussian([0.3, -0.2], [[1.0, 0.3], [0.3, 0.5]])
        q = af.make_student_t(alpha, [0.1, 0.4], [[2.0, -0.4], [-0.4, 1.0]])
        density = stats.multivariate_normal(p.mu, p.sigma).pdf
        numeric, _ = integrate.dblquad(
            lambda y, x: density([x, y]) * af.density(q, [x, y]) ** (alpha - 1.0),
            -12.0, 12.0, -12.0, 12.0, epsabs=1e-12, epsrel=1e-10)
        assert math.exp(dv._log_t_cross(p, q)) == pytest.approx(numeric, rel=1e-9)

    def test_digamma_against_scipy(self):
        from scipy import special

        for x in np.concatenate([np.linspace(0.05, 12.0, 240), np.geomspace(12.0, 1e8, 60)]):
            assert abs(dv._digamma(float(x)) - special.digamma(x)) <= 1e-14 * max(1.0, abs(special.digamma(x)))

    @pytest.mark.parametrize("alpha", [0.6, 0.8, 0.95, 1.5, 3.0])
    def test_kl_from_a_t_to_a_gaussian(self, alpha):
        from scipy import stats

        p, q = af.make_student_t(alpha, 0.3, 1.7), dv.Gaussian(-0.2, 0.9)
        if alpha < 1.0:
            nu = 2.0 / (1.0 - alpha) - 1.0
            entropy = stats.t(df=nu, scale=math.sqrt(1.7 * (nu - 2.0) / nu)).entropy()
        else:  # see _law
            m, half = 1.0 / (alpha - 1.0), math.sqrt(1.7 * (3.0 * alpha - 1.0) / (alpha - 1.0))
            entropy = stats.beta(m + 1.0, m + 1.0, scale=2.0 * half).entropy()
        cross_entropy = 0.5 * (math.log(2 * math.pi * 0.9) + (1.7 + 0.5**2) / 0.9)
        assert dv.kl(p, q) == pytest.approx(cross_entropy - entropy, rel=1e-12)
        if alpha > 1.0:  # compact support: the quadrature is accurate
            assert dv.kl(p, q) == pytest.approx(_quadrature_kl(p, q), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.8, 3.0])
    def test_t_entropy_in_two_dimensions(self, alpha):
        # A spherical density depends on r alone: h = -Int p log p 2 pi r dr.
        from scipy import integrate

        r = af.make_student_t(alpha, [0.0, 0.0], np.eye(2))
        radius = math.sqrt(r.radius_sq) if alpha > 1.0 else math.inf
        p = lambda rho: af.density(r, [rho, 0.0])
        numeric, _ = integrate.quad(lambda rho: -p(rho) * math.log(p(rho)) * 2 * math.pi * rho if p(rho) > 0 else 0.0,
                                    0.0, radius, epsabs=1e-13, epsrel=1e-12)
        assert dv._entropy(r) == pytest.approx(numeric, rel=1e-10)

    def test_support_nesting_against_sampled_boundaries(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3):
            for _ in range(5):
                a, b = rng.normal(size=(d, d)), rng.normal(size=(d, d))
                p = af.make_student_t(2.0, rng.normal(size=d), a @ a.T + 0.3 * np.eye(d))
                q = af.make_student_t(3.0, rng.normal(size=d), b @ b.T + 0.3 * np.eye(d))
                u = rng.normal(size=(20000, d))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                boundary = p.mu + u @ np.linalg.cholesky(p.radius_sq * p.sigma).T
                r = boundary - q.mu
                sampled = float(np.max(np.einsum("ni,ij,nj->n", r, q.sigma_inv, r)))
                got = dv._max_radius_sq(p, q)
                assert sampled <= got * (1 + 1e-12) and got <= sampled * (1 + 2e-3)

    def test_records_in_any_dimension(self):
        cov = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 0.5]])
        delta = np.array([0.1, -0.2, 0.3])
        g, g2 = dv.Gaussian(np.zeros(3), cov), dv.Gaussian(delta, 1.5 * cov)
        mahalanobis = float(delta @ np.linalg.inv(cov) @ delta)
        want = 0.5 * (3 / 1.5 - 3 + mahalanobis / 1.5 + 3 * math.log(1.5))
        assert dv.kl(g, g2) == pytest.approx(want, rel=1e-12)
        small = af.make_student_t(2.0, [0.1, 0.0, 0.0], cov)
        big = af.make_student_t(2.0, np.zeros(3), 2.0 * cov)
        assert dv.i_alpha(small, small, 2.0) == pytest.approx(0.0, abs=1e-12)
        assert dv.i_alpha(small, big, 2.0) > 0.0
        assert dv.kl(big, small) == math.inf
        assert dv.i_alpha(big, small, 0.5) == math.inf
        with pytest.raises(core.DimensionMismatchError, match="quadrature needs d = 1"):
            dv.i_alpha(big, small, 2.0)
        with pytest.raises(core.DimensionMismatchError, match="quadrature needs d = 1"):
            dv.kl(small, big)
        with pytest.raises(core.DimensionMismatchError, match="one dimension"):
            dv.i_alpha(g, dv.Gaussian(0.0, 1.0), 0.8)

    @pytest.mark.filterwarnings("error")
    def test_gaussian_whose_inverse_overflows_is_rejected(self):
        with pytest.raises(core.ParameterError) as err:
            dv.kl(dv.Gaussian([0.0, 0.0], np.eye(2)), dv.Gaussian([0.0, 0.0], 1e-308 * np.array([[1.0, 0.3], [0.3, 0.5]])))
        assert err.value.code == core.SIGMA_INVERSE_NOT_FINITE

    def test_quadrature_failure_names_the_integral(self, monkeypatch):
        def failing(func, a, b, **kwargs):
            raise core.NumericalError("did not converge", {"interval": [a, b], **kwargs, "abserr": 0.25, "neval": 4221})

        monkeypatch.setattr(dv, "quad", failing)
        p, q = af.make_student_t(2.0, 0.0, 1.0), af.make_student_t(2.0, 0.5, 1.0)
        with pytest.raises(core.NumericalError) as err:
            dv.i_alpha(p, q, 2.0)
        root5 = math.sqrt(5.0)
        assert err.value.diagnostics == {"integral": "cross", "interval": [0.5 - root5, root5],
                                         "epsabs": 0.0, "epsrel": 2.5e-11, "abserr": 0.25, "neval": 4221}
        with pytest.raises(core.NumericalError) as err:
            dv.i_alpha(af.make_student_t(0.8, 0.0, 1.0), af.make_student_t(0.6, 0.0, 1.0), 0.8)
        assert err.value.diagnostics["integral"] == "cross"
        with pytest.raises(core.NumericalError) as err:
            dv.kl(af.make_student_t(0.8, 0.0, 1.0), af.make_student_t(0.8, 0.5, 1.0))
        assert err.value.diagnostics["integral"] == "kl"
        assert err.value.diagnostics["interval"] == [-math.inf, math.inf]

    def test_real_quadrature_failure_carries_its_estimate(self, monkeypatch):
        # Too few subintervals for a zero tolerance: quad's own failure, named.
        real_quad = dv.quad
        monkeypatch.setattr(dv, "quad", lambda f, a, b, **kwargs: real_quad(f, a, b, epsabs=0.0, epsrel=0.0))
        p, q = af.make_student_t(0.8, 0.0, 1.0), af.make_student_t(0.6, 0.0, 1.0)
        with pytest.raises(core.NumericalError) as err:
            dv.i_alpha(p, q, 0.8)
        diagnostics = err.value.diagnostics
        assert diagnostics["integral"] == "cross" and diagnostics["limit"] == 200
        assert diagnostics["abserr"] > 0.0 and diagnostics["neval"] % 21 == 0


class TestQuad:
    @pytest.mark.parametrize("f,a,b", [
        (lambda x: np.cos(3.0 * x) * np.exp(-x), 0.0, 3.0),
        (lambda x: np.exp(-x) / (1.0 + x), 0.5, math.inf),
        (lambda x: 1.0 / (1.0 + x * x), -math.inf, 2.0),
        (lambda x: np.exp(-0.5 * x * x) * np.cos(x), -math.inf, math.inf),
        (lambda x: x**-0.5, 0.0, 1.0),
        (lambda x: (1.0 + x * x) ** -0.6, -math.inf, math.inf),
        (lambda x: x**-1.25, 1.0, math.inf),
        (lambda x: (1.0 - x) ** -0.25, 0.0, 1.0),
    ], ids=["finite", "to-inf", "from-inf", "whole-line", "endpoint-singular", "slow-tails", "slow-tail",
            "far-end-singular"])
    def test_agrees_with_scipy(self, f, a, b):
        from scipy import integrate

        sizes = []

        def batched(x):
            sizes.append(x.size)
            return f(x)

        value, abserr, neval = dv.quad(batched, a, b, epsabs=1e-13, epsrel=1e-12)
        want = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        assert abs(value - want) <= 1e-10 * abs(want)
        assert abserr <= max(1e-13, 1e-12 * abs(value))
        # One call of f per round, on 21 nodes of every new subinterval.
        assert neval == sum(sizes) and all(size % 21 == 0 for size in sizes)

    @pytest.mark.parametrize("a,b", [(3.0, -1.0), (2.0, 2.0)], ids=["reversed", "empty"])
    def test_reversed_and_empty_ranges(self, a, b):
        from scipy import integrate

        f = lambda x: np.cos(3.0 * x) * np.exp(-x)
        value, abserr, _ = dv.quad(f, a, b, epsabs=1e-13, epsrel=1e-12)
        want = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert abserr <= max(1e-13, 1e-12 * abs(value))

    def test_non_convergent_integrand_raises_with_diagnostics(self):
        with pytest.raises(core.NumericalError, match="200 subintervals") as err:
            dv.quad(lambda x: 1.0 / x, 0.0, 1.0, epsabs=1e-10, epsrel=1e-8)
        diagnostics = err.value.diagnostics
        assert {k: diagnostics[k] for k in ("interval", "epsabs", "epsrel", "limit")} == {
            "interval": [0.0, 1.0], "epsabs": 1e-10, "epsrel": 1e-8, "limit": 200}
        assert diagnostics["abserr"] > 1.0 and diagnostics["neval"] > 200 * 21 // 2
        with pytest.raises(core.NumericalError, match="not finite"):
            dv.quad(lambda x: np.full(x.shape, np.nan), 0.0, 1.0, epsabs=1e-10, epsrel=1e-8)

    def test_infinite_values_raise_the_classified_failure_without_a_warning(self):
        # inf on part of the first round: its Kronrod and Gauss sums would give inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(core.NumericalError, match="not finite") as err:
                dv.quad(lambda x: np.where(x < 0.3, np.inf, 1.0), 0.0, 1.0, epsabs=1e-10, epsrel=1e-8)
        diagnostics = err.value.diagnostics
        assert {k: diagnostics[k] for k in ("interval", "epsabs", "epsrel", "limit", "neval")} == {
            "interval": [0.0, 1.0], "epsabs": 1e-10, "epsrel": 1e-8, "limit": 200, "neval": 21}

    def test_integrand_near_the_float_maximum(self):
        # each node value times its interval's half-width is finite, though the value times the map's Jacobian is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, abserr, _ = dv.quad(lambda x: np.full(x.shape, 1e308), 0.0, 1.0, epsabs=1e-10, epsrel=1e-8)
        assert value == pytest.approx(1e308, rel=1e-12, abs=0.0)
        assert abserr <= 1e-8 * value


_GRID_ORDERS = [None, 0.6, 0.8, 0.95, 1.5, 2.0, 5.0]  # None: a Gaussian


def _grid_record(order, mu, var):
    return dv.Gaussian(mu, var) if order is None else af.make_student_t(order, mu, var)


def _within(p, q):
    (plo, phi), (qlo, qhi) = (_law(r)[1] for r in (p, q))
    return qlo <= plo and phi <= qhi


def _infinite_by_rule(p, q, alpha):
    """Whether I_alpha(p, q) is +inf by the finiteness rules, restated for d = 1 records from their orders."""
    order_p, order_q = (getattr(r, "alpha", None) for r in (p, q))
    if alpha < 1.0 and not _within(p, q):
        return True
    if any(o is not None and o < 1.0 and alpha / (1.0 - o) <= 0.5 for o in (order_p, order_q)):
        return True  # Int r^alpha diverges
    if alpha < 1.0 and order_p is not None and order_p < 1.0:
        if order_q is None:
            return True
        if order_q < 1.0 and order_q != alpha:
            return 2.0 / (1.0 - order_p) - 2.0 * (1.0 - alpha) / (1.0 - order_q) <= 1.0 + 1e-9
    return False


class TestFinitenessRules:
    @pytest.mark.parametrize("alpha", [0.6, 0.8, 0.999, 1.5, 2.0])
    def test_record_grid_is_finite_and_right_or_infinite_by_rule(self, alpha):
        for order_p, order_q in itertools.product(_GRID_ORDERS, repeat=2):
            p, q = _grid_record(order_p, 0.0, 1.0), _grid_record(order_q, 0.5, 2.0)
            got, got_kl = dv.i_alpha(p, q, alpha), dv.kl(p, q)
            if _infinite_by_rule(p, q, alpha):
                assert got == math.inf, (order_p, order_q)
            else:
                want = _quadrature_i_alpha(p, q, alpha)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (order_p, order_q)
            if _within(p, q):
                want_kl = _quadrature_kl(p, q)
                assert abs(got_kl - want_kl) <= 1e-9 * max(1.0, abs(want_kl)), (order_p, order_q)
            else:
                assert got_kl == math.inf, (order_p, order_q)

    @pytest.mark.parametrize("alpha,order_p", [(0.6, 0.6), (0.6, 0.8), (0.8, 0.6)])
    def test_heavier_tails_than_q_allows_are_infinite_without_integrating(self, monkeypatch, alpha, order_p):
        # p's tail |x|^-(nu_p+1) against q^(alpha-1) ~ |x|^((nu_q+1)(1-alpha)), nu_q + 1 = 40.
        monkeypatch.setattr(dv, "quad", _refuse_quad)
        p, q = af.make_student_t(order_p, 0.0, 1.0), af.make_student_t(0.95, 0.5, 2.0)
        assert dv.i_alpha(p, q, alpha) == math.inf

    @pytest.mark.parametrize("excess", [0.2, 0.5, 0.08, 0.06, 0.04, 0.001])
    def test_slowly_falling_tails(self, excess):
        # p t(0.6), q t(0.8): the integrand falls like |x|^-(5 - 10 (1 - alpha)) = |x|^-(1 + excess).
        alpha = 1.0 - (4.0 - excess) / 10.0
        p, q = af.make_student_t(0.6, 0.0, 1.0), af.make_student_t(0.8, 0.5, 2.0)
        if excess < dv.MIN_TAIL_EXCESS:
            with pytest.raises(core.NumericalError, match="too slowly") as err:
                dv.i_alpha(p, q, alpha)
            assert err.value.diagnostics["tail_excess"] == pytest.approx(excess, rel=1e-9)
        else:
            got = dv.i_alpha(p, q, alpha)
            assert got == pytest.approx(_quadrature_i_alpha(p, q, alpha), rel=1e-9)

    def test_shared_end_of_compact_supports(self, monkeypatch):
        # p of order 5 sits inside q of order 1.1 and shares its left end, where
        # the integrand goes like s^(1/(a_p-1) + (alpha-1)/(a_q-1)) = s^(0.25 + 10 (alpha-1)).
        q = af.make_student_t(1.1, 0.0, 1.0)
        half_p = math.sqrt(0.5 * 3.5)
        p = af.make_student_t(5.0, q.support_interval[0] + half_p, 0.5)
        with monkeypatch.context() as patch:
            patch.setattr(dv, "quad", _refuse_quad)
            assert dv.i_alpha(p, q, 0.8) == math.inf  # exponent -1.75
        got = dv.i_alpha(p, q, 0.95)  # exponent -0.25: integrable
        assert got == pytest.approx(_quadrature_i_alpha(p, q, 0.95), rel=1e-9)
        # Moved inside, the supports no longer share an end, and the term is finite.
        inner = af.make_student_t(5.0, q.support_interval[0] + half_p + 0.1, 0.5)
        assert dv.i_alpha(inner, q, 0.8) == pytest.approx(
            _quadrature_i_alpha(inner, q, 0.8), rel=1e-9)


def _pushed(r, a, s):
    """The d = 1 record r pushed through x -> a + s x."""
    mu, var = a + s * float(r.mu[0]), s * s * float(r.sigma[0, 0])
    return dv.Gaussian(mu, var) if isinstance(r, dv.Gaussian) else af.make_student_t(r.alpha, mu, var)


def _exactly_overlapping(p, q):
    """Whether two d = 1 supports, mu +- sqrt(radius_sq sigma), overlap in exact arithmetic on the records' floats."""
    if not (isinstance(p, core.StudentTParams) and isinstance(q, core.StudentTParams) and p.alpha > 1.0 and q.alpha > 1.0):
        return True
    a, b = (Fraction(r.radius_sq) * Fraction(float(r.sigma[0, 0])) for r in (p, q))
    gap = (Fraction(float(q.mu[0])) - Fraction(float(p.mu[0]))) ** 2 - a - b
    return gap < 0 or 4 * a * b > gap**2  # sqrt(a) + sqrt(b) > |mu_q - mu_p|


def _outcome(fn, *args):
    """fn's value, or the type of the library error it raised."""
    try:
        return fn(*args)
    except core.AlphaFamilyError as exc:
        return type(exc)


_records = st.builds(
    _grid_record,
    st.one_of(st.none(), st.floats(0.4, 0.99), st.floats(1.05, 6.0)),
    st.floats(-3.0, 3.0),
    st.floats(0.2, 5.0),
)


class TestAffineInvariance:
    @pytest.mark.parametrize("p,q,alpha,want", [
        ((0.8, 1000.0, 1.0), (0.8, 1000.5, 2.0), 0.8, {"kl": 0.15376533699632}),
        ((0.8, 1000.0, 1.0), (0.6, 1000.5, 2.0), 1.5, {"i_alpha": 0.13827124472494}),
    ])
    def test_records_far_from_the_origin(self, p, q, alpha, want):
        # Whole-line integrals; the values are those of the same pairs moved to mean 0.
        p, q = af.make_student_t(*p), af.make_student_t(*q)
        got = {"kl": dv.kl(p, q), "i_alpha": dv.i_alpha(p, q, alpha)}
        for name, value in want.items():
            assert got[name] == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("centre", [1e5, 1e6])
    def test_narrow_records_far_from_the_origin(self, centre):
        # Each density reads its residual from its own mean, so nodes keep
        # their digits; the value at centre 0 is 2.0027024863648752.
        p, q = af.make_student_t(0.6, centre, 8e-4), af.make_student_t(5.0, centre + 0.033, 0.043)
        assert dv.i_alpha(p, q, 2.0) == pytest.approx(2.0027024863648752, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("order_p, order_q, alpha", [(0.8, 0.8, 1.5), (0.8, 0.6, 1.5), (0.8, 0.6, 0.8),
                                                          (2.0, 0.6, 1.5), (2.0, 5.0, 3.0)])
    def test_an_exactly_representable_offset_keeps_the_bits(self, order_p, order_q, alpha):
        # Compact ends in p's coordinate come from residuals too.
        near = af.make_student_t(order_p, 0.0, 1.0), af.make_student_t(order_q, 0.5, 2.0)
        far = af.make_student_t(order_p, 1000.0, 1.0), af.make_student_t(order_q, 1000.5, 2.0)
        assert dv.kl(*far) == dv.kl(*near)
        assert dv.i_alpha(*far, alpha) == dv.i_alpha(*near, alpha)

    def test_an_overlap_narrower_than_the_spacing_at_its_mean(self):
        # At 1e6 the spacing of x, 1.2e-10, is wider than p's support, of
        # half-width 2.2e-11, so the overlap's ends in x round onto one point;
        # in p's coordinate it is [-sqrt(5), sqrt(5)].
        near = af.make_student_t(2.0, 0.0, 1e-22), af.make_student_t(2.0, 0.0, 1.0)
        far = af.make_student_t(2.0, 1e6, 1e-22), af.make_student_t(2.0, 1e6, 1.0)
        assert dv.kl(*far) == dv.kl(*near) == 25.048063717387755
        assert dv.i_alpha(*far, 1.5) == dv.i_alpha(*near, 1.5) == 24.957091704092175

    @given(_records, _records, st.one_of(st.floats(0.3, 0.99), st.floats(1.01, 3.0)),
           st.floats(-1e3, 1e3), st.floats(-3.0, 3.0))
    @settings(max_examples=100, deadline=None)
    # q 1e-10 above p, both compact: moved, a node inside the overlap in p's
    # coordinate can round in x onto q's end, where q^(alpha-1) is +inf.
    @example(af.make_student_t(2.0, 0.0, 1.0), af.make_student_t(2.0, 1e-10, 1.0), 0.5, 515.0, 0.0)
    @example(af.make_student_t(2.0, 0.0, 1.0), af.make_student_t(2.0, 1e-10, 1.0), 0.5, -3e4, 0.0)
    @example(af.make_student_t(2.0, 0.0, 1.0), af.make_student_t(2.0, 1e-10, 1.0), 0.5, 1e6, 0.0)
    def test_one_affine_map_of_both_records_keeps_the_divergences(self, p, q, alpha, a, log_s):
        s = math.exp(log_s)
        p2, q2 = _pushed(p, a, s), _pushed(q, a, s)
        for fn, args, moved in [(dv.i_alpha, (p, q, alpha), (p2, q2, alpha)), (dv.kl, (p, q), (p2, q2))]:
            got, want = _outcome(fn, *moved), _outcome(fn, *args)
            if isinstance(want, float) and math.isfinite(want):
                assert isinstance(got, float), (fn.__name__, got, want)
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (fn.__name__, got, want)
            else:
                assert got == want, (fn.__name__, got, want)


def _u_quad(fn, lo, hi):
    """Int_lo^hi fn by scipy quadrature, split at 0, +-1, +-10, ..., +-1e16 inside (lo, hi)."""
    marks = [0.0] + [sign * 10.0**k for k in range(17) for sign in (-1.0, 1.0)]
    cuts = sorted({lo, hi, *(m for m in marks if lo < m < hi)})
    return sum(_scipy_quad(fn, x0, x1) for x0, x1 in zip(cuts, cuts[1:]))


def _standardized_i_alpha(p, q, alpha):
    """I_alpha of two d = 1 records from scipy quadrature of each term in a standardized coordinate.

    The cross term and Int p^alpha run in p's u = (x - mu_p)/sqrt(sigma_p),
    Int q^alpha in q's, each with log-spaced breakpoints, so no term misses
    a peak however narrow it is.
    """
    def log_integral(r, lo, hi, log_f):
        mu, s = float(r.mu[0]), math.sqrt(float(r.sigma[0, 0]))
        return math.log(s * _u_quad(lambda u: math.exp(log_f(mu + s * u)), (lo - mu) / s, (hi - mu) / s))

    (log_p, (plo, phi)), (log_q, (qlo, qhi)) = _law(p), _law(q)
    cross = log_integral(p, max(plo, qlo), min(phi, qhi), lambda x: log_p(x) + (alpha - 1.0) * log_q(x))
    power_p = log_integral(p, plo, phi, lambda x: alpha * log_p(x))
    power_q = log_integral(q, qlo, qhi, lambda x: alpha * log_q(x))
    return alpha / (1.0 - alpha) * cross - power_p / (1.0 - alpha) + power_q


class TestNarrowPeaks:
    # scipy quadrature with the range split at mu_p (and at mu_p +- sd).
    WIDE_Q = (2.0, 0.0, 1e6)
    LOG_CROSS = {(500.0, 1.0): -16.102899580808277, (0.3, 0.01): -16.000312655301936}
    I_ALPHA = 6.583150919397308

    @pytest.mark.parametrize("mu,var", list(LOG_CROSS))
    def test_narrow_p_in_a_wide_compact_q(self, mu, var):
        q = af.make_student_t(*self.WIDE_Q)
        assert dv._log_cross(dv.Gaussian(mu, var), q, 3.0) == pytest.approx(self.LOG_CROSS[mu, var], abs=1e-12)
        if var == 1.0:
            assert dv.i_alpha(dv.Gaussian(mu, var), q, 3.0) == pytest.approx(self.I_ALPHA, rel=1e-9)

    @given(st.one_of(st.none(), st.floats(0.4, 0.99)), st.floats(-16.0, 0.0), st.floats(-0.9, 0.9),
           st.floats(1.05, 6.0), st.floats(1.05, 3.0))
    # p's tail meets q's end 60 sd out, where q^(alpha-1) has a kink that an
    # unfolded finite end hides past the outermost node (off by 3.7e-9).
    @example(0.4, -8.2734375, 0.197265625, 5.625, 1.875)
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_standardized_quadrature(self, order_p, log_var, where, order_q, alpha):
        q = af.make_student_t(order_q, 0.0, 1.0)
        p = _grid_record(order_p, where * q.support_interval[1], math.exp(log_var))
        want = _standardized_i_alpha(p, q, alpha)
        assert abs(dv.i_alpha(p, q, alpha) - want) <= 1e-9 * max(1.0, abs(want))

    def test_a_missed_narrow_q_is_a_classified_failure(self):
        # No node lands on q's bump 1.5 sd from p's mean, so the integral reads
        # 0, but the probe at q's mean reads a finite log integrand; mpmath
        # gives I_alpha = 4.0123751349509245.
        with pytest.raises(core.NumericalError, match="gave 0") as err:
            dv.i_alpha(af.make_student_t(0.8, 0.0, 1.0), dv.Gaussian(1.5, 1e-4), 3.0)
        diagnostics = err.value.diagnostics
        assert diagnostics["integral"] == "cross" and diagnostics["interval"] == [-math.inf, math.inf]
        assert diagnostics["cross"] == 0.0 and diagnostics["peak"][0] == 1.5 and math.isfinite(diagnostics["peak"][1])

    def test_failure_names_the_overlap_in_x(self, monkeypatch):
        seen = []

        def failing(func, a, b, **kwargs):
            seen.append((a, b))
            raise core.NumericalError("did not converge", {"interval": [a, b], **kwargs, "abserr": 0.25, "neval": 4221})

        monkeypatch.setattr(dv, "quad", failing)
        q = af.make_student_t(*self.WIDE_Q)
        lo, hi = q.support_interval
        with pytest.raises(core.NumericalError) as err:
            dv.i_alpha(dv.Gaussian(500.0, 4.0), q, 3.0)
        assert err.value.diagnostics["interval"] == [lo, hi]
        # quad itself ran in p's standardized coordinate.
        assert seen == [((lo - 500.0) / 2.0, (hi - 500.0) / 2.0)]


class TestOverflowingCrossTerm:
    """A finite cross term whose integrand leaves the float range is integrated shifted in the log domain.

    Each p is compact and each q a narrow Gaussian.  In the first four,
    q^(alpha-1) passes e^709 near the ends of supp p; in the last, the whole
    integrand lies below e^-44000, where the cross term used to read -inf.
    References: mpmath at 40 digits, from the same float records, the range
    split at the log integrand's peak.
    """

    # (p, q, alpha): (log Int p q^(alpha-1), I_alpha)
    CASES = {
        ((1.06, -2.6, 4.3), (-2.85, 0.027), 0.35): (1855.1659765370371, 996.46669779517656),
        ((1.06, 0.8, 0.7), (0.34, 6e-6), 0.35): (1640195.5202767109, 883177.90819725243),
        ((1.06, 999995.3, 25.0), (999998.4, 0.08), 0.5): (3342.8553675944173, 3339.8298616291944),
        ((5.0, 0.35, 4.5), (-1.58, 0.01), 0.2): (1380.7430712819452, 342.81562538428321),
        ((2.0, 0.0, 1e-4), (3.0, 1e-4), 2.0): (-44340.591486717050, 88687.812257102608),
    }

    @pytest.mark.parametrize("p, q, alpha", list(CASES))
    def test_matches_mpmath(self, p, q, alpha):
        log_cross, want = self.CASES[p, q, alpha]
        p, q = af.make_student_t(*p), dv.Gaussian(*q)
        assert dv._log_cross(p, q, alpha) == pytest.approx(log_cross, rel=1e-12, abs=0.0)
        assert dv.i_alpha(p, q, alpha) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_a_peak_at_the_near_end_of_an_overlap_that_misses_p_mean(self):
        # The overlap [1000001.51, 1000007.42] lies 4.6 above p's mean, and the
        # log integrand, near -1e6, peaks 3e-5 inside its near end, which the
        # end probes approach from the far end.  mpmath at 50 digits.
        p = dv.Gaussian(999996.9033019298, 1.036784680081904e-05)
        q = af.make_student_t(1.1229139049215795, 1000004.4659233815, 0.4526947135359727)
        alpha = 2.741478823516922
        assert dv._log_cross(p, q, alpha) == pytest.approx(-1024614.1167107314948, rel=1e-12, abs=0.0)
        assert dv.i_alpha(p, q, alpha) == pytest.approx(1612975.8322564354898, rel=1e-12, abs=0.0)

    def test_only_an_integrand_that_overflows_is_shifted(self, monkeypatch):
        real_quad, calls = dv.quad, []

        def counted(f, a, b, **kwargs):
            calls.append((a, b))
            return real_quad(f, a, b, **kwargs)

        monkeypatch.setattr(dv, "quad", counted)
        # Each cross term, shifted or not, makes one quad call.
        for p, q, alpha in self.CASES:
            calls.clear()
            dv._log_cross(af.make_student_t(*p), dv.Gaussian(*q), alpha)
            assert len(calls) == 1, (p, q, alpha)
        # An integrand inside the float range is integrated unshifted, to the bits it always had.
        calls.clear()
        p, q = af.make_student_t(2.0, 0.0, 1.0), af.make_student_t(2.0, 0.5, 1.0)
        plain = dv._integrate(p, q, dv._overlap(p, q, "cross"), lambda log_p, log_q: np.exp(log_p + log_q), "cross",
                              (0.0, 2.5e-11))
        assert dv._log_cross(p, q, 2.0) == math.log(plain) == -1.3726756779210696 and len(calls) == 2

    _LOG10_VAR = st.one_of(st.floats(-6.0, -3.0), st.floats(-1.0, 1.5))
    _ORDER = st.one_of(st.none(), st.floats(0.34, 0.97), st.floats(1.03, 5.0))
    _KIND = st.tuples(_ORDER, st.floats(-9.0, 9.0), _LOG10_VAR)

    @given(st.sampled_from([0.0, 1.0, -3e4, 1e6]), _KIND, _KIND, st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 3.0)))
    @settings(max_examples=150, deadline=None)
    @example(0.0, (2.0, 0.0, -4.0), (None, 3.0, -4.0), 2.0)  # the underflowing pair above
    def test_a_non_empty_overlap_never_reads_minus_infinity(self, centre, p, q, alpha):
        # Records drawn as on the seeded grid of d = 1 cross terms: (order or None, offset, log10 variance).
        p, q = (_grid_record(order, centre + offset, 10.0**log_var) for order, offset, log_var in (p, q))
        assume(_exactly_overlapping(p, q))
        got = _outcome(dv._log_cross, p, q, alpha)
        assert got is core.NumericalError or (isinstance(got, float) and got > -math.inf), got
        assert got != math.inf or alpha < 1.0  # for alpha > 1 q^(alpha-1) is bounded


class TestOneDerivation:
    def test_a_compact_pair_derives_its_overlap_and_reach_once(self, monkeypatch):
        counts = {"_overlap": 0, "_max_radius_sq": 0}
        for name in counts:
            def counted(*args, real=getattr(dv, name), name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(dv, name, counted)
        # Nested compact supports at an order of neither: both the containment test and the shared-end rule
        # read the reach, and the cross term is integrated.
        p, q = af.make_student_t(2.0, 0.0, 1.0), af.make_student_t(3.0, 0.5, 4.0)
        assert math.isfinite(dv._log_cross(p, q, 0.8))
        assert counts == {"_overlap": 1, "_max_radius_sq": 1}


class TestTouchingSupports:
    """Compact supports that meet within the rounding of their ends in p's u."""

    @pytest.mark.parametrize("p, q, alpha", [
        # An overlap of 3.2e-16: read as empty, I_alpha was +inf.
        ((3.0, 1.0250929764265087, 1.8726715253049944), (2.0, -1.8470000760507304, 0.0036547951897228418), 1.5),
        # A gap of 1.2e-17: read as an overlap, I_alpha was 192.93.
        ((3.0, -0.7963426083152587, 0.004948351661038075), (3.0, -0.09156279248533124, 0.0795496001744874), 1.5),
        # supp q, of half-width 2.2e-11, inside supp p but narrower than the spacing at 1e6.
        ((2.0, 0.0, 1e12), (2.0, 1e6, 1e-22), 1.5),
    ])
    def test_an_overlap_within_rounding_of_empty_is_a_numerical_error(self, p, q, alpha):
        with pytest.raises(core.NumericalError, match="within rounding of empty") as err:
            dv.i_alpha(af.make_student_t(*p), af.make_student_t(*q), alpha)
        assert err.value.diagnostics["integral"] == "cross"

    @given(st.sampled_from([1.5, 2.0, 3.0, 5.0]), st.sampled_from([1.5, 2.0, 3.0, 5.0]),
           st.sampled_from([0.0, 1.0, 1e3, -7e5, 1e6, 3.3e8]), st.floats(-1.0, 1.0), st.floats(-3.0, 2.0),
           st.floats(-3.0, 2.0), st.sampled_from([-1.0, 1.0]), st.integers(-3, 3), st.sampled_from([1.5, 2.0, 3.0]))
    @settings(max_examples=100, deadline=None)
    def test_right_or_a_numerical_error(self, order_p, order_q, centre, jitter, log_var_p, log_var_q, side, steps,
                                        alpha):
        # q's mean r_p + r_q from p's, then up to 3 float steps either way.
        p = af.make_student_t(order_p, centre + jitter, 10.0**log_var_p)
        q0 = af.make_student_t(order_q, 0.0, 10.0**log_var_q)
        mu_q = float(p.mu[0]) + side * (math.sqrt(p.radius_sq * p.sigma[0, 0]) + math.sqrt(q0.radius_sq * q0.sigma[0, 0]))
        for _ in range(abs(steps)):
            mu_q = math.nextafter(mu_q, math.copysign(math.inf, steps))
        q = af.make_student_t(order_q, mu_q, 10.0**log_var_q)
        got = _outcome(dv.i_alpha, p, q, alpha)
        if _exactly_overlapping(p, q):
            assert got is core.NumericalError or (isinstance(got, float) and math.isfinite(got)), got
        else:
            assert got is core.NumericalError or got == math.inf, got


def _hangs_out(p, q, margin):
    """Whether supp p passes supp q's end by more than ``margin`` of q's radius^2, exactly on d = 1 records' floats."""
    if p.alpha < 1.0:
        return True
    a = Fraction(p.radius_sq) * Fraction(float(p.sigma[0, 0]))
    t = Fraction(q.radius_sq) * Fraction(float(q.sigma[0, 0])) * (1 + Fraction(margin))
    delta = abs(Fraction(float(p.mu[0])) - Fraction(float(q.mu[0])))
    # delta + sqrt(a) > sqrt(t), squared twice where both sides are nonnegative.
    rest = t + delta**2 - a
    return delta**2 > t or rest < 0 or 4 * delta**2 * t > rest**2


class TestEndsAtRounding:
    """Whether supp p lies in supp q, or shares its end, is judged at rounding, as the overlap's band is."""

    @given(st.floats(1.1, 5.0), st.sampled_from([0.0, 1.0, -3e4, 1e6]), st.floats(-6.0, 2.0),
           st.one_of(st.floats(0.8, 0.99), st.floats(1.01, 5.0)), st.floats(-30.0, 0.0), st.sampled_from([0, 1]),
           st.sampled_from([1.0, 0.5, 1.5, 0.0, 2.0]),
           st.sampled_from([0.0, 1.0, -1.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-9, -1e-9]),
           st.sampled_from([0.5, 0.9, None, 2.0, 1.3]))
    @settings(max_examples=150, deadline=None)
    def test_near_touching_pairs_are_infinite_or_integrated_over_an_overlap(
            self, order_q, centre, log_var_q, order_p, log_ratio, side, inward, nudge, alpha):
        # p at one end of supp q, moved inward by a multiple of its half-width (its scale for a full support) and a
        # fraction of the end.  A kl of 0 once came from an empty overlap, and a ValueError from the closed form.
        q = af.make_student_t(order_q, centre, 10.0**log_var_q)
        alpha = order_q if alpha is None else alpha
        end, var_p = q.support_interval[side], float(q.sigma[0, 0]) * 10.0**log_ratio
        radius_sq_p = af.make_student_t(order_p, 0.0, 1.0).radius_sq
        half_p = math.sqrt((radius_sq_p if radius_sq_p < math.inf else 1.0) * var_p)
        p = af.make_student_t(order_p, end - (2 * side - 1) * (inward * half_p + nudge * abs(end)), var_p)

        def integrate(p, q, overlap, *args, real=dv._integrate):
            assert overlap[2] < overlap[3], overlap
            return real(p, q, overlap, *args)

        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error")
            patch.setattr(dv, "_integrate", integrate)
            got_kl, got = _outcome(dv.kl, p, q), _outcome(dv.i_alpha, p, q, alpha)
        assert all(v is core.NumericalError or isinstance(v, float) for v in (got_kl, got)), (got_kl, got)
        if _hangs_out(p, q, 16 * dv._EPS):
            assert got_kl == math.inf

    @given(st.integers(2, 3), st.floats(1.05, 6.0), st.floats(1.05, 6.0), st.integers(0, 10**6),
           st.sampled_from([0.0, 1.0, -3e4]))
    @settings(max_examples=60, deadline=None)
    def test_higher_dimensions_judge_containment_at_rounding(self, d, order_q, order_p, seed, centre):
        # At a 1e-9 slack an ellipsoid 1e-10 of q's radius past its boundary counted as inside, and kl then
        # asked for quadrature in d > 1.
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(d, d))
        cov = a @ a.T + rng.uniform(0.3, 2.0) * np.eye(d)
        q = af.make_student_t(order_q, centre + rng.normal(size=d), cov)
        assert dv._support_within(q, q, dv._reach(q, q))
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        # p's support is mu_p + R_p' L v, |v| <= 1 (L L^T = cov), so its farthest point lies at 1 + 1e-10 of q's radius.
        radius_p = rng.uniform(0.05, 0.5) * math.sqrt(q.radius_sq)
        scale = radius_p / math.sqrt(af.make_student_t(order_p, np.zeros(d), cov).radius_sq)
        step = math.sqrt(q.radius_sq) * (1.0 + 1e-10) - radius_p
        p = af.make_student_t(order_p, q.mu + step * (np.linalg.cholesky(cov) @ u), scale**2 * cov)
        assert not dv._support_within(p, q, dv._reach(p, q))
        assert dv.kl(p, q) == math.inf


class TestKL:
    def test_zero_on_identical(self):
        g = dv.Gaussian(1.0, 2.0)
        assert abs(dv.kl(g, g)) <= 1e-9

    def test_bernoulli_two_term_sum(self):
        expected = 0.3 * math.log(0.6) + 0.7 * math.log(1.4)
        assert dv.kl(dv.bernoulli(0.3), dv.bernoulli(0.5)) == pytest.approx(expected, rel=1e-14)

    def test_gaussian_closed_form(self):
        # equal variances: KL = (mu difference)^2 / 2
        assert dv.kl(dv.Gaussian(0.0, 1.0), dv.Gaussian(0.5, 1.0)) == pytest.approx(0.125, abs=1e-9)

    def test_support_violation_infinite(self):
        p = dv.DiscreteDistribution(np.array([0.5, 0.5]))
        q = dv.DiscreteDistribution(np.array([1.0, 0.0]))
        assert dv.kl(p, q) == math.inf
        wide, narrow = dv.Gaussian(0.0, 1.0), af.make_student_t(2.0, 0.0, 1.0)
        assert dv.kl(wide, narrow) == math.inf


class TestGeneralizedLogLikelihood:
    def test_alpha2_power_integral_closed_form(self):
        p = af.make_student_t(2.0, [0.0], [[1.0]])
        assert studentt.log_power_integral(p, 2.0) == pytest.approx(
            math.log(4.0 * N2 / 5.0), rel=1e-14
        )

    @pytest.mark.parametrize("alpha,want", [(0.999, 1.001511490818767001300), (1.001, 0.9984912895842996779577)])
    def test_power_integral_near_one_to_rounding(self, alpha, want):
        # 40-digit mpmath values of N^(alpha-1) (1 + b) at sigma = 1.2, which
        # matched mpmath's quadrature of p^alpha to every digit.  A sum of
        # lgamma terms near 1000 is off by about 2e-12 here.
        p = af.make_student_t(alpha, [0.0], [[1.2]])
        assert math.exp(studentt.log_power_integral(p, alpha)) == pytest.approx(want, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("power", [5.0, 2.0])
    def test_power_integral_beyond_the_float_range(self, power):
        # x -> c x scales Int p^power by c^(d (1 - power)); here the integral
        # itself exceeds the float range, its log does not.
        unit = af.make_student_t(5.0, np.zeros(3), np.eye(3))
        tiny = af.make_student_t(5.0, np.zeros(3), 1e-100 * np.eye(3))
        want = studentt.log_power_integral(unit, power) + 150.0 * (power - 1.0) * math.log(10.0)
        assert studentt.log_power_integral(tiny, power) == pytest.approx(want, rel=1e-14)
        if power == 5.0:
            assert studentt.log_power_integral(tiny, power) == pytest.approx(1365.96, abs=0.01)

    def test_reference_sample_near_one(self):
        # mpmath at 50 digits: -2.01048250178544200; lgamma pairs near 5900
        # in log N left 1.45e-12.
        params = af.make_student_t(0.999, [7.0], [[2.0]])
        got = dv.generalized_log_likelihood(params, af.SampleBatch(REFERENCE_SAMPLE))
        assert abs(got - -2.01048250178544200) <= 3e-13

    @pytest.mark.parametrize("alpha,sigma2", [(0.6, 1.0), (0.8, 2.5), (2.0, 1.0), (3.0, 0.7)])
    def test_power_integral_matches_quadrature(self, alpha, sigma2):
        from scipy.integrate import quad

        p = af.make_student_t(alpha, [0.3], [[sigma2]])
        closed = math.exp(studentt.log_power_integral(p, alpha))
        if alpha < 1.0:
            lo, hi = -np.inf, np.inf
        else:
            r = math.sqrt(p.radius_sq * sigma2)
            lo, hi = 0.3 - r, 0.3 + r
        numeric = quad(lambda x: studentt.density(p, [x]) ** alpha, lo, hi, epsabs=1e-12, epsrel=1e-10)[0]
        assert abs(closed - numeric) < 1e-8

    def test_all_points_outside_support_gives_minus_infinity(self):
        p = af.make_student_t(2.0, [100.0], [[1.0]])
        batch = af.SampleBatch(REFERENCE_SAMPLE)
        assert dv.generalized_log_likelihood(p, batch) == -math.inf

    @pytest.mark.filterwarnings("error")
    def test_huge_and_tiny_sigma(self):
        batch = af.SampleBatch(REFERENCE_SAMPLE)
        # Every point sits where the bracket rounds to 1, so the value is
        # 2 log N - log(3/(5R)) = log(15/(16R)) with R^2 = 5 sigma.
        huge = dv.generalized_log_likelihood(af.make_student_t(2.0, [8.46], [[1e308]]), batch)
        want = math.log(15.0 / 16.0) - 0.5 * (math.log(5.0) + 308 * math.log(10.0))
        assert huge == pytest.approx(want, rel=1e-14)
        assert dv.generalized_log_likelihood(af.make_student_t(2.0, [8.46], [[1e-308]]), batch) == -math.inf

    def test_far_outlier_near_alpha_one_stays_finite(self):
        # At alpha = 0.999, p(100)^(alpha-1) is about 6 although p(100) itself
        # underflows to 0; the reference works from log p.
        alpha, xs = 0.999, [0.0, 1.0, 100.0]
        params = af.make_student_t(alpha, [0.0], [[1.0]])
        log_p = np.array([studentt.log_density(params, [x]) for x in xs])
        want = (alpha / (alpha - 1.0) * math.log(np.mean(np.exp((alpha - 1.0) * log_p)))
                - studentt.log_power_integral(params, alpha))
        got = dv.generalized_log_likelihood(params, af.SampleBatch(np.array(xs)))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.9, 5.0])
    def test_tiny_sigma_shifts_by_the_log_scale(self, alpha):
        # x -> c x changes the likelihood by -d log c; here N and p^(alpha-1)
        # overflow float64 although the value is moderate.
        unit = af.make_student_t(alpha, np.zeros(3), np.eye(3))
        data = studentt.sample(unit, 50, 4).data
        tiny = af.make_student_t(alpha, np.zeros(3), 1e-100 * np.eye(3))
        want = dv.generalized_log_likelihood(unit, af.SampleBatch(data)) + 150.0 * math.log(10.0)
        got = dv.generalized_log_likelihood(tiny, af.SampleBatch(1e-50 * data))
        assert got == pytest.approx(want, rel=1e-12)

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
