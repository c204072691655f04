import itertools
import math
import warnings

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

    @given(_records, _records, st.one_of(st.floats(0.3, 0.99), st.floats(1.01, 3.0)),
           st.floats(-1e3, 1e3), st.floats(-3.0, 3.0))
    @settings(max_examples=100, deadline=None)
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
