import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import alphafam as af
from alphafam import core, studentt


class TestMakeStudentT:
    def test_alpha_2_unit_variance(self):
        p = af.make_student_t(2.0, [0.0], [[1.0]])
        assert p.b_alpha == pytest.approx(-0.2, abs=1e-15)
        assert math.exp(p.log_norm_const) == pytest.approx(3.0 / (4.0 * math.sqrt(5.0)), rel=1e-14)
        assert p.radius_sq == pytest.approx(5.0, rel=1e-14)
        assert studentt.density(p, [math.sqrt(5.0) - 1e-9]) > 0.0
        assert studentt.density(p, [math.sqrt(5.0) + 1e-9]) == 0.0
        assert p.support_interval == pytest.approx((-math.sqrt(5.0), math.sqrt(5.0)), rel=1e-15)
        shifted = af.make_student_t(3.0, [0.4], [[1.3]])
        r = math.sqrt(shifted.radius_sq * 1.3)
        assert shifted.support_interval == pytest.approx((0.4 - r, 0.4 + r), rel=1e-15)
        heavy = af.make_student_t(0.5, [0.4], [[1.3]])
        assert heavy.radius_sq == math.inf and heavy.support_interval == (-math.inf, math.inf)
        with pytest.raises(core.DimensionMismatchError):
            af.make_student_t(2.0, [0.0, 0.0], np.eye(2)).support_interval

    def test_alpha_half_d1_matches_t3(self):
        p = af.make_student_t(0.5, [0.0], [[1.0]])
        assert p.b_alpha == pytest.approx(1.0, abs=1e-15)
        assert p.nu == pytest.approx(3.0, abs=1e-15)
        # exponent-matching oracle: the standard t with nu=3 and scale
        # sqrt(1/3) has unit variance; densities must agree pointwise
        from scipy import stats

        grid = np.linspace(-8.0, 8.0, 100)
        mine = np.array([studentt.density(p, [x]) for x in grid])
        oracle = stats.t.pdf(grid, df=3, loc=0.0, scale=math.sqrt(1.0 / 3.0))
        assert np.max(np.abs(mine - oracle) / oracle) < 1e-12

    def test_normalizer_translation_invariant(self):
        p0 = af.make_student_t(0.5, [0.0], [[1.0]])
        p5 = af.make_student_t(0.5, [5.0], [[1.0]])
        assert p5.b_alpha == p0.b_alpha
        assert p5.nu == p0.nu
        assert math.exp(p5.log_norm_const) == math.exp(p0.log_norm_const)

    def test_rejects_alpha_at_or_below_threshold(self):
        with pytest.raises(core.ParameterError) as err:
            af.make_student_t(0.2, [0.0], [[1.0]])
        assert err.value.code == core.ALPHA_BELOW_THRESHOLD
        with pytest.raises(core.ParameterError) as err:
            af.make_student_t(0.5, [0.0, 0.0], np.eye(2))
        assert err.value.code == core.ALPHA_BELOW_THRESHOLD

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(core.ParameterError) as err:
            af.make_student_t(alpha, [0.0], [[1.0]])
        assert err.value.code == core.ALPHA_NOT_FINITE
        with pytest.raises(core.ParameterError) as err:
            core.check_alpha(alpha)
        assert err.value.code == core.ALPHA_NOT_FINITE

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("alpha", [0.8, 2.0])
    def test_rejects_non_finite_mu_and_sigma(self, alpha, bad):
        with pytest.raises(core.ParameterError) as err:
            af.make_student_t(alpha, [0.0, bad], np.eye(2))
        assert err.value.code == core.MU_NOT_FINITE
        with pytest.raises(core.ParameterError) as err:
            af.make_student_t(alpha, [0.0, 0.0], [[1.0, bad], [bad, 1.0]])
        assert err.value.code == core.SIGMA_NOT_FINITE
        with pytest.raises(core.ParameterError) as err:
            af.make_student_t(alpha, [0.0], [[bad]])
        assert err.value.code == core.SIGMA_NOT_FINITE

    @pytest.mark.parametrize("alpha,mu,sigma", [
        (0.8, [0.0, 0.0], 1e-308 * np.array([[1.0, 0.3], [0.3, 0.5]])),  # inverse overflows
        (2.0, [0.0], [[1e-309]]),  # inverse overflows
        (0.9, np.zeros(3), 1e-300 * np.eye(3)),  # N overflows
        (3.0, np.zeros(3), 1e-300 * np.eye(3)),  # N overflows
    ])
    def test_rejects_sigma_too_small_for_its_inverse_or_normalizer(self, alpha, mu, sigma):
        with pytest.raises(core.ParameterError) as err:
            af.make_student_t(alpha, mu, sigma)
        assert err.value.code == core.SIGMA_INVERSE_NOT_FINITE

    def test_rejects_alpha_one(self):
        with pytest.raises(core.ParameterError) as err:
            af.make_student_t(1.0, [0.0], [[1.0]])
        assert err.value.code == core.ALPHA_EQUALS_ONE

    def test_rejects_nonsymmetric_sigma(self):
        with pytest.raises(core.ParameterError) as err:
            af.make_student_t(0.8, [0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])
        assert err.value.code == core.SIGMA_NOT_SYMMETRIC

    def test_rejects_non_positive_definite_sigma(self):
        with pytest.raises(core.ParameterError) as err:
            af.make_student_t(0.8, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
        assert err.value.code == core.SIGMA_NOT_POSITIVE_DEFINITE
        with pytest.raises(core.ParameterError):
            af.make_student_t(0.5, [0.0], [[0.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e308, 1e-308])
    def test_checks_hold_at_any_finite_scale(self, scale):
        one = af.make_student_t(2.0, [0.0], [[scale]])
        assert one.sigma[0, 0] == scale
        assert one.sigma_inv[0, 0] == pytest.approx(1.0 / scale, rel=1e-15)
        if scale < 1.0:
            return  # a 2 x 2 inverse at this scale exceeds the float range
        shape = np.array([[1.0, 0.3], [0.3, 0.5]])
        params = af.make_student_t(2.0, [0.0, 0.0], scale * shape)
        assert np.array_equal(params.sigma, scale * shape)
        assert np.isfinite(params.sigma_inv).all()
        assert np.array_equal(params.sigma_inv, params.sigma_inv.T)
        for bad, code in (([[1.0, 0.5], [0.1, 1.0]], core.SIGMA_NOT_SYMMETRIC),
                          ([[0.5, 1.0], [1.0, 0.5]], core.SIGMA_NOT_POSITIVE_DEFINITE)):
            with pytest.raises(core.ParameterError) as err:
                af.make_student_t(2.0, [0.0, 0.0], scale * np.array(bad))
            assert err.value.code == code

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_rejects_zero_dimension(self, alpha):
        with pytest.raises(core.DimensionMismatchError, match="non-empty"):
            af.make_student_t(alpha, np.zeros(0), np.zeros((0, 0)))

    def test_error_codes_are_distinct(self):
        codes = {
            core.ALPHA_NOT_FINITE,
            core.ALPHA_BELOW_THRESHOLD,
            core.ALPHA_EQUALS_ONE,
            core.SIGMA_NOT_SYMMETRIC,
            core.SIGMA_NOT_POSITIVE_DEFINITE,
            core.MU_NOT_FINITE,
            core.SIGMA_NOT_FINITE,
            core.SIGMA_INVERSE_NOT_FINITE,
        }
        assert len(codes) == 8

    def test_tolerates_serialization_noise(self):
        sig = np.array([[2.0, 0.3], [0.3, 1.0]])
        noisy = sig + np.array([[0.0, 1e-14], [-1e-14, 0.0]])
        p = af.make_student_t(0.8, [0.0, 0.0], noisy)
        assert np.allclose(p.sigma, p.sigma.T)


class TestDerivedConstants:
    @given(
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=1e-3, max_value=1.0 - 1e-6, exclude_max=True),
    )
    def test_b_positive_and_nu_above_two_below_one(self, d, frac):
        lo = d / (d + 2.0)
        alpha = lo + frac * (1.0 - lo)
        if alpha <= lo or alpha >= 1.0:
            return
        assert core.b_alpha(alpha, d) > 0.0
        assert core.degrees_of_freedom(alpha, d) > 2.0

    @given(
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=1.0 + 1e-9, max_value=50.0),
    )
    def test_b_negative_above_one(self, d, alpha):
        assert core.b_alpha(alpha, d) < 0.0

    @given(
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=1.0, max_value=50.0, exclude_min=True),
    )
    def test_radial_gamma_argument_at_power_one(self, d, frac, above):
        # The Beta parameters of the bracket's law: nu/2 below one, alpha/(alpha-1) above.
        below = d / (d + 2.0) + frac * (1.0 - d / (d + 2.0))
        if d / (d + 2.0) < below < 1.0:
            assert core._radial_gamma_arg(below, d, 1.0) == core.degrees_of_freedom(below, d) / 2.0
        assert core._radial_gamma_arg(above, d, 1.0) == above / (above - 1.0)

    @pytest.mark.parametrize("sigma2", [1.0, 2.5])
    def test_normalizer_continuity_at_one(self, sigma2):
        gauss = 1.0 / math.sqrt(2.0 * math.pi * sigma2)
        for alpha in (1.0 - 1e-3, 1.0 + 1e-3):
            p = af.make_student_t(alpha, [0.0], [[sigma2]])
            assert abs(math.exp(p.log_norm_const) - gauss) < 1e-3


class TestLogGammaRatio:
    # log Gamma(x + h) - log Gamma(x) from mpmath at 40 digits.  A plain
    # lgamma difference is off by 2.5e-9 relative at x = 5782582.4.
    CASES = [
        (0.5, 0.5, -0.5723649429247000870717), (0.5, 1.5, -0.5723649429247000870717),
        (3.25, 1.0, 1.178654996341646117219), (9.5, 0.5, 1.112494059284201128638),
        (10.0, 0.5, 1.138797739322294021954), (10.0, 1.5, 3.490172996485771709037),
        (57.3, 1.0, 4.048300623720693830626), (1000.5, 1.5, 10.36275741880108077948),
        (5782582.395569044, 0.5, 7.785180439439289736039), (1e7, 1.0, 16.11809565095831978813),
    ]

    @pytest.mark.parametrize("x,h,want", CASES)
    def test_matches_mpmath(self, x, h, want):
        assert core._log_gamma_ratio(x, h) == pytest.approx(want, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("alpha,d,want", [
        (0.9999, 3, -2.756628065232376284002),
        (0.999, 1, -0.9185630951884297983111),
        (1.001, 2, -1.838875568738934896608),
    ])
    def test_log_normalizer_near_one(self, alpha, d, want):
        # mpmath at 40 digits; lgamma pairs near 8e4 left 1.6e-11 at 0.9999.
        assert abs(core.log_norm_const(alpha, 0.0, d) - want) <= 1e-14


class TestNormalization:
    @pytest.mark.parametrize("alpha", [0.6, 0.8, 2.0, 3.0])
    def test_density_integrates_to_one(self, alpha):
        p = af.make_student_t(alpha, [0.4], [[1.3]])
        if alpha < 1.0:
            lo, hi = -np.inf, np.inf
        else:
            r = math.sqrt(p.radius_sq * p.sigma[0, 0])
            lo, hi = p.mu[0] - r, p.mu[0] + r
        total = quad(lambda x: studentt.density(p, [x]), lo, hi, epsabs=1e-12, epsrel=1e-10)[0]
        assert abs(total - 1.0) < 1e-8


class TestValidateRegular:
    def _student_t_descriptor(self, d, alpha):
        rng = np.random.default_rng(d)
        a_mat = rng.normal(size=(d, d))
        p = af.make_student_t(alpha, rng.normal(size=d), a_mat @ a_mat.T + d * np.eye(d))
        desc = studentt.decompose(p)
        return p, desc

    @pytest.mark.parametrize("d,alpha", [(1, 0.5), (2, 0.8), (3, 0.9), (1, 2.0)])
    def test_student_t_descriptor_is_regular(self, d, alpha):
        p, desc = self._student_t_descriptor(d, alpha)
        assert desc.s == desc.k == d * d + d
        thetas = [af.pack_theta(p.mu, p.sigma_inv)]
        rng = np.random.default_rng(0)
        for _ in range(3):
            m = rng.normal(size=d)
            a_mat = rng.normal(size=(d, d))
            lam = np.linalg.inv(a_mat @ a_mat.T + d * np.eye(d))
            thetas.append(af.pack_theta(m, lam))
        for probes in (thetas, (theta for theta in thetas)):
            report = af.validate_regular(desc, probes)
            assert report.regular
            assert report.probes == len(thetas)
            assert not report.failures

    def test_dependent_weights_fail(self):
        desc = core.MAlphaDescriptor(
            k=2,
            s=2,
            alpha=0.5,
            q_fn=lambda x: 1.0,
            w_fn=lambda t: np.array([t[0] + t[1], 2.0 * (t[0] + t[1])]),
            f_fn=lambda x: np.array([x[0], x[0] ** 2]),
            z_fn=lambda t: 1.0,
            w_jacobian=lambda t: np.array([[1.0, 1.0], [2.0, 2.0]]),
        )
        report = af.validate_regular(desc, [np.array([0.3, 0.7])])
        assert not report.regular
        assert len(report.failures) == 1

    def test_identity_weight_is_regular(self):
        desc = core.MAlphaDescriptor(
            k=1,
            s=1,
            alpha=0.5,
            q_fn=lambda x: 1.0,
            w_fn=lambda t: np.array([t[0]]),
            f_fn=lambda x: np.array([x[0]]),
            z_fn=lambda t: 1.0,
            w_jacobian=lambda t: np.eye(1),
        )
        assert af.validate_regular(desc, [np.array([2.0])]).regular

    def test_dimension_mismatch_raises(self):
        desc = core.MAlphaDescriptor(
            k=2,
            s=3,
            alpha=0.5,
            q_fn=lambda x: 1.0,
            w_fn=lambda t: np.zeros(3),
            f_fn=lambda x: np.zeros(3),
            z_fn=lambda t: 1.0,
            w_jacobian=lambda t: np.zeros((3, 2)),
        )
        with pytest.raises(core.DimensionMismatchError):
            af.validate_regular(desc, [np.zeros(2)])

    def test_statistics_span_full_distinct_rank_at_sample_points(self):
        # Vec(x x^T) repeats each symmetric cross term, so the span of the
        # statistics has dimension d + d(d+1)/2; the Gram over random
        # points must reach exactly that rank.
        for d in (1, 2, 3):
            p, desc = self._student_t_descriptor(d, 0.9)
            rng = np.random.default_rng(d)
            pts = rng.normal(size=(80, d))
            fvals = np.array([desc.f_fn(x) for x in pts])
            gram = np.cov(fvals.T)
            assert np.linalg.matrix_rank(gram, tol=1e-10) == d + d * (d + 1) // 2


class TestSampleBatch:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(core.DimensionMismatchError):
            af.SampleBatch(np.empty((0, 1)))
        with pytest.raises(core.ParameterError):
            af.SampleBatch(np.array([[np.nan]]))

    def test_scalar_view(self):
        batch = af.SampleBatch(np.array([1.0, 2.0]))
        assert batch.n == 2 and batch.dim == 1
        assert batch.scalars().tolist() == [1.0, 2.0]
        with pytest.raises(core.DimensionMismatchError):
            af.SampleBatch(np.eye(2)).scalars()

    def test_validation_applies_to_the_ingested_subclass(self):
        from alphafam.cli import CsvBatch

        batch = CsvBatch([1.0, 2.0], "digest")
        assert batch.data.shape == (2, 1) and batch.sha256 == "digest"
        with pytest.raises(core.ParameterError):
            CsvBatch([[np.inf]], "digest")
        assert repr(batch) == "CsvBatch(data=array([[1.],\n       [2.]]), sha256='digest')"

    def test_theta_pack_roundtrip(self):
        mu = np.array([1.0, -2.0])
        lam = np.array([[2.0, 0.5], [0.5, 1.0]])
        m, l = af.unpack_theta(af.pack_theta(mu, lam), 2)
        assert np.array_equal(m, mu) and np.array_equal(l, lam)


class TestRecord:
    """``core.record``: immutable records with value equality, as every package type uses."""

    def test_assignment_and_deletion_raise(self):
        batch = af.SampleBatch([1.0])
        params = af.make_student_t(0.8, 0.0, 1.0)
        for obj, name in ((batch, "data"), (params, "alpha"), (params, "not_a_field")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0.0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert params.alpha == 0.8 and batch.data.tolist() == [[1.0]]

    def test_equality_and_hash_go_by_value(self):
        assert af.SufficientStats(1.0, 2.0) == af.SufficientStats(mean_f=1.0, mean_q_pow=2.0)
        assert af.SufficientStats(1.0, 2.0) != af.SufficientStats(1.0, 3.0)
        assert hash(af.SufficientStats(1.0, 2.0)) == hash(af.SufficientStats(1.0, 2.0))
        assert af.RegularityReport(True, 3) == af.RegularityReport(True, 3, (), ())
        assert af.SufficientStats(1.0, 2.0) != (1.0, 2.0)
        row = af.SegmentCandidate(0.0, 1.0, range(0, 2), 0.5, 0.5, 1.5)
        assert row == af.SegmentCandidate(0.0, 1.0, range(0, 2), 0.5, 0.5, 1.5)
        assert len({row, af.SegmentCandidate(0.0, 1.0, range(0, 2), 0.5, 0.5, 1.5)}) == 1

    def test_array_fields_compare_by_value_and_are_unhashable(self):
        params = af.make_student_t(0.8, [0, 1], np.eye(2))
        assert params == af.make_student_t(0.8, [0, 1], np.eye(2))
        assert params != af.make_student_t(0.8, [0, 2], np.eye(2))
        assert af.SampleBatch(np.ones((3, 2))) == af.SampleBatch(np.ones((3, 2)))
        assert af.SampleBatch(np.ones((3, 2))) != af.SampleBatch(np.ones((2, 3)))
        assert af.Gaussian([0, 0], np.eye(2)) == af.Gaussian([0, 0], np.eye(2))
        assert af.Gaussian([0, 0], np.eye(2)) != af.Gaussian([0, 0], 2 * np.eye(2))
        with pytest.raises(TypeError):
            hash(params)

    def test_segment_table_compares_by_identity(self):
        first, second = (af.enumerate_segments(np.array([0.0, 1.0])) for _ in range(2))
        assert first == first and first != second and list(first) == list(second)
        assert hash(first) != hash(second)

    def test_repr_lists_only_the_fields(self):
        stats = af.SufficientStats(np.array([1.0]), 1.0)
        assert repr(stats) == "SufficientStats(mean_f=array([1.]), mean_q_pow=1.0)"
        g = af.Gaussian(0.0, 2.0)
        assert repr(g) == "Gaussian(mu=array([0.]), sigma=array([[2.]]))"
        assert g.sigma_inv.tolist() == [[0.5]] and g.logdet == math.log(2.0)

    def test_defaults_and_post_init_normalization_apply(self):
        report = af.RegularityReport(regular=True, probes=0)
        assert (report.failures, report.determinants) == ((), ())
        assert af.SampleBatch([1.0, 2.0]).data.shape == (2, 1)
        assert af.DiscreteDistribution([0.5, 0.5]).probs.dtype == float
        with pytest.raises(af.InvalidDistributionError):
            af.DiscreteDistribution([0.5, 0.6])

    @pytest.mark.parametrize("args, kwargs", [
        ((1.0,), {}), ((1.0, 2.0, 3.0), {}), ((1.0,), {"mean_f": 2.0}), ((1.0, 2.0), {"extra": 3.0}),
    ], ids=["missing", "too-many", "twice", "unknown"])
    def test_arguments_that_do_not_match_the_fields_raise(self, args, kwargs):
        with pytest.raises(TypeError):
            af.SufficientStats(*args, **kwargs)


class TestExportTable:
    # A name left in an export list after its definition is gone fails here, not in a user's import.
    def test_every_package_name_resolves(self):
        assert [name for name in af.__all__ if not hasattr(af, name)] == []

    def test_package_exports_are_in_each_submodule_all(self):
        stray = []
        for module, names in af._EXPORTS.items():
            sub = importlib.import_module(f"alphafam.{module}")
            stray += [f"{module}.{name}" for name in names if name not in sub.__all__]
        assert stray == []

    def test_every_submodule_name_resolves(self):
        missing = []
        for module in af._EXPORTS:
            sub = importlib.import_module(f"alphafam.{module}")
            missing += [f"{module}.{name}" for name in sub.__all__ if not hasattr(sub, name)]
        assert missing == []


class TestSplit:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-1e150, max_value=1e150, allow_nan=False))
    def test_halves_sum_exactly_and_multiply_exactly(self, a):
        # Both the codec and the compact-family sums rely on hi + lo == a and on exact half products;
        # products that would underflow to subnormals are outside that promise.
        hi, lo = core._split(np.array([a]))
        hi, lo = float(hi[0]), float(lo[0])
        assert Fraction(hi) + Fraction(lo) == Fraction(a)
        for u, v in ((hi, hi), (hi, lo), (lo, lo)):
            if abs(u * v) >= 1e-290:
                assert Fraction(u * v) == Fraction(u) * Fraction(v)
