import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphafam as af
from alphafam import cli, compact

ROOT5 = math.sqrt(5.0)
N2 = 3.0 / (4.0 * ROOT5)

# Expected reference tables (rounded to the two decimals they are usually
# quoted at); the final objective entry is the exact single-point value
# 1 - (11.14 - 9)^2/5.
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


def grid_search(xs, spacing=1e-4, pad=1e-3):
    """Independent dense-grid maximizer of the segment objective."""
    xs = np.sort(np.asarray(xs, dtype=float))
    lo = xs[0] - ROOT5 - pad
    hi = xs[-1] + ROOT5 + pad
    grid = np.arange(lo, hi + spacing, spacing)
    total = np.zeros_like(grid)
    for x in xs:
        total += np.clip(1.0 - (x - grid) ** 2 / 5.0, 0.0, None)
    best = int(np.argmax(total))
    return grid[best], float(total[best])


def reference_segments(xs):
    """Test-only oracle: the O(n^2) per-segment loop the vectorized sweep replaced.

    Tests each point's support [x - sqrt(5), x + sqrt(5)] for enclosing each
    segment, takes numpy's mean of the active points, and sums the clipped
    terms one by one.  Returns (lo, hi, active indices, maximizer, objective)
    per segment.
    """
    xs = np.sort(np.asarray(xs, dtype=float).ravel())
    r5 = compact.ROOT5
    breakpoints = np.sort(np.concatenate([xs - r5, xs + r5]))
    out = []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if not lo < hi:
            continue
        active = np.array([i for i, x in enumerate(xs) if x - r5 <= lo and x + r5 >= hi], dtype=int)
        if active.size == 0:
            continue
        maximizer = float(min(max(float(xs[active].mean()), lo), hi))
        terms = 1.0 - (xs[active] - maximizer) ** 2 / (r5 * r5)
        objective = float(np.clip(terms, 0.0, None).sum())
        out.append((float(lo), float(hi), tuple(int(i) for i in active), maximizer, objective))
    return out


def assert_matches_reference(xs):
    expected = reference_segments(xs)
    got = compact.enumerate_segments(xs)
    assert len(got) == len(expected)
    for cand, (lo, hi, active, maximizer, objective) in zip(got, expected):
        assert (cand.lo, cand.hi) == (lo, hi)
        assert cand.active_set == range(active[0], active[-1] + 1)
        assert tuple(cand.active_set) == active
        assert abs(cand.maximizer - maximizer) <= 1e-12 * max(1.0, abs(maximizer))
        assert abs(cand.objective - objective) <= 1e-10 * max(1.0, abs(objective))


def reference_ties(xs):
    """Test-only oracle: the row-by-row tie computation the columnar one replaced.

    Returns (best objective, co-optimal maximizers sorted and de-duplicated).
    """
    xs = np.sort(np.asarray(xs, dtype=float).ravel())
    rows = list(compact.enumerate_segments(xs))
    best = max(c.objective for c in rows)
    widest = max(len(c.active_set) for c in rows)
    tol = widest * math.ulp(1.0) * (max(-xs[0], xs[-1]) / ROOT5 + 1.0)
    ties = sorted(c.maximizer for c in rows if best - c.objective <= tol)
    deduped = [ties[0]]
    for mu in ties[1:]:
        if mu - deduped[-1] > 4.0 * math.ulp(1.0) * max(1.0, abs(mu)):
            deduped.append(mu)
    return best, tuple(deduped)


def reference_report(text, xs):
    """Test-only oracle: the compact-fit report with each candidate column as a Python list.

    The columns are read off the table's ``SegmentCandidate`` rows and go
    through ``dumps_report``'s generic per-value path.  Every other field is
    read back from ``text``; integers are read as floats, which render to
    the same bytes and keep a -0.
    """
    report = json.loads(text, parse_int=float)
    rows = list(compact.maximize_l2(xs).candidates)
    report["candidates"] = {
        "active_start": [c.active_set.start for c in rows],
        "active_stop": [c.active_set.stop for c in rows],
        "hi": [c.hi for c in rows],
        "lo": [c.lo for c in rows],
        "maximizer": [c.maximizer for c in rows],
        "objective_over_n2": [c.objective for c in rows],
        "unconstrained_max": [c.unconstrained_max for c in rows],
    }
    return cli.dumps_report(report)


def compact_fit_report(xs):
    """The bytes `alphafam compact-fit` writes for the sample ``xs``."""
    with tempfile.TemporaryDirectory() as tmp:
        data, out = os.path.join(tmp, "xs.csv"), os.path.join(tmp, "fit.json")
        with open(data, "w") as handle:
            handle.write("".join(f"{x!r}\n" for x in np.asarray(xs, dtype=float).tolist()))
        assert cli.main(["compact-fit", "--input", data, "--output", out]) == cli.EXIT_OK
        with open(out) as handle:
            return handle.read()


def layout_sample(layout, n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    if layout == "clustered":
        # the order-2 unit-variance parabola: every point within 2 sqrt(5) of every other
        xs = ROOT5 * (2.0 * rng.beta(2.0, 2.0, size=n) - 1.0)
    elif layout == "spread":
        xs = rng.uniform(0.0, float(n), size=n)
    elif layout == "mixed":
        near = rng.uniform(0.0, 4.0, size=(n + 1) // 2)
        xs = np.concatenate([near, rng.uniform(9.0, 12.0, size=n // 3), rng.uniform(20.0, 80.0, size=n // 6)])
    elif layout == "duplicates":
        xs = rng.choice(np.round(rng.uniform(0.0, 6.0, size=max(1, n // 4)), 1), size=n)
    else:
        # neighbours 2 sqrt(5) apart, jittered by a few parts in 1e12 of the
        # offset: breakpoints nearly coincide and supports nearly touch
        jitter = rng.uniform(-4.0, 4.0, size=n) * 1e-12 * (1.0 + abs(shift))
        return np.arange(n) * 2.0 * ROOT5 + shift + jitter
    return xs + shift


class TestConstants:
    def test_alpha2_constants_derive_from_the_family(self):
        assert compact.ROOT5 == ROOT5  # bit for bit: verify prints values built on it
        assert compact.N2 == pytest.approx(N2, rel=1e-15)
        assert compact.N2 == pytest.approx(0.335410, abs=1e-6)


@pytest.mark.parametrize("fit", [compact.maximize_l2, compact.enumerate_segments])
@pytest.mark.parametrize("xs,error", [
    ([0.0, math.nan], af.ParameterError),
    ([0.0, math.inf], af.ParameterError),
    ([[1.0, 2.0], [3.0, 4.0]], af.DimensionMismatchError),
    ([], af.DimensionMismatchError),
    (np.zeros((0, 1)), af.DimensionMismatchError),
], ids=["nan", "inf", "d2", "empty", "empty-column"])
def test_raw_arrays_are_checked_like_a_batch(fit, xs, error):
    with pytest.raises(error) as err:
        fit(xs)
    if error is af.ParameterError:
        assert err.value.code == "non_finite_observation"


class TestEnumerateSegments:
    def test_reference_sample_tables(self):
        cands = compact.enumerate_segments(np.array(compact.REFERENCE_SAMPLE))
        assert len(cands) == 19
        for cand, mu, obj in zip(cands, MU_TABLE, OBJECTIVE_TABLE):
            assert abs(cand.maximizer - mu) <= 0.01
        got = sorted(c.objective for c in cands)
        for g, e in zip(got, sorted(OBJECTIVE_TABLE)):
            assert abs(g - e) <= 0.05

    def test_single_point(self):
        cands = compact.enumerate_segments(np.array([0.0]))
        assert len(cands) == 1
        c = cands[0]
        assert c.lo == pytest.approx(-ROOT5) and c.hi == pytest.approx(ROOT5)
        assert c.maximizer == 0.0
        assert c.objective == pytest.approx(1.0, abs=1e-12)
        assert c.active_set == range(0, 1)

    def test_two_points_beyond_gap(self):
        cands = compact.enumerate_segments(np.array([0.0, 10.0]))
        assert len(cands) == 2
        assert [c.maximizer for c in cands] == [0.0, 10.0]
        for c in cands:
            assert len(c.active_set) == 1
            assert c.objective == pytest.approx(1.0, abs=1e-12)

    def test_active_set_constant_on_interval(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(0, 12, size=9))
        for cand in compact.enumerate_segments(xs):
            for frac in (0.12, 0.5, 0.88):
                mu = cand.lo + frac * (cand.hi - cand.lo)
                active = tuple(
                    int(i) for i in np.flatnonzero(np.abs(xs - mu) <= ROOT5 + 1e-12)
                )
                assert active == tuple(cand.active_set)

    def test_maximizer_is_median_and_in_interval(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 15, size=11)
        for cand in compact.enumerate_segments(xs):
            assert cand.lo <= cand.maximizer <= cand.hi
            med = float(np.median([cand.lo, cand.unconstrained_max, cand.hi]))
            assert cand.maximizer == med

    def test_objective_terms_nonnegative(self):
        rng = np.random.default_rng(2)
        xs = np.sort(rng.uniform(0, 10, size=8))
        for cand in compact.enumerate_segments(xs):
            terms = 1.0 - (xs[list(cand.active_set)] - cand.maximizer) ** 2 / 5.0
            assert np.all(terms >= -1e-12)
            assert cand.objective == pytest.approx(np.clip(terms, 0, None).sum(), abs=1e-12)

    def test_duplicates_weight_the_parabola(self):
        cands = compact.enumerate_segments(np.array([1.0, 1.0, 1.0]))
        assert len(cands) == 1
        assert cands[0].objective == pytest.approx(3.0, abs=1e-12)
        assert cands[0].active_set == range(0, 3)


class TestSegmentTable:
    @pytest.fixture
    def table(self):
        return compact.enumerate_segments(np.array(compact.REFERENCE_SAMPLE))

    def test_length(self, table):
        assert len(table) == 19 == table.objective.size

    def test_indexing(self, table):
        n = len(table)
        for i in (0, -1, n - 1):
            row, j = table[i], i % n
            assert (row.lo, row.hi, row.unconstrained_max, row.maximizer, row.objective) == (
                table.lo[j], table.hi[j], table.unconstrained_max[j], table.maximizer[j], table.objective[j])
            assert row.active_set == range(table.start[j], table.stop[j])
        assert table[-1] == table[n - 1]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                table[i]
        with pytest.raises(TypeError):
            table[0:1]

    def test_iteration_equals_indexing(self, table):
        assert list(table) == [table[i] for i in range(len(table))]

    def test_rows_hold_python_scalars(self, table):
        for row in (table[3], list(table)[3]):
            for value in (row.lo, row.hi, row.unconstrained_max, row.maximizer, row.objective):
                assert type(value) is float
            assert type(row.active_set) is range
            assert type(row.active_set.start) is int and type(row.active_set.stop) is int

    def test_columns_are_read_only(self, table):
        with pytest.raises(ValueError):
            table.objective[0] = 0.0


class TestColumnarFitMatchesRows:
    """The fit's ties and its compact-fit report against the row-by-row code they replaced."""

    @given(
        st.sampled_from(["clustered", "spread", "mixed", "duplicates", "lattice"]),
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_layouts(self, layout, n, seed, shift):
        self.check(layout_sample(layout, n, seed, shift))

    @pytest.mark.parametrize("xs", [
        np.array(compact.REFERENCE_SAMPLE),
        np.array([0.0, 10.0, 25.0, 40.0]),
        np.concatenate([layout_sample("clustered", 2000, 0), layout_sample("clustered", 2000, 0) + 1e4]),
    ], ids=["reference", "far-apart", "identical-clusters"])
    def test_cases(self, xs):
        self.check(xs)

    @staticmethod
    def check(xs):
        result = compact.maximize_l2(xs)
        best, ties = reference_ties(xs)
        assert (result.objective_over_n2, result.ties, result.mu_hat) == (best, ties, ties[0])
        text = compact_fit_report(xs)
        expected = reference_report(text, xs)
        if text != expected:  # pytest's own diff of two long reports takes minutes
            i = next((k for k, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
            pytest.fail(f"reports differ at {i}: {text[max(0, i - 60):i + 60]!r} != {expected[max(0, i - 60):i + 60]!r}")


class TestSweepMatchesReference:
    @given(
        st.sampled_from(["clustered", "spread", "mixed", "duplicates", "lattice"]),
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    @settings(max_examples=150, deadline=None)
    def test_segments_match_the_per_segment_loop(self, layout, n, seed, shift):
        assert_matches_reference(layout_sample(layout, n, seed, shift))

    def test_spread_sample_beyond_a_globally_centered_prefix_sum(self):
        # Uniform on [0, 1000], n = 1000: one cumsum of x - mean(x) and of its
        # square puts objectives about 2.6e-9 relative off the direct sums,
        # outside the 1e-10 required here.
        xs = np.sort(np.random.default_rng(0).uniform(0.0, 1000.0, size=1000))
        assert_matches_reference(xs)
        centered = xs - xs.mean()
        p1 = np.concatenate(([0.0], np.cumsum(centered)))
        p2 = np.concatenate(([0.0], np.cumsum(centered * centered)))
        worst = 0.0
        for cand, expected in zip(compact.enumerate_segments(xs), reference_segments(xs)):
            i, j = cand.active_set.start, cand.active_set.stop
            delta = cand.maximizer - xs.mean()
            sq = (p2[j] - p2[i]) - 2.0 * delta * (p1[j] - p1[i]) + (j - i) * delta * delta
            worst = max(worst, abs((j - i) - sq / 5.0 - expected[4]) / max(1.0, expected[4]))
        assert worst > 1e-10

    @pytest.mark.parametrize("xs", [
        [1000000.3968168065, 1000004.8689547615],
        [1000000.018274888, 1000004.490412843],
    ])
    def test_membership_at_the_edge_of_reach(self, xs):
        # Two points 2 sqrt(5) plus 2e-6 apart near 1e6: the gap between the
        # first support's end and the second's start is reached by no point,
        # so it is no segment, and each point is active on its own support
        # only.  A distance test from the gap's midpoint, widened by a
        # relative 1e-12, counts the first point as active on it.
        assert_matches_reference(np.array(xs))
        assert [c.active_set for c in compact.enumerate_segments(xs)] == [range(0, 1), range(1, 2)]

    @pytest.mark.parametrize("layout", ["clustered", "mixed", "duplicates"])
    def test_means_are_correctly_rounded(self, layout):
        for seed in range(20):
            xs = np.sort(layout_sample(layout, 12, seed))
            for cand in compact.enumerate_segments(xs):
                exact = sum(map(Fraction, xs[cand.active_set.start:cand.active_set.stop])) / len(cand.active_set)
                ulp = Fraction(float(np.spacing(abs(cand.unconstrained_max))))
                assert abs(Fraction(cand.unconstrained_max) - exact) <= ulp / 2

    def test_reference_sample_is_bit_identical(self):
        # the per-segment values verify-paper-example prints in full
        got = compact.enumerate_segments(np.array(compact.REFERENCE_SAMPLE))
        expected = reference_segments(compact.REFERENCE_SAMPLE)
        assert got[3].maximizer == expected[3][3] == 5.575
        for i in (12, 15):
            assert got[i].objective == expected[i][4]


class TestMaximizeL2:
    def test_reference_sample(self):
        result = compact.maximize_l2(np.array(compact.REFERENCE_SAMPLE))
        assert abs(result.mu_hat - 8.46) <= 0.01
        assert abs(result.objective_over_n2 - 6.42) <= 0.05
        # the estimate is not the sample mean
        assert abs(result.mu_hat - 7.45) > 0.5

    def test_single_point(self):
        result = compact.maximize_l2(np.array([2.5]))
        assert result.mu_hat == 2.5
        assert result.objective_over_n2 == pytest.approx(1.0, abs=1e-12)

    def test_all_points_far_apart_ties(self):
        xs = np.array([0.0, 10.0, 25.0, 40.0])
        result = compact.maximize_l2(xs)
        assert result.mu_hat == 0.0
        assert np.allclose(result.ties, xs, atol=1e-12)

    def test_identical_clusters_far_apart_tie(self):
        # 2000 points shifted by 1e4 are rounded anew, which moves the second
        # maximum by about 2e-11: a tie at the relative tolerance, not at 1e-12.
        cluster = layout_sample("clustered", 2000, 0)
        result = compact.maximize_l2(np.concatenate([cluster, cluster + 1e4]))
        assert len(result.ties) == 2
        assert result.ties[1] - result.ties[0] == pytest.approx(1e4, abs=1e-6)
        second = sorted(c.objective for c in result.candidates)[-2]
        assert result.objective_over_n2 - second > 1e-12

    def test_accepts_sample_batch(self):
        batch = af.SampleBatch(np.array(compact.REFERENCE_SAMPLE))
        assert compact.maximize_l2(batch).mu_hat == pytest.approx(8.457142857142857, abs=1e-12)

    @given(st.floats(min_value=-100.0, max_value=100.0), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_translation_equivariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 10, size=int(rng.integers(1, 9)))
        base = compact.maximize_l2(xs)
        moved = compact.maximize_l2(xs + shift)
        assert moved.mu_hat == pytest.approx(base.mu_hat + shift, rel=1e-9, abs=1e-7)

    @given(
        st.sampled_from(["clustered", "spread", "mixed", "duplicates", "lattice"]),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=6.0, max_value=15.0),
        st.sampled_from([1.0, -1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_fit_moves_with_the_sample(self, layout, n, seed, exponent, sign):
        # The maximum of ell is at the mean of some contiguous run of the
        # sorted sample, so ell there, and at every point, bounds the fit
        # from below wherever the sample sits.
        xs = np.sort(layout_sample(layout, n, seed, sign * 10.0 ** exponent))
        result = compact.maximize_l2(xs)
        widest = int((result.candidates.stop - result.candidates.start).max())
        tol = 4.0 * widest * math.ulp(1.0) * max(1.0, -xs[0], xs[-1])
        prefix = np.concatenate(([0.0], np.cumsum(xs - xs[0])))
        i, j = np.triu_indices(xs.size + 1, 1)
        mus = np.concatenate([xs[0] + (prefix[j] - prefix[i]) / (j - i), xs, [result.mu_hat]])
        ell = np.clip(1.0 - (xs - mus[:, None]) ** 2 / 5.0, 0.0, None).sum(axis=1)
        assert ell[:-1].max() - result.objective_over_n2 <= tol
        assert abs(ell[-1] - result.objective_over_n2) <= tol

    @pytest.mark.parametrize("offset", [1e11, 1e12, 2e12, 1e13])
    def test_reference_sample_far_from_zero(self, offset):
        # At 1e13 a tie bound 9 times the rounding bound ties 8.15 with the best maximizer 8.457.
        result = compact.maximize_l2(np.array(compact.REFERENCE_SAMPLE) + offset)
        assert len(result.candidates) == 19 and len(result.ties) == 1
        assert abs(result.mu_hat - offset - 8.46) <= 0.01
        assert abs(result.objective_over_n2 - 6.42) <= 0.05

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("xs,shown", [([1e17, -1e17], "1e+17"), ([0.0, 4e16], "4e+16"),
                                          ([1e308, -1e308], "1e+308")])
    def test_support_collapsed_in_float64_is_an_invalid_configuration(self, xs, shown, tmp_path, capsys):
        # Past |x| = 2**55, x - sqrt(5) and x + sqrt(5) round to x.
        with pytest.raises(af.ParameterError) as err:
            compact.maximize_l2(xs)
        assert err.value.code == "observation_too_large"
        path = tmp_path / "xs.csv"
        path.write_text("".join(f"{x!r}\n" for x in xs))
        assert cli.main(["compact-fit", "--input", str(path)]) == cli.EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"invalid configuration: an observation of magnitude {shown} ")
        assert "2**55" in err

    @pytest.mark.parametrize("seed", range(6))
    def test_beats_dense_grid(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        # mixed layouts: clusters plus far-away points
        xs = np.concatenate(
            [
                rng.uniform(0, 4, size=max(1, n // 2)),
                rng.uniform(9, 12, size=n - max(1, n // 2)),
            ]
        )
        xs = xs[:n] if n >= 1 else xs
        result = compact.maximize_l2(xs)
        grid_mu, grid_obj = grid_search(xs)
        assert result.objective_over_n2 >= grid_obj - 1e-8
        assert result.objective_over_n2 <= grid_obj + 1e-3

    def test_per_segment_matches_grid_within_one_step(self):
        rng = np.random.default_rng(9)
        xs = np.sort(rng.uniform(0, 8, size=7))
        spacing = 1e-4
        for cand in compact.enumerate_segments(xs):
            grid = np.arange(cand.lo, cand.hi + spacing, spacing)
            grid = np.clip(grid, cand.lo, cand.hi)
            vals = np.zeros_like(grid)
            for i in cand.active_set:
                vals += np.clip(1.0 - (xs[i] - grid) ** 2 / 5.0, 0.0, None)
            best = grid[int(np.argmax(vals))]
            assert abs(best - cand.maximizer) <= spacing

    def test_consistency_with_generalized_likelihood(self):
        from alphafam import divergence as dv

        xs = np.array(compact.REFERENCE_SAMPLE)
        batch = af.SampleBatch(xs)
        result = compact.maximize_l2(xs)
        values = []
        for cand in result.candidates:
            params = af.make_student_t(2.0, [cand.maximizer], [[1.0]])
            values.append(dv.generalized_log_likelihood(params, batch))
        best = result.candidates[int(np.argmax(values))]
        assert best.maximizer == result.mu_hat
