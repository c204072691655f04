"""Exact global maximizer of the compact-support likelihood (alpha = 2, sigma = 1).

For the univariate order-2 family with unit variance the density is a
parabola N2*[1 - (x-mu)^2/5]_+ supported on [mu - sqrt(5), mu + sqrt(5)],
and the sample objective

    ell(mu) = sum_i [1 - (X_i - mu)^2/5]_+        (reported in units of N2)

is piecewise a downward parabola between consecutive breakpoints
{X_i - sqrt(5), X_i + sqrt(5)}.  One vectorized sweep handles every segment
at once, so joint layouts (one overlapping window, clusters separated by
gaps, or all points mutually far apart) need no case analysis.  On each
segment the active set is a contiguous run [start, stop) of the sorted
sample, found with ``searchsorted``; its count, mean, constrained maximizer
median{lo, mean(active), hi} and objective follow in O(1) from prefix sums,
so the sweep is O(n log n) for the sort and O(n) after it.  The prefix sums
are kept in double-double arithmetic, relative to the first point of each
cell of width just over 2 sqrt(5), which keeps means and objectives within
about an ulp of their exact values at any offset of the sample.

The sweep's result stays columnar: a ``SegmentTable`` holds one numpy array
per field, ``maximize_l2`` picks the optimum and its ties on those arrays,
and a ``SegmentCandidate`` row is built only when the table is indexed or
iterated.  The ``compact-fit`` report keeps the columns too, one JSON array
per field, so that row i is entry i of every array.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

import numpy as np

from .core import SampleBatch, _split, b_alpha, log_norm_const, record

__all__ = [
    "ROOT5",
    "N2",
    "REFERENCE_SAMPLE",
    "SegmentCandidate",
    "SegmentTable",
    "CompactFitResult",
    "enumerate_segments",
    "maximize_l2",
]

# Support half-width sqrt(5) and peak density N2 of the order-2 unit-variance
# member: the radius_sq and log_norm_const that make_student_t(2, 0, 1)
# derives, formed the same way without building the record, so that running
# this module calls no public function (a tracer may have wrapped those
# before a lazily loaded module runs).
ROOT5 = math.sqrt(-1.0 / b_alpha(2.0, 1))
N2 = math.exp(log_norm_const(2.0, 0.0, 1))

# Built-in reference dataset for the end-to-end verification command.
REFERENCE_SAMPLE = (4.6, 4.7, 6.0, 7.0, 8.2, 8.6, 8.7, 8.8, 8.9, 9.0)

_EPS = math.ulp(1.0)


def _slack(value):
    """Absolute slack for segment membership; scales with |value|."""
    return 1e-12 * (1.0 + abs(value))


@record
class SegmentCandidate:
    """One interval of constancy of the active set, with its maximizer.

    ``active_set`` is the ``range`` of 0-based indices into the sorted sample
    of the points within reach of the segment (always a contiguous run);
    ``objective`` is ell at the maximizer in units of N2.
    """

    lo: float
    hi: float
    active_set: range
    unconstrained_max: float
    maximizer: float
    objective: float


@record
class SegmentTable(Sequence):
    """The segment candidates in breakpoint order, one read-only numpy column per field.

    ``start``/``stop`` bound each active set, the rest are the fields of
    ``SegmentCandidate``.  As a sequence it has a length and yields
    ``SegmentCandidate`` rows (Python floats and a ``range``), built only
    when indexed or iterated; an index out of range raises ``IndexError``.
    """

    lo: np.ndarray
    hi: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    unconstrained_max: np.ndarray
    maximizer: np.ndarray
    objective: np.ndarray

    # Compared by identity: a value comparison of array columns is ambiguous.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        for column in self._columns():
            column.flags.writeable = False

    def _columns(self) -> tuple:
        return self.lo, self.hi, self.start, self.stop, self.unconstrained_max, self.maximizer, self.objective

    @staticmethod
    def _row(lo, hi, start, stop, unconstrained_max, maximizer, objective) -> SegmentCandidate:
        return SegmentCandidate(lo, hi, range(start, stop), unconstrained_max, maximizer, objective)

    def __len__(self) -> int:
        return self.lo.size

    def __getitem__(self, index) -> SegmentCandidate:
        index = operator.index(index)  # one row: no slices
        return self._row(*(column[index].item() for column in self._columns()))

    def __iter__(self):
        return map(self._row, *(column.tolist() for column in self._columns()))


@record
class CompactFitResult:
    """Global fit: argmax over all segment candidates.

    ``candidates`` is the ``SegmentTable`` of every segment, columnar, with
    rows built on access.  ``ties`` lists every co-optimal maximizer in
    increasing order; ``mu_hat`` is the smallest of them.
    """

    mu_hat: float
    objective_over_n2: float
    candidates: SegmentTable
    ties: tuple


def _as_scalars(batch) -> np.ndarray:
    """The sorted d = 1 sample; raw arrays get the same checks as a ``SampleBatch``."""
    if not isinstance(batch, SampleBatch):
        batch = SampleBatch(batch)
    return np.sort(batch.scalars())


# Double-double arithmetic: a value is an unevaluated sum (hi, lo) of two
# float arrays, good to about eps^2 relative.  Error-free transformations
# after Knuth (sum) and Dekker (product, without FMA).


def _two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _two_sum(s, e + (x[1] + y[1]))


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_div(x, b):
    """Double-double x over the float b."""
    q = x[0] / b
    p, e = _two_prod(q, b)
    return _two_sum(q, ((x[0] - p) - e + x[1]) / b)


def _prefix(h, l):
    """Running double-double sums of h + l, starting from 0."""
    total = np.concatenate(([0.0], np.cumsum(h)))
    _, err = _two_sum(total[:-1], h)  # the exact rounding error of each cumsum step
    return total, np.concatenate(([0.0], np.cumsum(err + l)))


def _run_sum(prefix, first, last):
    total, low = prefix
    s, e = _two_sum(total[last], -total[first])
    return _two_sum(s, e + (low[last] - low[first]))


def _shrink(xs, inside, first, last):
    """Narrow each index range [first, last) of the sorted ``xs`` to where ``inside`` holds.

    ``inside`` maps one x per range to a bool.  Within each range it must
    hold on one contiguous run, as a test of distance from a point does on
    sorted data.  Runs of duplicates are stepped over at once.
    """
    while True:
        x = xs.take(first, mode="clip")
        out = (first < last) & ~inside(x)
        if not out.any():
            break
        first = np.where(out, np.minimum(np.searchsorted(xs, x, "right"), last), first)
    while True:
        x = xs.take(last - 1, mode="clip")
        out = (first < last) & ~inside(x)
        if not out.any():
            break
        last = np.where(out, np.maximum(np.searchsorted(xs, x, "left"), first), last)
    return first, last


def _parts(xs, cell_start, sums, first, last):
    """Split each range [first, last) at the one cell boundary it may cross.

    Returns two parts, each (anchor, count, sum of x - anchor, sum of
    (x - anchor)^2) per range, the sums in double-double; the first part
    is empty when the range lies in one cell.
    """
    top = xs.size - 1
    split = np.maximum(first, cell_start[np.clip(last - 1, 0, top)])
    parts = []
    for a, b in ((first, split), (split, last)):
        anchor = xs[cell_start[np.minimum(a, top)]]
        parts.append((anchor, (b - a).astype(float), _run_sum(sums[0], a, b), _run_sum(sums[1], a, b)))
    return parts


def _sweep(xs: np.ndarray) -> SegmentTable:
    """Segment candidates of the sorted sample ``xs`` in one vectorized pass."""
    r5 = ROOT5
    r2 = r5 * r5
    breakpoints = np.sort(np.concatenate([xs - r5, xs + r5]))
    lo, hi = breakpoints[:-1], breakpoints[1:]
    keep = hi - lo > _slack(0.5 * (np.abs(lo) + np.abs(hi)))
    lo, hi = lo[keep], hi[keep]

    # Active set: the run of points with |x - mid| <= reach, computed as that
    # very test; the searchsorted guesses are padded to contain the run.
    mid = 0.5 * (lo + hi)
    reach = r5 + _slack(mid)
    pad = 4.0 * _EPS * (np.abs(mid) + reach)
    start, stop = _shrink(
        xs,
        lambda x: np.abs(x - mid) <= reach,
        np.searchsorted(xs, mid - reach - pad, "left"),
        np.searchsorted(xs, mid + reach + pad, "right"),
    )
    nonempty = start < stop
    lo, hi, start, stop = lo[nonempty], hi[nonempty], start[nonempty], stop[nonempty]

    # Each point is measured from the first point of its cell.  Cells are just
    # wider than the widest active set (2 * reach plus rounding), so a run
    # spans at most two cells and is summed in two parts, each relative to a
    # nearby anchor whatever the offset of the sample.
    width = 2.0 * (r5 + _slack(2.0 * (np.abs(xs).max() + r5)))
    cell = np.floor((xs - xs[0]) / width)
    cell_start = np.searchsorted(cell, cell, "left")
    dh, dl = _two_sum(xs, -xs[cell_start])
    ph, pl = _two_prod(dh, dh)
    sums = (_prefix(dh, dl), _prefix(ph, pl + 2.0 * dh * dl))

    # Mean of the active run, relative to the first part's anchor.
    (a1, k1, sum1, _), (a2, k2, sum2, _) = _parts(xs, cell_start, sums, start, stop)
    total = _dd_add(_dd_add(sum1, sum2), _dd_mul((k2, 0.0), _two_sum(a2, -a1)))
    qh, ql = _dd_div(total, k1 + k2)
    s, e = _two_sum(a1, qh)
    mean = s + (e + ql)
    maximizer = np.minimum(np.maximum(mean, lo), hi)

    # Objective: sum of 1 - (x - m)^2 / r5^2 over the active points whose term
    # is positive (the [.]_+ of ell), with sum (x - m)^2 expanded per part as
    # S2 + delta * (k * delta - 2 * S1), delta = m - anchor.
    first, last = _shrink(
        xs, lambda x: 1.0 - (x - maximizer) * (x - maximizer) / r2 > 0.0, start, stop
    )
    sq = (0.0, 0.0)
    for anchor, k, s1, s2 in _parts(xs, cell_start, sums, first, last):
        delta = _two_sum(maximizer, -anchor)
        inner = _dd_add(_dd_mul((k, 0.0), delta), (-2.0 * s1[0], -2.0 * s1[1]))
        sq = _dd_add(sq, _dd_add(s2, _dd_mul(delta, inner)))
    qh, ql = _dd_div(sq, r2)
    s, e = _two_sum((last - first).astype(float), -qh)
    objective = s + (e - ql)

    return SegmentTable(lo, hi, start, stop, mean, maximizer, objective)


def enumerate_segments(batch) -> SegmentTable:
    """Segment candidates between consecutive breakpoints {X_i +- sqrt(5)}.

    Sorts the sample internally (duplicates allowed; they weight the
    parabola), skips zero-length segments from duplicate breakpoints and
    segments whose active set is empty, and determines each active set at
    the segment midpoint.  O(n log n): each active set is a contiguous run
    of the sorted sample found by ``searchsorted``, and each segment's mean
    and objective come in O(1) from prefix sums.  Returns the columns as a
    ``SegmentTable``, whose ``SegmentCandidate`` rows are built on access.
    """
    return _sweep(_as_scalars(batch))


def maximize_l2(batch) -> CompactFitResult:
    """Global maximizer of ell over all segment candidates.

    Ties are objectives within 4 * k * eps * max(1, max|X_i|) of the best,
    where k is the largest active set and eps the float64 epsilon.  Rounding
    each observation to float64 moves an objective by at most
    k * eps * max|X_i| / sqrt(5) (each term's slope is at most 2/sqrt(5)),
    and rounding the objective itself (at most k) adds eps * k, so two
    maxima closer than this cannot be told apart.  Ties resolve to the
    smallest maximizer; all co-optima are reported in increasing order.
    The best objective, the widest active set and the ties are read off
    the table's columns; ``candidates`` is that ``SegmentTable``.
    """
    xs = _as_scalars(batch)
    candidates = _sweep(xs)
    best = float(candidates.objective.max())
    widest = int((candidates.stop - candidates.start).max())
    tol = 4.0 * widest * _EPS * max(1.0, -xs[0], xs[-1])
    ties = np.sort(candidates.maximizer[best - candidates.objective <= tol], kind="stable").tolist()
    deduped = [ties[0]]
    for mu in ties[1:]:
        if mu - deduped[-1] > _slack(mu):
            deduped.append(mu)
    return CompactFitResult(
        mu_hat=deduped[0],
        objective_over_n2=best,
        candidates=candidates,
        ties=tuple(deduped),
    )
