"""Exact global maximizer of the compact-support likelihood (alpha = 2, sigma = 1).

For the univariate order-2 family with unit variance the density is a
parabola N2*[1 - (x-mu)^2/5]_+ supported on [mu - sqrt(5), mu + sqrt(5)],
and the sample objective

    ell(mu) = sum_i [1 - (X_i - mu)^2/5]_+        (reported in units of N2)

is piecewise a downward parabola between consecutive breakpoints
{X_i - sqrt(5), X_i + sqrt(5)}.  A single sweep over the sorted breakpoints
recomputes the active set per segment, so joint layouts (one overlapping
window, clusters separated by gaps, or all points mutually far apart) need
no case analysis; on each segment the constrained maximizer is
median{lo, mean(active), hi}.

General (alpha > 1, sigma) fitting is a documented extension point, not
implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SampleBatch

__all__ = [
    "ROOT5",
    "N2",
    "REFERENCE_SAMPLE",
    "SegmentCandidate",
    "CompactFitResult",
    "pdf_alpha2",
    "enumerate_segments",
    "maximize_l2",
]

ROOT5 = math.sqrt(5.0)
N2 = 3.0 / (4.0 * math.sqrt(5.0))

# Built-in reference dataset for the end-to-end verification command.
REFERENCE_SAMPLE = (4.6, 4.7, 6.0, 7.0, 8.2, 8.6, 8.7, 8.8, 8.9, 9.0)

# Comparison tolerances: absolute slack for segment membership scales with
# |mu|; objective ties are broken below this gap.
_TIE_TOL = 1e-12


def _slack(value: float) -> float:
    return 1e-12 * (1.0 + abs(value))


def pdf_alpha2(mu: float, x: float) -> float:
    """Parabola density N2*[1 - (x-mu)^2/5]_+ of the order-2 unit-variance family."""
    return N2 * max(0.0, 1.0 - (x - mu) ** 2 / (ROOT5 * ROOT5))


@dataclass(frozen=True)
class SegmentCandidate:
    """One interval of constancy of the active set, with its maximizer.

    ``active_set`` holds 0-based indices into the sorted sample;
    ``objective`` is ell at the maximizer in units of N2.
    """

    lo: float
    hi: float
    active_set: tuple
    unconstrained_max: float
    maximizer: float
    objective: float


@dataclass(frozen=True)
class CompactFitResult:
    """Global fit: argmax over all segment candidates.

    ``ties`` lists every co-optimal maximizer in increasing order; ``mu_hat``
    is the smallest of them.
    """

    mu_hat: float
    objective_over_n2: float
    candidates: tuple
    ties: tuple


def _as_scalars(batch) -> np.ndarray:
    if isinstance(batch, SampleBatch):
        return np.sort(batch.scalars())
    xs = np.asarray(batch, dtype=float).ravel()
    if xs.size < 1:
        raise ValueError("need at least one observation")
    return np.sort(xs)


def enumerate_segments(batch) -> list:
    """Segment candidates between consecutive breakpoints {X_i +- sqrt(5)}.

    Sorts the sample internally (duplicates allowed; they weight the
    parabola), skips zero-length segments from duplicate breakpoints and
    segments whose active set is empty, and determines each active set at
    the segment midpoint.
    """
    xs = _as_scalars(batch)
    r5 = ROOT5
    breakpoints = np.sort(np.concatenate([xs - r5, xs + r5]))
    candidates = []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if hi - lo <= _slack(0.5 * (abs(lo) + abs(hi))):
            continue
        mid = 0.5 * (lo + hi)
        active = np.flatnonzero(np.abs(xs - mid) <= r5 + _slack(mid))
        if active.size == 0:
            continue
        mean_active = float(xs[active].mean())
        maximizer = float(min(max(mean_active, lo), hi))
        terms = 1.0 - (xs[active] - maximizer) ** 2 / (r5 * r5)
        objective = float(np.clip(terms, 0.0, None).sum())
        candidates.append(
            SegmentCandidate(
                lo=float(lo),
                hi=float(hi),
                active_set=tuple(int(i) for i in active),
                unconstrained_max=mean_active,
                maximizer=maximizer,
                objective=objective,
            )
        )
    return candidates


def maximize_l2(batch) -> CompactFitResult:
    """Global maximizer of ell over all segment candidates.

    Ties (objectives within 1e-12 of the best) resolve to the smallest
    maximizer; all co-optima are reported in increasing order.
    """
    candidates = enumerate_segments(batch)
    best = max(c.objective for c in candidates)
    ties = sorted(c.maximizer for c in candidates if best - c.objective <= _TIE_TOL)
    deduped = [ties[0]]
    for mu in ties[1:]:
        if mu - deduped[-1] > _slack(mu):
            deduped.append(mu)
    return CompactFitResult(
        mu_hat=deduped[0],
        objective_over_n2=best,
        candidates=tuple(candidates),
        ties=tuple(deduped),
    )
