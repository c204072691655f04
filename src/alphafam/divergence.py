"""Order-alpha divergence, KL divergence, and the generalized likelihood.

Divergences take lightweight handles: a probability vector over finitely
many atoms, or a 1-D density with an interval support.  Continuous
integrals use adaptive quadrature (QUADPACK via scipy), which transforms
infinite tails internally.  scipy is imported on the first quadrature, so
commands that integrate nothing never load it.  The generalized likelihood
takes a Student-t model, whose order is its own alpha and whose power
integral is closed form, so it never integrates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import (
    AlphaFamilyError,
    DimensionMismatchError,
    NumericalError,
    SampleBatch,
    StudentTParams,
    check_alpha,
)
from . import studentt

__all__ = [
    "InvalidDistributionError",
    "DiscreteDistribution",
    "ContinuousDistribution1D",
    "DistributionHandle",
    "gaussian",
    "bernoulli",
    "student_t_1d",
    "i_alpha",
    "kl",
    "generalized_log_likelihood",
]

DEFAULT_EPSABS = 1e-10
DEFAULT_EPSREL = 1e-8


class InvalidDistributionError(AlphaFamilyError):
    """Handle fails its normalization or nonnegativity check."""


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over m atoms; finite entries >= 0 summing to 1 +- 1e-12."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise InvalidDistributionError("probs must be a nonempty vector")
        if not np.isfinite(probs).all():
            raise InvalidDistributionError("probabilities must be finite")
        if np.any(probs < 0.0):
            raise InvalidDistributionError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise InvalidDistributionError(f"probabilities sum to {probs.sum()}, not 1")
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class ContinuousDistribution1D:
    """1-D density with an interval support (endpoints may be infinite)."""

    pdf: Callable[[float], float]
    support: tuple

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise InvalidDistributionError("support must be a nonempty interval")

    def validate(self, epsabs: float = DEFAULT_EPSABS, epsrel: float = DEFAULT_EPSREL):
        mass = _quad(self.pdf, *self.support, epsabs=epsabs, epsrel=epsrel)
        if abs(mass - 1.0) > 1e-6:
            raise InvalidDistributionError(f"density integrates to {mass}, not 1")
        return self


DistributionHandle = Union[DiscreteDistribution, ContinuousDistribution1D]


def gaussian(mu: float, var: float) -> ContinuousDistribution1D:
    """Normal density handle with finite mean mu and finite variance var > 0."""
    if not math.isfinite(mu):
        raise InvalidDistributionError("mean must be finite")
    if not 0.0 < var < math.inf:
        raise InvalidDistributionError("variance must be finite and positive")
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)

    def pdf(x: float) -> float:
        return norm * math.exp(-0.5 * (x - mu) ** 2 / var)

    return ContinuousDistribution1D(pdf=pdf, support=(-math.inf, math.inf))


def bernoulli(p: float) -> DiscreteDistribution:
    """Two-atom handle (1-p, p)."""
    return DiscreteDistribution(probs=np.array([1.0 - p, p]))


def student_t_1d(params: StudentTParams) -> ContinuousDistribution1D:
    """Handle wrapping a d = 1 Student-t density with its exact support."""
    return ContinuousDistribution1D(
        pdf=lambda x: studentt.density(params, [x]), support=params.support_interval
    )


def quad(func, a, b, **kwargs):
    """``scipy.integrate.quad``, imported on first use."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


def _quad(fn, lo, hi, epsabs: float, epsrel: float) -> float:
    """Adaptive quadrature; divergence and failure are reported distinctly."""
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, _ = quad(fn, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=200)
        except IntegrationWarning as exc:
            if "divergent" in str(exc):
                return math.inf
            raise NumericalError(f"quadrature failed on [{lo}, {hi}]: {exc}") from exc
        except Exception as exc:  # quadpack raises plain Exceptions on some inputs
            raise NumericalError(f"quadrature failed on [{lo}, {hi}]: {exc}") from exc
    if math.isnan(value):
        raise NumericalError(f"quadrature returned NaN on [{lo}, {hi}]")
    return value


def _discrete_cross(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    p_mass = p > 0.0
    if alpha < 1.0 and np.any(q[p_mass] == 0.0):
        return math.inf
    both = p_mass & (q > 0.0)
    return float(np.sum(p[both] * q[both] ** (alpha - 1.0)))


def _log_power_integral(h: DistributionHandle, alpha: float, epsabs: float, epsrel: float) -> float:
    """log Int h^alpha: a sum over the atoms of a discrete handle, else quadrature."""
    if isinstance(h, DiscreteDistribution):
        value = float(np.sum(h.probs[h.probs > 0.0] ** alpha))
    else:
        value = _quad(lambda x: h.pdf(x) ** alpha, *h.support, epsabs, epsrel)
    if not 0.0 < value < math.inf:
        raise NumericalError("power integral is not finite and positive")
    return math.log(value)


def i_alpha(
    p: DistributionHandle,
    q: DistributionHandle,
    alpha: float,
    epsabs: float = DEFAULT_EPSABS,
    epsrel: float = DEFAULT_EPSREL,
) -> float:
    """Order-alpha divergence between two validated handles.

    Evaluates alpha/(1-alpha) log Int p q^(alpha-1) - 1/(1-alpha) log Int
    p^alpha + log Int q^alpha; nonnegative, 0 when p = q, and returns
    +inf when the cross term degenerates (reported distinctly from
    quadrature failure, which raises NumericalError).
    """
    check_alpha(alpha)
    if isinstance(p, DiscreteDistribution) and isinstance(q, DiscreteDistribution):
        if p.probs.shape != q.probs.shape:
            raise DimensionMismatchError("handles must share one atom set")
        cross = _discrete_cross(p.probs, q.probs, alpha)
    elif isinstance(p, ContinuousDistribution1D) and isinstance(q, ContinuousDistribution1D):
        (plo, phi), (qlo, qhi) = p.support, q.support
        if alpha < 1.0 and (plo < qlo or phi > qhi):
            return math.inf
        lo, hi = max(plo, qlo), min(phi, qhi)

        def cross_integrand(x: float) -> float:
            px = p.pdf(x)
            if px <= 0.0:
                return 0.0
            qx = q.pdf(x)
            if qx <= 0.0:
                if alpha > 1.0:
                    return 0.0
                # q is positive on its open support by convention, so a zero
                # strictly inside is float underflow; floor it.
                qx = 5e-324
            return px * qx ** (alpha - 1.0)

        cross = 0.0 if not lo < hi else _quad(cross_integrand, lo, hi, epsabs, epsrel)
    else:
        raise DimensionMismatchError("handles must be the same kind")

    if cross == math.inf or cross == 0.0:
        return math.inf
    return (
        alpha / (1.0 - alpha) * math.log(cross)
        - 1.0 / (1.0 - alpha) * _log_power_integral(p, alpha, epsabs, epsrel)
        + _log_power_integral(q, alpha, epsabs, epsrel)
    )


def kl(
    p: DistributionHandle,
    q: DistributionHandle,
    epsabs: float = DEFAULT_EPSABS,
    epsrel: float = DEFAULT_EPSREL,
) -> float:
    """Kullback-Leibler divergence Int p log(p/q); +inf on support violation."""
    if isinstance(p, DiscreteDistribution) and isinstance(q, DiscreteDistribution):
        if p.probs.shape != q.probs.shape:
            raise DimensionMismatchError("handles must share one atom set")
        pv, qv = p.probs, q.probs
        mass = pv > 0.0
        if np.any(qv[mass] == 0.0):
            return math.inf
        return float(np.sum(pv[mass] * np.log(pv[mass] / qv[mass])))
    if isinstance(p, ContinuousDistribution1D) and isinstance(q, ContinuousDistribution1D):
        (plo, phi), (qlo, qhi) = p.support, q.support
        if plo < qlo or phi > qhi:
            return math.inf

        def integrand(x: float) -> float:
            px = p.pdf(x)
            if px <= 0.0:
                return 0.0
            qx = max(q.pdf(x), 5e-324)  # underflow floor, as in i_alpha
            return px * (math.log(px) - math.log(qx))

        return _quad(integrand, plo, phi, epsabs, epsrel)
    raise DimensionMismatchError("handles must be the same kind")


def generalized_log_likelihood(params: StudentTParams, batch: SampleBatch) -> float:
    """Generalized log-likelihood of a batch under a Student-t model, of its own order.

    With alpha = params.alpha, evaluates alpha/(alpha-1) log[(1/n) sum_j
    p(X_j)^(alpha-1)] minus log Int p^alpha, the latter in closed form.
    Observations where the density vanishes drive the first term to -inf
    (returned as a value, never raised), both for alpha < 1 (infinite
    weight) and for alpha > 1 with every point off-support (empty overlap).
    """
    if batch.dim != params.dim:
        raise DimensionMismatchError("batch dimension must match the model")
    alpha = params.alpha
    pvals = studentt.density_batch(params, batch.data)
    if alpha < 1.0 and np.any(pvals == 0.0):
        return -math.inf
    mean_pow = float(np.mean(pvals ** (alpha - 1.0)))
    if mean_pow == 0.0:
        return -math.inf
    return alpha / (alpha - 1.0) * math.log(mean_pow) - math.log(studentt.density_power_integral(params))
