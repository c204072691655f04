"""Order-alpha divergence, KL divergence, and the generalized likelihood.

Divergences take a probability vector over finitely many atoms, or a
continuous distribution: a ``Gaussian`` or Student-t (``StudentTParams``)
record in any dimension, or a 1-D handle with a density and an interval
support.  A record is decided in closed form wherever one exists, and a
handle is always integrated; ``gaussian`` and ``student_t_1d`` build the
handle of a 1-D record, which is what quadrature integrates.

The paper's orthogonality gives most closed forms: for a t q of order
alpha, q^(alpha-1) = N_q^(alpha-1) [1 + b_alpha r_q(x)^2] is affine in the
statistic f = (x, xx^T), so Int p q^(alpha-1) depends on p only through
its mean and covariance when supp p lies in supp q.  The closed forms are

- the cross term Int p q^(alpha-1) when q is a t of order alpha and
  supp p lies in supp q (always so for alpha < 1); when p and q are
  Gaussians, +inf unless Sigma_q + (alpha-1) Sigma_p is positive definite;
  and +inf when q is a Gaussian, alpha < 1 and p is a t of order < 1,
  whose polynomial tails outweigh q^(alpha-1);
- the power integral Int p^alpha of a Gaussian and of any t (see
  ``studentt.log_power_integral``), +inf where it diverges;
- KL(p || q) for a Gaussian q and p a Gaussian or any t, as the
  cross-entropy less p's entropy, and +inf whenever supp p leaves supp q.

They load no scipy.  Every other term, such as KL between two t's,
alpha > 1 with supp p outside supp q, the cross term against a t of
another order, or any term with a handle, is integrated by
adaptive quadrature (QUADPACK via scipy, imported on first use, which
transforms infinite tails internally) in d = 1; in d > 1 it raises
DimensionMismatchError.  The quadrature tolerances apply only to those
terms.  A divergent integral gives +inf, and so does a divergence with an
infinite term; a failed one raises NumericalError whose diagnostics name
the integral.  The generalized likelihood takes a Student-t model, whose
order is its own alpha and whose power integral is closed form, so it
never integrates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .core import (
    AlphaFamilyError,
    DimensionMismatchError,
    NumericalError,
    SampleBatch,
    StudentTParams,
    check_alpha,
    check_mean_covariance,
)
from .estimators import gaussian_population_moments
from . import studentt

__all__ = [
    "InvalidDistributionError",
    "DiscreteDistribution",
    "ContinuousDistribution1D",
    "Gaussian",
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
QUAD_LIMIT = 200
LOG_2PI = math.log(2.0 * math.pi)
# Relative slack for one ellipsoid inside another; an overhang this small
# changes the cross term by far less than rounding does.
SUPPORT_RTOL = 1e-9


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
class Gaussian:
    """Normal distribution on R^d with mean ``mu`` and covariance ``sigma``.

    Validated by :func:`~alphafam.core.check_mean_covariance`, as a
    Student-t's parameters are, which also derives ``sigma_inv`` and ``logdet``.
    """

    mu: np.ndarray
    sigma: np.ndarray
    sigma_inv: np.ndarray = field(init=False, repr=False)
    logdet: float = field(init=False, repr=False)

    def __post_init__(self):
        values = check_mean_covariance(self.mu, self.sigma)
        for name, value in zip(("mu", "sigma", "sigma_inv", "logdet"), values):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class ContinuousDistribution1D:
    """1-D density with an interval support (endpoints may be infinite); divergences integrate it."""

    pdf: Callable[[float], float]
    support: tuple

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise InvalidDistributionError("support must be a nonempty interval")

    @property
    def dim(self) -> int:
        return 1

    def validate(self, epsabs: float = DEFAULT_EPSABS, epsrel: float = DEFAULT_EPSREL):
        mass = _quad(self.pdf, *self.support, epsabs, epsrel, "mass")
        if abs(mass - 1.0) > 1e-6:
            raise InvalidDistributionError(f"density integrates to {mass}, not 1")
        return self


Record = Union[Gaussian, StudentTParams]
DistributionHandle = Union[DiscreteDistribution, ContinuousDistribution1D, Gaussian, StudentTParams]
_RECORDS = (Gaussian, StudentTParams)
_CONTINUOUS = (ContinuousDistribution1D, *_RECORDS)


def gaussian(mu: float, var: float) -> ContinuousDistribution1D:
    """The quadrature handle of N(mu, var), with finite mean mu and finite variance var > 0."""
    check_mean_covariance(mu, var)
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)

    def pdf(x: float) -> float:
        return norm * math.exp(-0.5 * (x - mu) ** 2 / var)

    return ContinuousDistribution1D(pdf=pdf, support=(-math.inf, math.inf))


def bernoulli(p: float) -> DiscreteDistribution:
    """Two-atom handle (1-p, p)."""
    return DiscreteDistribution(probs=np.array([1.0 - p, p]))


def student_t_1d(params: StudentTParams) -> ContinuousDistribution1D:
    """The quadrature handle of a d = 1 Student-t record, on its exact support."""
    return ContinuousDistribution1D(pdf=lambda x: studentt.density(params, [x]), support=params.support_interval)


def quad(func, a, b, **kwargs):
    """``scipy.integrate.quad``, imported on first use."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


def _quad(fn, lo, hi, epsabs: float, epsrel: float, integral: str) -> float:
    """Adaptive quadrature; divergence and failure are reported distinctly.

    A failure raises NumericalError with diagnostics naming the integral
    (``cross``, ``power_p``, ``power_q``, ``kl`` or ``mass``), the interval,
    the tolerances and the subinterval limit.
    """
    from scipy.integrate import IntegrationWarning

    diagnostics = {"integral": integral, "interval": [lo, hi], "epsabs": epsabs, "epsrel": epsrel,
                   "limit": QUAD_LIMIT}
    where = f"{integral} quadrature on [{lo}, {hi}]"
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, _ = quad(fn, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=QUAD_LIMIT)
        except IntegrationWarning as exc:
            if "divergent" in str(exc):
                return math.inf
            raise NumericalError(f"{where} failed: {exc}", diagnostics) from exc
        except Exception as exc:  # quadpack raises plain Exceptions on some inputs
            raise NumericalError(f"{where} failed: {exc}", diagnostics) from exc
    if math.isnan(value):
        raise NumericalError(f"{where} returned NaN", diagnostics)
    return value


def _digamma(x: float) -> float:
    """psi(x), the derivative of log Gamma, for x > 0.

    Steps x up past 10 with psi(x) = psi(x + 1) - 1/x, then sums the
    asymptotic series log x - 1/(2x) - sum_k B_2k / (2k x^2k) through k = 6,
    whose next term is below 1e-15 there.
    """
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    t = 1.0 / (x * x)
    series = t * (1 / 12 - t * (1 / 120 - t * (1 / 252 - t * (1 / 240 - t * (1 / 132 - t * 691 / 32760)))))
    return shift + math.log(x) - 0.5 / x - series


def _handle(h, integral: str) -> ContinuousDistribution1D:
    """The 1-D handle that quadrature integrates for a term without a closed form."""
    if isinstance(h, ContinuousDistribution1D):
        return h
    if h.dim != 1:
        raise DimensionMismatchError(
            f"the {integral} integral has no closed form here, and quadrature needs d = 1, got d = {h.dim}"
        )
    if isinstance(h, Gaussian):
        return gaussian(float(h.mu[0]), float(h.sigma[0, 0]))
    return student_t_1d(h)


def _check_continuous_pair(p, q) -> None:
    if not (isinstance(p, _CONTINUOUS) and isinstance(q, _CONTINUOUS)):
        raise DimensionMismatchError("handles must be the same kind")
    if p.dim != q.dim:
        raise DimensionMismatchError(f"handles must share one dimension, got {p.dim} and {q.dim}")


def _full_support(r: Record) -> bool:
    return isinstance(r, Gaussian) or r.alpha < 1.0


def _max_radius_sq(p: StudentTParams, q: StudentTParams) -> float:
    """Largest (x - mu_q)^T Sigma_q^-1 (x - mu_q) over the ellipsoid supp p.

    With x = mu_p + L u over the unit ball, L L^T = R_p^2 Sigma_p, the
    radius is u^T M u + 2 g^T u + c.  Its maximum is the least value of
    lambda + c + sum_i g_i^2 / (lambda - s_i) over lambda > max_i s_i, with
    s the eigenvalues of M and g in its eigenbasis (trust-region duality);
    that function is convex, and bisection finds where its slope is zero.
    """
    chol = np.linalg.cholesky(p.radius_sq * p.sigma)
    delta = p.mu - q.mu
    s, vecs = np.linalg.eigh(chol.T @ q.sigma_inv @ chol)
    g2 = (vecs.T @ (chol.T @ (q.sigma_inv @ delta))) ** 2
    lo, hi = s[-1], s[-1] * (1.0 + 1e-12) + math.sqrt(float(g2.sum()))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if float(np.sum(g2 / (mid - s) ** 2)) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi + float(delta @ q.sigma_inv @ delta) + float(np.sum(g2 / (hi - s)))


def _support_within(p: Record, q: Record) -> bool:
    """Whether supp p lies in supp q: R^d, or the ellipsoid of a t of order > 1."""
    if _full_support(q):
        return True
    if _full_support(p):
        return False
    return _max_radius_sq(p, q) <= q.radius_sq * (1.0 + SUPPORT_RTOL)


def _second_moment(p: Record, center: np.ndarray) -> np.ndarray:
    """Vec E_p[(x - center)(x - center)^T] from p's population moments.

    A t's are the Gaussian's, since its Sigma is its covariance.
    """
    return gaussian_population_moments(p.mu - center, p.sigma).mean_f[p.dim:]


def _log_t_cross(p: Record, q: StudentTParams) -> float:
    """log Int p q^(alpha-1) for a t q of order alpha, with supp p in supp q.

    q^(alpha-1) = N_q^(alpha-1) [1 + b (x - mu_q)^T Sigma_q^-1 (x - mu_q)] is
    affine in f = (x, xx^T), so the integral is that bracket at p's moments.
    """
    bracket = 1.0 + q.b_alpha * float(q.sigma_inv.ravel() @ _second_moment(p, q.mu))
    return (q.alpha - 1.0) * q.log_norm_const + math.log(bracket)


def _log_gaussian_cross(p: Gaussian, q: Gaussian, alpha: float) -> float:
    """log Int p q^(alpha-1) for two Gaussians; +inf unless Sigma_q + (alpha-1) Sigma_p is positive definite."""
    beta = alpha - 1.0
    mix = q.sigma + beta * p.sigma
    eigvals = np.linalg.eigvalsh(mix)
    if eigvals[0] <= 0.0:
        return math.inf
    delta = p.mu - q.mu
    return (
        -0.5 * beta * p.dim * LOG_2PI
        + 0.5 * (1.0 - beta) * q.logdet
        - 0.5 * float(np.sum(np.log(eigvals)))
        - 0.5 * beta * float(delta @ np.linalg.solve(mix, delta))
    )


def _entropy(r: Record) -> float:
    """Differential entropy -E log r of a Gaussian or a Student-t.

    For a t, E log[1 + b r^2] comes from the Beta law of the bracket:
    1/bracket ~ Beta(nu/2, d/2) for alpha < 1, and bracket ~
    Beta(alpha/(alpha-1), d/2) for alpha > 1.
    """
    d = r.dim
    if isinstance(r, Gaussian):
        return 0.5 * (d * (1.0 + LOG_2PI) + r.logdet)
    alpha = r.alpha
    if alpha < 1.0:
        z = 1.0 / (1.0 - alpha)
        mean_log_bracket = _digamma(z) - _digamma(z - 0.5 * d)
    else:
        z = alpha / (alpha - 1.0)
        mean_log_bracket = _digamma(z) - _digamma(z + 0.5 * d)
    return -r.log_norm_const - mean_log_bracket / (alpha - 1.0)


def _gaussian_cross_entropy(p: Record, q: Gaussian) -> float:
    """-E_p log q, from p's second moment about q's mean."""
    second = float(q.sigma_inv.ravel() @ _second_moment(p, q.mu))
    return 0.5 * (q.dim * LOG_2PI + q.logdet + second)


def _discrete_cross(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    p_mass = p > 0.0
    if alpha < 1.0 and np.any(q[p_mass] == 0.0):
        return math.inf
    both = p_mass & (q > 0.0)
    return float(np.sum(p[both] * q[both] ** (alpha - 1.0)))


def _log_cross(p, q, alpha: float, epsabs: float, epsrel: float) -> float:
    """log Int p q^(alpha-1) for continuous arguments; -inf for an empty overlap."""
    if isinstance(p, _RECORDS) and isinstance(q, _RECORDS):
        within = _support_within(p, q)
        if alpha < 1.0 and not within:
            return math.inf
        if isinstance(q, StudentTParams) and q.alpha == alpha and within:
            return _log_t_cross(p, q)
        if isinstance(q, Gaussian) and isinstance(p, Gaussian):
            return _log_gaussian_cross(p, q, alpha)
        if isinstance(q, Gaussian) and alpha < 1.0 and p.alpha < 1.0:
            return math.inf
    p, q = _handle(p, "cross"), _handle(q, "cross")
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

    cross = _quad(cross_integrand, lo, hi, epsabs, epsrel, "cross") if lo < hi else 0.0
    return math.log(cross) if cross > 0.0 else -math.inf


def _log_power(h, alpha: float, integral: str, epsabs: float, epsrel: float) -> float:
    """log Int h^alpha: a sum over atoms, closed form for a Gaussian or any t, else quadrature; +inf if it diverges."""
    if isinstance(h, DiscreteDistribution):
        return math.log(float(np.sum(h.probs[h.probs > 0.0] ** alpha)))
    if isinstance(h, Gaussian):
        return -0.5 * (alpha - 1.0) * (h.dim * LOG_2PI + h.logdet) - 0.5 * h.dim * math.log(alpha)
    if isinstance(h, StudentTParams):
        return studentt.log_power_integral(h, alpha)
    h = _handle(h, integral)
    value = _quad(lambda x: h.pdf(x) ** alpha, *h.support, epsabs, epsrel, integral)
    if not value > 0.0:
        raise NumericalError("power integral is not positive", {"integral": integral})
    return math.log(value)


def i_alpha(
    p: DistributionHandle,
    q: DistributionHandle,
    alpha: float,
    epsabs: float = DEFAULT_EPSABS,
    epsrel: float = DEFAULT_EPSREL,
) -> float:
    """Order-alpha divergence between two distributions of one kind.

    Evaluates alpha/(1-alpha) log Int p q^(alpha-1) - 1/(1-alpha) log Int
    p^alpha + log Int q^alpha; nonnegative, 0 when p = q, and returns
    +inf when any term is infinite (reported distinctly from quadrature
    failure, which raises NumericalError).  A -inf reading would need
    Int p^alpha infinite with the other terms finite for alpha < 1, or the
    cross term infinite with the power terms finite for alpha > 1; Hoelder's
    inequality rules out both.  Each term is closed
    form where the arguments allow (see the module docstring); the
    tolerances apply to the terms that are integrated.
    """
    check_alpha(alpha)
    if isinstance(p, DiscreteDistribution) and isinstance(q, DiscreteDistribution):
        if p.probs.shape != q.probs.shape:
            raise DimensionMismatchError("handles must share one atom set")
        cross = _discrete_cross(p.probs, q.probs, alpha)
        log_cross = math.log(cross) if 0.0 < cross < math.inf else math.inf
    else:
        _check_continuous_pair(p, q)
        log_cross = _log_cross(p, q, alpha, epsabs, epsrel)
    if math.isinf(log_cross):
        return math.inf
    log_power_p = _log_power(p, alpha, "power_p", epsabs, epsrel)
    if math.isinf(log_power_p):
        return math.inf
    log_power_q = _log_power(q, alpha, "power_q", epsabs, epsrel)
    if math.isinf(log_power_q):
        return math.inf
    return alpha / (1.0 - alpha) * log_cross - 1.0 / (1.0 - alpha) * log_power_p + log_power_q


def kl(
    p: DistributionHandle,
    q: DistributionHandle,
    epsabs: float = DEFAULT_EPSABS,
    epsrel: float = DEFAULT_EPSREL,
) -> float:
    """Kullback-Leibler divergence Int p log(p/q); +inf on support violation.

    Closed form when q is a Gaussian record and p a Gaussian or a t
    record; otherwise 1-D quadrature at the given tolerances.
    """
    if isinstance(p, DiscreteDistribution) and isinstance(q, DiscreteDistribution):
        if p.probs.shape != q.probs.shape:
            raise DimensionMismatchError("handles must share one atom set")
        pv, qv = p.probs, q.probs
        mass = pv > 0.0
        if np.any(qv[mass] == 0.0):
            return math.inf
        return float(np.sum(pv[mass] * np.log(pv[mass] / qv[mass])))
    _check_continuous_pair(p, q)
    if isinstance(p, _RECORDS) and isinstance(q, _RECORDS):
        if not _support_within(p, q):
            return math.inf
        if isinstance(q, Gaussian):
            return _gaussian_cross_entropy(p, q) - _entropy(p)
    p, q = _handle(p, "kl"), _handle(q, "kl")
    (plo, phi), (qlo, qhi) = p.support, q.support
    if plo < qlo or phi > qhi:
        return math.inf

    def integrand(x: float) -> float:
        px = p.pdf(x)
        if px <= 0.0:
            return 0.0
        qx = max(q.pdf(x), 5e-324)  # underflow floor, as in the cross term
        return px * (math.log(px) - math.log(qx))

    return _quad(integrand, plo, phi, epsabs, epsrel, "kl")


def generalized_log_likelihood(params: StudentTParams, batch: SampleBatch) -> float:
    """Generalized log-likelihood of a batch under a Student-t model, of its own order.

    With alpha = params.alpha, evaluates alpha/(alpha-1) log[(1/n) sum_j
    p(X_j)^(alpha-1)] minus log Int p^alpha, the latter in closed form.
    Since p^(alpha-1) = N^(alpha-1) [1 + b r^2]_+, the mean is N^(alpha-1)
    times the mean bracket, which neither over- nor underflows where the
    density would.  For alpha > 1 a batch with every point off the support
    gives -inf (empty overlap), returned as a value, never raised.
    """
    if batch.dim != params.dim:
        raise DimensionMismatchError("batch dimension must match the model")
    alpha = params.alpha
    _, bracket = studentt._brackets(batch.data, params.mu, params.sigma_inv, params.b_alpha)
    mean_bracket = float(np.mean(np.maximum(bracket, 0.0)))
    if mean_bracket == 0.0:
        return -math.inf
    return (
        alpha * params.log_norm_const
        + alpha / (alpha - 1.0) * math.log(mean_bracket)
        - studentt.log_power_integral(params, alpha)
    )
