"""Order-alpha divergence, KL divergence, and the generalized likelihood.

Divergences take two distributions of one kind: probability vectors over
one atom set, or two continuous records, each a ``Gaussian`` or a Student-t
(``StudentTParams``) in any dimension.  Whether a term is finite is
decided from the records alone, before anything is integrated; a finite
term is closed form wherever one exists, and integrated otherwise.

The paper's orthogonality gives most closed forms: for a t q of order
alpha, q^(alpha-1) = N_q^(alpha-1) [1 + b_alpha r_q(x)^2] is affine in the
statistic f = (x, xx^T), so Int p q^(alpha-1) depends on p only through
its mean and covariance when supp p lies in supp q.  The closed forms are

- the cross term Int p q^(alpha-1) when q is a t of order alpha and
  supp p lies in supp q (always so for alpha < 1), and when p and q are
  Gaussians, +inf unless Sigma_q + (alpha-1) Sigma_p is positive definite;
- the power integral Int p^alpha of a Gaussian and of any t (see
  ``studentt.log_power_integral``), +inf where it diverges;
- KL(p || q) for a Gaussian q and p a Gaussian or any t, as the
  cross-entropy less p's entropy.

The finiteness rules, with nu = 2/(1-a) - d for a t of order a, whose
density falls like |x|^-(nu+d) when a < 1:

- For alpha < 1 the cross term is +inf when supp p leaves supp q.
- Against a t q of order a_q < 1 other than alpha, for alpha < 1,
  q^(alpha-1) grows like |x|^((nu_q+d)(1-alpha)), so the cross term is
  +inf iff e_p - (nu_q+d)(1-alpha) <= d, where e_p = nu_p + d for a t p of
  order < 1 and +inf for a Gaussian or compact p.  Within
  ``MIN_TAIL_EXCESS`` above that border the integrand falls too slowly
  for quadrature, and the term raises NumericalError.  Against a
  Gaussian q, whose q^(alpha-1) grows like exp(c |x|^2), it is +inf iff p
  is a t of order < 1.
- Against a compact q (a_q > 1), for alpha < 1 and d = 1, q^(alpha-1)
  grows like s^((alpha-1)/(a_q-1)) at distance s from an end of supp q,
  and a compact p vanishes like s^(1/(a_p-1)) at its own ends.  Where the
  two supports share an end, the cross term is +inf iff 1/(a_p-1) +
  (alpha-1)/(a_q-1) <= -1.
- For alpha > 1, q^(alpha-1) is bounded, so the cross term is finite.
- KL between records is +inf iff supp p leaves supp q.

An exponent within ``EXPONENT_ATOL`` of a rule's border counts as on it.
The terms left, KL into a t and the cross term against a t of another
order or at alpha > 1 with supp p outside supp q, converge by these rules;
in d = 1 ``quad`` integrates them over the overlap of the supports, and in
d > 1 they raise DimensionMismatchError.  Each integrated term sets its
own tolerance (``I_ALPHA_TOL``, ``KL_TOL``), and every overlap is
integrated in p's standardized coordinate, so the result depends neither
on where the records sit nor on how narrow p is.  A divergence with an
infinite term is +inf; a failed integral raises NumericalError whose
diagnostics name it.  The generalized likelihood takes a Student-t model,
whose order is its own alpha and whose power integral is closed form, so
it never integrates.  No scipy is used.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .core import (
    DimensionMismatchError,
    InvalidDistributionError,
    NumericalError,
    SampleBatch,
    StudentTParams,
    _radial_gamma_arg,
    check_alpha,
    check_mean_covariance,
    record,
)
from . import studentt

__all__ = [
    "InvalidDistributionError",
    "DiscreteDistribution",
    "Gaussian",
    "DistributionHandle",
    "bernoulli",
    "quad",
    "i_alpha",
    "kl",
    "generalized_log_likelihood",
]

QUAD_LIMIT = 200
# I_alpha weighs the log of the positive cross term by alpha/(1 - alpha), so
# that term is integrated to relative I_ALPHA_TOL |1 - alpha| / alpha, but no
# tighter than CROSS_EPSREL, near rounding; a singular shared end of compact
# supports reaches that floor only slowly.  KL's integrand changes sign and
# KL can be near 0, so KL_TOL, its (epsabs, epsrel), has an absolute floor.
I_ALPHA_TOL = 5e-11
CROSS_EPSREL = 5e-14
KL_TOL = (1e-13, 1e-12)
LOG_2PI = math.log(2.0 * math.pi)
# Relative slack for one ellipsoid inside another; an overhang this small
# changes the cross term by far less than rounding does.
SUPPORT_RTOL = 1e-9
# Slack on the finiteness rules' exponents.  Rounding of the orders moves
# them by about 1e-14 at order 0.95, far less than this.
EXPONENT_ATOL = 1e-9
# An integrand falling like |x|^-(1 + g) leaves X^-g / g of its integral
# beyond |x| = X, and quadrature reads nothing past X ~ 1e308, where sinh
# overflows.  Below this g that part exceeds about 1e-14 (8e-15 at g =
# 0.05), so the term fails rather than read wrong.
MIN_TAIL_EXCESS = 0.05

# QUADPACK's 21-point Gauss-Kronrod pair (dqk21) on [-1, 1]: the Kronrod
# nodes and weights, and the 10-point Gauss weights, zero off its nodes.
_KRONROD_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0,
])
_KRONROD_WEIGHTS_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077482322519565, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GAUSS_WEIGHTS_HALF = np.zeros(11)
_GAUSS_WEIGHTS_HALF[1::2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
]
_NODES = np.concatenate([-_KRONROD_HALF[:-1], _KRONROD_HALF[::-1]])
_KRONROD_WEIGHTS = np.concatenate([_KRONROD_WEIGHTS_HALF[:-1], _KRONROD_WEIGHTS_HALF[::-1]])
_GAUSS_WEIGHTS = np.concatenate([_GAUSS_WEIGHTS_HALF[:-1], _GAUSS_WEIGHTS_HALF[::-1]])
_EPS = float(np.finfo(float).eps)


@record
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


@record
class Gaussian:
    """Normal distribution on R^d with mean ``mu`` and covariance ``sigma``.

    Validated by :func:`~alphafam.core.check_mean_covariance`, as a
    Student-t's parameters are, which also derives the attributes
    ``sigma_inv`` (Sigma^{-1}) and ``logdet`` (log |Sigma|); they are not
    fields, so they are neither arguments nor part of the repr.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        values = check_mean_covariance(self.mu, self.sigma)
        for name, value in zip(("mu", "sigma", "sigma_inv", "logdet"), values):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


Record = Union[Gaussian, StudentTParams]
DistributionHandle = Union[DiscreteDistribution, Gaussian, StudentTParams]
_RECORDS = (Gaussian, StudentTParams)


def bernoulli(p: float) -> DiscreteDistribution:
    """Two-atom handle (1-p, p)."""
    return DiscreteDistribution(probs=np.array([1.0 - p, p]))


def _gauss_kronrod(f, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Kronrod value and QUADPACK's error estimate on each interval [lo_i, hi_i], from one call of f.

    ``f(t, half)`` returns the integrand at the nodes t times their
    interval's half-width, a product it can form without overflow where
    the integrand alone is near the float maximum.
    """
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = (center[:, None] + half[:, None] * _NODES).ravel()
    fx = np.asarray(f(nodes, np.repeat(half, _NODES.size)), dtype=float).reshape(lo.size, _NODES.size)
    if not np.isfinite(fx).all():
        # No arithmetic on inf or NaN, which would warn; quad reports the NaN total as not finite.
        return np.full(lo.size, np.nan), np.full(lo.size, np.nan)
    kronrod = fx @ _KRONROD_WEIGHTS
    err = np.abs(kronrod - fx @ _GAUSS_WEIGHTS)
    spread = np.abs(fx - 0.5 * kronrod[:, None]) @ _KRONROD_WEIGHTS
    ratio = 200.0 * err / np.where(spread > 0.0, spread, 1.0)
    err = np.where(spread > 0.0, spread * np.minimum(1.0, ratio**1.5), err)
    return kronrod, np.maximum(err, 50.0 * _EPS * (np.abs(fx) @ _KRONROD_WEIGHTS))


def quad(f, a: float, b: float, epsabs: float, epsrel: float) -> tuple:
    """Int_a^b f by adaptive Gauss-Kronrod quadrature; returns (value, abserr, neval).

    ``f`` takes an array of points and returns its values there; either end
    may be infinite, and b < a gives -Int_b^a f.  The range is split at c,
    its point nearest 0, and a side ending at c + sinh(S) (S = +-inf at an
    infinite end) is mapped from t in [0, 1), or (-1, 0] below c, by x = c +
    sinh(S tanh(m v / |S|)), v = |t| / (1 - |t|), m = min(|S|, 1).  Near c
    the nodes sit at unit scale (|S| on a shorter side), where f should
    have its mass; an infinite end gets x = c + sinh(t / (1 - |t|)), which
    turns a power-law tail into an exponential one; and at a finite end f's
    weight falls double-exponentially, so a kink there cannot hide past the
    outermost node.  Starting from the (at most two) sides, each round
    evaluates QUADPACK's 21-point Gauss-Kronrod pair and its error estimate
    on every new subinterval in one call of f, then bisects, in one batch,
    the subintervals of largest error that together hold half the total,
    until that total is at most max(epsabs, epsrel |value|).  ``neval``
    counts the points f was evaluated at.

    Raises
    ------
    NumericalError
        Past ``QUAD_LIMIT`` subintervals, when a subinterval can no longer
        be halved, or when f is not finite; its diagnostics give the
        interval, tolerances, limit, error estimate and evaluation count.
    """
    c = min(max(0.0, min(a, b)), max(a, b))
    ends = math.asinh(a - c), math.asinh(b - c)

    def g(t, half):
        # Nodes that round onto an end of the range, or past it where sinh overflows, count as 0.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            end = np.where(t < 0.0, ends[0], ends[1])
            v, m = np.abs(t) / (1.0 - np.abs(t)), np.minimum(np.abs(end), 1.0)
            w = m * v / np.abs(end)
            s = np.where(np.isinf(end), np.sign(end) * v, end * np.tanh(w))
            x = c + np.sinh(s)
            fx = np.asarray(f(x), dtype=float)
            jacobian = np.sign(t * end) * m * half * np.cosh(s) * ((1.0 + v) / np.cosh(w)) ** 2
            return np.where(((x - a) * (b - x) > 0.0) & (fx != 0.0), fx * jacobian, 0.0)

    sides = np.array(ends) != 0.0
    los, his = np.array([-1.0, 0.0])[sides], np.array([0.0, 1.0])[sides]
    values, errors = _gauss_kronrod(g, los, his)
    neval = los.size * _NODES.size

    def failure(reason: str, abserr: float) -> NumericalError:
        return NumericalError(reason, {"interval": [a, b], "epsabs": epsabs, "epsrel": epsrel, "limit": QUAD_LIMIT,
                                       "abserr": abserr, "neval": neval})

    while True:
        value, abserr = float(values.sum()), float(errors.sum())
        if not (math.isfinite(value) and math.isfinite(abserr)):
            raise failure("the integrand is not finite", abserr)
        if abserr <= max(epsabs, epsrel * abs(value)):
            return value, abserr, neval
        order = np.argsort(-errors)
        count = int(np.searchsorted(np.cumsum(errors[order]), 0.5 * abserr)) + 1
        if los.size + count > QUAD_LIMIT:
            raise failure(f"the tolerance was not reached within {QUAD_LIMIT} subintervals", abserr)
        split, keep = order[:count], order[count:]
        mids = 0.5 * (los[split] + his[split])
        if not np.all((mids != los[split]) & (mids != his[split])):
            raise failure("a subinterval is too small to halve", abserr)
        new_los, new_his = np.concatenate([los[split], mids]), np.concatenate([mids, his[split]])
        new_values, new_errors = _gauss_kronrod(g, new_los, new_his)
        neval += new_los.size * _NODES.size
        los, his = np.concatenate([los[keep], new_los]), np.concatenate([his[keep], new_his])
        values, errors = np.concatenate([values[keep], new_values]), np.concatenate([errors[keep], new_errors])


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


def _check_pair(p, q) -> None:
    if isinstance(p, DiscreteDistribution) and isinstance(q, DiscreteDistribution):
        if p.probs.shape != q.probs.shape:
            raise DimensionMismatchError("handles must share one atom set")
    elif not (isinstance(p, _RECORDS) and isinstance(q, _RECORDS)):
        raise DimensionMismatchError("handles must be the same kind")
    elif p.dim != q.dim:
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
    """Vec E_p[(x - center)(x - center)^T] = Vec(Sigma_p + m m^T) with m = mu_p - center.

    A t's are the Gaussian's, since its Sigma is its covariance.
    """
    m = p.mu - center
    return (p.sigma + np.outer(m, m)).ravel()


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
    1/bracket ~ Beta(x, d/2) for alpha < 1 and bracket ~ Beta(x, d/2) for
    alpha > 1, with x the radial law's Gamma argument at power 1
    (``core._radial_gamma_arg``), nu/2 and alpha/(alpha-1).  Both give
    -E log p = -log N + (psi(x + d/2) - psi(x))/|alpha - 1|.
    """
    d = r.dim
    if isinstance(r, Gaussian):
        return 0.5 * (d * (1.0 + LOG_2PI) + r.logdet)
    x = _radial_gamma_arg(r.alpha, d, 1.0)
    return -r.log_norm_const + (_digamma(x + 0.5 * d) - _digamma(x)) / abs(r.alpha - 1.0)


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


def _log_pdf(r: Record, x: np.ndarray) -> np.ndarray:
    """log density of a d = 1 record at the points x; -inf off its support."""
    if isinstance(r, Gaussian):
        return -0.5 * (LOG_2PI + r.logdet + (x - r.mu[0]) ** 2 * r.sigma_inv[0, 0])
    return studentt.log_density_batch(r, x[:, None])


def _integrate(p: Record, q: Record, term, integral: str, tol: tuple) -> float:
    """Int p(x) term(log p(x), log q(x)) dx over the overlap of the supports, for d = 1.

    ``quad`` runs at ``tol`` = (epsabs, epsrel) in p's standardized
    coordinate u = (x - mu_p) / sqrt(sigma_p), so it splits the overlap at
    p's mean (or the end nearest it) and p's mass sits at its first nodes.
    Its failure gains the integral's name, and its interval is the overlap in x.
    """
    if p.dim != 1:
        raise DimensionMismatchError(
            f"the {integral} integral has no closed form here, and quadrature needs d = 1, got d = {p.dim}"
        )
    (plo, phi), (qlo, qhi) = (getattr(r, "support_interval", (-math.inf, math.inf)) for r in (p, q))
    lo, hi = float(max(plo, qlo)), float(min(phi, qhi))
    if not lo < hi:
        return 0.0
    center, scale = float(p.mu[0]), math.sqrt(p.sigma[0, 0])

    def integrand(u: np.ndarray) -> np.ndarray:
        x = center + scale * u
        log_p = _log_pdf(p, x)
        on = log_p > -math.inf
        out = np.zeros(x.shape)
        out[on] = scale * term(log_p[on], _log_pdf(q, x[on]))
        return out

    try:
        value, _, _ = quad(integrand, (lo - center) / scale, (hi - center) / scale, epsabs=tol[0], epsrel=tol[1])
    except NumericalError as exc:
        raise NumericalError(f"{integral} quadrature on [{lo}, {hi}] failed: {exc}",
                             {"integral": integral, **exc.diagnostics, "interval": [lo, hi]}) from exc
    return value


def _tail_excess(p: Record, q: Record, alpha: float) -> float:
    """For alpha < 1, how much faster than |x|^-d the cross integrand p q^(alpha-1) falls off.

    In radial form it falls like |x|^-(e_p - (nu_q + d)(1 - alpha)), so the
    excess is e_p - (nu_q + d)(1 - alpha) - d: +inf without a power tail
    (a compact p or q, or a Gaussian p against a t), -inf for a t p of
    order < 1 against a Gaussian q.
    """
    tail_p = p.nu + p.dim if isinstance(p, StudentTParams) and p.alpha < 1.0 else math.inf
    if isinstance(q, Gaussian):
        return -math.inf if tail_p < math.inf else math.inf
    if q.alpha > 1.0:
        return math.inf
    return tail_p - (q.nu + q.dim) * (1.0 - alpha) - q.dim


def _shared_end_diverges(p: Record, q: Record, alpha: float) -> bool:
    """For alpha < 1 and supp p in a compact supp q, d = 1: whether the supports share an end where p q^(alpha-1) is not integrable."""
    return (
        isinstance(q, StudentTParams)
        and q.alpha > 1.0
        and p.dim == 1
        and _max_radius_sq(p, q) >= q.radius_sq * (1.0 - SUPPORT_RTOL)
        and 1.0 / (p.alpha - 1.0) + (alpha - 1.0) / (q.alpha - 1.0) <= -1.0 + EXPONENT_ATOL
    )


def _log_cross(p, q, alpha: float) -> float:
    """log Int p q^(alpha-1); -inf for an empty overlap, +inf where it diverges."""
    if isinstance(p, DiscreteDistribution):
        cross = _discrete_cross(p.probs, q.probs, alpha)
        return math.log(cross) if 0.0 < cross < math.inf else math.inf
    within = _support_within(p, q)
    if alpha < 1.0 and not within:
        return math.inf
    if isinstance(q, StudentTParams) and q.alpha == alpha and within:
        return _log_t_cross(p, q)
    if isinstance(q, Gaussian) and isinstance(p, Gaussian):
        return _log_gaussian_cross(p, q, alpha)
    if alpha < 1.0:
        excess = _tail_excess(p, q, alpha)
        if excess <= EXPONENT_ATOL or _shared_end_diverges(p, q, alpha):
            return math.inf
        if excess < MIN_TAIL_EXCESS:
            raise NumericalError(
                f"the cross integrand falls off like |x|^-(d + {excess:.3g}), too slowly for quadrature",
                {"integral": "cross", "interval": [-math.inf, math.inf], "tail_excess": excess},
            )
    cross = _integrate(p, q, lambda log_p, log_q: np.exp(log_p + (alpha - 1.0) * log_q), "cross",
                       (0.0, max(CROSS_EPSREL, I_ALPHA_TOL * abs(1.0 - alpha) / alpha)))
    return math.log(cross) if cross > 0.0 else -math.inf


def _log_power(h, alpha: float) -> float:
    """log Int h^alpha: a sum over atoms, else closed form; +inf where it diverges."""
    if isinstance(h, DiscreteDistribution):
        return math.log(float(np.sum(h.probs[h.probs > 0.0] ** alpha)))
    if isinstance(h, Gaussian):
        return -0.5 * (alpha - 1.0) * (h.dim * LOG_2PI + h.logdet) - 0.5 * h.dim * math.log(alpha)
    return studentt.log_power_integral(h, alpha)


def i_alpha(p: DistributionHandle, q: DistributionHandle, alpha: float) -> float:
    """Order-alpha divergence between two distributions of one kind.

    Evaluates alpha/(1-alpha) log Int p q^(alpha-1) - 1/(1-alpha) log Int
    p^alpha + log Int q^alpha; nonnegative, 0 when p = q, and returns
    +inf when any term is infinite (reported distinctly from quadrature
    failure, which raises NumericalError).  A -inf reading would need
    Int p^alpha infinite with the other terms finite for alpha < 1, or the
    cross term infinite with the power terms finite for alpha > 1; Hoelder's
    inequality rules out both.  The power terms are closed form and come
    first, so a divergence they decide integrates nothing; the cross term
    is closed form where the arguments allow (see the module docstring),
    and integrated otherwise, to a relative tolerance that shrinks with
    |1 - alpha| / alpha so that the error in the result stays near
    ``I_ALPHA_TOL``, down to ``CROSS_EPSREL``.
    """
    check_alpha(alpha)
    _check_pair(p, q)
    log_power_p = _log_power(p, alpha)
    log_power_q = _log_power(q, alpha)
    if math.isinf(log_power_p) or math.isinf(log_power_q):
        return math.inf
    log_cross = _log_cross(p, q, alpha)
    if math.isinf(log_cross):
        return math.inf
    return alpha / (1.0 - alpha) * log_cross - 1.0 / (1.0 - alpha) * log_power_p + log_power_q


def kl(p: DistributionHandle, q: DistributionHandle) -> float:
    """Kullback-Leibler divergence Int p log(p/q); +inf on support violation.

    Closed form when q is a Gaussian record; into a t, 1-D quadrature at
    ``KL_TOL``, absolute as well as relative since KL can be near 0.
    """
    _check_pair(p, q)
    if isinstance(p, DiscreteDistribution):
        pv, qv = p.probs, q.probs
        mass = pv > 0.0
        if np.any(qv[mass] == 0.0):
            return math.inf
        return float(np.sum(pv[mass] * np.log(pv[mass] / qv[mass])))
    if not _support_within(p, q):
        return math.inf
    if isinstance(q, Gaussian):
        return _gaussian_cross_entropy(p, q) - _entropy(p)
    return _integrate(p, q, lambda log_p, log_q: np.exp(log_p) * (log_p - log_q), "kl", KL_TOL)


def generalized_log_likelihood(params: StudentTParams, batch: SampleBatch) -> float:
    """Generalized log-likelihood of a batch under a Student-t model, of its own order.

    With alpha = params.alpha, evaluates alpha/(alpha-1) log[(1/n) sum_j
    p(X_j)^(alpha-1)] minus log Int p^alpha, the latter in closed form.
    Since p^(alpha-1) = N^(alpha-1) [1 + b r^2]_+, the mean is N^(alpha-1)
    times the mean bracket, which does not underflow where the density
    would; where the mean bracket overflows, its log is taken from the log
    brackets, shifted by their largest.  For alpha > 1 a batch with every
    point off the support gives -inf (empty overlap), returned as a value,
    never raised.
    """
    if batch.dim != params.dim:
        raise DimensionMismatchError("batch dimension must match the model")
    alpha = params.alpha
    _, shrink, m_s, log_bracket = studentt._log_brackets(batch.data, params.mu, params.sigma_inv, params.b_alpha)
    with np.errstate(over="ignore"):
        m = m_s / shrink / shrink
    mean_bracket = float(np.mean(np.maximum(1.0 + m, 0.0)))
    if mean_bracket == 0.0:
        return -math.inf
    if mean_bracket < math.inf:
        log_mean = math.log(mean_bracket)
    else:
        top = float(log_bracket.max())
        log_mean = top + math.log(float(np.mean(np.exp(log_bracket - top))))
    return alpha * params.log_norm_const + alpha / (alpha - 1.0) * log_mean - studentt.log_power_integral(params, alpha)
