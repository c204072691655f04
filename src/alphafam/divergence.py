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
  supp p lies in supp q (always so for alpha < 1);
- I_alpha of two Gaussians, as one sum rather than its three terms;
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
- KL between records is +inf iff supp p leaves supp q.  That, and a shared
  end, are judged at rounding (``SUPPORT_ULPS``): a p past q's end by more
  than rounding has KL = +inf.

An exponent within ``EXPONENT_ATOL`` of a rule's border counts as on it.
The terms left, KL into a t and the cross term against a t of another
order or at alpha > 1 with supp p outside supp q, converge by these rules;
in d = 1 ``quad`` integrates them over the overlap of the supports, and in
d > 1 they raise DimensionMismatchError.  Each integrated term sets its
own tolerance (``I_ALPHA_TOL``, ``KL_TOL``), and every overlap is
integrated in p's standardized coordinate from each record's residuals, so
the result does not depend on how narrow p is, nor, for an exact offset,
on where the pair sits; a probe pre-pass scales each cross integrand into
the float range for its one ``quad`` call.  A divergence with an infinite
term is +inf; a failed integral raises NumericalError naming it, and so
does an I_alpha whose terms cancel to within their rounding.  The
generalized likelihood takes a t model of its own order, whose power
integral is closed form, so it never integrates.  No scipy is used.
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
    _vec_second_moment,
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
# Weighting and summing I_alpha's three terms rounds by a few eps times the
# sum of their magnitudes, bounded here by 4 eps.  Where that bound exceeds
# I_ALPHA_TOL plus ASSEMBLY_RTOL of the result, as for t pairs far from
# alpha = 1, whose terms grow like alpha, I_alpha raises NumericalError
# rather than print the rounding.  Errors inside the terms are not seen here.
ASSEMBLY_RTOL = 1e-12
KL_TOL = (1e-13, 1e-12)
LOG_2PI = math.log(2.0 * math.pi)
# Rounding of an end of a compact support, in ulps: it decides containment, a shared end and an empty overlap.
SUPPORT_ULPS = 4
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
_TINY = float(np.finfo(float).tiny)  # the least normal double


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

    With L L^T = Sigma, X = L_q^-1 L_p (I where Sigma_p = Sigma_q, so p = q reaches R_p^2 exactly) and z = L_q^-1
    (mu_p - mu_q), the radius at x = mu_p + R_p L_p u is u^T M u + 2 g^T u + c, M = R_p^2 X^T X, g = R_p X^T z, c =
    z^T z.  Its maximum over |u| <= 1 is the least value of lambda + c + sum_i g_i^2 / (lambda - s_i) over lambda >
    max_i s_i, with s the eigenvalues of M and g in its eigenbasis (trust-region duality); that function is convex,
    and bisection finds where its slope is zero from the ratios g_i / (lambda - s_i), lest a tiny g_i^2 or (lambda
    - s_i)^2 underflow.  Where every g_i^2 underflows, the maximum is max_i s_i + c to rounding.
    """
    chol = np.linalg.cholesky(q.sigma)
    x = np.linalg.solve(chol, np.linalg.cholesky(p.sigma)) if (p.sigma != q.sigma).any() else np.eye(p.dim)
    z = np.linalg.solve(chol, p.mu - q.mu)
    s, vecs = np.linalg.eigh(x.T @ x)
    s, g, c = p.radius_sq * s, math.sqrt(p.radius_sq) * (vecs.T @ (x.T @ z)), float(z @ z)
    if not np.any(g * g):
        return float(s[-1]) + c
    lo, hi = float(s[-1]), float(np.nextafter(s[-1] + math.sqrt(g.size) * np.max(np.abs(g)), math.inf))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        gap = mid - s
        if np.any(np.abs(g) > gap) or float(np.sum((g / gap) ** 2)) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi + c + float(g @ (g / (hi - s)))


def _reach(p, q) -> float | None:
    """``_max_radius_sq(p, q)`` where both supports are compact ellipsoids, else None."""
    compact = not (isinstance(p, DiscreteDistribution) or _full_support(p) or _full_support(q))
    return _max_radius_sq(p, q) if compact else None


def _support_within(p, q, reach) -> bool:
    """Whether supp p lies in supp q, reach = ``_reach(p, q)``: atoms of positive mass, R^d, or a compact ellipsoid."""
    if isinstance(p, DiscreteDistribution):
        return not np.any(q.probs[p.probs > 0.0] == 0.0)
    if reach is None:
        return _full_support(q)
    return reach <= q.radius_sq * (1.0 + SUPPORT_ULPS * _EPS)


def _log_t_cross(p: Record, q: StudentTParams) -> float:
    """log Int p q^(alpha-1) for a t q of order alpha, with supp p in supp q.

    q^(alpha-1) = N_q^(alpha-1) [1 + b (x - mu_q)^T Sigma_q^-1 (x - mu_q)] is
    affine in f = (x, xx^T), so the integral is that bracket at p's moments
    (a t's Sigma is its covariance, as a Gaussian's is).  A bracket that
    rounds to <= 0, for p within rounding of q's end, is a NumericalError.
    """
    bracket = 1.0 + q.b_alpha * float(q.sigma_inv.ravel() @ _vec_second_moment(p.sigma, p.mu - q.mu))
    if not bracket > 0.0:
        raise NumericalError(f"the cross term's bracket 1 + b E_p r_q^2 is {bracket!r}, within rounding of q's end",
                             {"integral": "cross", "bracket": bracket})
    return (q.alpha - 1.0) * q.log_norm_const + math.log(bracket)


def _gaussian_i_alpha(p: Gaussian, q: Gaussian, alpha: float) -> float:
    """I_alpha of two Gaussians, the sum over the eigenpairs (lambda, v) of L^-1 Sigma_p L^-T (L L^T = Sigma_q) of
    -log(lambda)/2 + alpha/(2(alpha-1)) log1p(r) + (v^T L^-1 (mu_p - mu_q))^2/(2(1+r)), r = (lambda-1)(alpha-1)/alpha,
    its logs regrouped for alpha > 1; +inf unless (Sigma_q - Sigma_p) + alpha Sigma_p > 0, a form in which a tiny
    alpha keeps its digits.  No log 2 pi or log-det is left.  Whitened variances lambda that leave the float range,
    for a finite I_alpha, are a NumericalError."""
    beta, chol = alpha - 1.0, np.linalg.cholesky(q.sigma)
    if np.linalg.eigvalsh((q.sigma - p.sigma) + alpha * p.sigma)[0] <= 0.0:
        return math.inf
    white = np.linalg.solve(chol, np.linalg.solve(chol, p.sigma).T) if (p.sigma != q.sigma).any() else np.eye(p.dim)
    lam, vecs = np.linalg.eigh(white) if np.isfinite(white).all() else (np.full(p.dim, math.inf), None)
    if not (lam[0] > 0.0 and lam[-1] < math.inf):
        raise NumericalError(f"the Gaussian I_alpha's whitened variances {lam.tolist()!r} leave the float range",
                             {"integral": "gaussian", "eigenvalues": lam.tolist()})
    r = (lam - 1.0) * beta / alpha
    one_r = np.where(lam < 1.0, lam + (1.0 - lam) / alpha, 1.0 + r)  # 1 + r, a sum of positive parts where lambda < 1
    if one_r.min() <= 0.0:
        return math.inf
    log_r = np.log1p(r, out=np.log(one_r), where=one_r >= 0.5)
    logs = (log_r / (2.0 * beta) + 0.5 * np.log1p((1.0 - lam) / lam / alpha) if beta > 0.0
            else alpha / (2.0 * beta) * log_r - 0.5 * np.log(lam))
    return float(np.sum(logs + 0.5 * (vecs.T @ np.linalg.solve(chol, p.mu - q.mu))**2 / one_r))


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
    with np.errstate(over="ignore"):  # a second moment past the float range makes KL +inf
        second = float(q.sigma_inv.ravel() @ _vec_second_moment(p.sigma, p.mu - q.mu))
    return 0.5 * (q.dim * LOG_2PI + q.logdet + second)


def _log_sum(total: float, w: np.ndarray, x: np.ndarray, beta: float) -> float:
    """log of total = sum w exp(y), y = beta log x; within 1/16 of 1, log1p(sum w - 1 + sum w expm1(y)), to keep digits.

    There a term with y > 1, at a subnormal atom, is exp(log w + y) - w, lest expm1 overflow.  Where total is subnormal,
    0 (few digits or none) or inf, its log is taken in the log domain, shifted by the largest; -inf for no terms.
    """
    y = beta * np.log(x)
    if not _TINY <= total < math.inf:
        logs = np.log(w) + y
        top = float(np.max(logs, initial=-math.inf))
        return top + math.log(float(np.sum(np.exp(logs - top)))) if top > -math.inf else -math.inf
    if abs(total - 1.0) > 0.0625:
        return math.log(total)
    near = np.where(y > 1.0, np.exp(np.log(w) + y) - w, w * np.expm1(np.minimum(y, 1.0)))
    return math.log1p(float(np.sum(w)) - 1.0 + float(np.sum(near)))


def _log_pdf(r: Record, res: np.ndarray) -> np.ndarray:
    """log density of a d = 1 record at the residuals res = x - mu from its own mean; -inf off its support."""
    if isinstance(r, Gaussian):
        return -0.5 * (LOG_2PI + r.logdet + res**2 * r.sigma_inv[0, 0])
    log_bracket = studentt._log_brackets(res[:, None], 0.0, r.sigma_inv, r.b_alpha)[3]
    return r.log_norm_const + log_bracket / (r.alpha - 1.0)


def _overlap(p: Record, q: Record, integral: str) -> tuple:
    """The overlap of two d = 1 supports as (lo, hi, a, b, scale, offset), empty exactly where not a < b.

    a and b are its ends in p's u = (x - mu_p) / scale, scale = sqrt(sigma_p), from each support's half-width
    about its own mean, and offset = mu_q - mu_p; lo and hi, its ends in x rounded at the means' spacing, only
    name it.  An end of q's support, offset +- r_q, rounds at the spacing of |offset| + r_q: an overlap it
    bounds no wider than ``SUPPORT_ULPS`` such spacings is not decided, and is a NumericalError.
    """
    if p.dim != 1:
        raise DimensionMismatchError(f"the {integral} integral has no closed form here, and quadrature needs d = 1, "
                                     f"got d = {p.dim}")
    rp, rq = (math.sqrt(getattr(r, "radius_sq", math.inf) * r.sigma[0, 0]) for r in (p, q))
    offset, scale = float(q.mu[0] - p.mu[0]), math.sqrt(p.sigma[0, 0])
    lo, hi = float(max(p.mu[0] - rp, q.mu[0] - rq)), float(min(p.mu[0] + rp, q.mu[0] + rq))
    a, b = max(-rp, offset - rq) / scale, min(rp, offset + rq) / scale
    if (offset - rq > -rp or offset + rq < rp) and abs(b - a) <= SUPPORT_ULPS * math.ulp(abs(offset) + rq) / scale:
        raise NumericalError(f"the {integral} overlap [{lo}, {hi}] is within rounding of empty",
                             {"integral": integral, "interval": [lo, hi]})
    return lo, hi, a, b, scale, offset


def _log_densities(p: Record, q: Record, u: np.ndarray, scale: float, offset: float) -> tuple:
    """log p and log q at x = mu_p + scale u, from the residuals scale u and scale u - offset, and where both are finite."""
    res = scale * u
    log_p, log_q = _log_pdf(p, res), _log_pdf(q, res - offset)
    return log_p, log_q, (log_p > -math.inf) & (log_q > -math.inf)


def _integrate(p: Record, q: Record, overlap: tuple, term, integral: str, tol: tuple) -> float:
    """Int p(x) term(log p(x), log q(x)) dx over ``overlap``, ``_overlap(p, q, integral)``, for d = 1.

    The overlap is not empty: the cross term takes an empty one for -inf, and supports judged nested meet except
    within ``_overlap``'s band, which raises.  ``quad`` runs at ``tol`` = (epsabs, epsrel) in p's u, split at p's
    mean (or the end nearest it).  No x is formed: p reads the residual scale u, q scale u - offset.  A node counts
    where both are finite (not on a compact end, where q^(alpha-1) can be +inf).  A failure of ``quad`` gains the
    integral's name and the overlap.
    """
    lo, hi, a, b, scale, offset = overlap

    def integrand(u: np.ndarray) -> np.ndarray:
        log_p, log_q, on = _log_densities(p, q, u, scale, offset)
        out = np.zeros(u.shape)
        out[on] = scale * term(log_p[on], log_q[on])
        return out

    try:
        return quad(integrand, a, b, epsabs=tol[0], epsrel=tol[1])[0]
    except NumericalError as exc:
        raise NumericalError(f"{integral} quadrature on [{lo}, {hi}] failed: {exc}",
                             {"integral": integral, **exc.diagnostics, "interval": [lo, hi]}) from exc


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


def _log_cross(p, q, alpha: float) -> float:
    """log Int p q^(alpha-1); -inf for an empty overlap, +inf where it diverges."""
    reach = _reach(p, q)
    within = _support_within(p, q, reach)
    if alpha < 1.0 and not within:
        return math.inf
    if isinstance(p, DiscreteDistribution):
        both = (p.probs > 0.0) & (q.probs > 0.0)
        w, x = p.probs[both], q.probs[both]
        with np.errstate(over="ignore"):  # past the float range the sum is taken in the log domain
            cross = float(np.sum(w * x ** (alpha - 1.0)))
        return _log_sum(cross, w, x, alpha - 1.0)
    if isinstance(q, StudentTParams) and q.alpha == alpha and within:
        return _log_t_cross(p, q)
    if alpha < 1.0:
        excess = _tail_excess(p, q, alpha)
        # Compact supports (reach is set) that share an end, d = 1, where p q^(alpha-1) is not integrable.
        shared_end = (reach is not None and p.dim == 1 and reach >= q.radius_sq * (1.0 - SUPPORT_ULPS * _EPS)
                      and 1.0 / (p.alpha - 1.0) + (alpha - 1.0) / (q.alpha - 1.0) <= -1.0 + EXPONENT_ATOL)
        if excess <= EXPONENT_ATOL or shared_end:
            return math.inf
        if excess < MIN_TAIL_EXCESS:
            raise NumericalError(
                f"the cross integrand falls off like |x|^-(d + {excess:.3g}), too slowly for quadrature",
                {"integral": "cross", "interval": [-math.inf, math.inf], "tail_excess": excess},
            )
    return _log_cross_quad(p, q, alpha)


def _log_cross_quad(p: Record, q: Record, alpha: float) -> float:
    """log Int p q^(alpha-1) by one ``quad`` call in d = 1; -inf for an empty overlap.

    Probes of log p + (alpha-1) log q in p's u inside the overlap: 257 points evenly spaced in asinh u, |asinh u|
    <= 40; u = 0; q's mean; 49 points o + (e - o)(1 - 10^k), k = -16..0, toward each finite end e from inside,
    with o the other end where the overlap misses p's mean (both ends are then finite, short of overflow), else
    0.  Where their peak P leaves [-300, 100], the integrand is divided by exp(shift), the least that brings P
    into it.  A zero under a finite probe is a NumericalError.
    """
    overlap = _overlap(p, q, "cross")
    lo, hi, a, b, scale, offset = overlap
    if not a < b:
        return -math.inf
    ends = [(e, o if math.isfinite(o) and not a <= 0.0 <= b else 0.0) for e, o in ((a, b), (b, a)) if math.isfinite(e)]
    probes = np.concatenate([np.sinh(np.linspace(max(math.asinh(a), -40.0), min(math.asinh(b), 40.0), 257)),
                             [0.0, offset / scale],
                             *(o + (e - o) * (1.0 - 10.0 ** np.linspace(-16.0, 0.0, 49)) for e, o in ends)])
    with np.errstate(over="ignore"):  # a Gaussian squares the residuals of the farthest probes
        log_p, log_q, on = _log_densities(p, q, probes, scale, offset)
    values = log_p[on] + (alpha - 1.0) * log_q[on]
    peak = float(np.max(values, initial=-math.inf))
    shift = max(peak - 100.0, 0.0) + min(peak + 300.0, 0.0) if peak > -math.inf else 0.0
    tol = (0.0, max(CROSS_EPSREL, I_ALPHA_TOL * abs(1.0 - alpha) / alpha))
    cross = _integrate(p, q, overlap, lambda log_p, log_q: np.exp(log_p + (alpha - 1.0) * log_q - shift), "cross", tol)
    if cross > 0.0 or peak == -math.inf:
        return shift + math.log(cross) if cross > 0.0 else -math.inf
    x = float(p.mu[0]) + scale * float(probes[on][np.argmax(values)])
    raise NumericalError(f"cross quadrature on [{lo}, {hi}] gave 0, though the log integrand is {peak!r} at x = {x!r}",
                         {"integral": "cross", "interval": [lo, hi], "cross": cross, "peak": [x, peak]})


def _log_power(h, alpha: float) -> float:
    """log Int h^alpha: a sum over atoms, else closed form; +inf where it diverges."""
    if isinstance(h, DiscreteDistribution):
        w = h.probs[h.probs > 0.0]
        return _log_sum(float(np.sum(w**alpha)), w, w, alpha - 1.0)
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
    inequality rules out both.  Two Gaussians take one closed form.  For
    other pairs the power terms are closed form and come first, so a
    divergence they decide integrates nothing; the cross term is closed form
    where the arguments allow, else integrated to a relative tolerance
    shrinking with |1 - alpha| / alpha, down to ``CROSS_EPSREL``, to keep
    the result's error near ``I_ALPHA_TOL``.  Terms summing to within their
    rounding (``ASSEMBLY_RTOL``) raise NumericalError naming the assembly.
    """
    check_alpha(alpha)
    _check_pair(p, q)
    if isinstance(p, Gaussian) and isinstance(q, Gaussian):
        return _gaussian_i_alpha(p, q, alpha)
    log_power_p, log_power_q = _log_power(p, alpha), _log_power(q, alpha)
    if math.isinf(log_power_p) or math.isinf(log_power_q):
        return math.inf
    log_cross = _log_cross(p, q, alpha)
    if math.isinf(log_cross):
        return math.inf
    terms = (alpha / (1.0 - alpha) * log_cross, -1.0 / (1.0 - alpha) * log_power_p, log_power_q)
    value = terms[0] + terms[1] + terms[2]
    bound = 4.0 * _EPS * sum(map(abs, terms))
    if bound > I_ALPHA_TOL + ASSEMBLY_RTOL * abs(value):
        raise NumericalError(f"the I_alpha assembly cancels: its three terms sum to {value!r}, within their rounding "
                             f"bound {bound!r}", {"integral": "assembly", "terms": list(terms), "bound": bound})
    return value


def kl(p: DistributionHandle, q: DistributionHandle) -> float:
    """Kullback-Leibler divergence Int p log(p/q); +inf on support violation.

    Closed form when q is a Gaussian record; into a t, 1-D quadrature at
    ``KL_TOL``, absolute as well as relative since KL can be near 0.
    """
    _check_pair(p, q)
    if not _support_within(p, q, _reach(p, q)):
        return math.inf
    if isinstance(p, DiscreteDistribution):
        mass = p.probs > 0.0
        return float(np.sum(p.probs[mass] * (np.log(p.probs[mass]) - np.log(q.probs[mass]))))
    if isinstance(q, Gaussian):
        return _gaussian_cross_entropy(p, q) - _entropy(p)
    return _integrate(p, q, _overlap(p, q, "kl"), lambda log_p, log_q: np.exp(log_p) * (log_p - log_q), "kl", KL_TOL)


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
    *_, log_bracket, m = studentt._log_brackets(batch.data, params.mu, params.sigma_inv, params.b_alpha)
    mean_bracket = float(np.mean(np.maximum(1.0 + m, 0.0)))
    if mean_bracket == 0.0:
        return -math.inf
    if mean_bracket < math.inf:
        log_mean = math.log(mean_bracket)
    else:
        top = float(log_bracket.max())
        log_mean = top + math.log(float(np.mean(np.exp(log_bracket - top))))
    return alpha * params.log_norm_const + alpha / (alpha - 1.0) * log_mean - studentt.log_power_integral(params, alpha)
