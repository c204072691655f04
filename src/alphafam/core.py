"""Shared domain types, parameter validation, and derived constants.

Everything here is immutable after construction and all functions are pure,
so the types can be shared freely across threads.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "AlphaFamilyError",
    "ParameterError",
    "DimensionMismatchError",
    "UndefinedScoreError",
    "DegenerateStatisticsError",
    "NumericalError",
    "InvalidDistributionError",
    "record",
    "StudentTParams",
    "MAlphaDescriptor",
    "SampleBatch",
    "SufficientStats",
    "RegularityReport",
    "b_alpha",
    "check_alpha",
    "check_mean_covariance",
    "degrees_of_freedom",
    "log_norm_const",
    "make_student_t",
    "moment_statistic",
    "pack_theta",
    "unpack_theta",
    "reconstruct_density",
    "validate_regular",
]

# Relative tolerances for the positive-definiteness test (round-trip
# serialization noise must not trip them).
SYMMETRY_RTOL = 1e-10
EIGENVALUE_RTOL = 1e-12
LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class AlphaFamilyError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(AlphaFamilyError):
    """Invalid parameter value; ``code`` identifies the violated constraint."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# Distinct parameter-rejection codes.
ALPHA_NOT_POSITIVE = "alpha_not_positive"
ALPHA_EQUALS_ONE = "alpha_equals_one"
ALPHA_BELOW_THRESHOLD = "alpha_below_threshold"
ALPHA_NOT_BELOW_ONE = "alpha_not_below_one"
ALPHA_NOT_FINITE = "alpha_not_finite"
MU_NOT_FINITE = "mu_not_finite"
SIGMA_NOT_FINITE = "sigma_not_finite"
SIGMA_NOT_SYMMETRIC = "sigma_not_symmetric"
SIGMA_NOT_POSITIVE_DEFINITE = "sigma_not_positive_definite"
SIGMA_INVERSE_NOT_FINITE = "sigma_inverse_not_finite"
_SIGMA_TOO_SMALL = "sigma is too small: its inverse or the density's normalizer overflows"


class DimensionMismatchError(AlphaFamilyError):
    """Shapes of inputs are inconsistent (e.g. s != k for a regular check)."""


class UndefinedScoreError(AlphaFamilyError):
    """Score requested on or outside the support boundary."""


class DegenerateStatisticsError(AlphaFamilyError):
    """A statistic needed as a denominator is zero."""


class NumericalError(AlphaFamilyError):
    """Quadrature or other numerical routine failed to converge."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InvalidDistributionError(AlphaFamilyError):
    """Probability vector fails its normalization or nonnegativity check."""


def record(cls):
    """Make ``cls`` an immutable record of its annotated fields, a base record's first.

    ``__init__`` takes the fields in order, by position or by name, with a
    field's class-level value as its default, and then calls
    ``__post_init__`` where there is one; only that may set attributes, with
    ``object.__setattr__``.  Any other assignment or deletion raises
    AttributeError.  Two records of one class are equal, and hash alike,
    when their fields are, array fields by ``np.array_equal``; a record
    with an array field is unhashable (TypeError).  repr lists the fields.
    A method the class defines itself is kept, so ``__eq__ =
    object.__eq__`` and ``__hash__ = object.__hash__`` compare by identity.
    Methods are closures, not generated source, so decorating a class costs
    microseconds.
    """
    names = tuple(dict.fromkeys([*getattr(cls, "_fields", ()), *vars(cls).get("__annotations__", ())]))
    name_set = set(names)
    defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        values = zip(names, args)
        if kwargs or len(args) != len(names):
            values = {**defaults, **dict(values), **kwargs}
            if len(args) > len(names) or not kwargs.keys().isdisjoint(names[:len(args)]) or values.keys() != name_set:
                raise TypeError(f"{cls.__name__}() takes the fields {names}, got {len(args)} positional "
                                f"and the keywords {tuple(kwargs)}")
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={self.__dict__[name]!r}' for name in names)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b)
                   for a, b in zip(map(self.__dict__.get, names), map(other.__dict__.get, names)))

    def __hash__(self):
        return hash(tuple(map(self.__dict__.get, names)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if method.__name__ not in vars(cls):
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls._fields = names
    return cls


def check_alpha(alpha: float, dim: Optional[int] = None) -> None:
    """Validate an order alpha: finite, not 1, and above its lower bound.

    The lower bound is 0 for a divergence order, and d/(d+2), the end of the
    Student-t family's valid range, when the dimension ``dim`` is given.

    Raises
    ------
    ParameterError
        With code ``alpha_not_finite``, ``alpha_equals_one``, and
        ``alpha_not_positive`` (no ``dim``) or ``alpha_below_threshold``.
    """
    if not math.isfinite(alpha):
        raise ParameterError(ALPHA_NOT_FINITE, f"alpha must be finite, got {alpha}")
    if alpha == 1.0:
        raise ParameterError(ALPHA_EQUALS_ONE, "alpha = 1 is excluded")
    if dim is None:
        if not alpha > 0.0:
            raise ParameterError(ALPHA_NOT_POSITIVE, f"alpha must be > 0, got {alpha}")
        return
    threshold = dim / (dim + 2.0)
    if alpha <= threshold:
        raise ParameterError(
            ALPHA_BELOW_THRESHOLD,
            f"alpha must exceed d/(d+2) = {threshold} for d = {dim}, got {alpha}",
        )


def b_alpha(alpha: float, dim: int) -> float:
    """Quadratic-form coefficient (1-alpha)/(2*alpha - d*(1-alpha)).

    Positive for alpha in (d/(d+2), 1), negative for alpha > 1; its sign
    decides whether the support is all of R^d or a bounded ellipsoid.
    """
    return (1.0 - alpha) / (2.0 * alpha - dim * (1.0 - alpha))


def degrees_of_freedom(alpha: float, dim: int) -> float:
    """Tail index nu = 2/(1-alpha) - d.

    Obtained by matching the density exponent 1/(alpha-1) to -(nu+d)/2;
    consistent with b_alpha = 1/(nu-2).  Meaningful as a classical degrees
    of freedom only for alpha < 1 (nu > 2 exactly on (d/(d+2), 1)).
    """
    return 2.0 / (1.0 - alpha) - dim


def _log_gamma_ratio(x: float, h: float) -> float:
    """log Gamma(x + h) - log Gamma(x) for x > 0 and h >= 0.

    Below x = 10 it is the difference of two ``math.lgamma`` values.  Above,
    where those grow like x log x and their difference keeps only their
    absolute rounding, it is the difference of Stirling's series for the two:
    (x - 1/2) log1p(h/x) + h log(x + h) - h plus the difference of the
    tails sum_k B_2k / (2k (2k-1) z^(2k-1)), summed through k = 7, whose
    next term is below 1e-16 of the result there.
    """
    if x < 10.0:
        return math.lgamma(x + h) - math.lgamma(x)
    z = x + h
    return (x - 0.5) * math.log1p(h / x) + h * math.log(z) - h + (_stirling_tail(z) - _stirling_tail(x))


def _stirling_tail(z: float) -> float:
    """log Gamma(z) - [(z - 1/2) log z - z + log(2 pi)/2], from the asymptotic series, for z >= 10."""
    t = 1.0 / (z * z)
    return (1 / 12 - t * (1 / 360 - t * (1 / 1260 - t * (1 / 1680 - t * (1 / 1188 - t * (691 / 360360 - t / 156)))))) / z


def _radial_gamma_arg(alpha: float, dim: int, power: float) -> float:
    """x with Int [1 + b|u|^2]_+^(power/(alpha-1)) du = (pi/|b|)^(d/2) Gamma(x)/Gamma(x + d/2).

    x = power/(1-alpha) - d/2 for alpha < 1, where x <= 0 means the integral
    diverges, and x = (power + (alpha-1))/(alpha-1) for alpha > 1; at power 1
    that is nu/2 and alpha/(alpha-1), the Beta parameters of the bracket's law.
    """
    if alpha < 1.0:
        return power / (1.0 - alpha) - 0.5 * dim
    return (power + (alpha - 1.0)) / (alpha - 1.0)


def log_norm_const(alpha: float, sigma_logdet: float, dim: int) -> float:
    """log N for the Student-t density, computed in log space.

    N is the reciprocal of the radial integral at power 1 times |Sigma|^(1/2).
    Gamma arguments grow like 1/|1-alpha|, so the two Gamma factors are
    combined via lgamma before exponentiation.
    """
    h = 0.5 * dim
    x = _radial_gamma_arg(alpha, dim, 1.0)
    return h * math.log(abs(b_alpha(alpha, dim))) + _log_gamma_ratio(x, h) - h * math.log(math.pi) - 0.5 * sigma_logdet


@record
class StudentTParams:
    """Validated Student-t parameters with derived constants.

    Attributes
    ----------
    alpha : float
        Family order.
    mu : np.ndarray
        Location vector, shape ``(d,)``.
    sigma : np.ndarray
        Covariance matrix, shape ``(d, d)``, symmetric positive definite.
    b_alpha : float
        Derived quadratic-form coefficient.
    nu : float
        Derived tail index 2/(1-alpha) - d.
    sigma_inv : np.ndarray
        Precision matrix Sigma^{-1}.
    log_norm_const : float
        log N, the log of the normalizer; N itself can underflow.
    radius_sq : float
        Squared Mahalanobis radius -1/b_alpha of the support ellipsoid
        (x-mu)^T Sigma^{-1} (x-mu) <= radius_sq for alpha > 1; +inf, all
        of R^d, for alpha < 1.
    logdet : float
        log |Sigma|.
    """

    alpha: float
    mu: np.ndarray
    sigma: np.ndarray
    b_alpha: float
    nu: float
    sigma_inv: np.ndarray
    log_norm_const: float
    radius_sq: float
    logdet: float

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def support_interval(self) -> tuple:
        """The d = 1 support as ``(lo, hi)``.

        The real line for alpha < 1, mu +- sqrt(radius_sq * sigma) for alpha > 1.
        """
        if self.dim != 1:
            raise DimensionMismatchError("a support interval requires d = 1")
        if self.alpha < 1.0:
            return (-math.inf, math.inf)
        radius = math.sqrt(self.radius_sq * self.sigma[0, 0])
        return (self.mu[0] - radius, self.mu[0] + radius)


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """(m + m^T)/2, halving first so that entries near the float maximum do not overflow."""
    return 0.5 * m + 0.5 * m.T


def _split(a):
    """Veltkamp's split: a = hi + lo with hi holding the upper 26 bits, so hi*hi is exact."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def check_mean_covariance(
    mu, sigma, alpha: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Validate a location vector and a covariance matrix; return (mu, sigma, Sigma^{-1}, log |Sigma|).

    A scalar mu is promoted to d = 1 and a scalar sigma to a 1x1 matrix.
    When ``alpha`` is given, it is checked as a Student-t order for this d
    before the values are.  Symmetry and positive definiteness are judged
    on sigma divided by its largest entry, so they hold at any finite
    scale; the returned sigma and its inverse are exactly symmetric.

    Raises
    ------
    DimensionMismatchError
        If mu is not a non-empty vector or sigma is not d x d.
    ParameterError
        With codes ``mu_not_finite``, ``sigma_not_finite``,
        ``sigma_not_symmetric``, ``sigma_not_positive_definite`` and
        ``sigma_inverse_not_finite`` (sigma so small that its inverse
        overflows), after those of :func:`check_alpha`.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.ndim != 1 or mu.shape[0] == 0:
        raise DimensionMismatchError("mu must be a non-empty vector")
    d = mu.shape[0]
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape != (d, d):
        raise DimensionMismatchError(f"sigma must be {d}x{d}, got {sigma.shape}")

    if alpha is not None:
        check_alpha(alpha, d)
    if not np.isfinite(mu).all():
        raise ParameterError(MU_NOT_FINITE, "mu must be finite")
    if not np.isfinite(sigma).all():
        raise ParameterError(SIGMA_NOT_FINITE, "sigma must be finite")

    scale = float(np.max(np.abs(sigma)))
    unit = sigma / scale if scale > 0.0 else sigma
    if np.linalg.norm(unit - unit.T) > SYMMETRY_RTOL * np.linalg.norm(unit):
        raise ParameterError(SIGMA_NOT_SYMMETRIC, "sigma is not symmetric")
    eigvals = np.linalg.eigvalsh(_symmetrize(unit))
    if eigvals[-1] <= 0.0 or eigvals[0] <= EIGENVALUE_RTOL * eigvals[-1]:
        raise ParameterError(SIGMA_NOT_POSITIVE_DEFINITE, "sigma is not positive definite")
    sigma = _symmetrize(sigma)
    sigma_inv = _symmetrize(np.linalg.inv(sigma))
    if not np.isfinite(sigma_inv).all():
        raise ParameterError(SIGMA_INVERSE_NOT_FINITE, _SIGMA_TOO_SMALL)
    return mu, sigma, sigma_inv, float(np.linalg.slogdet(sigma)[1])


def make_student_t(alpha: float, mu, sigma) -> StudentTParams:
    """Construct validated Student-t parameters with all derived constants.

    Parameters
    ----------
    alpha : float
        Family order; must satisfy alpha > d/(d+2) and alpha != 1.
    mu : array-like
        Location vector of length d (a scalar is promoted to d=1).
    sigma : array-like
        Covariance matrix, d x d symmetric positive definite (a scalar is
        promoted to a 1x1 matrix).

    Raises
    ------
    ParameterError
        With distinct codes for non-finite alpha, alpha <= d/(d+2),
        alpha = 1, non-finite mu, non-finite sigma, non-symmetric sigma,
        non-positive-definite sigma, and a sigma so small that its inverse
        or the normalizer N overflows.
    """
    mu, sigma, sigma_inv, logdet = check_mean_covariance(mu, sigma, alpha)
    d = mu.shape[0]
    b = b_alpha(alpha, d)
    log_n = log_norm_const(alpha, logdet, d)
    if not log_n < LOG_FLOAT_MAX:
        raise ParameterError(SIGMA_INVERSE_NOT_FINITE, _SIGMA_TOO_SMALL)
    return StudentTParams(
        alpha=alpha,
        mu=mu,
        sigma=sigma,
        b_alpha=b,
        nu=degrees_of_freedom(alpha, d),
        sigma_inv=sigma_inv,
        log_norm_const=log_n,
        radius_sq=-1.0 / b if alpha > 1.0 else math.inf,
        logdet=logdet,
    )


@record
class MAlphaDescriptor:
    """Abstract record of a k-parameter alpha-power-law family.

    Realizes the density Z(theta)^{-1} [q(x)^{alpha-1} + w0(theta) +
    w(theta)^T f(x)]_+^{1/(alpha-1)}.  The optional constant-statistic
    offset ``w0`` covers families (like the Student-t) whose natural
    presentation carries a theta-dependent constant alongside the s = k
    genuinely free statistics; for q constant it is equivalent to the
    offset-free form after renormalization.

    ``w_jacobian(theta)`` returns the s x k matrix of partial derivatives
    dw_i/dtheta_r; ``w0_grad(theta)`` the length-k gradient of the offset.

    ``f_fn`` and ``q_fn`` take one point, shape ``(d,)``, or a batch, shape
    ``(n, d)``.  ``f_fn`` returns shape ``(s,)`` or ``(n, s)``; ``q_fn``
    returns a scalar or shape ``(n,)``, and a scalar stands for every row.
    """

    k: int
    s: int
    alpha: float
    q_fn: Callable[[np.ndarray], float]
    w_fn: Callable[[np.ndarray], np.ndarray]
    f_fn: Callable[[np.ndarray], np.ndarray]
    z_fn: Callable[[np.ndarray], float]
    w_jacobian: Callable[[np.ndarray], np.ndarray]
    w0_fn: Optional[Callable[[np.ndarray], float]] = None
    w0_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None


@record
class SampleBatch:
    """n observations of dimension d, stored as an (n, d) float array."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if data.ndim != 2 or data.shape[0] < 1:
            raise DimensionMismatchError("batch must be a nonempty (n, d) array")
        if not np.all(np.isfinite(data)):
            raise ParameterError("non_finite_observation", "all observations must be finite")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def scalars(self) -> np.ndarray:
        """The observations as a flat vector; requires d = 1."""
        if self.dim != 1:
            raise DimensionMismatchError("scalar view requires d = 1")
        return self.data[:, 0]


@record
class SufficientStats:
    """Means of f and q^(alpha-1): one side of the estimating equation.

    The sample side holds the batch means f-bar and q^(alpha-1)-bar; the
    population side holds E_theta[f] and E_theta[q^(alpha-1)].
    """

    mean_f: np.ndarray
    mean_q_pow: float


def moment_statistic(x) -> np.ndarray:
    """The Student-t statistic f(x) = (x, Vec(x x^T)).

    Takes one point, shape ``(d,)`` (a scalar counts as d = 1), or a batch,
    shape ``(n, d)``, and returns shape ``(d + d^2,)`` or ``(n, d + d^2)``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    outer = x[..., :, None] * x[..., None, :]
    return np.concatenate([x, outer.reshape(x.shape[:-1] + (x.shape[-1] ** 2,))], axis=-1)


def pack_theta(mu: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Canonical parameter packing: mu (d entries) then Vec(Sigma^{-1}) row-major."""
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    return np.concatenate([mu, lam.ravel()])


def unpack_theta(theta: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_theta`."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dim + dim * dim,):
        raise DimensionMismatchError(
            f"theta must have length d + d^2 = {dim + dim * dim}, got {theta.shape}"
        )
    return theta[:dim], theta[dim:].reshape(dim, dim)


def reconstruct_density(desc: MAlphaDescriptor, theta: np.ndarray, x) -> float:
    """Evaluate the descriptor's density form at a point.

    Returns 0 where the bracket [q^(alpha-1) + w0 + w^T f] is non-positive.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a = desc.alpha
    bracket = desc.q_fn(x) ** (a - 1.0) + float(desc.w_fn(theta) @ desc.f_fn(x))
    if desc.w0_fn is not None:
        bracket += desc.w0_fn(theta)
    if bracket <= 0.0:
        return 0.0
    return bracket ** (1.0 / (a - 1.0)) / desc.z_fn(theta)


@record
class RegularityReport:
    """Outcome of probing a descriptor's regularity conditions."""

    regular: bool
    probes: int
    failures: tuple = ()
    determinants: tuple = ()


def validate_regular(desc, probe_thetas: Iterable[np.ndarray], tol: float = 1e-10) -> RegularityReport:
    """Check that the weight Jacobian is nonsingular at every probe theta.

    Nonsingularity is judged by the smallest singular value exceeding
    ``tol * max(1, largest singular value)``; the determinant itself can
    underflow any fixed threshold for perfectly regular families (it scales
    like b_alpha^(d^2+d)), so it is reported but not thresholded.

    Raises
    ------
    DimensionMismatchError
        If the descriptor has s != k.
    """
    if desc.s != desc.k:
        raise DimensionMismatchError(f"regularity requires s = k, got s={desc.s}, k={desc.k}")
    thetas = [np.asarray(theta, dtype=float) for theta in probe_thetas]
    failures = []
    dets = []
    for theta in thetas:
        jac = np.asarray(desc.w_jacobian(theta), dtype=float)
        if jac.shape != (desc.s, desc.k):
            raise DimensionMismatchError(
                f"w_jacobian must be {desc.s}x{desc.k}, got {jac.shape}"
            )
        sign, logabsdet = np.linalg.slogdet(jac)
        dets.append(float(sign * np.exp(logabsdet)) if np.isfinite(logabsdet) else 0.0)
        svals = np.linalg.svd(jac, compute_uv=False)
        if not np.all(np.isfinite(jac)) or svals[-1] <= tol * max(1.0, svals[0]):
            failures.append((theta, float(svals[-1])))
    return RegularityReport(
        regular=not failures,
        probes=len(thetas),
        failures=tuple(failures),
        determinants=tuple(dets),
    )
