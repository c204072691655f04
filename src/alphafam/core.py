"""Shared domain types, parameter validation, and derived constants.

Everything here is immutable after construction and all functions are pure,
so the types can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "AlphaFamilyError",
    "ParameterError",
    "DimensionMismatchError",
    "UndefinedScoreError",
    "DegenerateStatisticsError",
    "NumericalError",
    "SupportDescriptor",
    "StudentTParams",
    "MAlphaDescriptor",
    "ExpFamilyDescriptor",
    "SampleBatch",
    "SufficientStats",
    "RegularityReport",
    "b_alpha",
    "check_alpha",
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


def _log_norm_const_shape(alpha: float, dim: int) -> float:
    """log of the normalizer without the |Sigma|^(1/2) factor."""
    b = b_alpha(alpha, dim)
    if alpha < 1.0:
        z = 1.0 / (1.0 - alpha)
        return (
            0.5 * dim * math.log(b)
            + math.lgamma(z)
            - math.lgamma(z - 0.5 * dim)
            - 0.5 * dim * math.log(math.pi)
        )
    z = alpha / (alpha - 1.0)
    return (
        0.5 * dim * math.log(-b)
        + math.lgamma(z + 0.5 * dim)
        - math.lgamma(z)
        - 0.5 * dim * math.log(math.pi)
    )


def log_norm_const(alpha: float, sigma_logdet: float, dim: int) -> float:
    """log N for the Student-t density, computed in log space.

    Gamma arguments grow like 1/|1-alpha|, so the two Gamma factors are
    combined via lgamma before exponentiation.
    """
    return _log_norm_const_shape(alpha, dim) - 0.5 * sigma_logdet


@dataclass(frozen=True)
class SupportDescriptor:
    """Support of a family member: all of R^d, or an ellipsoid.

    For the ellipsoid case, membership is (x-center)^T shape (x-center)
    <= radius_sq with shape = Sigma^{-1} and radius_sq = -1/b_alpha.
    """

    kind: str  # "all-space" | "ellipsoid"
    center: Optional[np.ndarray] = None
    shape: Optional[np.ndarray] = None
    radius_sq: Optional[float] = None

    def contains(self, x: np.ndarray, tol: float = 0.0) -> bool:
        if self.kind == "all-space":
            return True
        r = np.asarray(x, dtype=float) - self.center
        return float(r @ self.shape @ r) <= self.radius_sq + tol


@dataclass(frozen=True)
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
    norm_const : float
        Normalizing constant N > 0.
    sigma_inv : np.ndarray
        Precision matrix Sigma^{-1}.
    log_norm_const : float
        log N (kept alongside N to avoid re-deriving it in log space).
    support : SupportDescriptor
        All-space for alpha < 1, bounded ellipsoid for alpha > 1.
    """

    alpha: float
    mu: np.ndarray
    sigma: np.ndarray
    b_alpha: float
    nu: float
    norm_const: float
    sigma_inv: np.ndarray
    log_norm_const: float
    support: SupportDescriptor

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
        radius = math.sqrt(self.support.radius_sq * self.sigma[0, 0])
        return (self.mu[0] - radius, self.mu[0] + radius)


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
        and non-positive-definite sigma.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.ndim != 1 or mu.shape[0] == 0:
        raise DimensionMismatchError("mu must be a non-empty vector")
    d = mu.shape[0]
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape != (d, d):
        raise DimensionMismatchError(f"sigma must be {d}x{d}, got {sigma.shape}")

    check_alpha(alpha, d)
    if not np.isfinite(mu).all():
        raise ParameterError(MU_NOT_FINITE, "mu must be finite")
    if not np.isfinite(sigma).all():
        raise ParameterError(SIGMA_NOT_FINITE, "sigma must be finite")

    scale = np.linalg.norm(sigma)
    if np.linalg.norm(sigma - sigma.T) > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ParameterError(SIGMA_NOT_SYMMETRIC, "sigma is not symmetric")
    sigma = 0.5 * (sigma + sigma.T)
    eigvals = np.linalg.eigvalsh(sigma)
    if eigvals[-1] <= 0.0 or eigvals[0] <= EIGENVALUE_RTOL * eigvals[-1]:
        raise ParameterError(SIGMA_NOT_POSITIVE_DEFINITE, "sigma is not positive definite")

    b = b_alpha(alpha, d)
    nu = degrees_of_freedom(alpha, d)
    sign, logdet = np.linalg.slogdet(sigma)
    log_n = log_norm_const(alpha, logdet, d)
    sigma_inv = np.linalg.inv(sigma)
    sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)

    if alpha < 1.0:
        support = SupportDescriptor(kind="all-space")
    else:
        support = SupportDescriptor(
            kind="ellipsoid", center=mu, shape=sigma_inv, radius_sq=-1.0 / b
        )

    return StudentTParams(
        alpha=alpha,
        mu=mu,
        sigma=sigma,
        b_alpha=b,
        nu=nu,
        norm_const=math.exp(log_n),
        sigma_inv=sigma_inv,
        log_norm_const=log_n,
        support=support,
    )


@dataclass(frozen=True)
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
    support: SupportDescriptor
    w_jacobian: Callable[[np.ndarray], np.ndarray]
    w0_fn: Optional[Callable[[np.ndarray], float]] = None
    w0_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class ExpFamilyDescriptor:
    """Record of a k-parameter exponential family.

    Realizes the density exp[q(x) + Z(theta) + w(theta)^T f(x)] on the
    support, with the same Jacobian convention and the same point-or-batch
    contract for ``f_fn`` and ``q_fn`` as MAlphaDescriptor.
    """

    k: int
    s: int
    q_fn: Callable[[np.ndarray], float]
    w_fn: Callable[[np.ndarray], np.ndarray]
    f_fn: Callable[[np.ndarray], np.ndarray]
    z_fn: Callable[[np.ndarray], float]
    support: SupportDescriptor
    w_jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SufficientStats:
    """Means of f and q^(alpha-1): one side of the estimating equation.

    The sample side holds the batch means f-bar and q^(alpha-1)-bar; the
    population side holds E_theta[f] and E_theta[q^(alpha-1)].
    """

    mean_f: np.ndarray
    mean_q_pow: float


def moment_statistic(x) -> np.ndarray:
    """The statistic f(x) = (x, Vec(x x^T)) shared by the Student-t and Gaussian.

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


@dataclass(frozen=True)
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
