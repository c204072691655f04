"""Student-t density evaluation, power-family decomposition, sampling, and score.

The density implemented here is

    p(x) = N * [1 + b_alpha (x-mu)^T Sigma^{-1} (x-mu)]_+^(1/(alpha-1)),

with Sigma the covariance matrix.  For alpha < 1 this is the classical
multivariate t with nu = 2/(1-alpha) - d degrees of freedom and scale matrix
Sigma*(nu-2)/nu; for alpha > 1 it is the Pearson type II law on the
ellipsoid of squared Mahalanobis radius R^2 = -1/b_alpha (Fang, Kotz & Ng
1990).  Both are a Gaussian over an independent chi, X = mu + A Z sqrt(k/W),
so one exact sampler draws every member in any dimension (see ``sample``).
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DimensionMismatchError,
    MAlphaDescriptor,
    SampleBatch,
    StudentTParams,
    UndefinedScoreError,
    b_alpha,
    _log_norm_const_shape,
    moment_statistic,
    unpack_theta,
)

__all__ = [
    "density",
    "log_density",
    "decompose",
    "density_power_integral",
    "sample",
    "score",
    "score_batch",
    "log_density_given_theta",
]


def _check_point(params: StudentTParams, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (params.dim,):
        raise DimensionMismatchError(f"x must have length {params.dim}, got {x.shape}")
    return x


def _brackets(points, mu: np.ndarray, lam: np.ndarray, b: float):
    """Residuals r = x - mu and brackets 1 + b r^T lam r for the rows of ``points``."""
    r = np.atleast_2d(np.asarray(points, dtype=float)) - mu
    return r, 1.0 + b * np.einsum("ni,ij,nj->n", r, lam, r)


def density(params: StudentTParams, x) -> float:
    """Density at a single point; exactly 0 outside an alpha > 1 support."""
    return float(density_batch(params, _check_point(params, x))[0])


def _log_density(x: np.ndarray, mu, lam, b: float, alpha: float, log_n: float) -> float:
    """log N + log(bracket)/(alpha - 1) at one point; -inf off the support."""
    bracket = _brackets(x, mu, lam, b)[1][0]
    if bracket <= 0.0:
        return -math.inf
    return log_n + math.log(bracket) / (alpha - 1.0)


def log_density(params: StudentTParams, x) -> float:
    """log density at a single point; -inf outside the support."""
    x = _check_point(params, x)
    return _log_density(x, params.mu, params.sigma_inv, params.b_alpha, params.alpha, params.log_norm_const)


def density_batch(params: StudentTParams, points: np.ndarray) -> np.ndarray:
    """Vectorized density over rows of an (n, d) array."""
    _, bracket = _brackets(points, params.mu, params.sigma_inv, params.b_alpha)
    out = np.zeros(len(bracket))
    pos = bracket > 0.0
    out[pos] = params.norm_const * bracket[pos] ** (1.0 / (params.alpha - 1.0))
    return out


def decompose(params: StudentTParams) -> MAlphaDescriptor:
    """The density as a power-law family descriptor.

    With q = 1, the bracket 1 + b (x-mu)^T Sigma^{-1} (x-mu) splits into the
    offset w0 = b mu^T Sigma^{-1} mu and the weights w = (-2 b Sigma^{-1} mu,
    b Vec(Sigma^{-1})) of the s = k = d^2 + d statistics f = (x, Vec(x x^T)),
    over the canonical packing theta = (mu, Vec(Sigma^{-1})).  The
    reconstruction therefore matches the density exactly.  The Jacobian
    treats the d^2 entries of Sigma^{-1} as free coordinates, which keeps the
    square Jacobian nonsingular at every valid theta.
    """
    d = params.dim
    alpha = params.alpha
    b = params.b_alpha
    k = d + d * d
    shape_log_n = _log_norm_const_shape(alpha, d)

    def w_fn(theta: np.ndarray) -> np.ndarray:
        m, l = unpack_theta(theta, d)
        return np.concatenate([-2.0 * b * (l @ m), b * l.ravel()])

    def w0_fn(theta: np.ndarray) -> float:
        m, l = unpack_theta(theta, d)
        return b * float(m @ l @ m)

    def w0_grad(theta: np.ndarray) -> np.ndarray:
        m, l = unpack_theta(theta, d)
        return np.concatenate([b * ((l + l.T) @ m), b * np.outer(m, m).ravel()])

    def w_jacobian(theta: np.ndarray) -> np.ndarray:
        m, l = unpack_theta(theta, d)
        jac = np.zeros((k, k))
        jac[:d, :d] = -2.0 * b * l
        for row in range(d):
            jac[row, d + row * d : d + (row + 1) * d] = -2.0 * b * m
        jac[d:, d:] = b * np.eye(d * d)
        return jac

    def z_fn(theta: np.ndarray) -> float:
        _, l = unpack_theta(theta, d)
        sign, logdet = np.linalg.slogdet(l)
        if sign <= 0:
            raise ValueError("Sigma^{-1} block must have positive determinant")
        return math.exp(-(shape_log_n + 0.5 * logdet))

    return MAlphaDescriptor(
        k=k,
        s=k,
        alpha=alpha,
        q_fn=lambda x: 1.0,
        w_fn=w_fn,
        f_fn=moment_statistic,
        z_fn=z_fn,
        support=params.support,
        w_jacobian=w_jacobian,
        w0_fn=w0_fn,
        w0_grad=w0_grad,
    )


def density_power_integral(params: StudentTParams) -> float:
    """Closed form of the integral of p^alpha over the support.

    Derived from the same Gamma identities as the normalizer; finite on the
    whole valid alpha range.  Cross-checked against quadrature in the tests.
    """
    alpha = params.alpha
    d = params.dim
    b = params.b_alpha
    sign, logdet = np.linalg.slogdet(params.sigma)
    if alpha < 1.0:
        beta = alpha / (1.0 - alpha)
        log_val = (
            alpha * params.log_norm_const
            + 0.5 * logdet
            + 0.5 * d * math.log(math.pi / b)
            + math.lgamma(beta - 0.5 * d)
            - math.lgamma(beta)
        )
    else:
        gamma = alpha / (alpha - 1.0)
        log_val = (
            alpha * params.log_norm_const
            + 0.5 * logdet
            + 0.5 * d * math.log(math.pi / (-b))
            + math.lgamma(gamma + 1.0)
            - math.lgamma(gamma + 1.0 + 0.5 * d)
        )
    return math.exp(log_val)


def sample(params: StudentTParams, n: int, seed: int) -> SampleBatch:
    """Draw n i.i.d. observations, deterministically for a fixed seed.

    RNG: numpy ``default_rng`` (PCG64).  Every member is drawn as X = mu +
    A Z sqrt(k/W) with Z standard normal in R^d, then W chi-squared(k):
    for alpha < 1, k = nu and A A^T = Sigma*(nu-2)/nu; for alpha > 1,
    k = 2 alpha/(alpha-1), W also gains |Z|^2, and A A^T = Sigma*R^2/k with
    R^2 the support's ``radius_sq``, so the squared Mahalanobis radius over
    R^2 is |Z|^2/W ~ Beta(d/2, 1/(alpha-1) + 1).  Either way Cov X = Sigma.
    """
    if n < 1:
        raise DimensionMismatchError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if params.alpha < 1.0:
        k, c = params.nu, params.nu - 2.0
    else:
        k, c = 2.0 * params.alpha / (params.alpha - 1.0), params.support.radius_sq
    chol = np.linalg.cholesky(params.sigma * c / k)
    z = rng.standard_normal((n, params.dim))
    w = rng.chisquare(k, size=n)
    if params.alpha > 1.0:
        w += np.einsum("ni,ni->n", z, z)
    return SampleBatch(params.mu + (z * np.sqrt(k / w)[:, None]) @ chol.T)


def score(params: StudentTParams, x) -> np.ndarray:
    """Gradient of log p w.r.t. theta = (mu, Vec(Sigma^{-1})) at one point.

    Raises
    ------
    UndefinedScoreError
        If x lies on or outside the support boundary (density 0).
    """
    row = score_batch(params, _check_point(params, x))[0]
    if np.isnan(row).any():
        raise UndefinedScoreError("score is undefined on or outside the support boundary")
    return row


def score_batch(params: StudentTParams, points: np.ndarray) -> np.ndarray:
    """Scores for all rows of an (n, d) array; rows off support get NaN."""
    r, bracket = _brackets(points, params.mu, params.sigma_inv, params.b_alpha)
    n, d = r.shape
    out = np.full((n, d + d * d), np.nan)
    ok = bracket > 0.0
    c = params.b_alpha / ((params.alpha - 1.0) * bracket[ok])
    out[ok, :d] = -2.0 * c[:, None] * (r[ok] @ params.sigma_inv)
    outer = np.einsum("n,ni,nj->nij", c, r[ok], r[ok])
    out[ok, d:] = (0.5 * params.sigma + outer).reshape(ok.sum(), d * d)
    return out


def log_density_given_theta(theta: np.ndarray, alpha: float, x) -> float:
    """log density as a function of the packed parameter vector.

    Treats all d + d^2 entries of theta as free coordinates (the
    Sigma^{-1} block need not be symmetric), which is what central finite
    differences of the score require.  No domain validation beyond a
    positive determinant: NaN when it fails, unless x is off the support.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[0]
    mu, lam = unpack_theta(np.asarray(theta, dtype=float), d)
    sign, logdet = np.linalg.slogdet(lam)
    log_n = _log_norm_const_shape(alpha, d) + 0.5 * logdet if sign > 0 else math.nan
    return _log_density(x, mu, lam, b_alpha(alpha, d), alpha, log_n)
