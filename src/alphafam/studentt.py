"""Student-t density evaluation, power-family decomposition, sampling, and score.

The density implemented here is

    p(x) = N * [1 + b_alpha (x-mu)^T Sigma^{-1} (x-mu)]_+^(1/(alpha-1)),

with Sigma the covariance matrix.  For alpha < 1 this is the classical
multivariate t with nu = 2/(1-alpha) - d degrees of freedom and scale matrix
Sigma*(nu-2)/nu; for alpha > 1 the support is a bounded ellipsoid.
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
    UnsupportedConfigError,
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

    RNG: numpy ``default_rng`` (PCG64).  For alpha < 1 the draws use the
    location-scale construction X = mu + A Z sqrt(nu/W) with A A^T =
    Sigma*(nu-2)/nu, Z standard normal and W chi-squared(nu), so the
    covariance of X equals Sigma.  For alpha > 1 only d = 1 is supported,
    via rejection from the uniform distribution on the support interval
    with the density peak as envelope (acceptance >= 1/2 at alpha = 2).

    Raises
    ------
    UnsupportedConfigError
        For alpha > 1 with d > 1.
    """
    if n < 1:
        raise DimensionMismatchError("n must be >= 1")
    rng = np.random.default_rng(seed)
    d = params.dim
    if params.alpha < 1.0:
        nu = params.nu
        scale = params.sigma * (nu - 2.0) / nu
        chol = np.linalg.cholesky(scale)
        z = rng.standard_normal((n, d))
        w = rng.chisquare(nu, size=n)
        draws = params.mu + (z * np.sqrt(nu / w)[:, None]) @ chol.T
        return SampleBatch(draws)

    if d != 1:
        raise UnsupportedConfigError(
            "sampling for alpha > 1 is implemented only for d = 1"
        )
    mu = params.mu[0]
    lo, hi = params.support_interval
    exponent = 1.0 / (params.alpha - 1.0)
    inv_var = params.sigma_inv[0, 0]
    accepted = np.empty(0)
    while accepted.size < n:
        m = max(2 * (n - accepted.size), 64)
        x = rng.uniform(lo, hi, size=m)
        u = rng.uniform(size=m)
        bracket = 1.0 + params.b_alpha * (x - mu) ** 2 * inv_var
        ratio = np.where(bracket > 0.0, np.maximum(bracket, 0.0) ** exponent, 0.0)
        accepted = np.concatenate([accepted, x[u <= ratio]])
    return SampleBatch(accepted[:n, None])


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
