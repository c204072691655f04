"""Student-t density evaluation, power-family decomposition, sampling, and score.

The density implemented here is

    p(x) = N * [1 + b_alpha (x-mu)^T Sigma^{-1} (x-mu)]_+^(1/(alpha-1)),

with Sigma the covariance matrix.  For alpha < 1 this is the classical
multivariate t with nu = 2/(1-alpha) - d degrees of freedom and scale matrix
Sigma*(nu-2)/nu; for alpha > 1 the support is a bounded ellipsoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    pack_theta,
    unpack_theta,
)

__all__ = [
    "StudentTDecomposition",
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


def _bracket(params: StudentTParams, x: np.ndarray) -> float:
    r = x - params.mu
    return 1.0 + params.b_alpha * float(r @ params.sigma_inv @ r)


def density(params: StudentTParams, x) -> float:
    """Density at a single point; exactly 0 outside an alpha > 1 support."""
    x = _check_point(params, x)
    bracket = _bracket(params, x)
    if bracket <= 0.0:
        return 0.0
    return params.norm_const * bracket ** (1.0 / (params.alpha - 1.0))


def log_density(params: StudentTParams, x) -> float:
    """log density at a single point; -inf outside the support."""
    x = _check_point(params, x)
    bracket = _bracket(params, x)
    if bracket <= 0.0:
        return -math.inf
    return params.log_norm_const + math.log(bracket) / (params.alpha - 1.0)


def density_batch(params: StudentTParams, points: np.ndarray) -> np.ndarray:
    """Vectorized density over rows of an (n, d) array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = pts - params.mu
    quad = np.einsum("ni,ij,nj->n", r, params.sigma_inv, r)
    bracket = np.maximum(1.0 + params.b_alpha * quad, 0.0)
    out = np.zeros(len(pts))
    pos = bracket > 0.0
    out[pos] = params.norm_const * bracket[pos] ** (1.0 / (params.alpha - 1.0))
    return out


@dataclass(frozen=True)
class StudentTDecomposition:
    """Weight blocks of the Student-t written as a power-law family.

    w1 = b_alpha mu^T Sigma^{-1} mu pairs with the constant statistic
    f1(x) = 1; w2 = -2 b_alpha Sigma^{-1} mu with f2(x) = x; and
    w3 = b_alpha Vec(Sigma^{-1}) with f3(x) = Vec(x x^T).  q is
    identically 1.
    """

    w1: float
    w2: np.ndarray
    w3: np.ndarray
    b_alpha: float

    @staticmethod
    def q(x) -> float:
        return 1.0

    @staticmethod
    def f1(x) -> float:
        return 1.0

    @staticmethod
    def f2(x) -> np.ndarray:
        return np.atleast_1d(np.asarray(x, dtype=float))

    @staticmethod
    def f3(x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.outer(x, x).ravel()

    def bracket(self, x) -> float:
        """1 + w1 + w2^T f2(x) + w3^T f3(x); feeds the 1/(alpha-1) power."""
        return (
            1.0
            + self.w1
            + float(self.w2 @ self.f2(x))
            + float(self.w3 @ self.f3(x))
        )


def decompose(params: StudentTParams):
    """Decompose the density into its weight blocks and a family descriptor.

    Returns
    -------
    (StudentTDecomposition, MAlphaDescriptor)
        The raw weight blocks, and a descriptor over the canonical packing
        theta = (mu, Vec(Sigma^{-1})) with s = k = d^2 + d statistics
        f = (x, Vec(x x^T)).  The constant block w1 rides along as the
        descriptor's offset so the reconstruction matches the density
        exactly; its Jacobian treats the d^2 entries of Sigma^{-1} as free
        coordinates, which keeps the square Jacobian nonsingular at every
        valid theta.
    """
    d = params.dim
    alpha = params.alpha
    b = params.b_alpha
    lam = params.sigma_inv
    mu = params.mu

    dec = StudentTDecomposition(
        w1=b * float(mu @ lam @ mu),
        w2=-2.0 * b * (lam @ mu),
        w3=b * lam.ravel(),
        b_alpha=b,
    )

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

    desc = MAlphaDescriptor(
        k=k,
        s=k,
        alpha=alpha,
        q_fn=StudentTDecomposition.q,
        w_fn=w_fn,
        f_fn=moment_statistic,
        z_fn=z_fn,
        support=params.support,
        w_jacobian=w_jacobian,
        w0_fn=w0_fn,
        w0_grad=w0_grad,
    )
    return dec, desc


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
    radius = math.sqrt(params.support.radius_sq * params.sigma[0, 0])
    exponent = 1.0 / (params.alpha - 1.0)
    inv_var = params.sigma_inv[0, 0]
    accepted = np.empty(0)
    while accepted.size < n:
        m = max(2 * (n - accepted.size), 64)
        x = rng.uniform(mu - radius, mu + radius, size=m)
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
    x = _check_point(params, x)
    bracket = _bracket(params, x)
    if bracket <= 0.0:
        raise UndefinedScoreError("score is undefined on or outside the support boundary")
    r = x - params.mu
    c = params.b_alpha / ((params.alpha - 1.0) * bracket)
    g_mu = -2.0 * c * (params.sigma_inv @ r)
    g_lam = 0.5 * params.sigma + c * np.outer(r, r)
    return np.concatenate([g_mu, g_lam.ravel()])


def score_batch(params: StudentTParams, points: np.ndarray) -> np.ndarray:
    """Scores for all rows of an (n, d) array; rows off support get NaN."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    r = pts - params.mu
    quad = np.einsum("ni,ij,nj->n", r, params.sigma_inv, r)
    bracket = 1.0 + params.b_alpha * quad
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
    positive determinant.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[0]
    mu, lam = unpack_theta(np.asarray(theta, dtype=float), d)
    b = b_alpha(alpha, d)
    r = x - mu
    bracket = 1.0 + b * float(r @ lam @ r)
    if bracket <= 0.0:
        return -math.inf
    sign, logdet = np.linalg.slogdet(lam)
    if sign <= 0:
        return math.nan
    return (
        _log_norm_const_shape(alpha, d)
        + 0.5 * logdet
        + math.log(bracket) / (alpha - 1.0)
    )
