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

import functools
import math

import numpy as np

from .core import (
    LOG_FLOAT_MAX,
    DimensionMismatchError,
    MAlphaDescriptor,
    SampleBatch,
    StudentTParams,
    UndefinedScoreError,
    _log_gamma_ratio,
    _radial_gamma_arg,
    log_norm_const,
    moment_statistic,
    unpack_theta,
)

__all__ = [
    "density",
    "log_density",
    "log_density_batch",
    "decompose",
    "log_power_integral",
    "sample",
    "score",
    "score_batch",
]


def _check_point(params: StudentTParams, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (params.dim,):
        raise DimensionMismatchError(f"x must have length {params.dim}, got {x.shape}")
    return x


def _quadratic_form(r: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """r^T lam r for each row of r, summed term by term, (r_i lam_ij) r_j, in a fixed order.

    Elementwise operations only, so a row's bits do not depend on how many
    rows come with it; einsum and BLAS products may group their sums by
    the row count.  ``_log_brackets`` passes scaled residuals, |r_i| < 1,
    so the form overflows only where lam itself is near the float maximum.
    """
    total = np.zeros(r.shape[0])
    for i, j in np.ndindex(lam.shape):
        total += r[:, i] * lam[i, j] * r[:, j]
    return total


def _log_brackets(points, mu: np.ndarray, lam: np.ndarray, b: float):
    """Scaled residuals, their scale, their form, log(1 + m) and m for the rows of ``points``.

    Each residual r = x - mu is scaled exactly, r_s = r 2^-e, with 2^e just
    above the row's largest |r_i| and e >= 0, so a row near mu is never
    scaled up.  Returns (r_s, 2^-e, m_s = b r_s^T lam r_s, log bracket, m).
    m = m_s / 2^-e / 2^-e has the bits of b r^T lam r wherever that does not
    overflow, and the log bracket is log1p(m), -inf off the support; where
    m = +inf it is log m_s + e log 4.
    """
    r = np.atleast_2d(np.asarray(points, dtype=float)) - mu
    # A reduce across the d columns is much faster than np.max(..., axis=1) for small d.
    _, exponent = np.frexp(functools.reduce(np.maximum, np.abs(r).T))
    exponent = np.maximum(exponent, 0)
    shrink = np.ldexp(1.0, -exponent)
    r *= shrink[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m_s = b * _quadratic_form(r, lam)
        m = m_s / shrink / shrink
        log_bracket = np.log1p(np.maximum(m, -1.0))
        far = m == math.inf
        log_bracket[far] = np.log(m_s[far]) + exponent[far] * math.log(4.0)
    return r, shrink, m_s, log_bracket, m


def log_density_batch(params: StudentTParams, points) -> np.ndarray:
    """log density over the rows of an (n, d) array; -inf off the support."""
    log_bracket = _log_brackets(points, params.mu, params.sigma_inv, params.b_alpha)[3]
    return params.log_norm_const + log_bracket / (params.alpha - 1.0)


def log_density(params: StudentTParams, x) -> float:
    """log density at a single point; -inf outside the support."""
    return float(log_density_batch(params, _check_point(params, x))[0])


def density_batch(params: StudentTParams, points: np.ndarray) -> np.ndarray:
    """Vectorized density over rows of an (n, d) array; exactly 0 outside an alpha > 1 support."""
    return np.exp(log_density_batch(params, points))


def density(params: StudentTParams, x) -> float:
    """Density at a single point; exactly 0 outside an alpha > 1 support."""
    return float(density_batch(params, _check_point(params, x))[0])


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

    def w_fn(theta: np.ndarray) -> np.ndarray:
        m, l = unpack_theta(theta, d)
        return np.concatenate([-2.0 * b * (l @ m), b * l.ravel()])

    def w_jacobian(theta: np.ndarray) -> np.ndarray:
        m, l = unpack_theta(theta, d)
        jac = np.zeros((k, k))
        jac[:d, :d] = -2.0 * b * l
        for row in range(d):
            jac[row, d + row * d : d + (row + 1) * d] = -2.0 * b * m
        jac[d:, d:] = b * np.eye(d * d)
        return jac

    def w0_fn(theta: np.ndarray) -> float:
        m, l = unpack_theta(theta, d)
        return b * float(m @ l @ m)

    def w0_grad(theta: np.ndarray) -> np.ndarray:
        m, l = unpack_theta(theta, d)
        return np.concatenate([b * ((l + l.T) @ m), b * np.outer(m, m).ravel()])

    def z_fn(theta: np.ndarray) -> float:
        _, l = unpack_theta(theta, d)
        sign, logdet = np.linalg.slogdet(l)
        if sign <= 0:
            raise ValueError("Sigma^{-1} block must have positive determinant")
        log_z = -log_norm_const(alpha, -logdet, d)
        # Z = 1/N overflows where N underflows; the density there is 0, as 1/inf reads.
        return math.exp(log_z) if log_z < LOG_FLOAT_MAX else math.inf

    return MAlphaDescriptor(
        k=k,
        s=k,
        alpha=alpha,
        q_fn=lambda x: 1.0,
        w_fn=w_fn,
        f_fn=moment_statistic,
        z_fn=z_fn,
        w_jacobian=w_jacobian,
        w0_fn=w0_fn,
        w0_grad=w0_grad,
    )


def log_power_integral(params: StudentTParams, power: float) -> float:
    """log of the integral of p^power over the support, in closed form; +inf where it diverges.

    At power = alpha it is Int p p^(alpha-1) = N^(alpha-1) E_p[1 + b r^2]
    = N^(alpha-1) (1 + b d), since Cov p = Sigma; its log takes the rounding
    of log N only times alpha - 1.  For any other power, substituting
    u = L^-1 (x - mu), L L^T = Sigma, leaves the radial integral
    Int [1 + b|u|^2]_+^(power/(alpha-1)) du = (pi/|b|)^(d/2) Gamma(x) /
    Gamma(x + d/2), x from ``core._radial_gamma_arg``, which diverges
    where x <= 0.  It never exponentiates, so a value beyond the float
    range is still returned.
    """
    alpha, d, b = params.alpha, params.dim, params.b_alpha
    if power == alpha:
        return (alpha - 1.0) * params.log_norm_const + math.log1p(b * d)
    x = _radial_gamma_arg(alpha, d, power)
    if x <= 0.0:
        return math.inf
    return (power * params.log_norm_const + 0.5 * params.logdet + 0.5 * d * math.log(math.pi / abs(b))
            - _log_gamma_ratio(x, 0.5 * d))


def sample(params: StudentTParams, n: int, seed: int) -> SampleBatch:
    """Draw n i.i.d. observations, deterministically for a fixed seed.

    RNG: numpy ``default_rng`` (PCG64).  Every member is drawn as X = mu +
    A Z sqrt(k/W) with Z standard normal in R^d, then W chi-squared(k), with
    k twice the radial law's Gamma argument at power 1: for alpha < 1,
    k = nu and A A^T = Sigma*(nu-2)/nu; for alpha > 1, k = 2 alpha/(alpha-1),
    W also gains |Z|^2, and A A^T = Sigma*R^2/k with R^2 = ``radius_sq``, so
    the squared Mahalanobis radius over R^2 is |Z|^2/W ~ Beta(d/2,
    1/(alpha-1) + 1).  Either way Cov X = Sigma.
    """
    if n < 1:
        raise DimensionMismatchError("n must be >= 1")
    rng = np.random.default_rng(seed)
    k = 2.0 * _radial_gamma_arg(params.alpha, params.dim, 1.0)
    c = params.nu - 2.0 if params.alpha < 1.0 else params.radius_sq
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
    """Scores for all rows of an (n, d) array; rows off support get NaN.

    The blocks are -2 c Sigma^-1 r and Sigma/2 + c r r^T, c = b/((alpha - 1)(1 + m)).
    They are formed from the scaled residual r_s = r 2^-e of ``_log_brackets``
    as c r = c_s r_s 2^-e and c r r^T = c_s r_s r_s^T, c_s = b/((alpha - 1)(4^-e + m_s)),
    which are finite for every row on the support, however far.
    """
    r_s, shrink, m_s, log_bracket, _ = _log_brackets(points, params.mu, params.sigma_inv, params.b_alpha)
    n, d = r_s.shape
    out = np.full((n, d + d * d), np.nan)
    ok = log_bracket > -math.inf
    r_s, shrink = r_s[ok], shrink[ok]
    c_s = params.b_alpha / ((params.alpha - 1.0) * (shrink * shrink + m_s[ok]))
    out[ok, :d] = -2.0 * (c_s * shrink)[:, None] * (r_s @ params.sigma_inv)
    outer = np.einsum("n,ni,nj->nij", c_s, r_s, r_s)
    out[ok, d:] = (0.5 * params.sigma + outer).reshape(r_s.shape[0], d * d)
    return out
