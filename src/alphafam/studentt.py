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
    LOG_FLOAT_MAX,
    DimensionMismatchError,
    MAlphaDescriptor,
    SampleBatch,
    StudentTParams,
    UndefinedScoreError,
    b_alpha,
    _log_gamma_ratio,
    _log_norm_const_shape,
    _quadratic_weights,
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
    "log_density_given_theta",
]


def _check_point(params: StudentTParams, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (params.dim,):
        raise DimensionMismatchError(f"x must have length {params.dim}, got {x.shape}")
    return x


def _scaled(r: np.ndarray, lam: np.ndarray, b: float):
    """r_s = r 2^-e, exactly, with 2^e just above each row's largest |r_i|; e; and b r_s^T lam r_s."""
    _, exponent = np.frexp(np.max(np.abs(r), axis=1))
    scaled = np.ldexp(r, -exponent[:, None])
    return scaled, exponent, b * np.einsum("ni,ij,nj->n", scaled, lam, scaled)


def _log_brackets(points, mu: np.ndarray, lam: np.ndarray, b: float):
    """Residuals r = x - mu, m = b r^T lam r and log(1 + m) for the rows of ``points``.

    The log is -inf off the support.  Where m overflows it reads +-inf, and
    for b > 0 its log is log m, taken from ``_scaled`` residuals as
    log(b r_s^T lam r_s) + e log 4; every other row takes log1p(m).
    """
    r = np.atleast_2d(np.asarray(points, dtype=float)) - mu
    m = b * np.einsum("ni,ij,nj->n", r, lam, r)
    far = ~np.isfinite(m)
    m[far] = math.copysign(math.inf, b)
    with np.errstate(divide="ignore"):
        log_bracket = np.log1p(np.maximum(m, -1.0))
    if b > 0.0 and far.any():
        _, exponent, m_scaled = _scaled(r[far], lam, b)
        log_bracket[far] = np.log(m_scaled) + exponent * math.log(4.0)
    return r, m, log_bracket


def log_density_batch(params: StudentTParams, points) -> np.ndarray:
    """log density over the rows of an (n, d) array; -inf off the support."""
    log_bracket = _log_brackets(points, params.mu, params.sigma_inv, params.b_alpha)[2]
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
    shape_log_n = _log_norm_const_shape(alpha, d)
    w_fn, w_jacobian = _quadratic_weights(b, d)

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
        log_z = -(shape_log_n + 0.5 * logdet)
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
    u = sqrt(|b|) L^-1 (x - mu), L L^T = Sigma, leaves a radial integral:
    with s = power/(1 - alpha) for alpha < 1, Int (1 + |u|^2)^-s du =
    pi^(d/2) Gamma(s - d/2) / Gamma(s), finite iff s > d/2; with g =
    power/(alpha - 1) for alpha > 1, Int_{|u| < 1} (1 - |u|^2)^g du =
    pi^(d/2) Gamma(g + 1) / Gamma(g + 1 + d/2), always finite.  It never
    exponentiates, so a value beyond the float range is still returned.
    """
    alpha, d, b = params.alpha, params.dim, params.b_alpha
    if power == alpha:
        return (alpha - 1.0) * params.log_norm_const + math.log1p(b * d)
    if alpha < 1.0:
        s = power / (1.0 - alpha)
        if s <= 0.5 * d:
            return math.inf
        radial = -_log_gamma_ratio(s - 0.5 * d, 0.5 * d)
    else:
        g = power / (alpha - 1.0)
        radial = -_log_gamma_ratio(g + 1.0, 0.5 * d)
    return power * params.log_norm_const + 0.5 * params.logdet + 0.5 * d * math.log(math.pi / abs(b)) + radial


def sample(params: StudentTParams, n: int, seed: int) -> SampleBatch:
    """Draw n i.i.d. observations, deterministically for a fixed seed.

    RNG: numpy ``default_rng`` (PCG64).  Every member is drawn as X = mu +
    A Z sqrt(k/W) with Z standard normal in R^d, then W chi-squared(k):
    for alpha < 1, k = nu and A A^T = Sigma*(nu-2)/nu; for alpha > 1,
    k = 2 alpha/(alpha-1), W also gains |Z|^2, and A A^T = Sigma*R^2/k with
    R^2 = ``radius_sq``, so the squared Mahalanobis radius over
    R^2 is |Z|^2/W ~ Beta(d/2, 1/(alpha-1) + 1).  Either way Cov X = Sigma.
    """
    if n < 1:
        raise DimensionMismatchError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if params.alpha < 1.0:
        k, c = params.nu, params.nu - 2.0
    else:
        k, c = 2.0 * params.alpha / (params.alpha - 1.0), params.radius_sq
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
    Where m overflowed, they read c r r^T = c_s r_s r_s^T and c r = c_s r_s 2^-e
    from the ``_scaled`` residual r_s = r 2^-e, c_s = b/((alpha - 1)(4^-e + m_s)).
    """
    r, m, log_bracket = _log_brackets(points, params.mu, params.sigma_inv, params.b_alpha)
    n, d = r.shape
    out = np.full((n, d + d * d), np.nan)
    ok = log_bracket > -math.inf
    r, m, shrink = r[ok], m[ok], np.ones(int(ok.sum()))
    far = np.isinf(m)
    r[far], exponent, m[far] = _scaled(r[far], params.sigma_inv, params.b_alpha)
    shrink[far] = np.ldexp(1.0, -exponent)
    c = params.b_alpha / ((params.alpha - 1.0) * (shrink * shrink + m))
    out[ok, :d] = -2.0 * (c * shrink)[:, None] * (r @ params.sigma_inv)
    outer = np.einsum("n,ni,nj->nij", c, r, r)
    out[ok, d:] = (0.5 * params.sigma + outer).reshape(r.shape[0], d * d)
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
    log_bracket = float(_log_brackets(x, mu, lam, b_alpha(alpha, d))[2][0])
    if log_bracket == -math.inf:
        return -math.inf
    sign, logdet = np.linalg.slogdet(lam)
    log_n = _log_norm_const_shape(alpha, d) + 0.5 * logdet if sign > 0 else math.nan
    return log_n + log_bracket / (alpha - 1.0)
