"""Estimating-equation layer: sufficient statistics, residual evaluators,
and the closed-form Student-t estimator.

Both sides of the estimating equation are a SufficientStats record: the
sample means f-bar and q^(alpha-1)-bar, and the analytic population moments
E_theta[f] and E_theta[q^(alpha-1)].  The residual evaluators measure how far
a parameter vector is from solving the estimating equation of an
alpha-power-law family, in its general form or its regular form.  For a
regular family the equation collapses to moment matching, which the
closed-form Student-t estimator solves exactly.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ALPHA_NOT_BELOW_ONE,
    DegenerateStatisticsError,
    DimensionMismatchError,
    EIGENVALUE_RTOL,
    ParameterError,
    SIGMA_NOT_FINITE,
    SampleBatch,
    StudentTParams,
    SufficientStats,
    check_alpha,
    record,
)

__all__ = [
    "ResidualReport",
    "StudentTEstimate",
    "sufficient_stats",
    "residual_regular_malpha",
    "residual_general_malpha",
    "estimate_student_t",
    "student_t_population_moments",
]


@record
class ResidualReport:
    """Residual vector of an estimating equation together with its norm.

    ``equation`` tags which form was evaluated: "general-malpha" or
    "regular-malpha".
    """

    residuals: np.ndarray
    norm: float
    equation: str


def _report(residuals: np.ndarray, equation: str) -> ResidualReport:
    residuals = np.asarray(residuals, dtype=float)
    return ResidualReport(residuals=residuals, norm=float(np.linalg.norm(residuals)), equation=equation)


def sufficient_stats(batch: SampleBatch, desc, alpha: float) -> SufficientStats:
    """Sample means f-bar and q^(alpha-1)-bar.

    ``desc.f_fn`` and ``desc.q_fn`` are each called once, on the whole batch.
    """
    data = batch.data
    mean_f = np.asarray(desc.f_fn(data), dtype=float).mean(axis=0)
    with np.errstate(divide="ignore"):
        mean_q_pow = float(np.mean(np.asarray(desc.q_fn(data), dtype=float) ** (alpha - 1.0)))
    return SufficientStats(mean_f=mean_f, mean_q_pow=mean_q_pow)


def residual_regular_malpha(desc, theta, stats: SufficientStats, pop: SufficientStats) -> ResidualReport:
    """Componentwise moment-matching residual for a regular family.

    residual_i = E_theta[f_i]/E_theta[q^(alpha-1)] - fbar_i/qbar, where the
    population moments must be computed at ``theta``.
    """
    if desc.s != desc.k:
        raise DimensionMismatchError(f"regular residual requires s = k, got s={desc.s}, k={desc.k}")
    if pop.mean_q_pow == 0.0 or stats.mean_q_pow == 0.0:
        raise DegenerateStatisticsError("zero q^(alpha-1) mean")
    res = pop.mean_f / pop.mean_q_pow - stats.mean_f / stats.mean_q_pow
    return _report(res, "regular-malpha")


def residual_general_malpha(desc, theta, stats: SufficientStats, pop: SufficientStats) -> ResidualReport:
    """Jacobian-weighted residual of the general estimating equation.

    residual_r = dw_r^T E[f] / E[q^(alpha-1) + w0 + w^T f]
               - dw_r^T fbar / (qbar + w0 + w^T fbar),
    with the constant-statistic offset (if any) folded into both the
    numerators (through its gradient) and the denominators.
    """
    theta = np.asarray(theta, dtype=float)
    w = np.asarray(desc.w_fn(theta), dtype=float)
    jac = np.asarray(desc.w_jacobian(theta), dtype=float)
    w0 = desc.w0_fn(theta) if desc.w0_fn is not None else 0.0
    g0 = (
        np.asarray(desc.w0_grad(theta), dtype=float)
        if desc.w0_grad is not None
        else np.zeros(desc.k)
    )
    den_pop = pop.mean_q_pow + w0 + float(w @ pop.mean_f)
    den_samp = stats.mean_q_pow + w0 + float(w @ stats.mean_f)
    if den_pop == 0.0 or den_samp == 0.0:
        raise DegenerateStatisticsError("zero bracket mean")
    res = (jac.T @ pop.mean_f + g0) / den_pop - (jac.T @ stats.mean_f + g0) / den_samp
    return _report(res, "general-malpha")


@record
class StudentTEstimate:
    """Closed-form estimate: sample mean and 1/n sample covariance.

    ``singular`` flags a covariance without full rank (n <= d, constant
    batches, or data in an affine subspace); downstream Sigma^{-1} uses
    must be skipped when it is set.
    """

    mu_hat: np.ndarray
    sigma_hat: np.ndarray
    alpha: float
    singular: bool


def estimate_student_t(batch: SampleBatch, alpha: float) -> StudentTEstimate:
    """Closed-form estimator for the mean and covariance, alpha < 1.

    The formulas contain no alpha, so the result is identical across the
    whole valid range (d/(d+2), 1); alpha is validated and recorded only.
    The covariance divisor is 1/n.

    A mean or covariance beyond the float range raises ParameterError
    ``sigma_not_finite``, without numpy's overflow warning.
    """
    d = batch.dim
    if alpha >= 1.0:
        raise ParameterError(ALPHA_NOT_BELOW_ONE, f"estimator requires alpha < 1, got {alpha}")
    check_alpha(alpha, d)
    with np.errstate(over="ignore", invalid="ignore"):
        mu_hat = batch.data.mean(axis=0)
        centered = batch.data - mu_hat
        sigma_hat = (centered.T @ centered) / batch.n
        sigma_hat = 0.5 * (sigma_hat + sigma_hat.T)
    if not np.isfinite(sigma_hat).all():  # also where mu_hat overflowed: centered then holds an inf or nan
        raise ParameterError(SIGMA_NOT_FINITE, "sigma must be finite")
    eigvals = np.linalg.eigvalsh(sigma_hat)
    singular = (
        batch.n <= d
        or eigvals[-1] <= 0.0
        or eigvals[0] <= EIGENVALUE_RTOL * eigvals[-1]
    )
    return StudentTEstimate(mu_hat=mu_hat, sigma_hat=sigma_hat, alpha=alpha, singular=bool(singular))


def student_t_population_moments(params: StudentTParams) -> SufficientStats:
    """Analytic E[f] = (mu, Vec(Sigma + mu mu^T)) for f = (x, Vec(xx^T)), since Sigma is the covariance."""
    second = params.sigma + np.outer(params.mu, params.mu)
    return SufficientStats(mean_f=np.concatenate([params.mu, second.ravel()]), mean_q_pow=1.0)
