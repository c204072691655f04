"""Correctness oracles, computed independently of the alphafam package.

Each ``check_*`` function takes the op's exit code, its report text and the
op's inputs, and returns None when the output is right or a one-line reason
when it is not.  They use numpy and scipy directly; none imports alphafam.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate, special, stats

ROOT5 = math.sqrt(5.0)


def _close(got, want, rtol: float, atol: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    both_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) == np.sign(want))
    with np.errstate(invalid="ignore"):
        return bool(np.all(both_inf | (np.abs(got - want) <= atol + rtol * np.abs(want))))


def _report(code: int, text: str):
    if code != 0:
        return None, f"exit {code}"
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, f"report is not JSON: {exc}"


def parse_vector(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split(",")])


def parse_matrix(text: str) -> np.ndarray:
    return np.array([[float(tok) for tok in row.split(",")] for row in text.split(";")])


def load_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


# --- simulate ----------------------------------------------------------------


def check_simulate(code: int, data, n: int, mu, sigma):
    """Shape, finiteness, and moments within ~10 standard errors of (mu, Sigma)."""
    if code != 0:
        return f"exit {code}"
    if data.shape != (n, len(mu)) or not np.all(np.isfinite(data)):
        return f"draws have shape {data.shape} or non-finite values"
    scale = math.sqrt(float(np.max(np.diag(sigma))))
    if not _close(data.mean(axis=0), mu, 0.0, 0.05 * scale):
        return f"draw mean {data.mean(axis=0)} is far from {mu}"
    if not _close(np.cov(data.T, bias=True).reshape(sigma.shape), sigma, 0.0, 0.1 * scale**2):
        return "draw covariance is far from Sigma"
    return None


# --- estimate ----------------------------------------------------------------


def check_estimate(code: int, text: str, data: np.ndarray):
    """mu_hat and sigma_hat equal numpy's mean and 1/n covariance of the input."""
    report, err = _report(code, text)
    if err:
        return err
    n, d = data.shape
    if report.get("n") != n or report.get("d") != d:
        return f"report n, d = {report.get('n')}, {report.get('d')}; input has {n}, {d}"
    mean = data.mean(axis=0)
    cov = np.cov(data.T, bias=True).reshape(d, d)
    scale = float(np.max(np.abs(cov)))
    if not _close(report["mu_hat"], mean, 1e-9, 1e-12 * math.sqrt(scale)):
        return f"mu_hat {report['mu_hat']} != numpy mean {mean.tolist()}"
    if not _close(report["sigma_hat"], cov, 1e-9, 1e-12 * scale):
        return f"sigma_hat {report['sigma_hat']} != numpy 1/n covariance {cov.tolist()}"
    if report.get("singular_flag") is not False:
        return "singular_flag is set on a full-rank sample"
    return None


# --- loglik ------------------------------------------------------------------


def t_log_power_integral(alpha: float, sigma: np.ndarray) -> float:
    """log of the integral of p^alpha for the order-alpha t member (alpha < 1).

    With nu = 2/(1-alpha) - d and shape S = Sigma (nu-2)/nu the density is
    C (1 + r^2/nu)^(-(nu+d)/2), so p^alpha has exponent -((nu+d)/2 - 1) and
    the integral is C^alpha |S|^(1/2) (nu pi)^(d/2) Gamma(nu/2 - 1) / Gamma((nu+d)/2 - 1).
    """
    d = sigma.shape[0]
    nu = 2.0 / (1.0 - alpha) - d
    shape = sigma * (nu - 2.0) / nu
    logdet = np.linalg.slogdet(shape)[1]
    log_c = (
        special.gammaln(0.5 * (nu + d)) - special.gammaln(0.5 * nu)
        - 0.5 * d * math.log(nu * math.pi) - 0.5 * logdet
    )
    return (
        alpha * log_c + 0.5 * logdet + 0.5 * d * math.log(nu * math.pi)
        + special.gammaln(0.5 * nu - 1.0) - special.gammaln(0.5 * (nu + d) - 1.0)
    )


def expected_loglik(data: np.ndarray, alpha: float, mu, sigma) -> float:
    """alpha/(alpha-1) log mean p(X)^(alpha-1) - log Int p^alpha, p from scipy."""
    d = data.shape[1]
    nu = 2.0 / (1.0 - alpha) - d
    dist = stats.multivariate_t(loc=mu, shape=sigma * (nu - 2.0) / nu, df=nu)
    logp = np.atleast_1d(dist.logpdf(data))
    first = special.logsumexp((alpha - 1.0) * logp) - math.log(len(logp))
    return alpha / (alpha - 1.0) * first - t_log_power_integral(alpha, sigma)


def check_loglik(code: int, text: str, data: np.ndarray, alpha: float, mu, sigma):
    report, err = _report(code, text)
    if err:
        return err
    want = expected_loglik(data, alpha, mu, sigma)
    if report.get("n") != len(data) or not _close(report["value"], want, 1e-9, 1e-9):
        return f"loglik {report.get('value')} != scipy multivariate_t {want}"
    return None


# --- compact-fit -------------------------------------------------------------


def ell(xs: np.ndarray, mus: np.ndarray, chunk: int = 512) -> np.ndarray:
    """ell(mu) = sum_i [1 - (X_i - mu)^2/5]_+ at every mu, evaluated directly."""
    out = np.empty(len(mus))
    for start in range(0, len(mus), chunk):
        diff = xs[None, :] - mus[start : start + chunk, None]
        out[start : start + chunk] = np.clip(1.0 - diff * diff / 5.0, 0.0, None).sum(axis=1)
    return out


def brute_force_compact(xs) -> tuple:
    """Global max of ell over every breakpoint and every segment's active-set mean.

    ell is a downward parabola between consecutive breakpoints X_i +- sqrt(5),
    so its maximum sits at a breakpoint or at the mean of a segment's active
    set.  Returns (argmax, max); the smallest argmax on ties.
    """
    xs = np.sort(np.asarray(xs, dtype=float).ravel())
    breaks = np.unique(np.concatenate([xs - ROOT5, xs + ROOT5]))
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    lo = np.searchsorted(xs, mids - ROOT5, side="left")
    hi = np.searchsorted(xs, mids + ROOT5, side="right")
    prefix = np.concatenate([[0.0], np.cumsum(xs)])
    count = hi - lo
    means = (prefix[hi] - prefix[lo])[count > 0] / count[count > 0]
    mus = np.concatenate([breaks, means])
    values = ell(xs, mus)
    best = values.max()
    return float(mus[values >= best - 1e-12 * max(1.0, best)].min()), float(best)


def check_compact(code: int, text: str, xs: np.ndarray):
    """Reported objective is the brute-force max, and ell(mu_hat) attains it."""
    report, err = _report(code, text)
    if err:
        return err
    _, best = brute_force_compact(xs)
    tol = 1e-9 * max(1.0, best)
    if abs(report["objective_over_n2"] - best) > tol:
        return f"objective {report['objective_over_n2']} != brute-force max {best}"
    at_mu = float(ell(np.asarray(xs, dtype=float).ravel(), np.array([report["mu_hat"]]))[0])
    if abs(at_mu - best) > tol:
        return f"ell(mu_hat = {report['mu_hat']}) = {at_mu} < brute-force max {best}"
    return None


# --- divergence --------------------------------------------------------------


def _divergence(cross: float, p_pow: float, q_pow: float, alpha: float) -> float:
    if cross == 0.0 or math.isinf(cross):
        return math.inf
    return alpha / (1 - alpha) * math.log(cross) - math.log(p_pow) / (1 - alpha) + math.log(q_pow)


def normal_divergences(m1: float, v1: float, m2: float, v2: float, alpha: float) -> tuple:
    """Closed-form (i_alpha, kl) for N(m1, v1) against N(m2, v2)."""
    beta = alpha - 1.0
    prec = 1.0 / v1 + beta / v2
    if prec <= 0.0:
        return math.inf, None
    lin = m1 / v1 + beta * m2 / v2
    log_cross = (
        -0.5 * math.log(2 * math.pi * v1) - 0.5 * beta * math.log(2 * math.pi * v2)
        + 0.5 * math.log(2 * math.pi / prec)
        - 0.5 * (m1 * m1 / v1 + beta * m2 * m2 / v2 - lin * lin / prec)
    )

    def log_pow(v):
        return 0.5 * (1.0 - alpha) * math.log(2 * math.pi * v) - 0.5 * math.log(alpha)

    i_alpha = alpha / (1 - alpha) * log_cross - log_pow(v1) / (1 - alpha) + log_pow(v2)
    kl = 0.5 * (math.log(v2 / v1) + (v1 + (m1 - m2) ** 2) / v2 - 1.0)
    return i_alpha, kl


def bernoulli_divergences(p: float, q: float, alpha: float) -> tuple:
    pv, qv = np.array([1 - p, p]), np.array([1 - q, q])
    i_alpha = _divergence(
        float(np.sum(pv * qv ** (alpha - 1))), float(np.sum(pv**alpha)), float(np.sum(qv**alpha)), alpha
    )
    return i_alpha, float(np.sum(pv * np.log(pv / qv)))


def t_handle(alpha: float, mu: float, var: float):
    """(pdf, log pdf, support) of the d = 1 order-alpha member with mean mu, variance var."""
    if alpha < 1.0:
        nu = 2.0 / (1.0 - alpha) - 1.0
        dist = stats.t(df=nu, loc=mu, scale=math.sqrt(var * (nu - 2.0) / nu))
        return dist.pdf, dist.logpdf, (-math.inf, math.inf)
    if alpha == 2.0:
        radius = math.sqrt(5.0 * var)

        def pdf(x):
            return 0.75 / radius * max(0.0, 1.0 - ((x - mu) / radius) ** 2)

        return pdf, None, (mu - radius, mu + radius)
    raise ValueError("oracle handles alpha < 1 and alpha = 2")


def normal_handle(mu: float, var: float):
    dist = stats.norm(loc=mu, scale=math.sqrt(var))
    return dist.pdf, dist.logpdf, (-math.inf, math.inf)


def _quad(fn, lo, hi) -> float:
    return integrate.quad(fn, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400)[0]


def quadrature_i_alpha(p, q, alpha: float) -> float:
    """i_alpha by scipy quadrature of independent density formulas.

    Only for pairs whose cross integral is finite; an infinite cross term is
    the caller's to declare.
    """
    (p_pdf, _, (plo, phi)), (q_pdf, _, (qlo, qhi)) = p, q
    lo, hi = max(plo, qlo), min(phi, qhi)

    def cross(x):
        px, qx = p_pdf(x), q_pdf(x)
        return px * qx ** (alpha - 1.0) if px > 0.0 and qx > 0.0 else 0.0

    return _divergence(
        _quad(cross, lo, hi) if lo < hi else 0.0,
        _quad(lambda x: p_pdf(x) ** alpha, plo, phi),
        _quad(lambda x: q_pdf(x) ** alpha, qlo, qhi),
        alpha,
    )


def quadrature_kl(p, q) -> float:
    """KL(p || q) by scipy quadrature; +inf when p's support leaves q's."""
    (p_pdf, p_log, (plo, phi)), (_, q_log, (qlo, qhi)) = p, q
    if plo < qlo or phi > qhi:
        return math.inf

    def term(x):
        px = p_pdf(x)
        return px * (p_log(x) - q_log(x)) if px > 0.0 else 0.0

    return _quad(term, plo, phi)


def check_divergence(code: int, text: str, want: tuple, rtol: float):
    report, err = _report(code, text)
    if err:
        return err
    for key, value in zip(("i_alpha", "kl"), want):
        if not _close(report[key], value, rtol, rtol):
            return f"{key} {report[key]} != oracle {value}"
    return None


# --- verify-paper-example ----------------------------------------------------


def check_verify(code: int, text: str):
    lines = text.strip().splitlines()
    if code != 0 or not lines or lines[-1].strip() != "PASS":
        return f"exit {code}, last line {lines[-1] if lines else ''!r}"
    return None
