"""The Student-t log density as a function of the packed parameter vector, for finite differences of the score."""

import math

import numpy as np

from alphafam import core, studentt


def log_density_given_theta(theta, alpha, x):
    """log density at x, with theta = (mu, Vec(Sigma^{-1})) taken as d + d^2 free coordinates.

    The Sigma^{-1} block need not be symmetric, which is what central finite
    differences of the score require.  No domain validation beyond a
    positive determinant: NaN when it fails, unless x is off the support.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[0]
    mu, lam = core.unpack_theta(np.asarray(theta, dtype=float), d)
    log_bracket = float(studentt._log_brackets(x, mu, lam, core.b_alpha(alpha, d))[3][0])
    if log_bracket == -math.inf:
        return -math.inf
    sign, logdet = np.linalg.slogdet(lam)
    log_n = core.log_norm_const(alpha, -logdet, d) if sign > 0 else math.nan
    return log_n + log_bracket / (alpha - 1.0)
