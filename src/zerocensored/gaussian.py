"""Dense multivariate normal kernels used by the censored likelihood.

All covariance work goes through Cholesky factors: log-determinants come from
pivot logs and quadratic forms from triangular solves, with no explicit matrix
inversion.  Draws from a normal are made where they are used, in
``diagnostics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import log_ndtr

SYMMETRY_TOL = 1e-10
LOG_2PI = math.log(2.0 * math.pi)


class NotPositiveDefiniteError(ValueError):
    """Raised when a covariance matrix has a non-positive Cholesky pivot."""


def cholesky(cov) -> np.ndarray:
    """Lower-triangular L with L L^T = cov; raises ``NotPositiveDefiniteError`` otherwise."""
    a = np.asarray(cov, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"covariance must be square, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > SYMMETRY_TOL * scale:
        raise ValueError("covariance is not symmetric")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("covariance is not positive definite") from exc


@dataclass(frozen=True)
class MvnParams:
    """Mean vector and SPD covariance of a d-dimensional normal."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean length {mean.size}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        self.chol  # noqa: B018  -- validates positive definiteness eagerly

    @cached_property
    def chol(self) -> np.ndarray:
        return cholesky(self.cov)

    @property
    def dim(self) -> int:
        return int(self.mean.size)


@dataclass(frozen=True)
class ConditionalSplit:
    """Factorization of a rotated normal at z_{-1} = 0.

    ``marginal_mean``/``marginal_cov`` describe the non-first coordinates;
    ``cond_mean_at_zero`` and ``cond_var`` describe the first coordinate
    conditioned on the others being zero.
    """

    marginal_mean: np.ndarray
    marginal_cov: np.ndarray
    cond_mean_at_zero: float
    cond_var: float


def mvn_logpdf(y, params: MvnParams):
    """Normal log-density at one point (1-d input) or a stack of points (2-d input)."""
    y = np.asarray(y, dtype=float)
    d = params.dim
    if y.shape[-1] != d:
        raise ValueError(f"point dimension {y.shape[-1]} does not match parameters ({d})")
    chol = params.chol
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    resid = np.atleast_2d(y) - params.mean
    w = solve_triangular(chol, resid.T, lower=True)
    quad = np.sum(w * w, axis=0)
    out = -0.5 * (d * LOG_2PI + log_det + quad)
    return float(out[0]) if y.ndim == 1 else out


def conditional_split(params_rotated: MvnParams) -> ConditionalSplit:
    """Split a rotated normal into the marginal of z_{-1} and the conditional of z_1 at z_{-1} = 0.

    cond_mean_at_zero = mu_1 - S_12 S_22^{-1} mu_2 and
    cond_var = S_11 - S_12 S_22^{-1} S_21, both via the marginal Cholesky factor.
    """
    d = params_rotated.dim
    if d < 2:
        raise ValueError("conditional split needs at least 2 coordinates")
    mu = params_rotated.mean
    sig = params_rotated.cov
    marginal_mean = mu[1:].copy()
    marginal_cov = sig[1:, 1:].copy()
    chol_m = cholesky(marginal_cov)
    cross = sig[0, 1:]
    half = solve_triangular(chol_m, cross, lower=True)
    weights = solve_triangular(chol_m.T, half, lower=False)  # S_22^{-1} S_21
    cond_mean = float(mu[0] - weights @ mu[1:])
    cond_var = float(sig[0, 0] - weights @ cross)
    if cond_var <= 0.0:
        raise NotPositiveDefiniteError("conditional variance is not positive")
    return ConditionalSplit(marginal_mean, marginal_cov, cond_mean, cond_var)


def std_normal_log_tail(a):
    """log(1 - Phi(a)) through the complementary normal CDF; accurate deep into the upper tail.

    Evaluating 1 - Phi directly cancels catastrophically for a beyond ~8;
    the complementary route keeps full relative accuracy.  Accepts scalars or
    arrays; -inf maps to 0 and +inf to -inf.
    """
    out = log_ndtr(-np.asarray(a, dtype=float))
    return float(out) if out.ndim == 0 else out
