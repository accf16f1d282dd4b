"""Parameters of a multivariate normal, checked once, and its Cholesky factor.

All covariance work in the package goes through Cholesky factors:
log-determinants come from pivot logs and quadratic forms from triangular
solves, with no explicit matrix inversion.  The densities and tails themselves
are evaluated where they are used, in ``likelihood``, and draws from a normal
in ``diagnostics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SYMMETRY_TOL = 1e-10
LOG_2PI = math.log(2.0 * math.pi)


class NotPositiveDefiniteError(ValueError):
    """Raised when a covariance matrix has a non-positive Cholesky pivot."""


def cholesky(cov) -> np.ndarray:
    """Lower-triangular L with L L^T = cov; raises ``NotPositiveDefiniteError`` otherwise.

    A non-finite entry is a ``ValueError``: LAPACK would return NaN for it rather than fail.
    """
    a = np.asarray(cov, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"covariance must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("covariance has non-finite entries")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > SYMMETRY_TOL * scale:
        raise ValueError("covariance is not symmetric")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("covariance is not positive definite") from exc


@dataclass(frozen=True)
class MvnParams:
    """Finite mean vector and SPD covariance of a d-dimensional normal."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if not np.isfinite(mean).all():
            raise ValueError("mean has non-finite entries")
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
