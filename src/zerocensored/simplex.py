"""Simplex primitives: closure, the Helmert sub-matrix and the power transformation family.

Compositions are plain float arrays with D non-negative parts summing to one,
of which at most one part may be zero.  The power transformation with exponent
``alpha`` maps a composition either onto the simplex itself (``alpha_transform_simplex``)
or, after centring, scaling by D and rotating with the Helmert sub-matrix, onto
``R^(D-1)`` (``alpha_transform``).  At ``alpha == 1`` the latter is the affine map

    y = H (D x - 1)

used by the censored model; it is a bijection between the unit-sum hyperplane
and ``R^(D-1)``, so latent points outside the simplex are representable.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

#: Unit-sum violations up to this size are accepted silently.
UNIT_SUM_TOL = 1e-10
#: Violations between UNIT_SUM_TOL and this size are repaired by re-closing, with a warning.
RECLOSE_TOL = 1e-6
#: Parts no larger than this count as structural zeros.
ZERO_TOL = 1e-12


class MultipleZerosError(ValueError):
    """Raised for vectors with zeros in two or more parts (outside the model's scope).

    ``rows`` carries the offending 1-based row numbers when the error comes
    from dataset ingestion.
    """

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = tuple(rows) if rows is not None else None


def format_rows(rows) -> str:
    """The first ten 1-based row numbers of an error message, then "..." if there are more."""
    shown = ", ".join(str(r) for r in rows[:10])
    return shown + (", ..." if len(rows) > 10 else "")


def reject_multiple_zeros(zero_counts: np.ndarray) -> None:
    """Raise ``MultipleZerosError`` naming the 1-based rows with more than one zero part."""
    multi = np.flatnonzero(zero_counts > 1) + 1
    if multi.size:
        raise MultipleZerosError(f"rows with more than one zero part: {format_rows(multi)}", rows=multi)


def _reject_rows(bad: np.ndarray, message: str) -> None:
    rows = np.flatnonzero(bad) + 1
    if rows.size:
        raise ValueError(f"{message} {format_rows(rows)}")


def validate_compositions(rows, *, reclose: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Check one composition or an (n, D) array of them; returns (parts, zero_index).

    Parts must be finite; negatives down to ``-ZERO_TOL`` are clamped to zero.
    Row sums off by at most ``RECLOSE_TOL`` are re-closed with one warning
    (only up to ``UNIT_SUM_TOL`` is accepted when ``reclose`` is false).
    Parts up to ``ZERO_TOL`` are zeros, and a row may have one (its
    ``zero_index``, -1 if none).  Errors name 1-based row numbers.
    """
    x = np.array(rows, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"expected an (n, D) array with D >= 2, got shape {x.shape}")
    _reject_rows(~np.isfinite(x).all(axis=1), "non-finite values in rows")
    _reject_rows((x < -ZERO_TOL).any(axis=1), "negative parts in rows")
    x[x < 0.0] = 0.0
    sums = x.sum(axis=1)
    limit = RECLOSE_TOL if reclose else UNIT_SUM_TOL
    _reject_rows(np.abs(sums - 1.0) > limit, f"rows not summing to 1 (beyond {limit:g}):")
    off = np.abs(sums - 1.0) > UNIT_SUM_TOL
    if off.any():
        warnings.warn(f"re-closed {int(off.sum())} row(s) with unit-sum noise above {UNIT_SUM_TOL:g}", stacklevel=3)
        x[off] /= sums[off, None]
    counts = np.count_nonzero(x <= ZERO_TOL, axis=1)
    reject_multiple_zeros(counts)
    return x, np.where(counts == 1, x.argmin(axis=1), -1)


def as_composition(parts, *, reclose: bool = True) -> np.ndarray:
    """Validate one composition vector with ``validate_compositions`` and return it."""
    x = np.asarray(parts, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"a composition needs at least 2 parts in one vector, got shape {x.shape}")
    return validate_compositions(x, reclose=reclose)[0][0]


def closure(raw) -> np.ndarray:
    """Normalize non-negative amounts (hours, weights, counts) in one vector or (n, D) rows.

    The closed rows pass ``validate_compositions``, so a row with two zeros
    raises ``MultipleZerosError``.
    """
    x = np.asarray(raw, dtype=float)
    parts, _ = validate_compositions(_close_rows(x))
    return parts if x.ndim == 2 else parts[0]


def _close_rows(raw) -> np.ndarray:
    """Divide each row of non-negative amounts by its sum, as (n, D) rows, without validating the result."""
    x = np.asarray(raw, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] < 2:
        raise ValueError(f"closure needs vectors of at least 2 amounts, got shape {x.shape}")
    rows = np.atleast_2d(x)
    _reject_rows((rows < 0.0).any(axis=1), "negative amounts in rows")
    sums = rows.sum(axis=1)
    _reject_rows(sums <= 0.0, "all-zero rows, where closure is undefined:")
    return rows / sums[:, None]


@lru_cache(maxsize=None)
def _helmert_readonly(n_parts: int) -> np.ndarray:
    d = n_parts - 1
    h = np.zeros((d, n_parts))
    for i in range(1, d + 1):
        r = 1.0 / math.sqrt(i * (i + 1))
        h[i - 1, :i] = r
        h[i - 1, i] = -i * r
    h.setflags(write=False)
    return h


def helmert_submatrix(n_parts: int) -> np.ndarray:
    """The (D-1) x D Helmert sub-matrix: orthonormal rows, each orthogonal to the ones vector.

    Row i (1-based) is 1/sqrt(i(i+1)) in positions 1..i, -i/sqrt(i(i+1)) in
    position i+1 and zero elsewhere.
    """
    if n_parts < 2:
        raise ValueError(f"need at least 2 parts, got {n_parts}")
    return _helmert_readonly(int(n_parts)).copy()


def _check_power_domain(x: np.ndarray, alpha: float) -> None:
    if alpha == 0.0:
        raise ValueError("alpha = 0 is not supported (the log-ratio limit is out of scope)")
    if np.any(x < 0.0):
        raise ValueError("parts must be non-negative")
    if alpha < 0.0 and np.any(x <= ZERO_TOL):
        raise ValueError("zero parts require alpha > 0")


def alpha_transform_simplex(x, alpha: float) -> np.ndarray:
    """Stay-in-the-simplex power transform: u_i = x_i^alpha / sum_j x_j^alpha.

    Accepts a single composition or an array of them in the last axis.
    alpha = 1 is the identity and the uniform composition is a fixed point
    for every alpha.
    """
    x = np.asarray(x, dtype=float)
    _check_power_domain(x, alpha)
    p = x**alpha
    return p / p.sum(axis=-1, keepdims=True)


def alpha_transform(x, alpha: float) -> np.ndarray:
    """Centred and scaled power transform into R^(D-1): H ((D u - 1) / alpha).

    For alpha = 1 this sends the simplex centre to the origin and is affine,
    so it extends to latent points outside the simplex.
    """
    u = alpha_transform_simplex(x, alpha)
    n_parts = u.shape[-1]
    h = _helmert_readonly(n_parts)
    return ((n_parts * u - 1.0) / alpha) @ h.T


def inverse_alpha_transform(y, alpha: float) -> tuple[np.ndarray, np.ndarray | bool]:
    """Invert ``alpha_transform``; returns ``(parts, inside)``.

    For alpha = 1 the inverse is x = (H^T y + 1) / D and is evaluated for any
    y; ``inside`` flags whether all recovered parts are non-negative (the
    point maps back into the simplex).  Out-of-simplex parts are returned
    unchecked so the caller can hand them to the boundary projection.

    For alpha != 1 the power step is inverted as well; y outside the image of
    the transformation (negative intermediate values) is an error.
    """
    y = np.asarray(y, dtype=float)
    if alpha == 0.0:
        raise ValueError("alpha = 0 is not supported (the log-ratio limit is out of scope)")
    d = y.shape[-1]
    if d < 1:
        raise ValueError("y must have at least one coordinate")
    n_parts = d + 1
    h = _helmert_readonly(n_parts)
    u = (alpha * (y @ h) + 1.0) / n_parts
    if alpha == 1.0:
        inside = np.min(u, axis=-1) >= 0.0
        return u, (bool(inside) if np.isscalar(inside) or inside.ndim == 0 else inside)
    if np.any(u < -ZERO_TOL):
        raise ValueError("y is outside the image of the transformation (negative intermediate values)")
    u = np.clip(u, 0.0, None)
    w = u ** (1.0 / alpha)
    parts = w / w.sum(axis=-1, keepdims=True)
    inside = np.ones(parts.shape[:-1], dtype=bool)
    return parts, (True if inside.ndim == 0 else inside)


def _require_interior(x: np.ndarray) -> None:
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"expected one composition vector, got shape {x.shape}")
    if np.any(x <= ZERO_TOL):
        raise ValueError("Jacobian requires a strictly positive composition")


def jacobian_simplex(x, alpha: float) -> float:
    """|det| of the stay-in-the-simplex transform: |alpha|^d prod_i x_i^(alpha-1) / (sum_j x_j^alpha)^D.

    Evaluated in log form to stay finite for extreme alpha.  Equals 1 for
    alpha = 1.
    """
    x = np.asarray(x, dtype=float)
    _require_interior(x)
    if alpha == 0.0:
        raise ValueError("alpha = 0 is not supported")
    n_parts = x.size
    d = n_parts - 1
    log_s = math.log(float(np.sum(x**alpha)))
    log_j = d * math.log(abs(alpha)) + (alpha - 1.0) * float(np.sum(np.log(x))) - n_parts * log_s
    return math.exp(log_j)


def jacobian_alpha(x, alpha: float) -> float:
    """|det| of the centred transform: D^(d + 1/2) prod_i x_i^(alpha-1) / (sum_j x_j^alpha)^D.

    For alpha = 1 this is the constant D^(d + 1/2) regardless of x, so its
    log summed over n observations is (n d + n/2) log D.
    """
    x = np.asarray(x, dtype=float)
    _require_interior(x)
    if alpha == 0.0:
        raise ValueError("alpha = 0 is not supported")
    n_parts = x.size
    d = n_parts - 1
    log_s = math.log(float(np.sum(x**alpha)))
    log_j = (d + 0.5) * math.log(n_parts) + (alpha - 1.0) * float(np.sum(np.log(x))) - n_parts * log_s
    return math.exp(log_j)
