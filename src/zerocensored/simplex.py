"""Simplex primitives: closure, the Helmert sub-matrix and the power transformation family.

Compositions are plain float arrays with D non-negative parts summing to one,
of which at most one part may be zero.  The power transformation with exponent
``alpha`` maps a composition onto the simplex itself
(``_alpha_transform_simplex``) and then, after centring, scaling by D and
rotating with the Helmert sub-matrix, onto ``R^(D-1)`` (``alpha_transform``).
At ``alpha == 1`` the latter is the affine map

    y = H (D x - 1)

used by the censored model; it is a bijection between the unit-sum hyperplane
and ``R^(D-1)``, so latent points outside the simplex are representable.

Such points are pulled to the boundary along the line joining them to the
simplex centre; exactly one part (the most negative one) reaches zero.  The
package's one rule for where a composition's zero is lives here, used by
ingest (``validate_compositions``), ``project``, simulation and the zero
rates.  A row is outside when its minimum is below ``-ZERO_TOL``, and is
pulled to c + (x - c) / (1 - D min), c = 1/D.  It is tied, and rejected,
when another part lies within ``ZERO_TOL * (1 - D min)`` of the minimum,
i.e. would be at most ``ZERO_TOL`` after the pull.  In other rows parts
within ``ZERO_TOL`` of zero are zeros, and two zeros are rejected.  The rule
runs over parts stored by column, a (D, n) array, one whole part per NumPy
pass, so its loops run over rows, not over the few parts of a row.
``zero_parts`` applies it to the transpose of an (n, D) array of rows and
``project_rows`` also pulls; a single vector goes through them as one row.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache, reduce

import numpy as np

#: Unit-sum violations up to this size are accepted silently.
UNIT_SUM_TOL = 1e-10
#: Violations between UNIT_SUM_TOL and this size are repaired by re-closing, with a warning.
RECLOSE_TOL = 1e-6
#: Parts no larger than this count as structural zeros.
ZERO_TOL = 1e-12
#: Directions shorter than this cannot be normalized.
DIRECTION_TOL = 1e-12


class MultipleZerosError(ValueError):
    """Raised for vectors with zeros in two or more parts (outside the model's scope).

    ``rows`` carries the offending 1-based row numbers when the error comes
    from the zero rule, as it does from dataset ingestion.
    """

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = tuple(rows) if rows is not None else None


class TiedMinimumError(ValueError):
    """Raised when the minimum part is not unique, so projection would create two zeros."""


def format_rows(rows) -> str:
    """The first ten 1-based row numbers of an error message, then "..." if there are more."""
    shown = ", ".join(str(r) for r in rows[:10])
    return shown + (", ..." if len(rows) > 10 else "")


def _reject_rows(bad: np.ndarray, message: str) -> None:
    rows = np.flatnonzero(bad) + 1
    if rows.size:
        raise ValueError(f"{message} {format_rows(rows)}")


def _as_rows(parts) -> np.ndarray:
    x = np.asarray(parts, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"expected an (n, D) array of parts with D >= 2, got shape {x.shape}")
    return x


def _zero_rule(xt: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule over parts stored by column, a (D, n) array: per row (outside, stretch 1 - D min), and
    the (D, n) bool mask of its zero parts, written into ``out`` when one is given.

    No row passes with two zeros, so a mask row counts its part's zeros.
    """
    n_parts, n = xt.shape
    mins = reduce(np.minimum, xt)  # part by part: faster than per-row reductions for few parts
    outside = mins < -ZERO_TOL
    stretch = 1.0 - n_parts * mins
    # Part j of an outside row is at most ZERO_TOL after the pull iff x_j - min <= ZERO_TOL * stretch.
    bound = ZERO_TOL * stretch  # built in place: one row-length temporary fewer
    bound += mins
    np.copyto(bound, ZERO_TOL, where=~outside)
    # A new mask is C-ordered whatever xt's layout, so the count below also runs over whole parts.
    zeros = np.less_equal(xt, bound, out=np.empty((n_parts, n), dtype=bool) if out is None else out)
    counts = np.add.reduce(zeros, axis=0, dtype=np.uint8 if n_parts < 256 else np.intp)  # a byte cannot wrap
    if counts.max(initial=0) > 1:
        tied = np.flatnonzero(outside & (counts > 1)) + 1
        if tied.size:
            raise TiedMinimumError(f"rows with a tied minimum, which the pull would turn into two zeros: {format_rows(tied)}")
        multi = np.flatnonzero(counts > 1) + 1
        raise MultipleZerosError(f"rows with more than one zero part: {format_rows(multi)}", rows=multi)
    return outside, stretch, zeros


def _zero_index(zeros: np.ndarray) -> np.ndarray:
    """Each row's zero part from a (D, n) mask that passed the rule, -1 where it has none.

    A row has at most one zero, so the sum of j + 1 over its zero parts j is that part plus one, or 0.
    """
    return np.einsum("j,jn->n", np.arange(1, zeros.shape[0] + 1, dtype=np.intp), zeros) - 1


def zero_parts(parts) -> np.ndarray:
    """Which part of each (n, D) unit-sum row is zero, or becomes zero under the pull; -1 if none.

    Tied rows raise ``TiedMinimumError`` and rows with two zeros
    ``MultipleZerosError``, both naming 1-based row numbers.
    """
    return _zero_index(_zero_rule(_as_rows(parts).T)[2])


def project_rows(parts) -> tuple[np.ndarray, np.ndarray]:
    """Pull the outside rows of an (n, D) unit-sum array onto the boundary; returns (parts, zero_index).

    Each row's zero part (see ``zero_parts``) is set to exactly 0.
    """
    x = _as_rows(parts)
    outside, stretch, zeros = _zero_rule(x.T)
    zero_index = _zero_index(zeros)
    out = x.copy()
    centre = 1.0 / x.shape[1]
    rows = np.flatnonzero(outside)
    pulled = x.take(rows, axis=0)  # c + (x - c) / stretch, in place on this one copy of the outside rows
    pulled -= centre
    pulled *= 1.0 / stretch.take(rows)[:, None]
    pulled += centre
    out[rows] = pulled
    rows = np.flatnonzero(zero_index >= 0)
    out[rows, zero_index[rows]] = 0.0
    return out, zero_index


def validate_compositions(rows) -> tuple[np.ndarray, np.ndarray]:
    """Check an (n, D) array of compositions; returns (parts, zero_index).

    Parts must be finite; negatives down to ``-ZERO_TOL`` are clamped to zero.
    Row sums off by more than ``UNIT_SUM_TOL`` but at most ``RECLOSE_TOL``
    are re-closed with one warning.  The zero rule then names each row's zero
    part (``zero_parts``: parts up to ``ZERO_TOL``), and a row may have one
    (its ``zero_index``, -1 if none).  Errors name 1-based row numbers.
    """
    x = _as_rows(np.array(rows, dtype=float))
    _reject_rows(~np.isfinite(x).all(axis=1), "non-finite values in rows")
    _reject_rows((x < -ZERO_TOL).any(axis=1), "negative parts in rows")
    x[x < 0.0] = 0.0
    sums = x.sum(axis=1)
    _reject_rows(np.abs(sums - 1.0) > RECLOSE_TOL, f"rows not summing to 1 (beyond {RECLOSE_TOL:g}):")
    off = np.abs(sums - 1.0) > UNIT_SUM_TOL
    if off.any():
        warnings.warn(f"re-closed {int(off.sum())} row(s) with unit-sum noise above {UNIT_SUM_TOL:g}", stacklevel=3)
        x[off] /= sums[off, None]
    return x, zero_parts(x)


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


def _alpha_transform_simplex(x, alpha: float) -> np.ndarray:
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
    u = _alpha_transform_simplex(x, alpha)
    n_parts = u.shape[-1]
    h = _helmert_readonly(n_parts)
    return ((n_parts * u - 1.0) / alpha) @ h.T


def _inverse_affine(y: np.ndarray, alpha: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """(alpha H^T y + 1) / D for (..., D-1) coordinates y, computed in place on the product.

    At alpha = 1 these are the parts of the inverse transform; otherwise the
    power step still has to be inverted.  The product goes into ``out`` when
    one is given.
    """
    n_parts = y.shape[-1] + 1
    u = np.matmul(y, _helmert_readonly(n_parts), out=out)
    if alpha != 1.0:
        u *= alpha
    u += 1.0
    u /= n_parts
    return u


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
    u = _inverse_affine(y, alpha)
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


def _log_jacobian_common(x, alpha: float) -> tuple[int, float]:
    """D and (alpha - 1) sum_i log x_i - D log sum_j x_j^alpha, the log-Jacobian part both transforms share."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"expected one composition vector, got shape {x.shape}")
    if np.any(x <= ZERO_TOL):
        raise ValueError("Jacobian requires a strictly positive composition")
    if alpha == 0.0:
        raise ValueError("alpha = 0 is not supported")
    n_parts = x.size
    return n_parts, (alpha - 1.0) * float(np.sum(np.log(x))) - n_parts * math.log(float(np.sum(x**alpha)))


def jacobian_simplex(x, alpha: float) -> float:
    """|det| of the stay-in-the-simplex transform: |alpha|^d prod_i x_i^(alpha-1) / (sum_j x_j^alpha)^D.

    Evaluated in log form to stay finite for extreme alpha.  Equals 1 for
    alpha = 1.
    """
    n_parts, log_j = _log_jacobian_common(x, alpha)
    return math.exp((n_parts - 1) * math.log(abs(alpha)) + log_j)


def jacobian_alpha(x, alpha: float) -> float:
    """|det| of the centred transform: D^(d + 1/2) prod_i x_i^(alpha-1) / (sum_j x_j^alpha)^D.

    For alpha = 1 this is the constant D^(d + 1/2) regardless of x, so its
    log summed over n observations is (n d + n/2) log D.
    """
    n_parts, log_j = _log_jacobian_common(x, alpha)
    return math.exp((n_parts - 0.5) * math.log(n_parts) + log_j)
