"""Boundary geometry for the latent model.

Latent points recovered from the alpha = 1 transform can land outside the
simplex.  Such points are pulled to the boundary along the line joining them
to the simplex centre; exactly one part (the most negative one) reaches zero.
The package's one rule for this step lives here, used by ``project``,
simulation and the zero rates.  A row is outside when its minimum is below
``-ZERO_TOL``, and is pulled to c + (x - c) / (1 - D min), c = 1/D.  It is
tied, and rejected, when another part lies within ``ZERO_TOL * (1 - D min)``
of the minimum, i.e. would be at most ``ZERO_TOL`` after the pull.  In other
rows parts within ``ZERO_TOL`` of zero are zeros, and two zeros are
rejected.  The rule runs over parts stored by column, a (D, n) array, one
whole part per NumPy pass, so its loops run over rows, not over the few
parts of a row.  ``zero_parts`` applies it to the transpose of an (n, D)
array of rows and ``project_rows`` also pulls; a single vector goes through
them as one row.

In the paper, transformed face points are then rotated onto the first
coordinate axis with an orthonormal matrix built by Gram-Schmidt, which turns
the censoring line integral into a one-dimensional normal tail probability.
``gram_schmidt_rotation`` is kept as that rotated-frame reference; the fit
evaluates the same term from each face point's direction and needs no
rotation (see ``likelihood``).
"""

from __future__ import annotations

import functools

import numpy as np

from .simplex import ZERO_TOL, format_rows, reject_multiple_zeros

#: Candidate basis vectors with residual norm below this are skipped during completion.
GS_SKIP_TOL = 1e-8
#: Directions shorter than this cannot be normalized.
DIRECTION_TOL = 1e-12


class TiedMinimumError(ValueError):
    """Raised when the minimum part is not unique, so projection would create two zeros."""


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
    mins = functools.reduce(np.minimum, xt)  # part by part: faster than per-row reductions for few parts
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
        reject_multiple_zeros(counts)
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


def gram_schmidt_rotation(y) -> np.ndarray:
    """Orthonormal matrix B with first row y/||y||, so B y = (||y||, 0, ..., 0)^T.

    The basis is completed with standard basis vectors taken in index order,
    skipping any whose residual norm after removing projections onto the
    accepted rows falls below ``GS_SKIP_TOL``.  The completion order makes B
    deterministic and reproducible across platforms.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"expected one vector, got shape {y.shape}")
    norm = float(np.linalg.norm(y))
    if norm <= DIRECTION_TOL:
        raise ValueError("cannot build a rotation from a zero vector")
    d = y.size
    rows = np.empty((d, d))
    rows[0] = y / norm
    count = 1
    for k in range(d):
        if count == d:
            break
        v = np.zeros(d)
        v[k] = 1.0
        # Two orthogonalization passes: one leaves O(eps / residual) error for
        # nearly dependent candidates, which would break B B^T = I at 1e-10.
        for _ in range(2):
            v -= rows[:count].T @ (rows[:count] @ v)
        residual = float(np.linalg.norm(v))
        if residual < GS_SKIP_TOL:
            continue
        rows[count] = v / residual
        count += 1
    if count < d:  # unreachable: y plus the standard basis spans R^d
        raise RuntimeError("Gram-Schmidt completion failed to produce a full basis")
    return rows
