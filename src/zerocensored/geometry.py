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
rejected.  ``zero_parts`` applies the rule to an (n, D) array of rows and
``project_rows`` also pulls; a single vector goes through them as one row.

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


def _zero_rule(x: np.ndarray, scratch: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of an (n, D) array: (outside, stretch 1 - D min, zero_index).

    ``scratch``, a C-contiguous float64 array of at least n * D / 2 values
    whose contents are dead, takes the float32 copy of the zero mask instead
    of a new allocation; the results are the same.
    """
    n_parts = x.shape[1]
    mins = functools.reduce(np.minimum, x.T)  # column by column: faster than per-row reductions for few parts
    outside = mins < -ZERO_TOL
    stretch = 1.0 - n_parts * mins
    # Part j of an outside row is at most ZERO_TOL after the pull iff x_j - min <= ZERO_TOL * stretch.
    zeros = x <= np.where(outside, mins + ZERO_TOL * stretch, ZERO_TOL)[:, None]
    # One product gives each row's zero count and the sum of its zero indices, both exact small
    # integers in float32; where the count is 1 the sum is the one zero part, the row's argmin.
    if scratch is not None:
        mask = scratch.reshape(-1).view(np.float32)[: zeros.size].reshape(zeros.shape)
        np.copyto(mask, zeros)
        zeros = mask
    counts, index_sums = (zeros @ np.stack([np.ones(n_parts), np.arange(n_parts)], axis=1).astype(np.float32)).T
    tied = np.flatnonzero(outside & (counts > 1)) + 1
    if tied.size:
        raise TiedMinimumError(f"rows with a tied minimum, which the pull would turn into two zeros: {format_rows(tied)}")
    reject_multiple_zeros(counts)
    return outside, stretch, np.where(counts == 1, index_sums, -1).astype(np.intp)


def zero_parts(parts) -> np.ndarray:
    """Which part of each (n, D) unit-sum row is zero, or becomes zero under the pull; -1 if none.

    Tied rows raise ``TiedMinimumError`` and rows with two zeros
    ``MultipleZerosError``, both naming 1-based row numbers.
    """
    return _zero_rule(_as_rows(parts))[2]


def project_rows(parts) -> tuple[np.ndarray, np.ndarray]:
    """Pull the outside rows of an (n, D) unit-sum array onto the boundary; returns (parts, zero_index).

    Each row's zero part (see ``zero_parts``) is set to exactly 0.
    """
    x = _as_rows(parts)
    outside, stretch, zero_index = _zero_rule(x)
    out = x.copy()
    centre = 1.0 / x.shape[1]
    pulled = x[outside]  # c + (x - c) / stretch, in place on this one copy of the outside rows
    pulled -= centre
    pulled *= 1.0 / stretch[outside, None]
    pulled += centre
    out[outside] = pulled
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
