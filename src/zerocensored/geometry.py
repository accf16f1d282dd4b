"""Boundary geometry for the latent model.

Latent points recovered from the alpha = 1 transform can land outside the
simplex.  Such points are pulled to the boundary along the line joining them
to the simplex centre; exactly one part (the most negative one) reaches zero.
In the paper, transformed face points are then rotated onto the first
coordinate axis with an orthonormal matrix built by Gram-Schmidt, which turns
the censoring line integral into a one-dimensional normal tail probability.
``gram_schmidt_rotation`` is kept as that rotated-frame reference; the fit
evaluates the same term from each face point's direction and needs no
rotation (see ``likelihood``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .simplex import UNIT_SUM_TOL, ZERO_TOL, MultipleZerosError

#: Candidate basis vectors with residual norm below this are skipped during completion.
GS_SKIP_TOL = 1e-8
#: Directions shorter than this cannot be normalized.
DIRECTION_TOL = 1e-12


class TiedMinimumError(ValueError):
    """Raised when the minimum part is not unique, so projection would create two zeros."""


class Region(Enum):
    INTERIOR = "interior"
    FACE = "face"
    OUTSIDE = "outside"


class Classification(NamedTuple):
    region: Region
    zero_index: int | None


@dataclass(frozen=True)
class ProjectionResult:
    """A latent point pulled onto a face: the composition, which part is zero, and the pull factor."""

    composition: np.ndarray
    zero_index: int
    scale: float


def _check_hyperplane(x: np.ndarray) -> None:
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"expected one vector of parts, got shape {x.shape}")
    s = float(x.sum())
    if abs(s - 1.0) > max(UNIT_SUM_TOL, 1e-12 * x.size):
        raise ValueError(f"parts must sum to 1, got {s!r}")


def classify(x) -> Classification:
    """Partition a unit-sum vector into interior, single-zero face, or outside the simplex.

    Vectors with two or more zero parts (and no negative part) are outside
    the model's scope and raise ``MultipleZerosError``.  A tie at a negative
    minimum raises ``TiedMinimumError`` because projection would zero out
    more than one part.
    """
    x = np.asarray(x, dtype=float)
    _check_hyperplane(x)
    if np.any(x < -ZERO_TOL):
        mn = float(x.min())
        if int(np.count_nonzero(x == mn)) > 1:
            raise TiedMinimumError("tied minimum parts; projection would create two zeros")
        return Classification(Region.OUTSIDE, None)
    zeros = np.flatnonzero(np.abs(x) <= ZERO_TOL)
    if zeros.size == 0:
        return Classification(Region.INTERIOR, None)
    if zeros.size == 1:
        return Classification(Region.FACE, int(zeros[0]))
    raise MultipleZerosError("more than one zero part; unsupported by the model")


def project_to_boundary(x) -> ProjectionResult:
    """Pull an out-of-simplex point to the boundary along the line through the centre.

    With centre c = (1/D, ..., 1/D) the projected point is c + t (x - c) with
    t = 1 / (1 - D min_j x_j), the unique scale at which the most negative
    part reaches zero while all others stay positive.
    """
    x = np.asarray(x, dtype=float)
    _check_hyperplane(x)
    n_parts = x.size
    mn = float(x.min())
    if mn >= -ZERO_TOL:
        raise ValueError("point is not outside the simplex; nothing to project")
    if int(np.count_nonzero(x == mn)) > 1:
        raise TiedMinimumError("tied minimum parts; projection would create two zeros")
    zero_index = int(np.argmin(x))
    scale = 1.0 / (1.0 - n_parts * mn)
    centre = 1.0 / n_parts
    comp = centre + scale * (x - centre)
    comp[zero_index] = 0.0
    others = np.delete(comp, zero_index)
    if np.any(others <= ZERO_TOL):
        raise TiedMinimumError("near-tied minimum parts; projection would create a second zero")
    return ProjectionResult(composition=comp, zero_index=zero_index, scale=scale)


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
