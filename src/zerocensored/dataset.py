"""Dataset containers: validated compositions and their transformed form.

The transformed sample holds coordinates only.  The censored likelihood reads
each face point's direction and radius straight from its coordinates, so no
per-point rotation is built or cached here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import DIRECTION_TOL, alpha_transform, validate_compositions


def part_names(names, n_parts: int) -> tuple[str, ...]:
    """``names`` as a tuple, or the default ``comp1``..``compD`` when it is None."""
    return tuple(f"comp{i + 1}" for i in range(n_parts)) if names is None else tuple(names)


@dataclass(frozen=True)
class CompositionalDataset:
    """An ordered collection of compositions, each interior or with a single zero part.

    ``zero_index[i]`` is the zero component of row i, or -1 for interior rows.
    Build instances with ``from_array`` so every row is validated.
    """

    parts: np.ndarray
    zero_index: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        parts = np.asarray(self.parts, dtype=float)
        zero_index = np.asarray(self.zero_index, dtype=int)
        if parts.ndim != 2 or parts.shape[1] < 2:
            raise ValueError(f"parts must be (n, D) with D >= 2, got shape {parts.shape}")
        if zero_index.shape != (parts.shape[0],):
            raise ValueError("zero_index must have one entry per row")
        if self.names is not None and len(self.names) != parts.shape[1]:
            raise ValueError("names must have one entry per component")
        parts.setflags(write=False)
        zero_index.setflags(write=False)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "zero_index", zero_index)

    @classmethod
    def from_array(cls, rows, names=None) -> "CompositionalDataset":
        """Validate an (n, D) array of compositions with ``validate_compositions``.

        Row numbers in error messages are 1-based data rows.  Rows whose sum
        is off by at most ``RECLOSE_TOL`` are re-closed with a single warning;
        rows with more than one zero raise ``MultipleZerosError`` listing them.
        """
        parts, zero_index = validate_compositions(rows)
        return cls(parts=parts, zero_index=zero_index, names=tuple(names) if names is not None else None)

    @property
    def n_obs(self) -> int:
        return int(self.parts.shape[0])

    @property
    def n_parts(self) -> int:
        return int(self.parts.shape[1])

    @property
    def interior_mask(self) -> np.ndarray:
        return self.zero_index < 0

    @property
    def interior_parts(self) -> np.ndarray:
        return self.parts[self.interior_mask]

    @property
    def face_parts(self) -> np.ndarray:
        return self.parts[~self.interior_mask]

    @property
    def face_zero_index(self) -> np.ndarray:
        return self.zero_index[~self.interior_mask]

    @property
    def n_interior(self) -> int:
        return int(self.interior_mask.sum())

    @property
    def n_face(self) -> int:
        return self.n_obs - self.n_interior

    def observed_zero_counts(self) -> np.ndarray:
        """Number of observed zeros in each component."""
        return np.bincount(self.face_zero_index, minlength=self.n_parts)


@dataclass(frozen=True)
class TransformedSample:
    """A dataset mapped to R^d: interior points, and face points with their zero part (no part names)."""

    interior: np.ndarray
    face: np.ndarray
    face_zero_index: np.ndarray
    n_parts: int

    @property
    def dim(self) -> int:
        return self.n_parts - 1

    @property
    def n_interior(self) -> int:
        return int(self.interior.shape[0])

    @property
    def n_face(self) -> int:
        return int(self.face.shape[0])

    @property
    def n_obs(self) -> int:
        return self.n_interior + self.n_face


def transform_dataset(dataset: CompositionalDataset) -> TransformedSample:
    """Map a dataset into R^(D-1) with the exponent-one transform, the one the likelihood is defined for.

    The origin is the image of the simplex centre, which is interior, so a
    face point at the origin signals corrupted input and raises ``ValueError``.
    """
    d = dataset.n_parts - 1
    interior = alpha_transform(dataset.interior_parts, 1.0) if dataset.n_interior else np.empty((0, d))
    face = alpha_transform(dataset.face_parts, 1.0) if dataset.n_face else np.empty((0, d))
    if np.any(np.linalg.norm(face, axis=1) <= DIRECTION_TOL):
        raise ValueError("face point maps to the origin; the centre is interior, input is corrupted")
    return TransformedSample(
        interior=interior,
        face=face,
        face_zero_index=dataset.face_zero_index.copy(),
        n_parts=dataset.n_parts,
    )
