"""Seeded workload generators: the CSV files a CLI session reads.

Every workload draws latent points from a fixed normal in the coordinates
y = H (D x - 1) (H the Helmert sub-matrix, same convention as the package),
maps them back to the unit-sum hyperplane and pulls out-of-simplex points to a
face along the line to the simplex centre.  Only the sample depends on the
seed; the generator parameters are constants, so the measured face share is a
property of the workload, not of the seed.

The generator code is independent of the package on purpose: a later change to
``simulate_compositions`` or the projection code must not change the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Seed of the fixed D = 10 latent generators (never the --seed of a run).
GENERATOR_SEED = 20220827


@dataclass(frozen=True)
class Workload:
    """One CLI session: generator, data size and the arguments of each command."""

    name: str
    mean: np.ndarray
    cov: np.ndarray
    n_obs: int
    n_simulate: int
    n_project: int
    replicates: int | None
    plot: bool
    #: Scale of the latent draws fed to ``project``, relative to the data generator,
    #: so that a useful share of those rows lies outside the simplex.
    project_spread: float = 2.0

    @property
    def n_parts(self) -> int:
        return self.mean.size + 1


def _d10_generator(scale: float) -> tuple[np.ndarray, np.ndarray]:
    """A fixed correlated 9-d normal; ``scale`` sets how often draws leave the simplex."""
    rng = np.random.default_rng(GENERATOR_SEED)
    a = rng.normal(size=(9, 9))
    cov = a @ a.T / 9.0 + 0.5 * np.eye(9)
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    mean = 0.1 * rng.normal(size=9)
    return scale * mean, scale * scale * corr


# Scales 0.605 and 0.323 give about 35% and 0.6% single-zero rows.
_CENSORED_MEAN, _CENSORED_COV = _d10_generator(0.605)
_INTERIOR_MEAN, _INTERIOR_COV = _d10_generator(0.323)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="censored-d10",
            mean=_CENSORED_MEAN,
            cov=_CENSORED_COV,
            n_obs=2_000,
            n_simulate=2_000,
            n_project=2_000,
            replicates=None,
            plot=False,
        ),
        Workload(
            name="interior-d10",
            mean=_INTERIOR_MEAN,
            cov=_INTERIOR_COV,
            n_obs=20_000,
            n_simulate=50_000,
            n_project=2_000,
            replicates=None,
            plot=False,
        ),
        Workload(
            # The paper's 3-part example generator.
            name="montecarlo-d3",
            mean=np.array([0.625, 0.821]),
            cov=np.array([[0.149, -0.200], [-0.200, 1.523]]),
            n_obs=5_000,
            n_simulate=50_000,
            n_project=20_000,
            replicates=999,
            plot=True,
            project_spread=1.0,
        ),
    )
}


def helmert(n_parts: int) -> np.ndarray:
    """(D-1) x D Helmert sub-matrix; row i is 1/sqrt(i(i+1)) on 1..i and -i/sqrt(i(i+1)) at i+1."""
    h = np.zeros((n_parts - 1, n_parts))
    for i in range(1, n_parts):
        r = 1.0 / math.sqrt(i * (i + 1))
        h[i - 1, :i] = r
        h[i - 1, i] = -i * r
    return h


def latent_rows(mean: np.ndarray, cov: np.ndarray, n: int, rng) -> np.ndarray:
    """Unit-sum vectors (negative parts allowed) from a latent normal."""
    n_parts = mean.size + 1
    y = mean + rng.standard_normal((n, mean.size)) @ np.linalg.cholesky(cov).T
    return (y @ helmert(n_parts) + 1.0) / n_parts


def pull_to_boundary(x: np.ndarray) -> np.ndarray:
    """Pull rows with a negative part to the face along the line to the centre."""
    n_parts = x.shape[1]
    mins = x.min(axis=1)
    outside = mins < 0.0
    centre = 1.0 / n_parts
    scale = 1.0 / (1.0 - n_parts * mins[outside])
    pulled = centre + scale[:, None] * (x[outside] - centre)
    pulled[np.arange(pulled.shape[0]), x[outside].argmin(axis=1)] = 0.0
    out = x.copy()
    out[outside] = pulled
    return out


def write_csv(path: Path, rows: np.ndarray) -> None:
    """Header of part names, then rows at full precision (%.17g round-trips exactly)."""
    header = ",".join(f"part{j + 1}" for j in range(rows.shape[1]))
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


@dataclass(frozen=True)
class Inputs:
    data_csv: Path
    latent_csv: Path
    data: np.ndarray
    latent: np.ndarray

    @property
    def face_share(self) -> float:
        return float(np.mean((self.data == 0.0).any(axis=1)))


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write ``data.csv`` (compositions) and ``latent.csv`` (rows for ``project``) from the seed."""
    rng = np.random.default_rng([seed, workload.n_parts, workload.n_obs])
    data = pull_to_boundary(latent_rows(workload.mean, workload.cov, workload.n_obs, rng))
    spread = workload.project_spread
    latent = latent_rows(spread * workload.mean, spread * spread * workload.cov, workload.n_project, rng)
    inputs = Inputs(directory / "data.csv", directory / "latent.csv", data, latent)
    write_csv(inputs.data_csv, data)
    write_csv(inputs.latent_csv, latent)
    return inputs
