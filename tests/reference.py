"""Reference routines that the tests check the package against; not part of the package's API."""

import csv
import math

import numpy as np

from zerocensored.diagnostics import CHUNK_SIZE
from zerocensored.geometry import project_rows, zero_parts
from zerocensored.simplex import inverse_alpha_transform
from zerocensored.ternary import TRIANGLE


def numerical_gradient(fun, theta, *, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate step rel_step * (1 + |theta_i|)."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.size)
    for i in range(theta.size):
        h = rel_step * (1.0 + abs(theta[i]))
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (fun(up) - fun(down)) / (2.0 * h)
    return grad


def barycentric_from_xy(xy) -> np.ndarray:
    """Invert ``ternary_coordinates``; coordinates may lie outside the triangle."""
    xy = np.asarray(xy, dtype=float)
    c = xy[..., 1] / TRIANGLE[2, 1]
    b = xy[..., 0] - 0.5 * c
    a = 1.0 - b - c
    return np.stack([a, b, c], axis=-1)


def write_compositions_csv_rowwise(path, dataset) -> None:
    """Row-by-row ``csv.writer`` form of ``io.write_compositions_csv``: zeros as ``0``, others ``repr``."""
    names = dataset.names or tuple(f"comp{i + 1}" for i in range(dataset.n_parts))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in dataset.parts:
            writer.writerow(["0" if v == 0.0 else repr(float(v)) for v in row])


def _draw_parts_whole(model, n, rng) -> np.ndarray:
    latent = model.mean + rng.standard_normal((n, model.dim)) @ model.chol.T
    return inverse_alpha_transform(latent, 1.0)[0]


def simulate_compositions_whole(n, model, seed) -> tuple[np.ndarray, np.ndarray]:
    """``simulate_compositions`` as one whole-array draw and pull; returns (parts, zero_index)."""
    return project_rows(_draw_parts_whole(model, n, np.random.default_rng(seed)))


def zero_rates_whole(model, n_sims, seed) -> np.ndarray:
    """``zero_rates`` with each ``CHUNK_SIZE`` chunk drawn and counted as one array."""
    n_parts = model.dim + 1
    counts = np.zeros(n_parts, dtype=np.int64)
    remaining = n_sims
    for child in np.random.SeedSequence(seed).spawn(math.ceil(n_sims / CHUNK_SIZE)):
        m = min(CHUNK_SIZE, remaining)
        zero_index = zero_parts(_draw_parts_whole(model, m, np.random.default_rng(child)))
        counts += np.bincount(zero_index + 1, minlength=n_parts + 1)[1:]
        remaining -= m
    return counts / float(n_sims)
