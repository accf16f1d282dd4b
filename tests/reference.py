"""Reference routines that the tests check the package against; not part of the package's API."""

import csv

import numpy as np

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
