"""Reference routines that the tests check the package against; not part of the package's API."""

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
