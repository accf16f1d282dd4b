"""Multivariate normal kernel tests.

The log-density is checked against a naive inverse/determinant evaluation and
against grid quadrature; the tail function against an arbitrary-precision
complementary error function.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import trapezoid

from zerocensored import (
    MvnParams,
    NotPositiveDefiniteError,
    cholesky,
    conditional_split,
    mvn_logpdf,
    std_normal_log_tail,
)


def random_spd(rng, d, jitter=0.3):
    a = rng.normal(size=(d, d))
    return a @ a.T + jitter * np.eye(d)


def naive_logpdf(y, mean, cov):
    d = len(mean)
    resid = np.asarray(y) - mean
    return -0.5 * (
        d * math.log(2 * math.pi)
        + math.log(np.linalg.det(cov))
        + resid @ np.linalg.inv(cov) @ resid
    )


# --- cholesky ------------------------------------------------------------------


def test_cholesky_identity():
    np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3))


def test_cholesky_two_by_two():
    lower = cholesky(np.array([[4.0, 2.0], [2.0, 2.0]]))
    np.testing.assert_allclose(lower, [[2.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(lower @ lower.T, [[4.0, 2.0], [2.0, 2.0]], atol=1e-10)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1


def test_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError):
        cholesky(np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_mvn_params_validates():
    with pytest.raises(NotPositiveDefiniteError):
        MvnParams(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        MvnParams(np.zeros(3), np.eye(2))


# --- log-density ----------------------------------------------------------------


def test_logpdf_at_mean_isotropic():
    for d in (1, 2, 5):
        params = MvnParams(np.zeros(d), np.eye(d))
        assert mvn_logpdf(np.zeros(d), params) == pytest.approx(-0.5 * d * math.log(2 * math.pi))


def test_logpdf_standard_normal_at_one():
    params = MvnParams(np.zeros(1), np.eye(1))
    assert mvn_logpdf(np.array([1.0]), params) == pytest.approx(
        -0.5 * math.log(2 * math.pi) - 0.5
    )


def test_logpdf_matches_naive_inverse():
    rng = np.random.default_rng(20)
    for _ in range(25):
        cov = random_spd(rng, 3)
        mean = rng.normal(size=3)
        y = rng.normal(size=3, scale=2.0)
        got = mvn_logpdf(y, MvnParams(mean, cov))
        assert got == pytest.approx(naive_logpdf(y, mean, cov), abs=1e-10)


def test_logpdf_batch_matches_loop():
    rng = np.random.default_rng(21)
    params = MvnParams(rng.normal(size=2), random_spd(rng, 2))
    ys = rng.normal(size=(6, 2))
    batch = mvn_logpdf(ys, params)
    np.testing.assert_allclose(batch, [mvn_logpdf(y, params) for y in ys], atol=1e-13)


def test_logpdf_integrates_to_one_2d():
    params = MvnParams(np.array([0.3, -0.2]), np.array([[1.2, 0.4], [0.4, 0.8]]))
    span = 8.0
    grid = np.linspace(-span, span, 801)
    xx, yy = np.meshgrid(grid, grid)
    pts = np.column_stack([xx.ravel() + 0.3, yy.ravel() - 0.2])
    density = np.exp(mvn_logpdf(pts, params)).reshape(xx.shape)
    step = grid[1] - grid[0]
    assert trapezoid(trapezoid(density, dx=step), dx=step) == pytest.approx(1.0, abs=1e-3)


def test_logpdf_dimension_mismatch():
    with pytest.raises(ValueError):
        mvn_logpdf(np.zeros(3), MvnParams(np.zeros(2), np.eye(2)))


# --- conditional split -------------------------------------------------------------


def test_conditional_split_independent_case():
    split = conditional_split(MvnParams(np.array([0.7, -1.2, 0.4]), np.eye(3)))
    assert split.cond_mean_at_zero == pytest.approx(0.7)
    assert split.cond_var == pytest.approx(1.0)
    np.testing.assert_allclose(split.marginal_mean, [-1.2, 0.4])
    np.testing.assert_allclose(split.marginal_cov, np.eye(2))


def test_conditional_split_hand_example():
    split = conditional_split(MvnParams(np.array([1.0, 2.0]), np.array([[2.0, 1.0], [1.0, 4.0]])))
    assert split.cond_mean_at_zero == pytest.approx(0.5)
    assert split.cond_var == pytest.approx(1.75)
    np.testing.assert_allclose(split.marginal_mean, [2.0])
    np.testing.assert_allclose(split.marginal_cov, [[4.0]])


def test_factorization_identity_at_zero_tail_coordinates():
    # joint density at (z1, 0, ..., 0) must equal marginal at 0 times the conditional at z1
    rng = np.random.default_rng(22)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        params = MvnParams(rng.normal(size=d), random_spd(rng, d))
        split = conditional_split(params)
        z1 = rng.normal(scale=2.0)
        z = np.zeros(d)
        z[0] = z1
        joint = mvn_logpdf(z, params)
        marginal = mvn_logpdf(np.zeros(d - 1), MvnParams(split.marginal_mean, split.marginal_cov))
        conditional = (
            -0.5 * math.log(2 * math.pi * split.cond_var)
            - 0.5 * (z1 - split.cond_mean_at_zero) ** 2 / split.cond_var
        )
        assert joint == pytest.approx(marginal + conditional, abs=1e-9)


def test_conditioning_reduces_variance():
    rng = np.random.default_rng(23)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        params = MvnParams(rng.normal(size=d), random_spd(rng, d, jitter=0.1))
        split = conditional_split(params)
        assert split.cond_var <= params.cov[0, 0] + 1e-12


def test_conditional_split_needs_two_dims():
    with pytest.raises(ValueError):
        conditional_split(MvnParams(np.zeros(1), np.eye(1)))


# --- normal tail ---------------------------------------------------------------------


def test_log_tail_at_zero():
    assert std_normal_log_tail(0.0) == pytest.approx(math.log(0.5), rel=1e-14)


def test_log_tail_limits():
    assert std_normal_log_tail(-np.inf) == 0.0
    assert std_normal_log_tail(np.inf) == -np.inf


def test_log_tail_deep_tail_matches_mpmath():
    mp.mp.dps = 40
    for a in (4.0, 8.0, 15.0, 30.0):
        exact = float(mp.log(mp.erfc(a / mp.sqrt(2)) / 2))
        assert std_normal_log_tail(a) == pytest.approx(exact, rel=1e-10)
    assert std_normal_log_tail(8.0) == pytest.approx(-35.013437159914550, rel=1e-12)


def test_log_tail_monotone_decreasing():
    grid = np.linspace(-10, 10, 401)
    vals = std_normal_log_tail(grid)
    assert np.all(np.diff(vals) < 0)


def test_log_tail_complementarity():
    for a in np.linspace(-6, 6, 25):
        total = math.exp(std_normal_log_tail(a)) + math.exp(std_normal_log_tail(-a))
        assert total == pytest.approx(1.0, abs=1e-12)
