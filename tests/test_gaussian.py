"""Normal tests: parameter checks, the reference log-density, and the boundary term's split and tail.

``MvnParams`` and ``cholesky`` must refuse what LAPACK would pass through.
The reference log-density (``tests/reference.py``) that other tests build on
is checked against a naive inverse/determinant evaluation and against grid
quadrature.  The conditional split of the rotated normal is checked through
``boundary_term``, the face kernel at one point, with the identity rotation
against closed forms and the joint density; its rotated-frame Schur form is
the oracle ``tests/reference.py::boundary_term_schur``.  The normal tail is
checked through the kernel's ``_log_ndtr_erfcx`` against closed forms and an
arbitrary-precision complementary error function.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

from zerocensored import MvnParams, NotPositiveDefiniteError, boundary_term, cholesky
from zerocensored.likelihood import _log_ndtr_erfcx

from reference import mvn_logpdf


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
    # np.linalg.cholesky returns NaN for a NaN entry instead of raising, so the checks come first
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="mean has non-finite"):
            MvnParams(np.array([bad, 0.1]), np.eye(2))
        cov = np.eye(2)
        cov[0, 1] = cov[1, 0] = bad
        with pytest.raises(ValueError, match="covariance has non-finite") as excinfo:
            MvnParams(np.zeros(2), cov)
        assert not isinstance(excinfo.value, NotPositiveDefiniteError)


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


# --- conditional split, through boundary_term (the face kernel at one point) ----------


def log_sf(x):
    return math.log(0.5 * math.erfc(x / math.sqrt(2.0)))


def test_conditional_split_independent_case():
    # cond mean 0.7 and cond var 1; the others' marginal is N((-1.2, 0.4), I) at zero
    mean = np.array([0.7, -1.2, 0.4])
    for c1 in (0.3, 1.0, 2.5):
        expected = mvn_logpdf(np.zeros(2), MvnParams(mean[1:], np.eye(2))) + log_sf(c1 - 0.7)
        assert boundary_term(np.eye(3), c1, mean, np.eye(3)) == pytest.approx(expected, rel=1e-13)


def test_conditional_split_hand_example():
    # cond mean 1 - (1/4) 2 = 0.5 and cond var 2 - 1/4 = 1.75; the marginal is N(2, 4) at zero
    mean = np.array([1.0, 2.0])
    cov = np.array([[2.0, 1.0], [1.0, 4.0]])
    for c1 in (0.3, 1.0, 2.5):
        expected = -0.5 * math.log(2 * math.pi * 4.0) - 0.5 * 2.0**2 / 4.0 + log_sf((c1 - 0.5) / math.sqrt(1.75))
        assert boundary_term(np.eye(2), c1, mean, cov) == pytest.approx(expected, rel=1e-13)


def test_factorization_identity_at_zero_tail_coordinates():
    # the term is the joint density at (z1, 0, ..., 0) integrated over z1 > c1
    rng = np.random.default_rng(22)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        params = MvnParams(rng.normal(size=d), random_spd(rng, d))
        c1 = float(rng.uniform(0.1, 2.0))

        def joint(z1):
            z = np.zeros(d)
            z[0] = z1
            return math.exp(mvn_logpdf(z, params))

        exact = quad(joint, c1, np.inf, epsabs=0.0, epsrel=1e-11)[0]
        term = boundary_term(np.eye(d), c1, params.mean, params.cov)
        assert term == pytest.approx(math.log(exact), abs=1e-8)


def test_conditional_split_rejects_a_singular_covariance():
    # the covariance's second pivot, and the Schur complement 1 - 1 * 1, are exactly zero
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        boundary_term(np.eye(2), 1.0, np.zeros(2), np.ones((2, 2)))


# --- normal tail, from the face kernel's log Phi ------------------------------------------


def log_tail(a: float) -> float:
    """log(1 - Phi(a)) = log Phi(-a), from the face kernel's normal-tail routine."""
    return float(_log_ndtr_erfcx(-a)[0])


def test_log_tail_at_zero():
    assert log_tail(0.0) == pytest.approx(math.log(0.5), rel=1e-14)


def test_log_tail_limits():
    assert log_tail(-np.inf) == 0.0
    assert log_tail(np.inf) == -np.inf


def test_log_tail_deep_tail_matches_mpmath():
    for a in (4.0, 8.0, 15.0, 30.0):
        with mp.workdps(40):
            exact = float(mp.log(mp.erfc(a / mp.sqrt(2)) / 2))
        assert log_tail(a) == pytest.approx(exact, rel=1e-10)
    assert log_tail(8.0) == pytest.approx(-35.013437159914550, rel=1e-12)


def test_log_tail_monotone_decreasing():
    vals = [log_tail(a) for a in np.linspace(-10, 10, 401)]
    assert np.all(np.diff(vals) < 0)


def test_log_tail_complementarity():
    for a in np.linspace(-6, 6, 25):
        total = math.exp(log_tail(a)) + math.exp(log_tail(-a))
        assert total == pytest.approx(1.0, abs=1e-12)
