"""Closure, Helmert basis and power-transformation tests.

Jacobian formulas are checked against finite-difference determinants of the
underlying maps, which never share code with the closed forms under test.
"""

import numpy as np
import pytest

from zerocensored import (
    MultipleZerosError,
    alpha_transform,
    closure,
    helmert_submatrix,
    inverse_alpha_transform,
    jacobian_alpha,
    jacobian_simplex,
)
from zerocensored.simplex import _alpha_transform_simplex, validate_compositions

ALPHAS = (-1.0, -0.5, 0.5, 1.0, 2.0)


def random_interior(rng, n_parts):
    # Dirichlet(2,...,2) keeps parts away from the edges
    return rng.dirichlet(np.full(n_parts, 2.0))


# --- validation and closure ---------------------------------------------------


def test_validate_compositions_takes_rows_not_one_vector():
    _, zero_index = validate_compositions([[0.0, 0.4, 0.6]])
    assert zero_index.tolist() == [0]
    with pytest.raises(ValueError, match=r"expected an \(n, D\) array"):
        validate_compositions([0.0, 0.4, 0.6])


def test_closure_scales_proportionally():
    np.testing.assert_allclose(closure([2, 2, 4]), [0.25, 0.25, 0.5])
    np.testing.assert_allclose(closure([[2, 2, 4], [0, 3, 1]]), [[0.25, 0.25, 0.5], [0, 0.75, 0.25]])


def test_closure_uniform():
    np.testing.assert_allclose(closure([1, 1, 1]), np.full(3, 1 / 3))


def test_closure_preserves_zero():
    np.testing.assert_allclose(closure([0, 3, 1]), [0, 0.75, 0.25])


def test_closure_rejects_bad_input():
    with pytest.raises(ValueError):
        closure([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        closure([1.0, -0.5, 0.5])
    with pytest.raises(MultipleZerosError):
        closure([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        closure([1.0])
    # rows of amounts: errors name the 1-based rows
    with pytest.raises(ValueError, match=r"negative amounts in rows 2$"):
        closure([[1.0, 1.0, 1.0], [1.0, -0.5, 0.5]])
    with pytest.raises(ValueError, match=r"all-zero rows.*: 1, 3$"):
        closure([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(MultipleZerosError) as excinfo:
        closure([[1.0, 1.0, 1.0], [0.0, 0.0, 2.0]])
    assert excinfo.value.rows == (2,)


# --- Helmert sub-matrix ------------------------------------------------------


def test_helmert_d3_rows():
    h = helmert_submatrix(3)
    np.testing.assert_allclose(h[0], [1 / np.sqrt(2), -1 / np.sqrt(2), 0.0], atol=1e-15)
    np.testing.assert_allclose(h[1], [1 / np.sqrt(6), 1 / np.sqrt(6), -2 / np.sqrt(6)], atol=1e-15)


def test_helmert_d2_row():
    np.testing.assert_allclose(helmert_submatrix(2), [[1 / np.sqrt(2), -1 / np.sqrt(2)]])


@pytest.mark.parametrize("n_parts", range(2, 16))
def test_helmert_orthonormal_and_centred(n_parts):
    h = helmert_submatrix(n_parts)
    np.testing.assert_allclose(h @ h.T, np.eye(n_parts - 1), atol=1e-12)
    np.testing.assert_allclose(h @ np.ones(n_parts), 0.0, atol=1e-12)


def test_helmert_rejects_small_d():
    with pytest.raises(ValueError):
        helmert_submatrix(1)


def test_helmert_returns_fresh_copy():
    h = helmert_submatrix(4)
    h[0, 0] = 99.0
    assert helmert_submatrix(4)[0, 0] != 99.0


# --- simplex-valued transform ------------------------------------------------


def test_simplex_transform_uniform_fixed_point():
    x = np.full(4, 0.25)
    for alpha in ALPHAS:
        np.testing.assert_allclose(_alpha_transform_simplex(x, alpha), x, atol=1e-15)


def test_simplex_transform_identity_at_one():
    rng = np.random.default_rng(0)
    x = random_interior(rng, 5)
    np.testing.assert_allclose(_alpha_transform_simplex(x, 1.0), x, atol=1e-15)


def test_simplex_transform_two_parts():
    u = _alpha_transform_simplex(np.array([0.2, 0.8]), 2.0)
    np.testing.assert_allclose(u, [0.04 / 0.68, 0.64 / 0.68])


def test_simplex_transform_sums_to_one_and_positive():
    rng = np.random.default_rng(1)
    for alpha in ALPHAS:
        for _ in range(20):
            u = _alpha_transform_simplex(random_interior(rng, 4), alpha)
            assert abs(u.sum() - 1.0) < 1e-12
            assert u.min() > 0


def test_alpha_zero_rejected():
    x = np.array([0.5, 0.5])
    for fn in (_alpha_transform_simplex, alpha_transform, jacobian_simplex, jacobian_alpha):
        with pytest.raises(ValueError):
            fn(x, 0.0)


def test_zero_part_requires_positive_alpha():
    x = np.array([0.0, 0.5, 0.5])
    np.testing.assert_allclose(_alpha_transform_simplex(x, 2.0), [0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        _alpha_transform_simplex(x, -1.0)


# --- centred transform and inverse -------------------------------------------


def test_centre_maps_to_origin():
    np.testing.assert_allclose(alpha_transform(np.full(3, 1 / 3), 1.0), [0.0, 0.0], atol=1e-15)


def test_transform_hand_value():
    y = alpha_transform(np.array([0.5, 0.3, 0.2]), 1.0)
    np.testing.assert_allclose(y, [0.6 / np.sqrt(2), 1.2 / np.sqrt(6)], atol=1e-15)


def test_round_trip_interior():
    rng = np.random.default_rng(2)
    for alpha in ALPHAS:
        for n_parts in (2, 3, 6):
            x = random_interior(rng, n_parts)
            y = alpha_transform(x, alpha)
            back, inside = inverse_alpha_transform(y, alpha)
            assert inside
            np.testing.assert_allclose(back, x, atol=1e-12)


def test_inverse_at_origin_is_centre():
    parts, inside = inverse_alpha_transform(np.zeros(2), 1.0)
    assert inside
    np.testing.assert_allclose(parts, np.full(3, 1 / 3))


def test_inverse_far_point_flags_outside():
    parts, inside = inverse_alpha_transform(np.array([25.0, -40.0]), 1.0)
    assert not inside
    assert parts.min() < 0
    assert abs(parts.sum() - 1.0) < 1e-9


def test_inverse_batch_matches_rows():
    rng = np.random.default_rng(3)
    ys = rng.normal(size=(8, 3))
    parts, inside = inverse_alpha_transform(ys, 1.0)
    for i in range(8):
        p_i, in_i = inverse_alpha_transform(ys[i], 1.0)
        np.testing.assert_allclose(parts[i], p_i)
        assert inside[i] == in_i


def test_inverse_rejects_out_of_image_for_general_alpha():
    with pytest.raises(ValueError):
        inverse_alpha_transform(np.array([30.0, 0.0]), 2.0)


# --- Jacobians ---------------------------------------------------------------


def fd_jacobian_det(fn, x_free, step=1e-6):
    """|det| of the numerical Jacobian of fn at x_free (central differences)."""
    d = x_free.size
    jac = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        jac[:, j] = (fn(x_free + e) - fn(x_free - e)) / (2 * step)
    return abs(np.linalg.det(jac))


def nondegenerate_simplex_map(x_free, alpha):
    x = np.append(x_free, 1.0 - x_free.sum())
    u = x**alpha / np.sum(x**alpha)
    return u[:-1]


def full_transform_map(x_free, alpha):
    x = np.append(x_free, 1.0 - x_free.sum())
    return alpha_transform(x, alpha)


def test_jacobian_simplex_is_one_at_alpha_one():
    rng = np.random.default_rng(4)
    for n_parts in (2, 3, 5):
        assert jacobian_simplex(random_interior(rng, n_parts), 1.0) == pytest.approx(1.0, abs=1e-12)


def test_jacobian_simplex_uniform_alpha_two():
    assert jacobian_simplex(np.full(3, 1 / 3), 2.0) == pytest.approx(4.0, rel=1e-12)


def test_jacobian_alpha_constant_at_alpha_one():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = random_interior(rng, 3)
        assert jacobian_alpha(x, 1.0) == pytest.approx(3.0**2.5, rel=1e-12)


def test_jacobian_alpha_log_identity():
    # n * log J(alpha=1) == (n d + n/2) log D for any composition
    n, n_parts = 7, 5
    d = n_parts - 1
    x = np.full(n_parts, 1 / n_parts)
    got = n * np.log(jacobian_alpha(x, 1.0))
    assert got == pytest.approx((n * d + n / 2) * np.log(n_parts), rel=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n_parts", (2, 3, 4))
def test_jacobians_match_finite_differences(alpha, n_parts):
    rng = np.random.default_rng(int(10 * abs(alpha)) + n_parts)
    for _ in range(10):
        x = random_interior(rng, n_parts)
        fd_s = fd_jacobian_det(lambda xf: nondegenerate_simplex_map(xf, alpha), x[:-1])
        assert jacobian_simplex(x, alpha) == pytest.approx(fd_s, rel=1e-5)
        fd_a = fd_jacobian_det(lambda xf: full_transform_map(xf, alpha), x[:-1])
        assert jacobian_alpha(x, alpha) == pytest.approx(fd_a, rel=1e-5)


def test_jacobian_ratio_identity():
    rng = np.random.default_rng(6)
    for alpha in ALPHAS:
        for n_parts in (2, 4):
            d = n_parts - 1
            x = random_interior(rng, n_parts)
            ratio = jacobian_alpha(x, alpha) / jacobian_simplex(x, alpha)
            expected = n_parts ** (d + 0.5) / abs(alpha) ** d
            assert ratio == pytest.approx(expected, rel=1e-12)


def test_jacobians_reject_zero_parts():
    x = np.array([0.0, 0.4, 0.6])
    with pytest.raises(ValueError):
        jacobian_simplex(x, 0.5)
    with pytest.raises(ValueError):
        jacobian_alpha(x, 0.5)
