"""Classification, boundary pull and Gram-Schmidt rotation tests."""

import numpy as np
import pytest

from zerocensored import (
    MultipleZerosError,
    Region,
    TiedMinimumError,
    classify,
    gram_schmidt_rotation,
    inverse_alpha_transform,
    project_rows,
    project_to_boundary,
    zero_parts,
)


# --- classify ----------------------------------------------------------------


def test_classify_interior():
    region, idx = classify([0.2, 0.3, 0.5])
    assert region is Region.INTERIOR and idx is None


def test_classify_face():
    region, idx = classify([0.0, 0.4, 0.6])
    assert region is Region.FACE and idx == 0


def test_classify_outside():
    region, idx = classify([-0.1, 0.5, 0.6])
    assert region is Region.OUTSIDE and idx is None


def test_classify_rejects_two_zeros():
    with pytest.raises(MultipleZerosError):
        classify([0.0, 0.0, 1.0])


def test_classify_rejects_tied_negative_minimum():
    with pytest.raises(TiedMinimumError):
        classify([-0.1, -0.1, 1.2])


def test_classify_requires_unit_sum():
    with pytest.raises(ValueError):
        classify([0.2, 0.2, 0.2])


# --- boundary pull -----------------------------------------------------------


def solve_pull_scale(x):
    # independent route: solve 1/D + t (x_j - 1/D) = 0 at the argmin component
    x = np.asarray(x, float)
    j = np.argmin(x)
    centre = 1.0 / x.size
    return centre / (centre - x[j])


def test_projection_hand_example():
    res = project_to_boundary([-0.1, 0.5, 0.6])
    assert res.scale == pytest.approx(1 / 1.3, rel=1e-14)
    assert res.scale == pytest.approx(solve_pull_scale([-0.1, 0.5, 0.6]), rel=1e-14)
    assert res.zero_index == 0
    np.testing.assert_allclose(res.composition, [0.0, 0.6 / 1.3, 0.7 / 1.3], atol=1e-15)
    assert res.composition.sum() == pytest.approx(1.0, abs=1e-12)


def test_projection_continuity_near_boundary():
    x = np.array([-1e-9, 0.5, 0.5 + 1e-9])
    res = project_to_boundary(x)
    assert res.scale == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(res.composition, [0.0, 0.5, 0.5], atol=1e-8)


def test_projection_collinearity_and_invariants():
    rng = np.random.default_rng(7)
    n_checked = 0
    for _ in range(10_000):
        n_parts = int(rng.integers(3, 7))
        y = rng.normal(scale=2.0, size=n_parts - 1)
        x, inside = inverse_alpha_transform(y, 1.0)
        if inside:
            continue
        res = project_to_boundary(x)
        n_checked += 1
        centre = np.full(n_parts, 1.0 / n_parts)
        # collinearity via the Gram determinant of (x - c, p - c)
        a, b = x - centre, res.composition - centre
        gram = np.array([[a @ a, a @ b], [a @ b, b @ b]])
        assert abs(np.linalg.det(gram)) < 1e-12
        assert res.zero_index == np.argmin(x)
        assert res.composition[res.zero_index] == 0.0
        others = np.delete(res.composition, res.zero_index)
        assert others.min() > 0
        assert res.composition.sum() == pytest.approx(1.0, abs=1e-10)
        assert 0.0 < res.scale < 1.0
    assert n_checked > 1000  # the latent scale must actually produce escapes


def test_projection_rejects_inside_points():
    with pytest.raises(ValueError):
        project_to_boundary([0.2, 0.3, 0.5])


def test_projection_rejects_exact_ties():
    with pytest.raises(TiedMinimumError):
        project_to_boundary([-0.25, -0.25, 1.5])


# --- vectorized rule ---------------------------------------------------------


@pytest.mark.parametrize("n_parts", [3, 10])
def test_project_rows_matches_scalar_reference_row_by_row(n_parts):
    rng = np.random.default_rng(11 + n_parts)
    x, _ = inverse_alpha_transform(rng.normal(scale=1.5, size=(2000, n_parts - 1)), 1.0)
    x[:50] = project_rows(x[:50])[0]  # rows already on a face
    parts, zero_index = project_rows(x)
    np.testing.assert_array_equal(zero_parts(x), zero_index)
    regions = set()
    for i, row in enumerate(x):
        region, face_index = classify(row)
        regions.add(region)
        if region is Region.OUTSIDE:
            ref = project_to_boundary(row)
            np.testing.assert_array_equal(parts[i], ref.composition)
            assert zero_index[i] == ref.zero_index
        else:
            np.testing.assert_array_equal(parts[i], np.where(np.abs(row) <= 1e-12, 0.0, row))
            assert zero_index[i] == (-1 if face_index is None else face_index)
    assert regions == {Region.INTERIOR, Region.FACE, Region.OUTSIDE}


@pytest.mark.parametrize(
    "bad_row, error",
    [
        ([-0.25, -0.25, 1.5], TiedMinimumError),
        ([-0.25, -0.25 + 1e-13, 1.5 - 1e-13], TiedMinimumError),
        ([0.0, 0.0, 1.0], MultipleZerosError),
        ([1e-13, -1e-13, 1.0], MultipleZerosError),
    ],
    ids=["exact-tie", "near-tie", "two-zeros", "two-near-zeros"],
)
def test_rule_names_unsupported_rows(bad_row, error):
    rows = np.array([[0.2, 0.3, 0.5], bad_row, [-0.1, 0.5, 0.6], bad_row])
    for apply in (project_rows, zero_parts):
        with pytest.raises(error) as excinfo:
            apply(rows)
        assert str(excinfo.value).endswith(": 2, 4")
    if error is MultipleZerosError:
        assert excinfo.value.rows == (2, 4)


def test_near_tie_limit_is_zero_tol_after_the_pull():
    # the second part lands at 1e-10 / 1.75 after the pull, above ZERO_TOL: not a tie
    parts, zero_index = project_rows(np.array([[-0.25, -0.25 + 1e-10, 1.5 - 1e-10]]))
    assert zero_index[0] == 0 and parts[0, 1] == pytest.approx(1e-10 / 1.75, rel=1e-5)


def test_project_rows_empty_and_shape_check():
    parts, zero_index = project_rows(np.empty((0, 4)))
    assert parts.shape == (0, 4) and zero_index.shape == (0,)
    with pytest.raises(ValueError):
        project_rows([0.2, 0.3, 0.5])


# --- Gram-Schmidt rotation ----------------------------------------------------


def test_rotation_two_dimensional():
    b = gram_schmidt_rotation(np.array([3.0, 4.0]))
    np.testing.assert_allclose(b @ np.array([3.0, 4.0]), [5.0, 0.0], atol=1e-12)


def test_rotation_identity_when_on_axis():
    for d in (2, 4, 7):
        y = np.zeros(d)
        y[0] = 2.5
        np.testing.assert_allclose(gram_schmidt_rotation(y), np.eye(d), atol=1e-15)


def test_rotation_orthonormal_random_directions():
    rng = np.random.default_rng(8)
    for _ in range(100):
        d = int(rng.integers(2, 10))
        y = rng.normal(size=d)
        b = gram_schmidt_rotation(y)
        np.testing.assert_allclose(b @ b.T, np.eye(d), atol=1e-10)
        z = b @ y
        assert z[0] == pytest.approx(np.linalg.norm(y), rel=1e-12)
        assert np.abs(z[1:]).max() < 1e-10
        assert abs(abs(np.linalg.det(b)) - 1.0) < 1e-8


def test_rotation_preserves_norms():
    rng = np.random.default_rng(9)
    b = gram_schmidt_rotation(rng.normal(size=5))
    for _ in range(100):
        v = rng.normal(size=5)
        assert np.linalg.norm(b @ v) == pytest.approx(np.linalg.norm(v), abs=1e-10)


def test_rotation_scale_invariant():
    rng = np.random.default_rng(10)
    y = rng.normal(size=4)
    np.testing.assert_allclose(
        gram_schmidt_rotation(y), gram_schmidt_rotation(17.5 * y), atol=1e-14
    )


def test_rotation_nearly_aligned_direction_stays_orthonormal():
    # candidate basis vector almost parallel to the direction exercises the skip rule
    y = np.array([1.0, 1e-9, 1e-9, 1e-9])
    b = gram_schmidt_rotation(y)
    np.testing.assert_allclose(b @ b.T, np.eye(4), atol=1e-12)


def test_rotation_rejects_zero_vector():
    with pytest.raises(ValueError):
        gram_schmidt_rotation(np.zeros(3))
