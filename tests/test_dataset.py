"""Dataset container and transformation pipeline tests."""

import numpy as np
import pytest

from zerocensored import (
    CompositionalDataset,
    MultipleZerosError,
    inverse_alpha_transform,
    transform_dataset,
)


def small_dataset():
    rows = np.array(
        [
            [0.2, 0.3, 0.5],
            [0.0, 0.4, 0.6],
            [0.7, 0.2, 0.1],
            [0.5, 0.5, 0.0],
        ]
    )
    return CompositionalDataset.from_array(rows, names=("a", "b", "c"))


def test_from_array_partitions_rows():
    ds = small_dataset()
    assert ds.n_obs == 4 and ds.n_parts == 3
    assert ds.n_interior == 2 and ds.n_face == 2
    np.testing.assert_array_equal(ds.zero_index, [-1, 0, -1, 2])
    np.testing.assert_array_equal(ds.face_zero_index, [0, 2])
    np.testing.assert_allclose(ds.interior_parts, [[0.2, 0.3, 0.5], [0.7, 0.2, 0.1]])


def test_observed_zero_counts():
    np.testing.assert_array_equal(small_dataset().observed_zero_counts(), [1, 0, 1])


def test_from_array_rejects_negative_rows():
    with pytest.raises(ValueError, match="rows 2"):
        CompositionalDataset.from_array([[0.5, 0.5, 0.0], [0.6, -0.1, 0.5]])


def test_from_array_rejects_bad_sums():
    with pytest.raises(ValueError, match=r"not summing to 1 .*: 1"):
        CompositionalDataset.from_array([[0.5, 0.6, 0.2]])


def test_from_array_recloses_with_single_warning():
    rows = [[0.5, 0.3, 0.2 + 3e-8], [0.25, 0.25, 0.5]]
    with pytest.warns(UserWarning, match="re-closed 1 row"):
        ds = CompositionalDataset.from_array(rows)
    np.testing.assert_allclose(ds.parts.sum(axis=1), 1.0, atol=1e-15)


def test_from_array_lists_multi_zero_rows():
    rows = [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    with pytest.raises(MultipleZerosError) as excinfo:
        CompositionalDataset.from_array(rows)
    assert excinfo.value.rows == (2, 3)


def test_parts_are_read_only():
    ds = small_dataset()
    with pytest.raises(ValueError):
        ds.parts[0, 0] = 0.9


def test_transform_dataset_shapes_and_names():
    sample = transform_dataset(small_dataset())
    assert sample.dim == 2 and sample.n_parts == 3
    assert sample.interior.shape == (2, 2)
    assert sample.face.shape == (2, 2)
    assert sample.names == ("a", "b", "c")
    assert sample.n_obs == 4


def test_transformed_interior_inverts_to_strictly_positive():
    sample = transform_dataset(small_dataset())
    parts, inside = inverse_alpha_transform(sample.interior, 1.0)
    assert np.all(inside)
    assert parts.min() > 0


def test_transformed_face_inverts_to_zero_at_recorded_index():
    sample = transform_dataset(small_dataset())
    parts, _ = inverse_alpha_transform(sample.face, 1.0)
    for i, row in enumerate(parts):
        assert abs(row[sample.face_zero_index[i]]) < 1e-10
        rest = np.delete(row, sample.face_zero_index[i])
        assert rest.min() > 0


def test_transform_rejects_face_point_at_origin():
    # The centre is interior, so a face row there can only come from corrupted input.
    ds = CompositionalDataset(parts=[[1 / 3, 1 / 3, 1 / 3]], zero_index=[0])
    with pytest.raises(ValueError, match="origin"):
        transform_dataset(ds)


def test_transformed_face_points_keep_distance_from_centre():
    rng = np.random.default_rng(11)
    rows = []
    for _ in range(50):
        w = rng.dirichlet(np.ones(3))
        rows.append([0.0, w[1] + w[0] / 2, w[2] + w[0] / 2])
    sample = transform_dataset(CompositionalDataset.from_array(rows))
    assert sample.n_face == 50
    assert np.linalg.norm(sample.face, axis=1).min() > 0.1


def test_transform_takes_no_alpha():
    # The likelihood is defined for the exponent-one transform only, so no other exponent reaches it.
    with pytest.raises(TypeError):
        transform_dataset(small_dataset(), alpha=0.5)


def test_empty_face_set_is_fine():
    ds = CompositionalDataset.from_array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2]])
    sample = transform_dataset(ds)
    assert sample.n_face == 0
    assert sample.face.shape == (0, 2)
