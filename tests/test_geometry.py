"""Boundary rule (which part is zero, and the pull onto a face) and Gram-Schmidt rotation tests."""

import numpy as np
import pytest
from reference import BLOCK_PARTS, _zero_rule_argmin, project_rows_argmin, zero_parts_argmin

from zerocensored import (
    MultipleZerosError,
    TiedMinimumError,
    gram_schmidt_rotation,
    inverse_alpha_transform,
    project_rows,
    zero_parts,
)
from zerocensored.simplex import ZERO_TOL, _zero_rule, validate_compositions


def pull_one(x):
    """``project_rows`` on a single vector: (pulled composition, zero index)."""
    parts, zero_index = project_rows(np.asarray(x, float)[None, :])
    return parts[0], int(zero_index[0])


# --- which part is zero ------------------------------------------------------


def test_classify_interior():
    x = [0.2, 0.3, 0.5]
    assert zero_parts([x])[0] == -1
    np.testing.assert_array_equal(pull_one(x)[0], x)


def test_classify_face():
    x = [0.0, 0.4, 0.6]
    assert zero_parts([x])[0] == 0
    np.testing.assert_array_equal(pull_one(x)[0], x)


def test_classify_outside():
    # an outside row reports the part that becomes zero under the pull, and is moved
    x = [-0.1, 0.5, 0.6]
    assert zero_parts([x])[0] == 0
    assert not np.array_equal(pull_one(x)[0], x)


def test_classify_rejects_two_zeros():
    with pytest.raises(MultipleZerosError):
        zero_parts([[0.0, 0.0, 1.0]])


def test_classify_rejects_tied_negative_minimum():
    with pytest.raises(TiedMinimumError):
        zero_parts([[-0.1, -0.1, 1.2]])


# --- boundary pull -----------------------------------------------------------


def solve_pull_scale(x):
    # independent route: solve 1/D + t (x_j - 1/D) = 0 at the argmin component
    x = np.asarray(x, float)
    j = np.argmin(x)
    centre = 1.0 / x.size
    return centre / (centre - x[j])


def pull_scale_of(x, pulled):
    """The t of pulled = c + t (x - c), read off the largest part, which is never the zero."""
    x = np.asarray(x, float)
    centre = 1.0 / x.size
    j = np.argmax(x)
    return (pulled[j] - centre) / (x[j] - centre)


def test_projection_hand_example():
    x = [-0.1, 0.5, 0.6]
    composition, zero_index = pull_one(x)
    scale = pull_scale_of(x, composition)
    assert scale == pytest.approx(1 / 1.3, rel=1e-14)
    assert scale == pytest.approx(solve_pull_scale(x), rel=1e-14)
    assert zero_index == 0
    np.testing.assert_allclose(composition, [0.0, 0.6 / 1.3, 0.7 / 1.3], atol=1e-15)
    assert composition.sum() == pytest.approx(1.0, abs=1e-12)


def test_projection_continuity_near_boundary():
    x = np.array([-1e-9, 0.5, 0.5 + 1e-9])
    composition, _ = pull_one(x)
    assert pull_scale_of(x, composition) == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(composition, [0.0, 0.5, 0.5], atol=1e-8)


def test_projection_collinearity_and_invariants():
    rng = np.random.default_rng(7)
    n_checked = 0
    for _ in range(10_000):
        n_parts = int(rng.integers(3, 7))
        y = rng.normal(scale=2.0, size=n_parts - 1)
        x, inside = inverse_alpha_transform(y, 1.0)
        if inside:
            continue
        composition, zero_index = pull_one(x)
        n_checked += 1
        centre = np.full(n_parts, 1.0 / n_parts)
        # collinearity via the Gram determinant of (x - c, p - c)
        a, b = x - centre, composition - centre
        gram = np.array([[a @ a, a @ b], [a @ b, b @ b]])
        assert abs(np.linalg.det(gram)) < 1e-12
        assert zero_index == np.argmin(x)
        assert composition[zero_index] == 0.0
        others = np.delete(composition, zero_index)
        assert others.min() > 0
        assert composition.sum() == pytest.approx(1.0, abs=1e-10)
        assert 0.0 < pull_scale_of(x, composition) < 1.0
    assert n_checked > 1000  # the latent scale must actually produce escapes


def test_projection_rejects_exact_ties():
    with pytest.raises(TiedMinimumError):
        pull_one([-0.25, -0.25, 1.5])


# --- vectorized rule ---------------------------------------------------------


@pytest.mark.parametrize("n_parts", [3, 10])
def test_project_rows_matches_scalar_reference_row_by_row(n_parts):
    rng = np.random.default_rng(11 + n_parts)
    x, _ = inverse_alpha_transform(rng.normal(scale=1.5, size=(2000, n_parts - 1)), 1.0)
    x[:50] = project_rows(x[:50])[0]  # rows already on a face
    parts, zero_index = project_rows(x)
    np.testing.assert_array_equal(zero_parts(x), zero_index)
    centre = 1.0 / n_parts
    outside = x.min(axis=1) < -1e-12
    on_face = ~outside & (np.abs(x) <= 1e-12).any(axis=1)
    assert outside.any() and on_face.any() and (~outside & ~on_face).any()
    for i, row in enumerate(x):
        if outside[i]:
            # the closed-form pull: c + t (x - c) with t = c / (c - x_min), the zero part set to 0
            j = int(np.argmin(row))
            ref = centre + solve_pull_scale(row) * (row - centre)
            ref[j] = 0.0
            np.testing.assert_allclose(parts[i], ref, rtol=0, atol=1e-15)
            assert parts[i, j] == 0.0
            assert zero_index[i] == j
        else:
            np.testing.assert_array_equal(parts[i], np.where(np.abs(row) <= 1e-12, 0.0, row))
            assert zero_index[i] == (int(np.argmin(row)) if on_face[i] else -1)


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


def rule_outcome(apply, x):
    """The arrays a boundary-rule function returns for x, or the type, text and rows of the error it raises."""
    try:
        result = apply(x)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "rows", None)
    return result if isinstance(result, tuple) else (result,)


def assert_same_outcome(got, want):
    """Two ``rule_outcome`` results agree: the same bits, dtypes and shapes, or the same error, text and rows."""
    if isinstance(want[0], type):
        assert got == want
        return
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def assert_rule_matches_the_argmin_oracle(x):
    """``zero_parts`` and ``project_rows`` give the row-wise oracle's bits, dtypes and errors on x;
    returns ``zero_parts``' outcome."""
    for apply, oracle in ((zero_parts, zero_parts_argmin), (project_rows, project_rows_argmin)):
        assert_same_outcome(rule_outcome(apply, x), rule_outcome(oracle, x))
    return rule_outcome(zero_parts, x)


def assert_ingest_matches_the_rule(x):
    """On compositions, ingest's zero index (``validate_compositions``) gives ``zero_parts``' bits, dtype and
    errors; returns ingest's outcome."""
    got = rule_outcome(lambda rows: validate_compositions(rows)[1], x)
    assert_same_outcome(got, rule_outcome(zero_parts, x))
    return got


def escaping_rows(n_parts, n, seed):
    x, _ = inverse_alpha_transform(np.random.default_rng(seed).normal(scale=0.6, size=(n, n_parts - 1)), 1.0)
    return x


@pytest.mark.parametrize("n_parts", BLOCK_PARTS)
def test_rule_matches_the_argmin_oracle_on_random_and_face_rows(n_parts):
    x = escaping_rows(n_parts, 5000, seed=70 + n_parts)
    escaped = zero_parts_argmin(x) >= 0
    assert escaped.any() and not escaped.all()
    faces = project_rows_argmin(x[escaped])[0]  # the same rows, already on a face
    (zero_index,) = assert_rule_matches_the_argmin_oracle(np.concatenate([x, faces]))
    np.testing.assert_array_equal(zero_index[x.shape[0] :], zero_index[: x.shape[0]][escaped])
    (ingested,) = assert_ingest_matches_the_rule(np.concatenate([x[~escaped], faces]))  # the rows ingest accepts
    assert (ingested < 0).sum() == (~escaped).sum() and (ingested >= 0).sum() == escaped.sum()


@pytest.mark.parametrize("n_parts", BLOCK_PARTS)
def test_rule_matches_the_argmin_oracle_on_ties_and_near_ties(n_parts):
    # Each case row sits at rows 3 and 6 of nine escaping rows, so errors must name "3, 6".
    good = escaping_rows(n_parts, 1000, seed=90 + n_parts)
    good = good[zero_parts_argmin(good) >= 0][:9]
    base = good[0]
    j0 = int(np.argmin(base))
    j1 = (j0 + 1) % n_parts
    limit = base[j0] + ZERO_TOL * (1.0 - n_parts * base[j0])  # largest second part the pull calls a zero
    cases = [base[j0]] + [np.nextafter(limit, side) for side in (-np.inf, np.inf)] + [limit]
    rows = []
    for value in cases:
        row = base.copy()
        row[j1] = value
        rows.append(row)
    compositions = []  # the face rows closed to unit sum, which ingest accepts; two parts cannot be closed
    for first in (0.0, -ZERO_TOL, ZERO_TOL):  # a face row with a second part on either side of ZERO_TOL
        for second in (ZERO_TOL, np.nextafter(ZERO_TOL, np.inf), np.nextafter(ZERO_TOL, -np.inf), 0.0):
            row = np.full(n_parts, 1.0 / (n_parts - 1))
            row[j0], row[j1] = first, second
            rows.append(row)
            if n_parts > 2:
                row = np.full(n_parts, (1.0 - first - second) / (n_parts - 2))
                row[j0], row[j1] = first, second
                compositions.append(row)
    raised = 0
    for row in rows:
        x = good.copy()
        x[[2, 5]] = row
        outcome = assert_rule_matches_the_argmin_oracle(x)
        if isinstance(outcome[0], type):
            raised += 1
            assert outcome[1].endswith(": 3, 6")
    assert 0 < raised < len(rows)
    faces = project_rows_argmin(good)[0]
    raised = 0
    for row in compositions:
        x = faces.copy()
        x[[2, 5]] = row
        outcome = assert_ingest_matches_the_rule(x)
        if isinstance(outcome[0], type):
            raised += 1
            assert outcome[0] is MultipleZerosError and outcome[1].endswith(": 3, 6") and outcome[2] == (3, 6)
    assert n_parts == 2 or 0 < raised < len(compositions)


def column_rule(x):
    """The rule as the zero rates call it: on the parts stored by column, into a reused mask."""
    return _zero_rule(np.ascontiguousarray(x.T), out=np.empty(x.T.shape, dtype=bool))


@pytest.mark.parametrize("n_parts", BLOCK_PARTS)
def test_every_route_to_the_rule_raises_as_the_argmin_oracle(n_parts):
    good = escaping_rows(n_parts, 1000, seed=110 + n_parts)[:40]
    tied = np.full(n_parts, 1.0 / n_parts)
    tied[:2] = -0.25
    two_zeros = np.full(n_parts, 1.0 / n_parts)
    two_zeros[-2:] = 0.0
    mixed = good[:9].copy()
    mixed[[3, 8]] = tied  # after the two-zero row: the tie is still the one named
    mixed[[1, 6]] = two_zeros
    many_two_zeros = good.copy()
    many_two_zeros[2::3] = two_zeros
    many_ties = many_two_zeros.copy()
    many_ties[1::3] = tied
    expected = [
        (TiedMinimumError, ": 4, 9"),
        (MultipleZerosError, ": 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, ..."),
        (TiedMinimumError, ": 2, 5, 8, 11, 14, 17, 20, 23, 26, 29, ..."),
    ]
    for x, (error, rows) in zip((mixed, many_two_zeros, many_ties), expected, strict=True):
        want = rule_outcome(_zero_rule_argmin, x)
        assert want[0] is error and want[1].endswith(rows)
        for apply in (zero_parts, project_rows, column_rule):
            assert rule_outcome(apply, x) == want


def test_rule_counts_past_255_zeros_in_a_row():
    # The rule counts a row's zeros in one byte up to 255 parts; past that a byte would wrap to 0 zeros.
    row = np.zeros(257)
    row[0] = 1.0
    for apply in (zero_parts, project_rows):
        with pytest.raises(MultipleZerosError):
            apply(row[None, :])


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
