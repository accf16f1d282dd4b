"""Ternary coordinate and SVG rendering tests."""

import json

import numpy as np
import pytest
from scipy.stats import chi2

from zerocensored import CompositionalDataset, MvnParams, render_svg
from zerocensored.ternary import N_LEVELS, TRIANGLE, _density_contours, _ternary_coordinates

from reference import barycentric_from_xy, mvn_logpdf

MODEL = MvnParams(np.array([0.6, 0.8]), np.array([[0.15, -0.2], [-0.2, 1.5]]))


def test_vertices_map_to_triangle_corners():
    np.testing.assert_allclose(_ternary_coordinates(np.eye(3)), TRIANGLE)


def test_centre_maps_to_centroid():
    np.testing.assert_allclose(
        _ternary_coordinates(np.full(3, 1 / 3)), TRIANGLE.mean(axis=0), atol=1e-15
    )


def test_barycentric_round_trip():
    rng = np.random.default_rng(60)
    parts = rng.dirichlet(np.ones(3), size=50)
    np.testing.assert_allclose(barycentric_from_xy(_ternary_coordinates(parts)), parts, atol=1e-12)


def test_contours_lie_on_level_sets():
    from zerocensored import helmert_submatrix

    h = helmert_submatrix(3)
    contours = _density_contours(MODEL)
    assert len(contours) == 6
    for log_density, latent, parts in contours:
        # map drawn points back through the affine extension of the unit-exponent
        # transform (contours may leave the simplex) and check the density level
        latent_back = 3.0 * parts @ h.T
        levels = mvn_logpdf(latent_back, MODEL)
        assert np.abs(levels - log_density).max() < 1e-3
        np.testing.assert_allclose(latent_back, latent, atol=1e-10)


def test_outermost_contour_is_the_99_percent_ellipse():
    # squared Mahalanobis radius of the N_LEVELS-th (outermost) contour
    _, latent, _ = _density_contours(MODEL)[N_LEVELS - 1]
    resid = latent - MODEL.mean
    radius2 = np.einsum("ij,ij->i", resid @ np.linalg.inv(MODEL.cov), resid)
    np.testing.assert_allclose(radius2, chi2.ppf(0.99, df=2), rtol=0, atol=1e-12)


def test_contour_levels_decrease_outward():
    contours = _density_contours(MODEL)
    levels = [level for level, _, _ in contours]
    assert np.all(np.diff(levels) < 0)


def test_contours_need_two_dimensional_model():
    with pytest.raises(ValueError):
        _density_contours(MvnParams(np.zeros(3), np.eye(3)))


def dataset_with_faces():
    parts = np.array(
        [
            [0.2, 0.3, 0.5],
            [0.5, 0.2, 0.3],
            [0.0, 0.45, 0.55],
            [0.6, 0.4, 0.0],
        ]
    )
    return CompositionalDataset.from_array(parts, names=("a", "b", "c"))


def test_svg_scatter_and_crosses():
    svg = render_svg(dataset_with_faces(), MODEL)
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 2  # interior points
    assert svg.count('stroke="green"') == 2  # boundary crosses
    assert svg.count("<polyline") == 6  # contour lines
    assert "a</text>" in svg and "c</text>" in svg


def test_svg_metadata_records_levels():
    svg = render_svg(dataset_with_faces(), MODEL)
    desc = svg.split("<desc>")[1].split("</desc>")[0]
    meta = json.loads(desc)
    assert meta["vertex_order"] == ["a", "b", "c"]
    assert len(meta["contour_log_density_levels"]) == 6
    expected = [level for level, _, _ in _density_contours(MODEL)]
    np.testing.assert_allclose(meta["contour_log_density_levels"], expected, atol=1e-6)


def test_svg_empty_dataset_is_frame_only():
    empty = CompositionalDataset(
        parts=np.empty((0, 3)), zero_index=np.empty(0, dtype=int), names=("a", "b", "c")
    )
    svg = render_svg(empty)
    assert "<polygon" in svg
    assert "<circle" not in svg and "<polyline" not in svg


def test_svg_deterministic():
    assert render_svg(dataset_with_faces(), MODEL) == render_svg(dataset_with_faces(), MODEL)


def test_svg_rejects_non_ternary():
    ds = CompositionalDataset.from_array([[0.2, 0.3, 0.25, 0.25]])
    with pytest.raises(ValueError, match="exactly 3 components, got 4"):
        render_svg(ds)
    with pytest.raises(ValueError, match="model is not 3-part"):
        render_svg(dataset_with_faces(), MvnParams(np.zeros(3), np.eye(3)))


def test_svg_needs_a_dataset():
    with pytest.raises(TypeError, match="missing 1 required positional argument"):
        render_svg()
