"""Ternary diagrams for three-part compositions, rendered as standalone SVG.

The drawing embeds the composition in an equilateral triangle with vertices
(0,0), (1,0) and (1/2, sqrt(3)/2); component j of the composition weights
vertex j.  Boundary (single-zero) points are drawn as green crosses.  When a
fitted model is supplied, its latent density contours are exact ellipses in
latent space; they are mapped through the inverse exponent-one transform
(affine), so the drawn polylines are true level sets.  The outermost one is
the ``COVERAGE`` ellipse, whose squared Mahalanobis radius is the chi-square
(2 degrees of freedom, i.e. exponential with mean 2) quantile
``-2 log(1 - COVERAGE)``.  Contour log-density levels and the vertex order are
recorded in the SVG ``<desc>`` metadata.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .dataset import CompositionalDataset, part_names
from .gaussian import LOG_2PI, MvnParams
from .simplex import inverse_alpha_transform

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
#: Contours drawn per model, and the probability mass inside the outermost one.
N_LEVELS = 6
COVERAGE = 0.99
#: Points per contour polyline (the first and last coincide).
N_POINTS = 241
#: SVG width and the margin around the triangle, in pixels.
WIDTH = 560
MARGIN = 48.0


def _ternary_coordinates(parts) -> np.ndarray:
    """Map three-part compositions (last axis length 3) to 2-d triangle coordinates."""
    parts = np.asarray(parts, dtype=float)
    if parts.shape[-1] != 3:
        raise ValueError("ternary coordinates need exactly 3 parts")
    return parts @ TRIANGLE


def _density_contours(model: MvnParams) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Level sets of the latent normal as (log_density, latent, parts) polylines.

    Levels step the log-density in ``N_LEVELS`` equal decrements from the
    peak down to the density at the Mahalanobis radius covering ``COVERAGE``
    probability mass, so the outermost contour is the coverage ellipse.
    Each polyline has ``N_POINTS`` points, in latent and in composition
    coordinates.
    """
    if model.dim != 2:
        raise ValueError("model is not 3-part; cannot draw contours")
    r_max = math.sqrt(-2.0 * math.log1p(-COVERAGE))
    peak = -0.5 * (2.0 * LOG_2PI + 2.0 * float(np.sum(np.log(np.diag(model.chol)))))
    t = np.linspace(0.0, 2.0 * math.pi, N_POINTS)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    lines = []
    for k in range(1, N_LEVELS + 1):
        radius = r_max * math.sqrt(k / N_LEVELS)
        latent = model.mean + radius * circle @ model.chol.T
        parts, _ = inverse_alpha_transform(latent, 1.0)
        lines.append((peak - 0.5 * radius**2, latent, parts))
    return lines


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(dataset: CompositionalDataset, model: MvnParams | None = None) -> str:
    """Render a ternary scatter (interior dots, green boundary crosses) with optional contours.

    An empty dataset draws the frame alone, and a dataset or model that is
    not 3-part is a ``ValueError``.  Vertex labels are the dataset's part
    names, or ``comp1``..``comp3`` when it has none.  The drawing is
    ``WIDTH`` pixels wide with a ``MARGIN`` around the triangle.
    """
    if dataset.n_parts != 3:
        raise ValueError(
            f"ternary plots need exactly 3 components, got {dataset.n_parts} (the model itself has no such limit)"
        )
    names = part_names(dataset.names, 3)
    # Escaped for XML once, for the labels and the <desc> JSON (not with xml.sax.saxutils: it imports urllib).
    names = [n.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;") for n in names]

    side = WIDTH - 2.0 * MARGIN
    height = 2.0 * MARGIN + side * TRIANGLE[2, 1]

    def to_px(xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        px = MARGIN + xy[:, 0] * side
        py = height - MARGIN - xy[:, 1] * side
        return np.column_stack([px, py])

    contours = []
    meta: dict = {"vertex_order": list(names)}
    if model is not None:
        contours = _density_contours(model)
        meta["contour_log_density_levels"] = [round(level, 6) for level, _, _ in contours]
        meta["contour_coverage"] = COVERAGE

    parts_svg: list[str] = []
    parts_svg.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height:.0f}" '
        f'viewBox="0 0 {WIDTH} {height:.0f}">'
    )
    parts_svg.append(f"<desc>{json.dumps(meta, sort_keys=True)}</desc>")
    parts_svg.append(f'<rect width="{WIDTH}" height="{height:.0f}" fill="white"/>')

    tri_px = to_px(TRIANGLE)
    tri_path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in tri_px)
    parts_svg.append(f'<polygon points="{tri_path}" fill="none" stroke="black" stroke-width="1.2"/>')

    label_offsets = [(-10.0, 14.0), (10.0, 14.0), (0.0, -10.0)]
    anchors = ["end", "start", "middle"]
    for j in range(3):
        lx = tri_px[j, 0] + label_offsets[j][0]
        ly = tri_px[j, 1] + label_offsets[j][1]
        parts_svg.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" text-anchor="{anchors[j]}" '
            f'font-family="sans-serif" font-size="13">{names[j]}</text>'
        )

    for _, _, parts in contours:
        pts = to_px(_ternary_coordinates(parts))
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        parts_svg.append(
            f'<polyline points="{path}" fill="none" stroke="#4878b0" stroke-width="1.0"/>'
        )

    if dataset.n_obs:
        interior_px = to_px(_ternary_coordinates(dataset.interior_parts)) if dataset.n_interior else []
        for x, y in interior_px:
            parts_svg.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.2" fill="#303030"/>')
        face_px = to_px(_ternary_coordinates(dataset.face_parts)) if dataset.n_face else []
        arm = 3.2
        for x, y in face_px:
            parts_svg.append(
                f'<path d="M {_fmt(x - arm)} {_fmt(y)} H {_fmt(x + arm)} '
                f'M {_fmt(x)} {_fmt(y - arm)} V {_fmt(y + arm)}" '
                f'stroke="green" stroke-width="1.4" fill="none"/>'
            )

    parts_svg.append("</svg>")
    return "\n".join(parts_svg) + "\n"
