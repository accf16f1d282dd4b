"""Ternary diagrams for three-part compositions, rendered as standalone SVG.

The drawing embeds the composition in an equilateral triangle with vertices
(0,0), (1,0) and (1/2, sqrt(3)/2); component j of the composition weights
vertex j.  Boundary (single-zero) points are drawn as green crosses.  When a
fitted model is supplied, its latent density contours are exact ellipses in
latent space; they are mapped through the inverse exponent-one transform
(affine), so the drawn polylines are true level sets.  Contour log-density
levels and the vertex order are recorded in the SVG ``<desc>`` metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .dataset import CompositionalDataset
from .gaussian import LOG_2PI, MvnParams
from .simplex import inverse_alpha_transform

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
DEFAULT_LEVELS = 6
DEFAULT_COVERAGE = 0.99


def ternary_coordinates(parts) -> np.ndarray:
    """Map three-part compositions (last axis length 3) to 2-d triangle coordinates."""
    parts = np.asarray(parts, dtype=float)
    if parts.shape[-1] != 3:
        raise ValueError("ternary coordinates need exactly 3 parts")
    return parts @ TRIANGLE


@dataclass(frozen=True)
class ContourLine:
    """One model density contour: its log-density level and the polyline in both spaces."""

    log_density: float
    latent: np.ndarray
    parts: np.ndarray


def density_contours(
    model: MvnParams,
    *,
    n_levels: int = DEFAULT_LEVELS,
    coverage: float = DEFAULT_COVERAGE,
    n_points: int = 241,
) -> list[ContourLine]:
    """Level sets of the latent normal, mapped to composition coordinates.

    Levels step the log-density in ``n_levels`` equal decrements from the
    peak down to the density at the Mahalanobis radius covering ``coverage``
    probability mass, so the outermost contour is the coverage ellipse.
    """
    if model.dim != 2:
        raise ValueError("density contours are drawn for 2-d latent models (3 parts) only")
    r_max = math.sqrt(chi2.ppf(coverage, df=2))
    peak = -0.5 * (2.0 * LOG_2PI + 2.0 * float(np.sum(np.log(np.diag(model.chol)))))
    t = np.linspace(0.0, 2.0 * math.pi, n_points)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    lines = []
    for k in range(1, n_levels + 1):
        radius = r_max * math.sqrt(k / n_levels)
        latent = model.mean + radius * circle @ model.chol.T
        parts, _ = inverse_alpha_transform(latent, 1.0)
        lines.append(ContourLine(log_density=peak - 0.5 * radius**2, latent=latent, parts=parts))
    return lines


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(
    dataset: CompositionalDataset | None = None,
    model: MvnParams | None = None,
    *,
    names=None,
    width: int = 560,
    margin: float = 48.0,
) -> str:
    """Render a ternary scatter (interior dots, green boundary crosses) with optional contours."""
    if dataset is not None and dataset.n_parts != 3:
        raise ValueError(f"ternary plots need exactly 3 components, got {dataset.n_parts}")
    if names is None and dataset is not None:
        names = dataset.names
    if names is None:
        names = ("comp1", "comp2", "comp3")
    # Escaped for XML once, for the labels and the <desc> JSON (not with xml.sax.saxutils: it imports urllib).
    names = [n.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;") for n in names]

    side = width - 2.0 * margin
    height = 2.0 * margin + side * TRIANGLE[2, 1]

    def to_px(xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        px = margin + xy[:, 0] * side
        py = height - margin - xy[:, 1] * side
        return np.column_stack([px, py])

    contours = []
    meta: dict = {"vertex_order": list(names)}
    if model is not None:
        contours = density_contours(model)
        meta["contour_log_density_levels"] = [round(c.log_density, 6) for c in contours]
        meta["contour_coverage"] = DEFAULT_COVERAGE

    parts_svg: list[str] = []
    parts_svg.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height:.0f}" '
        f'viewBox="0 0 {width} {height:.0f}">'
    )
    parts_svg.append(f"<desc>{json.dumps(meta, sort_keys=True)}</desc>")
    parts_svg.append(f'<rect width="{width}" height="{height:.0f}" fill="white"/>')

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

    for line in contours:
        pts = to_px(ternary_coordinates(line.parts))
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        parts_svg.append(
            f'<polyline points="{path}" fill="none" stroke="#4878b0" stroke-width="1.0"/>'
        )

    if dataset is not None and dataset.n_obs:
        interior_px = to_px(ternary_coordinates(dataset.interior_parts)) if dataset.n_interior else []
        for x, y in interior_px:
            parts_svg.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.2" fill="#303030"/>')
        face_px = to_px(ternary_coordinates(dataset.face_parts)) if dataset.n_face else []
        arm = 3.2
        for x, y in face_px:
            parts_svg.append(
                f'<path d="M {_fmt(x - arm)} {_fmt(y)} H {_fmt(x + arm)} '
                f'M {_fmt(x)} {_fmt(y - arm)} V {_fmt(y + arm)}" '
                f'stroke="green" stroke-width="1.4" fill="none"/>'
            )

    parts_svg.append("</svg>")
    return "\n".join(parts_svg) + "\n"
