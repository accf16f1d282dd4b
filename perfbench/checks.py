"""Output checks for each CLI command of a session.

A check returns None when the output is right and a one-line reason when it is
not.  Checks run outside the timed regions.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from zerocensored.dataset import TransformedSample
from zerocensored.io import read_compositions_csv
from zerocensored.likelihood import log_likelihood

SVG_NS = "{http://www.w3.org/2000/svg}"
#: Relative agreement required between the reported and the recomputed log-likelihood.
LOGLIK_RTOL = 1e-9
#: Absolute slack on unit sums, segment residuals and the pull factor.
GEOMETRY_TOL = 1e-9


def start_point(sample: TransformedSample) -> tuple[np.ndarray, np.ndarray]:
    """The documented start of ``fit``: mean and 1/n covariance of all transformed points."""
    points = np.vstack([sample.interior, sample.face])
    mean = points.mean(axis=0)
    resid = points - mean
    return mean, resid.T @ resid / points.shape[0]


def check_fit(model_json: Path, sample: TransformedSample, references: dict) -> str | None:
    """Converged; reported loglik equals a recomputation; no worse than each reference point.

    ``references`` maps a label to (mean, cov); the generator's parameters and
    the start point are both feasible, so the maximum must reach them.
    """
    doc = json.loads(model_json.read_text(encoding="utf-8"))
    if not doc.get("converged"):
        return "fit did not converge"
    reported = float(doc["loglik"])
    recomputed = log_likelihood(sample, np.asarray(doc["mean"]), np.asarray(doc["cov"]))
    if not math.isclose(reported, recomputed, rel_tol=LOGLIK_RTOL, abs_tol=1e-9):
        return f"reported loglik {reported!r} != recomputed {recomputed!r}"
    for label, (mean, cov) in references.items():
        value = log_likelihood(sample, mean, cov)
        if reported < value:
            return f"loglik {reported!r} below the value {value!r} at the {label}"
    return None


def check_simulate(sims_csv: Path, n_rows: int, n_parts: int) -> str | None:
    """The output reads back as a valid dataset of the requested size."""
    dataset = read_compositions_csv(sims_csv)
    if dataset.n_obs != n_rows or dataset.n_parts != n_parts:
        return f"simulate wrote {dataset.n_obs} x {dataset.n_parts}, expected {n_rows} x {n_parts}"
    return None


def check_diagnose(diag_json: Path, replicates: int | None) -> str | None:
    """Every reported number is finite; the p-value is in (0, 1] exactly when replicates ran."""
    doc = json.loads(diag_json.read_text(encoding="utf-8"))
    numbers = [doc["chi_square"], *doc["expected_counts"], *doc["expected_rates"], *doc["observed_counts"]]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in numbers):
        return "non-finite or missing diagnostic field"
    pvalue = doc["mc_pvalue"]
    if replicates is None:
        return None if pvalue is None else "p-value reported without replicates"
    if not (isinstance(pvalue, float) and 0.0 < pvalue <= 1.0):
        return f"p-value {pvalue!r} outside (0, 1]"
    return None


def check_project(latent: np.ndarray, projected_csv: Path) -> str | None:
    """Every row is a composition with at most one zero, on the segment from the centre to its input."""
    out = np.loadtxt(projected_csv, delimiter=",", skiprows=1, ndmin=2)
    if out.shape != latent.shape:
        return f"project wrote shape {out.shape}, expected {latent.shape}"
    if np.any(out < 0.0) or np.any(np.abs(out.sum(axis=1) - 1.0) > GEOMETRY_TOL):
        return "projected rows are not compositions"
    if np.any((out == 0.0).sum(axis=1) > 1):
        return "a projected row has more than one zero"
    centre = 1.0 / latent.shape[1]
    direction = latent - centre
    t = np.sum((out - centre) * direction, axis=1) / np.sum(direction * direction, axis=1)
    off_line = np.abs(out - centre - t[:, None] * direction).max(axis=1)
    if np.any(off_line > GEOMETRY_TOL) or np.any(t <= 0.0) or np.any(t > 1.0 + GEOMETRY_TOL):
        return "a projected row is not on the segment to the simplex centre"
    outside = latent.min(axis=1) < 0.0
    if np.any(out[outside, latent[outside].argmin(axis=1)] != 0.0):
        return "an out-of-simplex row was not pulled onto the face of its most negative part"
    return None


def check_plot(svg_path: Path, n_rows: int) -> str | None:
    """The SVG parses as XML with one marker (interior dot or boundary cross) per row."""
    root = ET.parse(svg_path).getroot()
    markers = len(root.findall(f"{SVG_NS}circle")) + len(root.findall(f"{SVG_NS}path"))
    if markers != n_rows:
        return f"plot drew {markers} markers for {n_rows} rows"
    return None
