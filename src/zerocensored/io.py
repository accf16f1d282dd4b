"""CSV and JSON interchange.

CSV conventions: comma-separated, UTF-8, a header row of component names,
decimal-point reals, no thousands separators.  Zeros are written literally as
``0``; other values use ``repr`` so a write/read round trip is lossless.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .dataset import CompositionalDataset
from .diagnostics import ZeroDiagnostics
from .likelihood import FittedModel
from .simplex import RECLOSE_TOL, _close_rows, format_rows


def _parse_rows(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if all(_is_number(cell) for cell in header):
            raise ValueError(f"{path}: missing header row (first line is numeric)")
        rows = []
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ValueError(f"{path}: row {lineno} contains a non-numeric value") from None
    if not rows:
        return header, np.empty((0, len(header)))
    return header, np.asarray(rows, dtype=float)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_compositions_csv(path, *, apply_closure: bool = False) -> CompositionalDataset:
    """Read a dataset of compositions, or of raw amounts when ``apply_closure`` is set.

    Closed rows are validated once, by ``CompositionalDataset.from_array``.
    """
    header, values = _parse_rows(path)
    if apply_closure:
        values = _close_rows(values)
    return CompositionalDataset.from_array(values, names=header)


def _format_value(v: float) -> str:
    return "0" if v == 0.0 else repr(float(v))


def write_compositions_csv(path, dataset: CompositionalDataset) -> None:
    names = dataset.names or tuple(f"comp{i + 1}" for i in range(dataset.n_parts))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in dataset.parts:
            writer.writerow([_format_value(v) for v in row])


def read_latent_csv(path) -> tuple[list[str], np.ndarray]:
    """Read unit-sum latent vectors (negative parts allowed, e.g. points awaiting projection).

    Sums off by at most ``RECLOSE_TOL`` are repaired by spreading the deficit uniformly,
    which moves the point orthogonally to the unit-sum hyperplane.  Rows with
    a non-finite value are rejected.
    """
    header, values = _parse_rows(path)
    if values.shape[0]:
        sums = values.sum(axis=1)
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= RECLOSE_TOL)) + 1  # a NaN sum fails too
        if bad.size:
            raise ValueError(f"{path}: rows not finite or not summing to 1: {format_rows(bad)}")
        values = values + ((1.0 - sums) / values.shape[1])[:, None]
    return header, values


def read_model_json(path) -> FittedModel:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed model JSON ({exc})") from exc
    try:
        return FittedModel.from_dict(doc)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: model JSON is missing field {exc}") from exc


def write_model_json(path, model: FittedModel) -> None:
    Path(path).write_text(model.to_json(indent=2) + "\n", encoding="utf-8")


def write_diagnostics_json(path, diag: ZeroDiagnostics) -> None:
    Path(path).write_text(diag.to_json(indent=2) + "\n", encoding="utf-8")
