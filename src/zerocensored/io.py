"""CSV and JSON interchange.

``io`` owns both JSON formats, the model's and the diagnostics'.  Each file
has one writer, which builds its document and writes strict, indented JSON
with a non-finite number as null, and a model file has one reader,
``read_model_json``, which checks every field's JSON type and the parameters
before it builds the ``FittedModel``.

CSV conventions: comma-separated, UTF-8, a header row of component names,
decimal-point reals, no thousands separators.  Zeros are written literally as
``0``; other values use ``repr`` so a write/read round trip is lossless.
Written rows end in CRLF, as ``csv.writer`` ends them.  The writer takes a
dataset or an iterable of row blocks, each written as it is pulled and
formatted ``WRITE_BLOCK`` rows at a time, so a streamed file is never whole
in memory, and both forms give the same bytes.  Every file the package
writes, CSV, JSON or SVG, goes through ``write_file``: a new path or an
existing regular file is written through a hidden temporary file in its
directory and renamed into place on success, so a write that fails leaves
what was there.

Reading is one bulk ``np.loadtxt`` parse of the rows after the header.  A file
it does not accept with the header's column count (no data rows, a blank-cell
or quoted row, anything it cannot parse) goes to the row-by-row checker, which
returns the same values for every file both accept and names the offending row
of a rejected file.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .dataset import CompositionalDataset, part_names
from .diagnostics import ZeroDiagnostics
from .gaussian import MvnParams
from .likelihood import FittedModel
from .simplex import RECLOSE_TOL, _close_rows, format_rows


#: Rows formatted per write; bounds the text held in memory at once (a 2.3 MB traced peak
#: at 20 parts, for 0.4 MB of output).  Writing takes as long at 1024 rows as at 4096.
WRITE_BLOCK = 1024


def _read_header(path, fh):
    """The header of an open CSV file, less a leading byte-order mark, and the reader that goes on after it."""
    first = fh.readline().removeprefix("\ufeff")  # as the "utf-8-sig" codec drops it, without loading that codec
    reader = csv.reader(itertools.chain([first] if first else [], fh))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    except csv.Error as exc:
        raise ValueError(f"{path}: header row is not valid CSV ({exc})") from None
    header = [h.strip() for h in header]
    if all(_is_number(cell) for cell in header):
        raise ValueError(f"{path}: missing header row (first line is numeric)")
    return header, reader


def _parse_rows(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        header = _read_header(path, fh)[0]
        # A file with no data line never reaches loadtxt, which warns on it.
        first = next((line for line in fh if line.strip()), None)
        if first is not None:
            try:
                # comments=None: the checker rejects a "#" in a cell, so loadtxt must too.
                values = np.loadtxt(
                    itertools.chain([first], fh), delimiter=",", comments=None, ndmin=2, dtype=float
                )
            except ValueError:
                pass
            else:
                if values.shape[1] == len(header):
                    return header, values
    return _parse_rows_checked(path)


def _parse_rows_checked(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, reader = _read_header(path, fh)
        rows = []
        lineno = 0
        try:
            for lineno, row in enumerate(reader, start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(header):
                    raise ValueError(f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}")
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError:
                    raise ValueError(f"{path}: row {lineno} contains a non-numeric value") from None
        except csv.Error as exc:
            # The csv module's own error (e.g. a cell over its field size limit) is not a ValueError.
            raise ValueError(f"{path}: row {lineno + 1} is not valid CSV ({exc})") from None
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


def write_compositions_csv(path, data, *, n_parts: int | None = None) -> None:
    """Write a ``CompositionalDataset``, or an iterable of (m, ``n_parts``) row blocks under the default names.

    Blocks are pulled one at a time and each is written before the next is
    pulled, through ``write_file``, so a block the iterable raises on leaves
    no file or the older one, except at a target written in place, which
    keeps the rows before the failing block.
    """
    if isinstance(data, CompositionalDataset):
        names, n_parts, blocks = data.names, data.n_parts, [data.parts]
    else:
        names, blocks = None, data
    row_format = ",".join(["{}"] * n_parts) + "\r\n"

    def write(fh) -> None:
        csv.writer(fh).writerow(part_names(names, n_parts))
        for block in blocks:
            for start in range(0, len(block), WRITE_BLOCK):
                fh.write(_format_rows(row_format, block[start : start + WRITE_BLOCK]))
            del block  # not alive while the next block is pulled

    write_file(path, write)


def write_file(path, write) -> None:
    """Call ``write`` on an open UTF-8 text file whose contents become ``path``.

    A new path, or an existing regular file that is not a symlink, is written
    through ``_temporary_beside`` and replaced only once ``write`` returns, so
    a write that fails leaves no file or the older one; a replaced file keeps
    its permission bits.  Any other target (``/dev/stdout``, a FIFO, a
    symlink) is written in place.
    """
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write(fh)
        return
    fh, temporary = _temporary_beside(path)
    try:
        with fh:
            if mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(mode))
            write(fh)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _temporary_beside(path):
    """A new hidden text file in ``path``'s directory, created as ``open(path, "w")`` would create ``path``.

    An error names ``path``, not the temporary name.
    """
    path = Path(path)
    for attempt in itertools.count():
        temporary = path.with_name(f".{path.name}.{os.getpid()}-{attempt}.tmp")
        try:
            return open(temporary, "x", newline="", encoding="utf-8"), temporary
        except FileExistsError:
            continue
        except OSError as exc:
            exc.filename = os.fspath(path)
            raise


def _format_rows(row_format: str, rows: np.ndarray) -> str:
    """The text of up to ``WRITE_BLOCK`` rows; its cell strings are freed on return, before the next block."""
    cells = list(map(repr, rows.ravel().tolist()))
    for i in np.flatnonzero(rows == 0.0).tolist():
        cells[i] = "0"
    return (row_format * len(rows)).format(*cells)


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
        values += ((1.0 - sums) / values.shape[1])[:, None]
    return header, values


def _json_number(value) -> bool:
    # By exact type, as a JSON true or false is a bool, not a number; an integer must also convert to a float.
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def _json_numbers(value) -> bool:
    return type(value) is list and all(map(_json_number, value))


def _or_null(kind: str, test):
    return f"{kind} or null", lambda value: value is None or test(value)


_INTEGER = ("an integer", lambda value: type(value) is int)
_NUMBER_OR_NULL, _INTEGER_OR_NULL = _or_null("a number", _json_number), _or_null(*_INTEGER)
#: What each model JSON field must hold, and the test of it, in the written order.
_MODEL_FIELDS = {
    "mean": ("an array of numbers", _json_numbers),
    "cov": ("an array of arrays of numbers", lambda value: type(value) is list and all(map(_json_numbers, value))),
    "loglik": _NUMBER_OR_NULL,
    "converged": ("true or false", lambda value: type(value) is bool),
    "iterations": _INTEGER,
    "gradient_norm": _NUMBER_OR_NULL,
    "evaluations": _INTEGER_OR_NULL,
    "message": _or_null("a string", lambda value: type(value) is str),
    "D": _INTEGER, "n1": _INTEGER, "n2": _INTEGER,
    "seed": _INTEGER_OR_NULL,
}
#: Fields that a file written before they existed leaves out; they read back as None, or NaN for ``gradient_norm``.
_MODEL_OPTIONAL = {"gradient_norm", "evaluations", "message", "seed"}


def read_model_json(path) -> FittedModel:
    """Read a model JSON file and check it before any command uses it.

    The document must be an object with no field outside ``_MODEL_FIELDS``,
    so a misspelled field is no silent default, and its fields must have the
    JSON types there, so a bool or a numeric string is no number, ``D`` must
    be the mean's length plus one, and the mean and covariance must pass
    ``MvnParams``; each error names the file.  A null ``loglik`` or
    ``gradient_norm``, or a missing ``gradient_norm``, reads back as NaN,
    and another missing field of ``_MODEL_OPTIONAL`` as None.  A leading
    byte-order mark is skipped, as in a CSV file.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read().removeprefix("\ufeff")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed model JSON ({exc})") from exc
    if type(doc) is not dict:
        raise ValueError(f"{path}: model JSON is not an object")
    for key in doc:
        if key not in _MODEL_FIELDS:
            raise ValueError(f"{path}: model JSON has an unknown field {key!r}")
    for key, (kind, test) in _MODEL_FIELDS.items():
        if key in doc:
            if not test(doc[key]):
                raise ValueError(f"{path}: model JSON has a value of the wrong type ({key} must be {kind})")
        elif key not in _MODEL_OPTIONAL:
            raise ValueError(f"{path}: model JSON is missing field {key!r}")
    if doc["D"] != len(doc["mean"]) + 1:
        raise ValueError(f"{path}: model JSON has D = {doc['D']} but a mean of length {len(doc['mean'])}")
    try:
        params = MvnParams(doc["mean"], doc["cov"])
    except ValueError as exc:
        raise ValueError(f"{path}: invalid model parameters ({exc})") from exc
    return FittedModel(
        mean=params.mean,
        cov=params.cov,
        loglik=_float_or_nan(doc["loglik"]),
        iterations=doc["iterations"],
        converged=doc["converged"],
        gradient_norm=_float_or_nan(doc.get("gradient_norm")),
        n_parts=doc["D"],
        n_interior=doc["n1"],
        n_face=doc["n2"],
        seed=doc.get("seed"),
        evaluations=doc.get("evaluations"),
        message=doc.get("message"),
    )


def _json_float(value) -> float | None:
    """Strict JSON has no NaN or infinity: a non-finite value (or None) is written as null."""
    return None if value is None or not math.isfinite(value) else float(value)


def _float_or_nan(value) -> float:
    return math.nan if value is None else float(value)


def write_model_json(path, model: FittedModel) -> None:
    doc = {
        "mean": [float(v) for v in model.mean],
        "cov": [[float(v) for v in row] for row in model.cov],
        "loglik": _json_float(model.loglik),
        "converged": bool(model.converged),
        "iterations": int(model.iterations),
        "gradient_norm": _json_float(model.gradient_norm),
        "evaluations": None if model.evaluations is None else int(model.evaluations),
        "message": model.message,
        "D": int(model.n_parts),
        "n1": int(model.n_interior),
        "n2": int(model.n_face),
        "seed": None if model.seed is None else int(model.seed),
    }
    write_file(path, lambda fh: fh.write(json.dumps(doc, allow_nan=False, indent=2) + "\n"))


def write_diagnostics_json(path, diag: ZeroDiagnostics) -> None:
    doc = {
        "names": None if diag.names is None else list(diag.names),
        "observed_counts": [int(v) for v in diag.observed_counts],
        "expected_counts": [float(v) for v in diag.expected_counts],
        "observed_rates": [float(v) for v in diag.observed_rates],
        "expected_rates": [float(v) for v in diag.expected_rates],
        "chi_square": _json_float(diag.chi_square),
        "mc_pvalue": None if diag.mc_pvalue is None else float(diag.mc_pvalue),
        "n_observations": int(diag.n_observations),
        "n_sims": int(diag.n_sims),
        "n_replicates": None if diag.n_replicates is None else int(diag.n_replicates),
        "seed": int(diag.seed),
    }
    write_file(path, lambda fh: fh.write(json.dumps(doc, allow_nan=False, indent=2) + "\n"))
