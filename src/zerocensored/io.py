"""CSV and JSON interchange.

``io`` owns both JSON formats, the model's and the diagnostics'.  Each file
has one writer, which builds its document and writes strict, indented JSON
with a non-finite number as null, and a model file has one reader,
``read_model_json``, which checks every field's JSON type and the parameters
before it builds the ``FittedModel``.

CSV conventions: comma-separated, UTF-8, a header row of component names,
decimal-point reals, no thousands separators.  Zeros are written literally as
``0``; every other value is written as ``repr`` writes it, so a write/read
round trip is lossless.  Written rows end in CRLF, as ``csv.writer`` ends
them.  The writer takes a dataset or an iterable of (m, ``n_parts``) row
blocks, each written as it is pulled and formatted ``WRITE_BLOCK`` rows at a
time, so a streamed file is never whole in memory, and both forms give the
same bytes.  ``repr``'s bytes of a row whose values are all 0 or in [1e-4, 1),
which it writes as ``0.`` and digits, are computed in bulk: ``_repr_digits``
runs Ryu's shortest round-trip digit search (Adams, PLDI 2018) in NumPy
integer arithmetic over the whole block.  A row with any other value, one
below 1e-4 (subnormals too), 1.0 and above, a negative or a non-finite value,
is written by ``repr`` itself.  Every file the package writes, CSV, JSON or
SVG, goes through ``write_file``: a new path or an existing regular file is
written through a hidden temporary file in its directory and renamed into
place on success, so a write that fails leaves what was there.

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


#: Rows formatted per write; bounds what a write holds at once (a 2.6 MB traced peak at 20
#: parts, 2.2 MB by ``repr`` alone, for 0.4 MB of output).  The bulk route takes 150 to 170 ns
#: a value at 1024 rows and about 225 ns at 4096.
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
    elif n_parts is None:
        raise ValueError("writing row blocks needs n_parts, the number of columns of each block")
    else:
        names, blocks = None, data
    row_format = ",".join(["{}"] * n_parts) + "\r\n"

    def write(fh) -> None:
        csv.writer(fh).writerow(part_names(names, n_parts))
        for block in blocks:
            block = np.asarray(block, dtype=float)
            if block.ndim != 2 or block.shape[1] != n_parts:
                raise ValueError(f"a row block of shape {block.shape} is not an (m, {n_parts}) array")
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
    """The text of up to ``WRITE_BLOCK`` rows; its temporaries are freed on return, before the next block."""
    plain = (((rows >= 1e-4) & (rows < 1.0)) | (rows == 0.0)).all(axis=1)
    others = np.flatnonzero(~plain).tolist()
    if not others:
        return _format_plain_rows(rows)
    lines = _format_plain_rows(rows[plain]).split("\r\n")  # the last line is ""
    for i in others:
        lines.insert(i, _repr_rows(row_format, rows[i : i + 1]).removesuffix("\r\n"))
    return "\r\n".join(lines)


def _repr_rows(row_format: str, rows: np.ndarray) -> str:
    cells = list(map(repr, rows.ravel().tolist()))
    for i in np.flatnonzero(rows == 0.0).tolist():
        cells[i] = "0"
    return (row_format * len(rows)).format(*cells)


# The plain-row kernel does its 128-bit product and its text in np.uint64 words, with
# np.uint64 scalars throughout (uint64 mixed with a signed integer gives float64 and
# loses digits), and its digit search in int64, whose values are below 2^61.  It uses
# few kinds of NumPy loop: no bitwise operation, and comparisons and indices in int64
# and bool only, never in uint64 or uint8.  Each further kind maps another 64 KB of
# NumPy's code into every process that writes.
_U = np.uint64
#: 5^k and its low and high 32 bits, for k = 21 - dec, where dec = floor(log10 v) + 4 is 0 to 3 on [1e-4, 1).
_POW5, _POW5_LOW, _POW5_HIGH = np.array(
    [[5**k, 5**k % 2**32, 5**k >> 32] for k in range(21, 17, -1)], dtype=np.uint64
).T
#: The two ASCII digits of each z < 100 as the low bytes of a uint64 word.
_PAIRS = np.array([48 + z // 10 + (48 + z % 10 << 8) for z in range(100)], dtype=np.uint64)
#: For each of a cell's three words and each first byte of the cell's text, what to
#: subtract from the word: "0" from each byte before the text, where every byte is "0",
#: and "0" - "." from the byte after its first, except in the cell "0", the only text
#: that starts at byte 23.
_CUT = np.array(
    [
        [
            sum(48 << 8 * i for i in range(8) if w + i < start)
            + (2 << 8 * (start + 1 - w) if start < 23 and 0 <= start + 1 - w < 8 else 0)
            for start in range(24)
        ]
        for w in (0, 8, 16)
    ],
    dtype=np.uint64,
)


def _repr_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits of ``repr`` of each v in [1e-4, 1), as an int64, and the length of ``repr(v)``.

    Ryu's search (Adams, PLDI 2018), exact in 64-bit integers.  With v = m 2^e and
    k = 17 - floor(log10 v), vr, vp and vm are floor(4m, 4m + 2 and 4m - 2 times
    5^k / 2^s), s = 2 - e - k: v and the midpoints to its neighbours, scaled to 18
    digits.  A midpoint is an odd multiple of 2^(e - 1), e <= -53, so it is no decimal
    of 18 digits or fewer, and a shorter decimal reads back as v exactly when it lies
    strictly between them.  The search drops trailing digits while (vm, vp] still holds
    an integer at the next scale; 17 digits always do.  The interval is symmetric about
    v, so it then holds the integer nearest v: vr rounds half to even on the last digit
    dropped, ``exact`` recording that v 10^k is an integer and every digit dropped
    before the last was 0.  At a power of two the lower midpoint is 4m - 1, but the 13
    powers of two in [1e-4, 1) print their exact decimals, of at most 13 digits,
    either way.
    """
    bits = v.view(np.uint64)
    dec = (v >= 1e-3).astype(np.int64) + (v >= 1e-2) + (v >= 1e-1)
    exponent = bits >> _U(52)
    t = _U(1024) + dec.view(np.uint64) - exponent  # s - 32, for s = 1077 - biased exponent - k
    # 4m 5^k from 32-bit limbs: 4m < 2^55 and 5^k < 2^49, so every partial product fits,
    # and 34 <= s <= 50.
    a0 = (bits - (exponent << _U(52)) + _U(2**52)) << _U(2)  # 4m
    del exponent
    a1 = a0 >> _U(32)
    a0 -= a1 << _U(32)
    b0, b1 = _POW5_LOW[dec], _POW5_HIGH[dec]
    low = a0 * b0
    carry = low >> _U(32)
    middle = a1 * b0 + a0 * b1 + carry
    del a0, b0
    high = middle >> t
    vr = a1 * b1
    vr <<= _U(32) - t
    vr += high
    rest = ((middle - (high << t)) << _U(32)) + low - (carry << _U(32))  # 4m 5^k mod 2^s
    del a1, b1, low, carry, middle, high
    b = _POW5[dec] << _U(1)  # 2 5^k, the distance from 4m 5^k to either midpoint
    vp = vr + ((rest + b) >> _U(32) >> t)
    vm = vr - ((b + (_U(2**32) << t) - _U(1) - rest) >> _U(32) >> t)
    exact = rest.view(np.int64) == 0
    del b, t, rest
    vr, vp, vm = vr.view(np.int64), vp.view(np.int64), vm.view(np.int64)
    q = vr // 10  # the 18th digit always goes
    last, vr = vr - q * 10, q
    dropped = np.ones(v.shape, dtype=np.int64)
    # Only the values still dropping digits take the next pass: a short value such as
    # 0.5 drops 17, most drop 1 or 2.
    p10, m10 = vp // 100, vm // 100
    idx = np.flatnonzero(p10 > m10)
    p10, m10 = p10[idx], m10[idx]
    while idx.size:
        r10 = vr[idx]
        q = r10 // 10
        exact[idx] &= last[idx] == 0
        last[idx], vr[idx] = r10 - q * 10, q
        dropped[idx] += 1
        p10, m10 = p10 // 10, m10 // 10
        go = p10 > m10
        idx, p10, m10 = idx[go], p10[go], m10[go]
    up = last >= 5
    tie = np.flatnonzero(exact & (last == 5))
    up[tie] = vr[tie] // 2 * 2 != vr[tie]  # half to even
    return vr + up, 23 - dec - dropped  # "0.", 3 - dec zeros and 18 - dropped digits


def _ascii4(y: np.ndarray) -> np.ndarray:
    """The 4 zero-padded decimal digits of each y < 10^4 as the low bytes of a little-endian uint64; y is spent."""
    first = y * _U(5243)
    first >>= _U(19)  # y // 100 for y < 43699
    y -= first * _U(100)
    text = _PAIRS[y.view(np.int64)]
    text <<= _U(16)
    text += _PAIRS[first.view(np.int64)]
    return text


def _format_plain_rows(rows: np.ndarray) -> str:
    """The text of rows whose values are all 0 or in [1e-4, 1), byte for byte what ``_repr_rows`` writes.

    Each cell is built right-aligned in a 24-byte slot of three uint64 words: its
    separator (the "," or "\r\n" that ends the cell before it) in bytes 0 and 1,
    the digits in bytes 7 to 23, "0." and leading zeros before them, and 0 in every
    byte left out, so that dropping the 0 bytes leaves the text.
    """
    r, p = rows.shape
    if not rows.size:
        return "\r\n" * r
    v = rows.ravel()
    nonzero = v != 0.0
    digits, length = np.zeros(v.size, dtype=np.int64), np.ones(v.size, dtype=np.int64)
    digits[nonzero], length[nonzero] = _repr_digits(v[nonzero])
    words = np.empty((3, v.size), dtype=np.int64)  # the three uint64 words of each cell
    np.floor_divide(digits, 10**8, out=words[1])
    np.floor_divide(words[1], 10**8, out=words[0])  # digits < 10^17
    words[2] = digits - words[1] * 10**8
    words[1] -= words[0] * 10**8
    del digits
    words = words.view(np.uint64)
    words[0] <<= _U(56)
    words[0] += _U(0x3030_3030_3030_3030)  # the top digit after seven "0"s
    x = words[1:]  # 8 digits each
    first = x * _U(3518437209)
    first >>= _U(45)  # x // 10^4 for x < 2^32
    x -= first * _U(10000)
    x[...] = _ascii4(first) + (_ascii4(x) << _U(32))
    words -= np.take(_CUT, 24 - length, axis=1)
    slots = np.empty(3 * v.size + 1, dtype="<u8")
    cells = slots[:-1].reshape(r, p, 3)
    cells[...] = words.T.reshape(r, p, 3)
    del words
    cells[:, 1:, 0] += _U(ord(",") << 8)
    cells[1:, 0, 0] += _U(0x0A0D)  # b"\r\n"
    slots[-1] = _U(0x0A0D)
    text = slots.view(np.uint8)
    text = text[text.astype(bool)]
    del slots, cells
    return str(text, "ascii")


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
    and another missing field of ``_MODEL_OPTIONAL`` as None; ``seed`` is
    checked but not kept.  A leading byte-order mark is skipped, as in a CSV
    file.
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
        "seed": None,
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
