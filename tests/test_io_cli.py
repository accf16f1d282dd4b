"""CSV/JSON interchange and command-line workflow tests."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from zerocensored import (
    CompositionalDataset,
    FittedModel,
    MultipleZerosError,
    MvnParams,
    TiedMinimumError,
    diagnose,
    simulate_compositions,
)
import zerocensored.diagnostics as diagnostics_module
import zerocensored.io as io_module
from zerocensored.cli import main
from zerocensored.diagnostics import BLOCK_ROWS
from zerocensored.io import (
    WRITE_BLOCK,
    read_compositions_csv,
    read_latent_csv,
    read_model_json,
    write_compositions_csv,
    write_diagnostics_json,
    write_model_json,
)

from reference import write_compositions_csv_rowwise

ROOT = Path(__file__).resolve().parents[1]

BOUNDARY_MODEL = FittedModel(
    mean=np.array([0.6, 0.8]),
    cov=np.array([[0.15, -0.2], [-0.2, 1.5]]),
    loglik=-1.0,
    iterations=5,
    converged=True,
    gradient_norm=1e-7,
    n_parts=3,
    n_interior=10,
    n_face=5,
)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- CSV round trips -------------------------------------------------------------


def test_csv_write_read_round_trip(tmp_path):
    ds = simulate_compositions(100, MvnParams(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov), seed=1)
    ds = CompositionalDataset(parts=ds.parts, zero_index=ds.zero_index, names=("p", "q", "r"))
    path = tmp_path / "data.csv"
    write_compositions_csv(path, ds)
    back = read_compositions_csv(path)
    np.testing.assert_array_equal(back.parts, ds.parts)  # repr round trip is exact
    assert back.names == ("p", "q", "r")


def test_csv_zeros_written_literally(tmp_path):
    ds = CompositionalDataset.from_array([[0.0, 0.4, 0.6]], names=("a", "b", "c"))
    path = tmp_path / "zeros.csv"
    write_compositions_csv(path, ds)
    row = path.read_text().splitlines()[1]
    assert row.split(",")[0] == "0"


def test_csv_missing_header_rejected(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0.5,0.2,0.3\n0.1,0.8,0.1\n")
    with pytest.raises(ValueError, match="header"):
        read_compositions_csv(path)


BOM = b"\xef\xbb\xbf"


def test_csv_byte_order_mark_does_not_make_a_data_row_the_header(tmp_path):
    # Read with the mark in the first cell, this file's first row became the header ('\ufeff0.5', '0.2', '0.3').
    path = tmp_path / "noheader.csv"
    path.write_bytes(BOM + b"0.5,0.2,0.3\n0.1,0.8,0.1\n")
    with pytest.raises(ValueError, match="missing header row"):
        read_compositions_csv(path)


@pytest.mark.parametrize(
    "body", ["0.5,0.2,0.3\n0.1,0.8,0.1\n", "0.5,0.2,0.3\n\n0.1,0.8,0.1\n"], ids=["bulk", "checker"]
)
def test_csv_byte_order_mark_is_not_part_of_the_first_name(tmp_path, body):
    # The first name was '\ufeffa', which reached the diagnostics JSON and the plot labels.
    plain = tmp_path / "plain.csv"
    plain.write_bytes(b"a,b,c\n" + body.encode())
    marked = tmp_path / "marked.csv"
    marked.write_bytes(BOM + plain.read_bytes())
    ds = read_compositions_csv(marked)
    assert ds.names == ("a", "b", "c")
    np.testing.assert_array_equal(ds.parts, read_compositions_csv(plain).parts)


def test_csv_non_numeric_cell_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0.5,0.2,0.3\n0.4,oops,0.3\n")
    with pytest.raises(ValueError, match="row 2"):
        read_compositions_csv(path)


def test_csv_jagged_row_rejected(tmp_path):
    path = tmp_path / "jagged.csv"
    path.write_text("a,b,c\n0.5,0.5\n")
    with pytest.raises(ValueError, match="row 1"):
        read_compositions_csv(path)


# Each body follows the header line "a,b,c\n"; the bulk parse must agree with the
# row-by-row checker on every one, accepted or rejected.
ODD_CSV_BODIES = {
    "blank lines": "\n0.1,0.2,0.7\n\n0.3,0.3,0.4\n\n",
    "whitespace-only lines": "  \n0.1,0.2,0.7\n \t \n0.3,0.3,0.4\n",
    "blank-cell row": "0.1,0.2,0.7\n , , \n0.3,0.3,0.4\n",
    "only blank-cell rows": " , , \n,,\n",
    "LF": "0.1,0.2,0.7\n0.3,0.3,0.4\n",
    "LF, no final newline": "0.1,0.2,0.7\n0.3,0.3,0.4",
    "CRLF": "0.1,0.2,0.7\r\n0.3,0.3,0.4\r\n",
    "CRLF, no final newline": "0.1,0.2,0.7\r\n0.3,0.3,0.4",
    "CR": "0.1,0.2,0.7\r0.3,0.3,0.4\r",
    "quoted numeric cells": '"0.1",0.2,"0.7"\n0.3,0.3,0.4\n',
    "spaces around cells": " 0.1 ,0.2\t, 0.7  \n0.3,0.3,0.4\n",
    "hash in a cell": "0.1,0.2,0.7\n0.1,0.2,0.7 # x\n",
    "underscore digits": "1_000,0.2,0.7\n",
    "nan, inf, 1e999": "nan,inf,1e999\n-nan,-inf,-1e999\nNaN,Infinity,+nan\n",
    "empty cell": "0.1,0.2,0.7\n0.1,,0.7\n",
    "trailing comma": "0.1,0.2,0.7,\n",
    "jagged row": "0.1,0.2,0.7\n0.3,0.7\n",
    "every row too narrow": "0.1,0.9\n0.3,0.7\n",
    "non-numeric cell": "0.1,0.2,0.7\n0.1,oops,0.7\n",
    "single data row": "0.1,0.2,0.7\n",
    "header only": "",
    "header only, blank lines": "\n  \n",
}


@pytest.mark.parametrize("body", ODD_CSV_BODIES.values(), ids=ODD_CSV_BODIES.keys())
def test_csv_bulk_parse_matches_row_checker(tmp_path, body):
    path = tmp_path / "odd.csv"
    path.write_bytes(("a,b,c\n" + body).encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a file with no data rows
        try:
            expected = io_module._parse_rows_checked(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                io_module._parse_rows(path)
            assert str(excinfo.value) == str(exc)
            return
        header, values = io_module._parse_rows(path)
    assert header == expected[0] == ["a", "b", "c"]
    assert values.dtype == expected[1].dtype and values.shape == expected[1].shape
    np.testing.assert_array_equal(values.view(np.int64), expected[1].view(np.int64))


WRITER_ROWS = {
    "tiny and huge values": [[5e-324, 1e-300, 1.0], [1e-5, 1e16, 0.5]],
    "0.1 + 0.2 and zeros": [[0.1 + 0.2, 0.0, -0.0], [0.0, 0.25, 0.75]],
    "no rows": np.empty((0, 3)),
}


@pytest.mark.parametrize("names", [None, ("a,b", 'say "hi"', "plain")], ids=["default names", "quoted names"])
@pytest.mark.parametrize("rows", WRITER_ROWS.values(), ids=WRITER_ROWS.keys())
def test_csv_writer_matches_row_writer_bytes(tmp_path, rows, names):
    rows = np.asarray(rows, dtype=float)
    ds = CompositionalDataset(parts=rows, zero_index=np.full(rows.shape[0], -1), names=names)
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_compositions_csv(fast, ds)
    write_compositions_csv_rowwise(slow, ds)
    assert fast.read_bytes() == slow.read_bytes()


def test_csv_writer_matches_row_writer_across_blocks(tmp_path):
    rng = np.random.default_rng(71)
    rows = rng.dirichlet(np.ones(3), size=2 * WRITE_BLOCK + 1)
    rows[rng.random(rows.shape) < 0.1] = 0.0
    ds = CompositionalDataset(parts=rows, zero_index=np.full(rows.shape[0], -1))
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_compositions_csv(fast, ds)
    write_compositions_csv_rowwise(slow, ds)
    assert fast.read_bytes() == slow.read_bytes()


def test_csv_package_and_benchmark_files_take_the_bulk_parse(tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError(f"{path} fell back to the row-by-row reader")

    monkeypatch.setattr(io_module, "_parse_rows_checked", refuse)
    ds = simulate_compositions(300, MvnParams(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov), seed=2)
    assert ds.n_face > 0
    written = tmp_path / "written.csv"
    write_compositions_csv(written, ds)
    np.testing.assert_array_equal(read_compositions_csv(written).parts, ds.parts)
    # The benchmark's inputs: np.savetxt with "%.17g" and LF line ends.
    savetxt = tmp_path / "savetxt.csv"
    np.savetxt(savetxt, ds.parts, fmt="%.17g", delimiter=",", header="part1,part2,part3", comments="")
    np.testing.assert_array_equal(read_compositions_csv(savetxt).parts, ds.parts)
    latent = np.array([[0.5, 0.75, -0.25], [0.2, 0.3, 0.5]])
    np.savetxt(savetxt, latent, fmt="%.17g", delimiter=",", header="part1,part2,part3", comments="")
    np.testing.assert_array_equal(read_latent_csv(savetxt)[1], latent)


def test_csv_closure_normalizes_amounts(tmp_path):
    path = tmp_path / "hours.csv"
    write_csv(path, ["work", "rest", "play"], [[1200, 900, 300], [0, 1800, 600]])
    ds = read_compositions_csv(path, apply_closure=True)
    np.testing.assert_allclose(ds.parts, [[0.5, 0.375, 0.125], [0.0, 0.75, 0.25]])
    assert ds.n_face == 1


def test_csv_closure_rejects_multi_zero_rows(tmp_path):
    path = tmp_path / "hours.csv"
    write_csv(path, ["w", "r", "p"], [[100, 200, 300], [0, 0, 600], [0, 0, 500]])
    with pytest.raises(MultipleZerosError) as excinfo:
        read_compositions_csv(path, apply_closure=True)
    assert excinfo.value.rows == (2, 3)


def test_csv_closure_validates_each_row_once(tmp_path, monkeypatch):
    import zerocensored.dataset as dataset_module
    import zerocensored.simplex as simplex_module

    calls = []
    validate = simplex_module.validate_compositions

    def counting(rows, **kwargs):
        calls.append(np.shape(rows))
        return validate(rows, **kwargs)

    monkeypatch.setattr(simplex_module, "validate_compositions", counting)
    monkeypatch.setattr(dataset_module, "validate_compositions", counting)
    path = tmp_path / "hours.csv"
    write_csv(path, ["work", "rest", "play"], [[1200, 900, 300], [0, 1800, 600], [5, 5, 10]])
    ds = read_compositions_csv(path, apply_closure=True)
    assert calls == [(3, 3)]
    np.testing.assert_allclose(ds.parts[2], [0.25, 0.25, 0.5])


def test_csv_closure_names_a_closed_two_zero_row(tmp_path):
    path = tmp_path / "hours.csv"
    write_csv(path, ["w", "r", "p"], [[100, 200, 300], [50, 0, 0]])
    with pytest.raises(MultipleZerosError, match="more than one zero part: 2$"):
        read_compositions_csv(path, apply_closure=True)


def test_latent_csv_repairs_tiny_sum_noise(tmp_path):
    path = tmp_path / "latent.csv"
    write_csv(path, ["a", "b", "c"], [[-0.1, 0.5, 0.6 + 3e-7]])
    _, values = read_latent_csv(path)
    assert values.sum(axis=1) == pytest.approx(1.0, abs=1e-15)


def test_latent_csv_rejects_non_finite_rows(tmp_path):
    path = tmp_path / "latent.csv"
    path.write_text("a,b,c\n-0.1,0.5,0.6\nnan,0.5,0.5\n0.2,inf,-1.0\n")
    with pytest.raises(ValueError, match=r"not finite or not summing to 1: 2, 3$"):
        read_latent_csv(path)


def test_model_json_file_round_trip(tmp_path):
    path = tmp_path / "model.json"
    write_model_json(path, BOUNDARY_MODEL)
    back = read_model_json(path)
    np.testing.assert_allclose(back.mean, BOUNDARY_MODEL.mean)
    np.testing.assert_allclose(back.cov, BOUNDARY_MODEL.cov)
    assert back.n_parts == 3


def test_model_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        read_model_json(path)


def strict_json(path):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_model_json_writes_missing_gradient_norm_as_null(tmp_path):
    path = model_json_path(tmp_path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["gradient_norm"]  # a file written before the field existed
    path.write_text(json.dumps(doc), encoding="utf-8")
    write_model_json(path, read_model_json(path))
    assert strict_json(path)["gradient_norm"] is None
    assert np.isnan(read_model_json(path).gradient_norm)


def test_diagnostics_json_writes_infinite_chi_square_as_null(tmp_path):
    # the model puts no mass near the boundary, so the observed zero is impossible under it
    model = FittedModel(
        mean=np.zeros(2), cov=1e-4 * np.eye(2), loglik=0.0, iterations=0, converged=True,
        gradient_norm=0.0, n_parts=3, n_interior=0, n_face=0,
    )
    data = CompositionalDataset.from_array([[0.0, 0.5, 0.5], [0.3, 0.3, 0.4]])
    result = diagnose(model, data, n_sims=10_000, seed=3)
    assert result.chi_square == np.inf
    path = tmp_path / "diag.json"
    write_diagnostics_json(path, result)
    doc = strict_json(path)
    assert doc["chi_square"] is None and doc["observed_counts"] == [1, 0, 0]


# --- CLI: fit -----------------------------------------------------------------------


def make_zero_free_csv(tmp_path, n=60, seed=70):
    rng = np.random.default_rng(seed)
    parts = rng.dirichlet(np.array([6.0, 5.0, 7.0]), size=n)
    path = tmp_path / "interior.csv"
    write_csv(path, ["a", "b", "c"], parts.tolist())
    return path, parts


def test_cli_fit_zero_free_matches_closed_form(tmp_path, capsys):
    path, parts = make_zero_free_csv(tmp_path)
    out = tmp_path / "model.json"
    assert main(["fit", str(path), "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "n2=0" in printed
    doc = json.loads(out.read_text())
    assert doc["n2"] == 0 and doc["n1"] == 60 and doc["D"] == 3
    assert doc["converged"] is True and doc["seed"] is None

    from zerocensored import alpha_transform

    latent = alpha_transform(parts, 1.0)
    mle_mean = latent.mean(axis=0)
    resid = latent - mle_mean
    mle_cov = resid.T @ resid / len(latent)
    np.testing.assert_allclose(doc["mean"], mle_mean, atol=1e-6)
    np.testing.assert_allclose(doc["cov"], mle_cov, atol=1e-6)


@pytest.mark.parametrize(
    "censored, flags, code, stop",
    [
        (False, [], 0, "projected gradient inf-norm <= tol"),  # zero-free rows start at the maximum
        (True, ["--tol", "0"], 0, "relative reduction <= LOGLIK_REL_TOL"),
        (True, ["--max-iter", "1"], 3, "max_iter (1) iterations"),
    ],
)
def test_cli_fit_names_the_stop_test(tmp_path, capsys, censored, flags, code, stop):
    path = make_zero_free_csv(tmp_path)[0]
    if censored:
        path = tmp_path / "censored.csv"
        write_compositions_csv(path, simulate_compositions(300, MvnParams([0.4, 0.2], [[0.3, 0.05], [0.05, 0.2]]), 1))
    out = tmp_path / "model.json"
    assert main(["fit", str(path), "-o", str(out), *flags]) == code
    line = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("converged: "))
    assert line.startswith("converged: yes (" if code == 0 else "converged: NO (")
    assert line.endswith(f"; stop test: {stop})")
    assert json.loads(out.read_text())["message"].endswith(f": {stop}")


def test_cli_fit_rejects_multi_zero_rows(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    write_csv(path, ["a", "b", "c"], [[0.2, 0.3, 0.5], [0.0, 0.0, 1.0], [0.3, 0.3, 0.4], [0.1, 0.2, 0.7]])
    code = main(["fit", str(path), "-o", str(tmp_path / "m.json")])
    assert code == 4
    assert "2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "simulate", "diagnose", "plot"])
def test_cli_fit_rejects_other_alpha(tmp_path, capsys, command):
    # No command takes an exponent: the likelihood is defined for the exponent-one transform only.
    data, _ = make_zero_free_csv(tmp_path)
    model = tmp_path / "model.json"
    write_model_json(model, BOUNDARY_MODEL)
    inputs = {"fit": [data], "simulate": [model, "-n", "5"], "diagnose": [model, data], "plot": [data]}[command]
    argv = [command, *map(str, inputs), "--alpha", "2", "-o", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --alpha 2" in capsys.readouterr().err


def test_cli_fit_rejects_tiny_datasets(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    write_csv(path, ["a", "b", "c"], [[0.2, 0.3, 0.5], [0.3, 0.3, 0.4]])
    assert main(["fit", str(path), "-o", str(tmp_path / "m.json")]) == 2


def test_cli_fit_missing_file(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-iter", "0", "max_iter (--max-iter) must be at least 1, got 0"),
        ("--max-iter", "-5", "max_iter (--max-iter) must be at least 1, got -5"),
        ("--tol", "inf", "gradient_tol (--tol) must be finite and non-negative, got inf"),
        ("--tol", "nan", "gradient_tol (--tol) must be finite and non-negative, got nan"),
        ("--tol", "-1", "gradient_tol (--tol) must be finite and non-negative, got -1.0"),
    ],
    ids=["max-iter=0", "max-iter=-5", "tol=inf", "tol=nan", "tol=-1"],
)
def test_cli_fit_refuses_settings_it_cannot_honour(tmp_path, capsys, flag, value, message):
    # Before, --tol inf wrote the start point as converged, --tol nan was ignored and --max-iter 0 ran one step.
    path, _ = make_zero_free_csv(tmp_path)
    out = tmp_path / "model.json"
    assert main(["fit", str(path), "-o", str(out), flag, value]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_cli_fit_on_near_singular_data_is_not_an_input_error(tmp_path, capsys):
    # Covariance eigenvalues over ten decades (0.25 down to 2.5e-11): line-search trials put face points
    # a billion standard deviations out, where the Mills ratio taken in logs overflows.
    rng = np.random.default_rng(2)
    basis, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    cov = basis @ np.diag(np.logspace(math.log10(0.25), math.log10(2.5e-11), 9)) @ basis.T
    dataset = simulate_compositions(5000, MvnParams(np.zeros(9), 0.5 * (cov + cov.T)), 2)
    assert dataset.n_face > 0
    path = tmp_path / "near_singular.csv"
    write_compositions_csv(path, dataset)
    assert main(["fit", str(path), "-o", str(tmp_path / "model.json")]) in (0, 3)
    assert capsys.readouterr().err == ""


# Each file has one cell over the csv module's 131 072-character field limit; the
# jagged last row sends the first file past the bulk parse to the row-by-row checker.
OVERSIZED_CELL_FILES = {
    "data row": ("a,b,c\n0.1" + "0" * 131_074 + ",0.5,0.4\n0.2,0.3\n", "row 1 is not valid CSV"),
    "header": ("a" * 131_075 + ",b,c\n0.2,0.3,0.5\n", "header row is not valid CSV"),
}


@pytest.mark.parametrize("text, where", OVERSIZED_CELL_FILES.values(), ids=OVERSIZED_CELL_FILES.keys())
def test_cli_fit_oversized_cell_is_an_input_error(tmp_path, capsys, text, where):
    path = tmp_path / "huge.csv"
    path.write_text(text)
    assert main(["fit", str(path), "-o", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {where} (field larger than field limit")


# --- CLI: simulate ---------------------------------------------------------------------


def model_json_path(tmp_path):
    path = tmp_path / "model.json"
    write_model_json(path, BOUNDARY_MODEL)
    return path


def test_cli_simulate_deterministic_bytes(tmp_path):
    model = model_json_path(tmp_path)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["simulate", str(model), "-n", "200", "--seed", "5", "-o", str(out1)]) == 0
    assert main(["simulate", str(model), "-n", "200", "--seed", "5", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_simulate_reads_a_model_behind_a_byte_order_mark(tmp_path):
    # The JSON parser refused the mark: "malformed model JSON (Unexpected UTF-8 BOM (decode using utf-8-sig) ...)".
    plain = model_json_path(tmp_path)
    marked = tmp_path / "marked.json"
    marked.write_bytes(BOM + plain.read_bytes())
    outs = tmp_path / "plain.csv", tmp_path / "marked.csv"
    for model, out in zip((plain, marked), outs, strict=True):
        assert main(["simulate", str(model), "-n", "50", "--seed", "3", "-o", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_cli_simulate_writes_faces_with_exact_zeros(tmp_path):
    model = model_json_path(tmp_path)
    out = tmp_path / "sims.csv"
    assert main(["simulate", str(model), "-n", "400", "--seed", "6", "-o", str(out)]) == 0
    text = out.read_text().splitlines()
    assert len(text) == 401
    zero_rows = [line for line in text[1:] if "0," in line or line.endswith(",0")]
    assert zero_rows  # this model censors a large fraction
    ds = read_compositions_csv(out)
    assert ds.n_face > 0


def test_cli_simulate_header_only_for_zero_count(tmp_path):
    model = model_json_path(tmp_path)
    out = tmp_path / "empty.csv"
    assert main(["simulate", str(model), "-n", "0", "-o", str(out)]) == 0
    assert out.read_text().splitlines() == ["comp1,comp2,comp3"]


def correlated_model_json(tmp_path, n_parts):
    """A correlated model of n_parts parts with 30-40% of its draws on the boundary, as a JSON file."""
    rng = np.random.default_rng(n_parts)
    d = n_parts - 1
    a = rng.normal(size=(d, d))
    cov = a @ a.T / d + 0.5 * np.eye(d)
    sd = np.sqrt(np.diag(cov))
    model = FittedModel(
        mean=0.1 * rng.normal(size=d), cov=4.0 / n_parts * cov / np.outer(sd, sd), loglik=0.0, iterations=0,
        converged=True, gradient_norm=0.0, n_parts=n_parts, n_interior=0, n_face=0,
    )
    path = tmp_path / "model.json"
    write_model_json(path, model)
    return path, model


@pytest.mark.parametrize("n_parts", [2, 3, 10])
def test_cli_simulate_streams_the_bytes_of_the_dataset_writer(tmp_path, capsys, n_parts):
    path, model = correlated_model_json(tmp_path, n_parts)
    streamed, whole = tmp_path / "streamed.csv", tmp_path / "whole.csv"
    for n in (0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 1, 50_000):
        assert main(["simulate", str(path), "-n", str(n), "--seed", str(n), "-o", str(streamed)]) == 0
        ds = simulate_compositions(n, model.params, n)
        write_compositions_csv(whole, ds)
        assert streamed.read_bytes() == whole.read_bytes()
        assert capsys.readouterr().out == f"wrote {n} compositions ({ds.n_face} on the boundary) to {streamed}\n"


def test_cli_simulate_deletes_only_a_partial_file_it_created(tmp_path, capsys, monkeypatch):
    project_rows = diagnostics_module.project_rows
    pulled = []

    def fail_on_the_second_block(parts):
        pulled.append(len(parts))
        if len(pulled) == 2:
            raise TiedMinimumError("rows with a tied minimum, which the pull would turn into two zeros: 7")
        return project_rows(parts)

    monkeypatch.setattr(diagnostics_module, "project_rows", fail_on_the_second_block)
    model = model_json_path(tmp_path)
    argv = ["simulate", str(model), "-n", str(2 * BLOCK_ROWS), "-o"]
    out = tmp_path / "sims.csv"
    assert main([*argv, str(out)]) == 4
    assert pulled == [BLOCK_ROWS, BLOCK_ROWS]
    assert capsys.readouterr().err == "error: rows with a tied minimum, which the pull would turn into two zeros: 7\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]  # no file, and no temporary one

    pulled.clear()
    older = tmp_path / "older.csv"
    older.write_text("an older file\n", encoding="utf-8")
    assert main([*argv, str(older)]) == 4
    assert older.read_bytes() == b"an older file\n"  # written beside it, so never truncated
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "older.csv"]


def test_cli_simulate_writes_a_file_as_a_direct_write_would(tmp_path, capsys):
    model = model_json_path(tmp_path)
    argv = ["simulate", str(model), "-n", "5", "-o"]
    direct = tmp_path / "direct.csv"
    direct.write_text("", encoding="utf-8")
    new = tmp_path / "new.csv"
    assert main([*argv, str(new)]) == 0
    assert new.stat().st_mode == direct.stat().st_mode
    older = tmp_path / "older.csv"
    older.write_text("an older file\n", encoding="utf-8")
    older.chmod(0o640)
    assert main([*argv, str(older)]) == 0
    assert older.read_bytes() == new.read_bytes() and older.stat().st_mode & 0o777 == 0o640
    # A symlink is written through in place and stays a link.
    link = tmp_path / "link.csv"
    link.symlink_to(direct)
    assert main([*argv, str(link)]) == 0
    assert link.is_symlink() and direct.read_bytes() == new.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["direct.csv", "link.csv", "model.json", "new.csv", "older.csv"]


#: Run in a fresh interpreter: cap the size of every file it writes at 100 bytes, with SIGXFSZ ignored so a
#: longer write fails with EFBIG instead of killing the process, then run the CLI on the arguments.
_FILE_SIZE_LIMITED_CLI = """
import resource, signal, sys
resource.setrlimit(resource.RLIMIT_FSIZE, (100, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
from zerocensored.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["fit", "diagnose", "plot"])
def test_cli_write_that_fails_leaves_the_older_file(tmp_path, command):
    # These commands wrote in place, so a write stopped at the size limit left a 100-byte truncated file.
    model = model_json_path(tmp_path)
    data = tmp_path / "obs.csv"
    assert main(["simulate", str(model), "-n", "80", "--seed", "9", "-o", str(data)]) == 0
    older = tmp_path / "older"
    argv = {
        "fit": ["fit", str(data)],
        "diagnose": ["diagnose", str(model), str(data), "--sims", "20000"],
        "plot": ["plot", str(data)],
    }[command] + ["-o", str(older)]
    assert main(argv) == 0
    before = older.read_bytes()
    assert len(before) > 100
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-c", _FILE_SIZE_LIMITED_CLI, *argv], env=env, capture_output=True, text=True
    )
    assert result.returncode == 2 and result.stderr == "error: [Errno 27] File too large\n"
    assert older.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "obs.csv", "older"]  # no temporary file


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
def test_cli_negative_seed_is_an_input_error_naming_the_flag(tmp_path, capsys, command):
    model = model_json_path(tmp_path)
    data = tmp_path / "data.csv"
    write_csv(data, ["a", "b", "c"], [[0.2, 0.3, 0.5], [0.0, 0.5, 0.5]])
    out = tmp_path / "out"
    inputs = [str(model)] if command == "simulate" else [str(model), str(data)]
    count = ["-n", "10"] if command == "simulate" else []
    assert main([command, *inputs, *count, "--seed", "-1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"
    assert not out.exists()


def _null_mean(doc):
    doc["mean"][0] = None


def _null_cov(doc):
    doc["cov"][1][0] = doc["cov"][0][1] = None


def _wrong_d(doc):
    doc["mean"].append(0.1)  # D stays 3


def _text_mean(doc):
    doc["mean"][0] = "x"


INVALID_MODELS = {
    "null-mean": (_null_mean, "mean must be an array of numbers"),
    "null-cov": (_null_cov, "cov must be an array of arrays of numbers"),
    "wrong-D": (_wrong_d, "D = 3 but a mean of length 3"),
    "text-mean": (_text_mean, "mean must be an array of numbers"),
    # Values that a reader converting with float(), int() and bool() would take.
    "numeric-string-mean": (lambda doc: doc.update(mean=["0.4", "0.2"]), "mean must be an array of numbers"),
    "boolean-mean": (lambda doc: doc.update(mean=[True, False]), "mean must be an array of numbers"),
    "fractional-D": (lambda doc: doc.update(D=3.5), "D must be an integer"),
    "fractional-iterations": (lambda doc: doc.update(iterations=7.9), "iterations must be an integer"),
    "string-converged": (lambda doc: doc.update(converged="false"), "converged must be true or false"),
    "string-seed": (lambda doc: doc.update(seed="abc"), "seed must be an integer or null"),
    "string-evaluations": (lambda doc: doc.update(evaluations="x"), "evaluations must be an integer or null"),
    "not-an-object": (lambda doc: [doc], "model JSON is not an object"),
    # float() raised OverflowError on this integer, which the command did not catch.
    "huge-integer-mean": (lambda doc: doc.update(mean=[10**400, 0.8]), "mean must be an array of numbers"),
    # An unknown field was ignored, so a misspelled optional one read back as its default: here NaN.
    "misspelled-field": (
        lambda doc: doc.update(gradient_nrom=doc.pop("gradient_norm")),
        "unknown field 'gradient_nrom'",
    ),
}


@pytest.mark.parametrize("spoil, says", INVALID_MODELS.values(), ids=INVALID_MODELS.keys())
def test_cli_simulate_refuses_an_invalid_model(tmp_path, capsys, spoil, says):
    model = model_json_path(tmp_path)
    doc = json.loads(model.read_text(encoding="utf-8"))
    spoiled = spoil(doc)
    model.write_text(json.dumps(doc if spoiled is None else spoiled), encoding="utf-8")
    out = tmp_path / "sims.csv"
    assert main(["simulate", str(model), "-n", "10", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: ") and says in err
    assert not out.exists()


# --- CLI: diagnose -----------------------------------------------------------------------


def test_cli_diagnose_pvalue_iff_replicates(tmp_path, capsys):
    model = model_json_path(tmp_path)
    data = tmp_path / "obs.csv"
    assert main(["simulate", str(model), "-n", "150", "--seed", "8", "-o", str(data)]) == 0
    out = tmp_path / "diag.json"

    assert main(["diagnose", str(model), str(data), "--sims", "20000", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mc_pvalue"] is None
    assert "Estimated zeros" in capsys.readouterr().out

    assert (
        main(
            ["diagnose", str(model), str(data), "--sims", "20000", "--replicates", "99", "-o", str(out)]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert 0 < doc["mc_pvalue"] <= 1
    assert doc["n_replicates"] == 99


def test_cli_diagnose_dimension_mismatch(tmp_path, capsys):
    model = model_json_path(tmp_path)
    data = tmp_path / "wide.csv"
    write_csv(data, ["a", "b", "c", "d"], [[0.25, 0.25, 0.25, 0.25]])
    assert main(["diagnose", str(model), str(data), "-o", str(tmp_path / "d.json")]) == 2


def test_cli_diagnose_with_replicates_deterministic_bytes(tmp_path):
    model = model_json_path(tmp_path)
    data = tmp_path / "obs.csv"
    assert main(["simulate", str(model), "-n", "150", "--seed", "8", "-o", str(data)]) == 0
    out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
    for out in (out1, out2):
        argv = ["diagnose", str(model), str(data), "--sims", "20000", "--replicates", "99", "-o", str(out)]
        assert main(argv) == 0
    assert json.loads(out1.read_text())["mc_pvalue"] is not None
    assert out1.read_bytes() == out2.read_bytes()


# --- CLI: project ------------------------------------------------------------------------


def test_cli_project_pulls_outside_rows(tmp_path, capsys):
    latent = tmp_path / "latent.csv"
    write_csv(latent, ["a", "b", "c"], [[-0.1, 0.5, 0.6], [0.2, 0.3, 0.5], [0.0, 0.4, 0.6]])
    out = tmp_path / "proj.csv"
    assert main(["project", str(latent), "-o", str(out)]) == 0
    assert "projected 1 of 3" in capsys.readouterr().out
    ds = read_compositions_csv(out)
    np.testing.assert_allclose(ds.parts[0], [0.0, 0.6 / 1.3, 0.7 / 1.3], atol=1e-12)
    np.testing.assert_allclose(ds.parts[1], [0.2, 0.3, 0.5])
    assert ds.zero_index[2] == 0


def test_cli_project_tied_minimum_is_unsupported(tmp_path, capsys):
    latent = tmp_path / "tied.csv"
    write_csv(latent, ["a", "b", "c"], [[-0.25, -0.25, 1.5]])
    assert main(["project", str(latent), "-o", str(tmp_path / "p.csv")]) == 4


def test_cli_project_names_two_zero_rows(tmp_path, capsys):
    latent = tmp_path / "two-zeros.csv"
    write_csv(latent, ["a", "b", "c"], [[-0.1, 0.5, 0.6], [0.0, 0.0, 1.0]])
    assert main(["project", str(latent), "-o", str(tmp_path / "p.csv")]) == 4
    assert capsys.readouterr().err.rstrip().endswith(": 2")


# --- CLI: plot ---------------------------------------------------------------------------


def test_cli_plot_with_model_contours(tmp_path):
    model = model_json_path(tmp_path)
    data = tmp_path / "obs.csv"
    assert main(["simulate", str(model), "-n", "80", "--seed", "9", "-o", str(data)]) == 0
    out = tmp_path / "fig.svg"
    assert main(["plot", str(data), "--model", str(model), "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<polyline") == 6 and "<circle" in svg and 'stroke="green"' in svg

    out2 = tmp_path / "fig2.svg"
    assert main(["plot", str(data), "--model", str(model), "-o", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_cli_plot_empty_dataset_frame_only(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("a,b,c\n")
    out = tmp_path / "frame.svg"
    assert main(["plot", str(data), "-o", str(out)]) == 0
    svg = out.read_text()
    assert "<polygon" in svg and "<circle" not in svg


def test_cli_plot_escapes_markup_in_part_names(tmp_path):
    import xml.etree.ElementTree as ET

    data = tmp_path / "marked.csv"
    write_csv(data, ["a&b", "<c>", "d"], [[0.2, 0.3, 0.5], [0.0, 0.4, 0.6]])
    out = tmp_path / "marked.svg"
    assert main(["plot", str(data), "-o", str(out)]) == 0
    root = ET.parse(out).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    assert [t.text for t in root.iter(f"{ns}text")] == ["a&b", "<c>", "d"]
    assert json.loads(root.find(f"{ns}desc").text)["vertex_order"] == ["a&b", "<c>", "d"]


def test_cli_plot_rejects_non_ternary(tmp_path, capsys):
    data = tmp_path / "wide.csv"
    write_csv(data, ["a", "b", "c", "d"], [[0.25, 0.25, 0.25, 0.25]])
    assert main(["plot", str(data), "-o", str(tmp_path / "x.svg")]) == 2
    assert "3 components" in capsys.readouterr().err


# --- CLI: pipeline stability ----------------------------------------------------------------


def test_cli_fit_simulate_fit_pipeline(tmp_path):
    # a mildly censored model keeps the refit close to the first fit
    rng = np.random.default_rng(71)
    from zerocensored import alpha_transform

    mean = alpha_transform(np.array([0.45, 0.3, 0.25]), 1.0)
    cov = np.array([[0.3, 0.05], [0.05, 0.25]])
    start = FittedModel(
        mean=mean, cov=cov, loglik=0.0, iterations=0, converged=True,
        gradient_norm=0.0, n_parts=3, n_interior=0, n_face=0,
    )
    m0 = tmp_path / "m0.json"
    write_model_json(m0, start)
    data = tmp_path / "sim.csv"
    assert main(["simulate", str(m0), "-n", "2000", "--seed", "11", "-o", str(data)]) == 0
    m1 = tmp_path / "m1.json"
    assert main(["fit", str(data), "-o", str(m1)]) == 0
    doc1 = json.loads(m1.read_text())

    data2 = tmp_path / "sim2.csv"
    assert main(["simulate", str(m1), "-n", "2000", "--seed", "12", "-o", str(data2)]) == 0
    m2 = tmp_path / "m2.json"
    assert main(["fit", str(data2), "-o", str(m2)]) == 0
    doc2 = json.loads(m2.read_text())

    np.testing.assert_allclose(doc2["mean"], doc1["mean"], atol=0.08)
    np.testing.assert_allclose(doc2["cov"], doc1["cov"], atol=0.12)
