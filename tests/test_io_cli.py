"""CSV/JSON interchange and command-line workflow tests."""

import json

import numpy as np
import pytest

from zerocensored import (
    CompositionalDataset,
    FittedModel,
    MultipleZerosError,
    MvnParams,
    diagnose,
    simulate_compositions,
)
from zerocensored.cli import main
from zerocensored.io import (
    read_compositions_csv,
    read_latent_csv,
    read_model_json,
    write_compositions_csv,
    write_diagnostics_json,
    write_model_json,
)

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
    ds = simulate_compositions(100, MvnParams(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov), 3, seed=1)
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
    doc = BOUNDARY_MODEL.to_dict()
    del doc["gradient_norm"]  # a file written before the field existed
    path = tmp_path / "model.json"
    write_model_json(path, FittedModel.from_dict(doc))
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
