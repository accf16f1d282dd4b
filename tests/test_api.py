"""The package's public names, the README's list of them, its fixed settings, its JSON owner, its one
censored-term formula and its import cost."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zerocensored
from zerocensored import (
    CompositionalDataset,
    FittedModel,
    MvnParams,
    diagnose,
    fit,
    render_svg,
    transform_dataset,
    zero_rates,
)
from zerocensored.diagnostics import _chi_square_discrepancy
from zerocensored.io import write_diagnostics_json, write_model_json
from zerocensored.simplex import validate_compositions
from zerocensored.ternary import _density_contours

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_public_names_resolve_and_readme_lists_only_public_names():
    missing = [name for name in zerocensored.__all__ if not hasattr(zerocensored, name)]
    assert not missing, f"__all__ names that the package does not define: {missing}"
    sentence = re.search(r"Lower-level pieces \((.*?)\)", README.read_text(encoding="utf-8"), re.DOTALL)
    assert sentence, "README has no 'Lower-level pieces' sentence"
    listed = re.findall(r"`([^`]+)`", sentence.group(1))
    assert listed
    stale = [name for name in listed if name not in zerocensored.__all__]
    assert not stale, f"README advertises names that are not public: {stale}"


# The paper's pieces, what the acceptance tests call, and the exception types.  A new
# public name is a deliberate edit here; a helper that only tests use stays private.
PUBLIC_NAMES = {
    "CompositionalDataset", "TransformedSample", "transform_dataset",
    "ZeroDiagnostics", "diagnose", "simulate_compositions", "zero_rates",
    "MvnParams", "NotPositiveDefiniteError", "cholesky",
    "TiedMinimumError", "gram_schmidt_rotation", "project_rows", "zero_parts",
    "FittedModel", "ParameterBoundError", "boundary_term", "fit", "log_likelihood",
    "MultipleZerosError", "alpha_transform", "closure", "helmert_submatrix",
    "inverse_alpha_transform", "jacobian_alpha", "jacobian_simplex",
    "render_svg",
    "__version__",
}


def test_public_names_are_exactly_the_listed_ones():
    assert set(zerocensored.__all__) == PUBLIC_NAMES
    assert len(zerocensored.__all__) == len(PUBLIC_NAMES)


def test_readme_lists_the_json_keys_the_writers_write(tmp_path):
    text = README.read_text(encoding="utf-8")
    schema = re.search(r"### Model JSON schema\s*```json\n(.*?)```", text, re.DOTALL)
    assert schema, "README has no 'Model JSON schema' block"
    model_keys = re.findall(r'^\s*"(\w+)":', schema.group(1), re.MULTILINE)
    sentence = re.search(r"The diagnostics JSON carries (.*?)\.", text, re.DOTALL)
    assert sentence, "README has no 'The diagnostics JSON carries' sentence"
    diagnostics_keys = re.findall(r"`([^`]+)`", sentence.group(1))

    model = FittedModel(
        mean=np.zeros(2), cov=np.eye(2), loglik=0.0, iterations=0, converged=True,
        gradient_norm=0.0, n_parts=3, n_interior=3, n_face=0,
    )
    data = CompositionalDataset.from_array([[0.2, 0.3, 0.5], [0.0, 0.5, 0.5]])
    write_model_json(tmp_path / "model.json", model)
    write_diagnostics_json(tmp_path / "diagnostics.json", diagnose(model, data, n_sims=10_000, seed=0))
    with open(tmp_path / "model.json", encoding="utf-8") as fh:
        assert model_keys == list(json.load(fh))
    with open(tmp_path / "diagnostics.json", encoding="utf-8") as fh:
        assert diagnostics_keys == list(json.load(fh))


def test_only_io_and_the_svg_metadata_import_json():
    # The model and diagnostics formats live in io; ternary writes its SVG <desc> metadata with json.dumps.
    importers = set()
    for path in sorted((ROOT / "src" / "zerocensored").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "json" for name in names):
                importers.add(path.name)
    assert importers == {"io.py", "ternary.py"}


def test_only_the_face_kernel_calls_the_normal_tail():
    # One censored-term formula: boundary_term, the likelihood and the D = 3 rates all reach the tail through it.
    callers = set()
    for path in sorted((ROOT / "src" / "zerocensored").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if "_log_ndtr_erfcx" in (getattr(func, "id", None), getattr(func, "attr", None)):
                    callers.add((path.name, getattr(top, "name", "<module>")))
    assert callers == {("likelihood.py", "_face_terms")}


def _small_sample():
    rng = np.random.default_rng(0)
    return transform_dataset(CompositionalDataset.from_array(rng.dirichlet(np.ones(3), size=20)))


_MODEL = MvnParams(np.zeros(2), np.eye(2))
_COMPOSITION = [0.2, 0.3, 0.5]

# Each call is valid apart from one keyword that is now a module constant.
FIXED_SETTINGS = {
    "validate_compositions(reclose=)": lambda: validate_compositions([_COMPOSITION], reclose=True),
    "zero_rates(chunk_size=)": lambda: zero_rates(_MODEL, 10_000, 0, chunk_size=1 << 17),
    "chi_square_discrepancy(floor=)": lambda: _chi_square_discrepancy([1, 2], [1.0, 2.0], floor=0.5),
    "fit(loglik_rel_tol=)": lambda: fit(_small_sample(), loglik_rel_tol=1e-10),
    "fit(ridge=)": lambda: fit(_small_sample(), ridge=1e-8),
    "density_contours(n_levels=)": lambda: _density_contours(_MODEL, n_levels=6),
    "density_contours(coverage=)": lambda: _density_contours(_MODEL, coverage=0.99),
    "density_contours(n_points=)": lambda: _density_contours(_MODEL, n_points=241),
    "render_svg(names=)": lambda: render_svg(None, None, names=("a", "b", "c")),
    "render_svg(width=)": lambda: render_svg(None, None, width=560),
    "render_svg(margin=)": lambda: render_svg(None, None, margin=48.0),
}


@pytest.mark.parametrize("call", FIXED_SETTINGS.values(), ids=FIXED_SETTINGS.keys())
def test_fixed_settings_are_not_keywords(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


#: Run in a fresh interpreter: with SciPy unimportable, import the CLI, run every command on tiny inputs and
#: print the modules that the commands loaded after the import.
_START_UP_SCRIPT = """
import json, os, sys
sys.modules["scipy"] = None
import zerocensored.cli as cli
before = set(sys.modules)
os.chdir(sys.argv[1])
model = {"mean": [0.4, 0.2], "cov": [[0.3, 0.05], [0.05, 0.2]], "loglik": 0.0, "converged": True,
         "iterations": 0, "D": 3, "n1": 0, "n2": 0}
with open("model.json", "w") as fh:
    json.dump(model, fh)
with open("latent.csv", "w") as fh:
    fh.write("a,b,c\\n0.5,0.4,0.1\\n1.2,-0.05,-0.15\\n-0.2,0.6,0.6\\n")
codes = [
    cli.main(["simulate", "model.json", "-n", "200", "--seed", "1", "-o", "data.csv"]),
    cli.main(["fit", "data.csv", "-o", "fitted.json"]),
    cli.main(["diagnose", "fitted.json", "data.csv", "--sims", "20000", "--replicates", "99", "-o", "diag.json"]),
    cli.main(["project", "latent.csv", "-o", "projected.csv"]),
    cli.main(["plot", "data.csv", "--model", "fitted.json", "-o", "plot.svg"]),
]
loaded = sorted(set(sys.modules) - before)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_cli_runs_without_scipy_and_loads_no_module_after_start(tmp_path):
    # SciPy's import cost most of a CLI start; no command may need it.  A module that a command loads
    # lazily, such as numpy.random or argparse's locale, is paid inside that command instead of at start-up.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", _START_UP_SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0, 0, 0], "loaded": []}
