"""The package's public names, the README's list of them, its fixed settings and its import cost."""

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


def test_readme_lists_the_json_keys_the_writers_write():
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
    assert model_keys == list(model.to_dict())
    assert diagnostics_keys == list(diagnose(model, data, n_sims=10_000, seed=0).to_dict())


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


def test_cli_import_does_not_load_scipy_stats():
    # Importing scipy.stats made up about 40% of every command's start-up; the package needs none of it.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, zerocensored.cli; assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_only_the_scipy_subpackages_it_uses():
    # scipy.optimize would bring in sparse, spatial, fft and constants, about 215 modules, at every start.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = (
        "import sys, zerocensored.cli\n"
        "print(' '.join(sorted(name for name, module in sys.modules.items() if name.count('.') == 1\n"
        "    and name.startswith('scipy.') and not name[6:].startswith('_') and hasattr(module, '__path__'))))"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["scipy.linalg", "scipy.special"]
