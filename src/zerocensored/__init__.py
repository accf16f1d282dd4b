"""Zero-censored multivariate normal modelling for compositional data with structural zeros.

A composition with a single zero part is treated as the boundary projection of
a latent Gaussian point that fell outside the simplex: the point is pulled
back along the line to the simplex centre, and its likelihood contribution is
the normal tail beyond the face point along that line.  The package provides
the simplex transformation machinery, the censored maximum-likelihood fit,
simulation from a fitted model, zero-count goodness-of-fit diagnostics, and
ternary SVG plots, plus a command line interface (``zerocensored --help``).
"""

from .dataset import CompositionalDataset, TransformedSample, transform_dataset
from .diagnostics import ZeroDiagnostics, diagnose, simulate_compositions, zero_rates
from .gaussian import MvnParams, NotPositiveDefiniteError, cholesky
from .likelihood import FittedModel, ParameterBoundError, boundary_term, fit, gram_schmidt_rotation, log_likelihood
from .simplex import (
    MultipleZerosError,
    TiedMinimumError,
    alpha_transform,
    closure,
    helmert_submatrix,
    inverse_alpha_transform,
    jacobian_alpha,
    jacobian_simplex,
    project_rows,
    zero_parts,
)
from .ternary import render_svg

__version__ = "0.1.0"

__all__ = [
    "CompositionalDataset",
    "TransformedSample",
    "transform_dataset",
    "ZeroDiagnostics",
    "diagnose",
    "simulate_compositions",
    "zero_rates",
    "MvnParams",
    "NotPositiveDefiniteError",
    "cholesky",
    "TiedMinimumError",
    "gram_schmidt_rotation",
    "project_rows",
    "zero_parts",
    "FittedModel",
    "ParameterBoundError",
    "boundary_term",
    "fit",
    "log_likelihood",
    "MultipleZerosError",
    "alpha_transform",
    "closure",
    "helmert_submatrix",
    "inverse_alpha_transform",
    "jacobian_alpha",
    "jacobian_simplex",
    "render_svg",
    "__version__",
]
