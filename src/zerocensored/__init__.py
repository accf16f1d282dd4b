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
from .diagnostics import (
    ZeroDiagnostics,
    chi_square_discrepancy,
    diagnose,
    simulate_compositions,
    zero_rates,
)
from .gaussian import (
    ConditionalSplit,
    MvnParams,
    NotPositiveDefiniteError,
    cholesky,
    conditional_split,
    mvn_logpdf,
    std_normal_log_tail,
)
from .geometry import (
    TiedMinimumError,
    gram_schmidt_rotation,
    project_rows,
    zero_parts,
)
from .likelihood import (
    FittedModel,
    ParameterBoundError,
    boundary_term,
    fit,
    log_likelihood,
    pack_params,
    unpack_params,
)
from .simplex import (
    MultipleZerosError,
    alpha_transform,
    alpha_transform_simplex,
    as_composition,
    closure,
    helmert_submatrix,
    inverse_alpha_transform,
    jacobian_alpha,
    jacobian_simplex,
)
from .ternary import ContourLine, density_contours, render_svg, ternary_coordinates

__version__ = "0.1.0"

__all__ = [
    "CompositionalDataset",
    "TransformedSample",
    "transform_dataset",
    "ZeroDiagnostics",
    "chi_square_discrepancy",
    "diagnose",
    "simulate_compositions",
    "zero_rates",
    "ConditionalSplit",
    "MvnParams",
    "NotPositiveDefiniteError",
    "cholesky",
    "conditional_split",
    "mvn_logpdf",
    "std_normal_log_tail",
    "TiedMinimumError",
    "gram_schmidt_rotation",
    "project_rows",
    "zero_parts",
    "FittedModel",
    "ParameterBoundError",
    "boundary_term",
    "fit",
    "log_likelihood",
    "pack_params",
    "unpack_params",
    "MultipleZerosError",
    "alpha_transform",
    "alpha_transform_simplex",
    "as_composition",
    "closure",
    "helmert_submatrix",
    "inverse_alpha_transform",
    "jacobian_alpha",
    "jacobian_simplex",
    "ContourLine",
    "density_contours",
    "render_svg",
    "ternary_coordinates",
    "__version__",
]
