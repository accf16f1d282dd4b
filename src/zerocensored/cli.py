"""Command line front end: fit, simulate, diagnose, project, plot.

Exit codes: 0 success, 2 input error, 3 fit did not converge, 4 unsupported
data (rows with two or more zeros, or ties during projection).  Every command
is deterministic given its flags; seeds default to ``DEFAULT_SEED``, never to
the clock.
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401  argparse's gettext imports it when each command builds its parser
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import CompositionalDataset, transform_dataset
from .diagnostics import _simulated_blocks, diagnose
from .io import (
    read_compositions_csv,
    read_latent_csv,
    read_model_json,
    write_compositions_csv,
    write_diagnostics_json,
    write_file,
    write_model_json,
)
from .likelihood import ParameterBoundError, fit
from .simplex import ZERO_TOL, MultipleZerosError, TiedMinimumError, project_rows
from .ternary import render_svg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_UNSUPPORTED = 4

DEFAULT_SEED = 0
DEFAULT_SIMS = 1_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerocensored",
        description="Zero-censored multivariate normal modelling for compositional data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the model to a CSV of compositions")
    p_fit.add_argument("data_csv", type=Path)
    p_fit.add_argument("-o", "--output", type=Path, required=True, help="model JSON path")
    p_fit.add_argument("--closure", action="store_true", help="rows are raw amounts; normalize first")
    p_fit.add_argument("--max-iter", type=int, default=5000)
    p_fit.add_argument("--tol", type=float, default=1e-6, help="gradient inf-norm tolerance")
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="simulate compositions from a fitted model")
    p_sim.add_argument("model_json", type=Path)
    p_sim.add_argument("-n", "--count", type=int, required=True)
    p_sim.add_argument("-o", "--output", type=Path, required=True, help="CSV path")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.set_defaults(func=_cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="zero-count goodness of fit of a model against data")
    p_diag.add_argument("model_json", type=Path)
    p_diag.add_argument("data_csv", type=Path)
    p_diag.add_argument("-o", "--output", type=Path, required=True, help="diagnostics JSON path")
    p_diag.add_argument("--closure", action="store_true")
    p_diag.add_argument(
        "--sims",
        type=int,
        default=DEFAULT_SIMS,
        help="Monte Carlo draws for rates, four per normal vector; at D = 3 the rates are exact and draw none",
    )
    p_diag.add_argument("--replicates", type=int, default=None, help="simulated p-value replicates")
    p_diag.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_proj = sub.add_parser("project", help="pull out-of-simplex latent vectors onto the boundary")
    p_proj.add_argument("latent_csv", type=Path)
    p_proj.add_argument("-o", "--output", type=Path, required=True, help="CSV path")
    p_proj.set_defaults(func=_cmd_project)

    p_plot = sub.add_parser("plot", help="ternary SVG of a 3-part dataset, optionally with contours")
    p_plot.add_argument("data_csv", type=Path)
    p_plot.add_argument("--model", type=Path, default=None, help="fitted model JSON for contours")
    p_plot.add_argument("--closure", action="store_true")
    p_plot.add_argument("-o", "--output", type=Path, required=True, help="SVG path")
    p_plot.set_defaults(func=_cmd_plot)

    return parser


def _cmd_fit(args) -> int:
    dataset = read_compositions_csv(args.data_csv, apply_closure=args.closure)
    d = dataset.n_parts - 1
    if dataset.n_obs < d + 2:
        print(f"error: need at least {d + 2} rows for a {d}-dimensional fit", file=sys.stderr)
        return EXIT_INPUT
    sample = transform_dataset(dataset)
    model = fit(sample, max_iter=args.max_iter, gradient_tol=args.tol)
    write_model_json(args.output, model)
    print(f"observations: {model.n_interior + model.n_face} "
          f"(interior n1={model.n_interior}, boundary n2={model.n_face})")
    print(f"log-likelihood: {model.loglik:.6f}")
    print(f"converged: {'yes' if model.converged else 'NO'} ({model.iterations} iterations, "
          f"gradient inf-norm {model.gradient_norm:.3e}; stop test: {model.message.partition(': ')[2]})")
    print(f"wrote {args.output}")
    return EXIT_OK if model.converged else EXIT_NO_CONVERGENCE


def _cmd_simulate(args) -> int:
    model = read_model_json(args.model_json)
    if args.count < 0:
        print("error: -n must be non-negative", file=sys.stderr)
        return EXIT_INPUT
    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_INPUT
    n_face = 0

    def blocks():
        nonlocal n_face
        for parts, zero_index in _simulated_blocks(args.count, model.params, args.seed):
            n_face += int(np.count_nonzero(zero_index >= 0))
            yield parts
            del parts, zero_index  # not alive while the next block is drawn and pulled

    write_compositions_csv(args.output, blocks(), n_parts=model.n_parts)
    print(f"wrote {args.count} compositions ({n_face} on the boundary) to {args.output}")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    model = read_model_json(args.model_json)
    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_INPUT
    dataset = read_compositions_csv(args.data_csv, apply_closure=args.closure)
    result = diagnose(
        model,
        dataset,
        n_sims=args.sims,
        seed=args.seed,
        n_replicates=args.replicates,
    )
    write_diagnostics_json(args.output, result)
    print(result.table_text())
    print(f"chi-square discrepancy: {result.chi_square:.4f}")
    if result.mc_pvalue is not None:
        print(f"simulated p-value: {result.mc_pvalue:.4f} ({args.replicates} replicates)")
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_project(args) -> int:
    header, values = read_latent_csv(args.latent_csv)
    parts, zero_index = project_rows(values)
    n_projected = int(np.count_nonzero(values.min(axis=1) < -ZERO_TOL))
    dataset = CompositionalDataset(parts=parts, zero_index=zero_index, names=tuple(header))
    write_compositions_csv(args.output, dataset)
    print(f"projected {n_projected} of {values.shape[0]} rows onto the boundary; wrote {args.output}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    dataset = read_compositions_csv(args.data_csv, apply_closure=args.closure)
    if dataset.n_parts != 3:
        print(
            f"error: ternary plots need exactly 3 components, got {dataset.n_parts} "
            "(the model itself has no such limit)",
            file=sys.stderr,
        )
        return EXIT_INPUT
    params = None
    if args.model is not None:
        model = read_model_json(args.model)
        if model.n_parts != 3:
            print("error: model is not 3-part; cannot draw contours", file=sys.stderr)
            return EXIT_INPUT
        params = model.params
    svg = render_svg(dataset, params)
    write_file(args.output, lambda fh: fh.write(svg))
    print(f"wrote {args.output}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MultipleZerosError, TiedMinimumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ParameterBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
