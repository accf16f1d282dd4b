"""Which public functions the traced run wraps, and the per-layer metrics made from their spans.

Each target is looked up where its caller finds it: the CLI's imported names
for the command steps, ``likelihood.minimize`` for the optimizer,
``diagnostics.zero_rates`` and ``diagnostics.mc_pvalue`` for the Monte Carlo
code, and the ``CompositionalDataset.from_array`` classmethod for validation
inside the CSV readers.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from tracing import Span, Tracer

import zerocensored.cli as cli
import zerocensored.diagnostics as diagnostics
import zerocensored.likelihood as likelihood
from zerocensored.dataset import CompositionalDataset, transform_dataset

UNITS = {
    "io.read_csv_s": "s",
    "io.bytes_read": "B",
    "dataset.validate_s": "s",
    "io.write_csv_s": "s",
    "io.bytes_written": "B",
    "dataset.transform_s": "s",
    "dataset.face_share": "share",
    "likelihood.loglik_face_s": "s",
    "likelihood.loglik_interior_s": "s",
    "likelihood.fit.gradient_calls": "count",
    "likelihood.fit.gradient_s": "s",
    "likelihood.fit.objective_calls": "count",
    "likelihood.fit.objective_s": "s",
    "likelihood.fit.optimizer_self_s": "s",
    "likelihood.fit.outside_minimize_s": "s",
    "likelihood.fit.iterations": "count",
    "likelihood.fit.loglik": "nat",
    "likelihood.fit.gradient_norm": "1",
    "diagnostics.simulate_s": "s",
    "diagnostics.zero_rates_s": "s",
    "diagnostics.zero_rates.calls": "count",
    "diagnostics.draws_per_s": "1/s",
    "geometry.project_s": "s",
}
#: Layers that only the 3-part workload exercises; reported beside the result, not in it.
REPORT_ONLY = ("diagnostics.mc_pvalue_s", "ternary.render_svg_s")


def _path_bytes(span: Span, args, kwargs, result) -> None:
    span.attrs["bytes"] = os.path.getsize(args[0])


def _fit_result(span: Span, args, kwargs, model) -> None:
    span.attrs.update(iterations=model.iterations, loglik=model.loglik, gradient_norm=model.gradient_norm)


def _draws(span: Span, args, kwargs, result) -> None:
    span.attrs["draws"] = int(args[2] if len(args) > 2 else kwargs["n_sims"])


def targets(tracer: Tracer) -> list:
    def wrap(name, record=None):
        return lambda fn: tracer.wrap(name, fn, record)

    return [
        (cli, "read_compositions_csv", wrap("io.read_compositions_csv", _path_bytes)),
        (cli, "read_latent_csv", wrap("io.read_latent_csv", _path_bytes)),
        (CompositionalDataset, "from_array", wrap("dataset.from_array")),
        (cli, "transform_dataset", wrap("dataset.transform_dataset")),
        (cli, "fit", wrap("likelihood.fit", _fit_result)),
        (likelihood, "minimize", tracer.wrap_minimize),
        (cli, "write_model_json", wrap("io.write_model_json")),
        (cli, "read_model_json", wrap("io.read_model_json")),
        (cli, "simulate_compositions", wrap("diagnostics.simulate_compositions")),
        (cli, "write_compositions_csv", wrap("io.write_compositions_csv", _path_bytes)),
        (cli, "diagnose", wrap("diagnostics.diagnose")),
        (diagnostics, "zero_rates", wrap("diagnostics.zero_rates", _draws)),
        (diagnostics, "mc_pvalue", wrap("diagnostics.mc_pvalue")),
        (cli, "write_diagnostics_json", wrap("io.write_diagnostics_json")),
        (cli, "render_svg", wrap("ternary.render_svg")),
    ]


def probe_loglik(tracer: Tracer, model_json, data_csv, calls: int) -> None:
    """Time ``log_likelihood`` separately on the interior-only and face-only rows of the data.

    Both samples are built with ``transform_dataset`` and evaluated at the
    fitted parameters.
    """
    from zerocensored.io import read_compositions_csv, read_model_json

    model = read_model_json(model_json)
    data = read_compositions_csv(data_csv)
    for name, parts, zero_index in (
        ("likelihood.loglik_interior", data.interior_parts, np.full(data.n_interior, -1)),
        ("likelihood.loglik_face", data.face_parts, data.face_zero_index),
    ):
        sample = transform_dataset(CompositionalDataset(parts=parts, zero_index=zero_index))
        for _ in range(calls):
            with tracer.span(name):
                likelihood.log_likelihood(sample, model.mean, model.cov)


def metrics(records: list[dict], face_share: float) -> dict:
    """Per-layer figures of one traced session from its span records."""

    def spans(name: str) -> list[dict]:
        return [r for r in records if r["name"] == name]

    def total(name: str, key: str = "duration") -> float:
        return sum(r[key] for r in spans(name))

    def median(name: str) -> float:
        return statistics.median(r["duration"] for r in spans(name))

    reads = spans("io.read_compositions_csv") + spans("io.read_latent_csv")
    writes = spans("io.write_compositions_csv")
    fits = spans("likelihood.fit")
    combined = spans("fit.objective_and_gradient")
    gradient = spans("fit.gradient") + combined
    zero_rates = spans("diagnostics.zero_rates")
    zero_rates_s = total("diagnostics.zero_rates")
    return {
        "io.read_csv_s": sum(r["self"] for r in reads),
        "io.bytes_read": sum(r["bytes"] for r in reads),
        "dataset.validate_s": total("dataset.from_array"),
        "io.write_csv_s": sum(r["duration"] for r in writes),
        "io.bytes_written": sum(r["bytes"] for r in writes),
        "dataset.transform_s": total("dataset.transform_dataset"),
        "dataset.face_share": face_share,
        "likelihood.loglik_face_s": median("likelihood.loglik_face"),
        "likelihood.loglik_interior_s": median("likelihood.loglik_interior"),
        "likelihood.fit.gradient_calls": len(gradient),
        "likelihood.fit.gradient_s": sum(r["duration"] for r in gradient),
        "likelihood.fit.objective_calls": len(spans("fit.objective")) + len(combined),
        "likelihood.fit.objective_s": total("fit.objective"),
        "likelihood.fit.optimizer_self_s": total("scipy.minimize", "self"),
        "likelihood.fit.outside_minimize_s": sum(r["self"] for r in fits),
        "likelihood.fit.iterations": sum(r["iterations"] for r in fits),
        "likelihood.fit.loglik": fits[-1]["loglik"],
        "likelihood.fit.gradient_norm": fits[-1]["gradient_norm"],
        "diagnostics.simulate_s": total("diagnostics.simulate_compositions"),
        "diagnostics.zero_rates_s": zero_rates_s,
        "diagnostics.zero_rates.calls": len(zero_rates),
        "diagnostics.draws_per_s": sum(r["draws"] for r in zero_rates) / zero_rates_s,
        "geometry.project_s": total("cli.project", "self"),
        "diagnostics.mc_pvalue_s": total("diagnostics.mc_pvalue", "self"),
        "ternary.render_svg_s": total("ternary.render_svg"),
    }


def absent(workload, missing) -> dict:
    """Layers the workload does not exercise, or whose function could not be wrapped, with the reason."""
    reasons = {name: "not found, so not wrapped" for name in missing}
    if workload.replicates is None:
        reasons["diagnostics.mc_pvalue_s"] = "diagnose runs without --replicates on this workload"
    if not workload.plot:
        reasons["ternary.render_svg_s"] = "plot needs a 3-part workload"
    return reasons
