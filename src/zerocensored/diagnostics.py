"""Simulation from a fitted model and the zero-count goodness-of-fit diagnostic.

Draws come from the latent normal, are mapped back through the exponent-one
transform, and out-of-simplex draws are pulled onto a face, exactly as the
model censors, by the one boundary rule in ``geometry``: simulation calls
``project_rows``, and the zero rates count ``zero_parts`` without pulling.
The diagnostic compares observed per-component zero counts against Monte
Carlo expectations under the fitted model, with a chi-square discrepancy and
an optional simulated p-value, whose replicate zero counts are drawn from
their exact law given the rates, Multinomial(n, (rates, 1 - sum(rates))).

Determinism contract: every public operation takes an integer seed.  Rate
estimation runs in fixed chunks of ``CHUNK_SIZE`` latent draws; the chunk
generators are ``SeedSequence(seed).spawn(n_chunks)``, so the same seed and
``n_sims`` reproduce results exactly (and chunks may be evaluated in parallel
without changing them); the p-value replicates use child n_chunks.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .dataset import CompositionalDataset
from .gaussian import MvnParams
from .geometry import project_rows, zero_parts
from .likelihood import FittedModel, json_float
from .simplex import inverse_alpha_transform

#: Latent draws per rate chunk, each chunk with its own child generator.
CHUNK_SIZE = 1 << 17
#: Expected counts below this are pooled into a single leftover cell.
CHI_SQUARE_FLOOR = 0.5
MIN_RATE_SIMS = 10_000


def _draw_parts(model: MvnParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n latent normal draws mapped back to unit-sum parts, before any boundary rule."""
    latent = model.mean + rng.standard_normal((n, model.dim)) @ model.chol.T
    parts, _ = inverse_alpha_transform(latent, 1.0)
    return parts


def _seed_sequence(seed) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def simulate_compositions(n: int, model: MvnParams, n_parts: int, seed) -> CompositionalDataset:
    """Draw n compositions from the zero-censored model: latent normal, inverse transform, boundary pull."""
    if model.dim != n_parts - 1:
        raise ValueError(f"model dimension {model.dim} does not match {n_parts} parts")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    parts, zero_index = project_rows(_draw_parts(model, int(n), np.random.default_rng(seed)))
    return CompositionalDataset(parts=parts, zero_index=zero_index)


def zero_rates(model: MvnParams, n_parts: int, n_sims: int, seed) -> np.ndarray:
    """Monte Carlo probability that a draw lands with its zero in component j, for each j.

    The draws run in chunks of ``CHUNK_SIZE``.  The rates sum to the overall
    boundary probability, which is at most 1.
    """
    if model.dim != n_parts - 1:
        raise ValueError(f"model dimension {model.dim} does not match {n_parts} parts")
    if n_sims < MIN_RATE_SIMS:
        raise ValueError(f"need at least {MIN_RATE_SIMS} simulations, got {n_sims}")
    n_chunks = math.ceil(n_sims / CHUNK_SIZE)
    children = _seed_sequence(seed).spawn(n_chunks)
    counts = np.zeros(n_parts, dtype=np.int64)
    remaining = int(n_sims)
    for child in children:
        m = min(CHUNK_SIZE, remaining)
        # No name holds the latent draws, so they are freed before the rule runs, and the zero
        # indices go before the next chunk is drawn: kept, they add ~5 MB to peak RSS at D = 10.
        zero_index = zero_parts(_draw_parts(model, m, np.random.default_rng(child)))
        counts += np.bincount(zero_index + 1, minlength=n_parts + 1)[1:]
        del zero_index
        remaining -= m
    return counts / float(n_sims)


@dataclass(frozen=True)
class ZeroDiagnostics:
    """Observed versus model-expected zero counts per component.

    ``observed_*``, ``chi_square`` and ``mc_pvalue`` are None when the
    diagnostic was built without data (expected side only).  The JSON form
    writes an infinite ``chi_square`` (an observed zero the model calls
    impossible) as null.
    """

    expected_rates: np.ndarray
    expected_counts: np.ndarray
    n_observations: int
    n_sims: int
    seed: int
    names: tuple[str, ...] | None = None
    observed_counts: np.ndarray | None = None
    observed_rates: np.ndarray | None = None
    chi_square: float | None = None
    mc_pvalue: float | None = None
    n_replicates: int | None = None

    def to_dict(self) -> dict:
        def listify(a):
            return None if a is None else [float(v) for v in a]

        return {
            "names": list(self.names) if self.names is not None else None,
            "observed_counts": None
            if self.observed_counts is None
            else [int(v) for v in self.observed_counts],
            "expected_counts": listify(self.expected_counts),
            "observed_rates": listify(self.observed_rates),
            "expected_rates": listify(self.expected_rates),
            "chi_square": json_float(self.chi_square),
            "mc_pvalue": None if self.mc_pvalue is None else float(self.mc_pvalue),
            "n_observations": int(self.n_observations),
            "n_sims": int(self.n_sims),
            "n_replicates": None if self.n_replicates is None else int(self.n_replicates),
            "seed": int(self.seed),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), allow_nan=False, **kwargs)

    def table_text(self) -> str:
        """Aligned component/observed/estimated table (the classic zero-count layout)."""
        n_parts = self.expected_counts.size
        names = self.names if self.names is not None else tuple(f"comp{i + 1}" for i in range(n_parts))
        observed = (
            ["-"] * n_parts
            if self.observed_counts is None
            else [str(int(v)) for v in self.observed_counts]
        )
        estimated = [f"{v:.3f}" for v in self.expected_counts]
        rows = [
            ["Components", *names],
            ["Observed zeros", *observed],
            ["Estimated zeros", *estimated],
        ]
        widths = [max(len(row[j]) for row in rows) for j in range(n_parts + 1)]
        lines = ["  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)) for row in rows]
        return "\n".join(lines)


def _recorded_seed(seed) -> int:
    return int(seed) if isinstance(seed, numbers.Integral) else -1


def expected_zero_table(model: FittedModel, n_obs: int, n_sims: int, seed, *, names=None) -> ZeroDiagnostics:
    """Expected zero counts for a sample of size n_obs under the fitted model."""
    if n_obs < 0:
        raise ValueError(f"need n_obs >= 0, got {n_obs}")
    rates = zero_rates(model.params, model.n_parts, n_sims, seed)
    return ZeroDiagnostics(
        expected_rates=rates,
        expected_counts=n_obs * rates,
        n_observations=int(n_obs),
        n_sims=int(n_sims),
        seed=_recorded_seed(seed),
        names=tuple(names) if names is not None else None,
    )


def chi_square_discrepancy(observed, expected) -> float:
    """Sum of (obs - exp)^2 / exp over components, pooling sparse cells.

    Components with expected count below ``CHI_SQUARE_FLOOR`` are pooled into
    a single leftover cell so the statistic stays defined for sparse tables.
    A leftover cell with zero expectation contributes 0 when its observed
    count is also zero and +inf otherwise (an observation the model calls
    impossible).
    """
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if obs.shape != exp.shape or obs.ndim != 1 or obs.size == 0:
        raise ValueError("observed and expected must be equal-length non-empty vectors")
    if np.any(exp < 0.0):
        raise ValueError("expected counts must be non-negative")
    keep = exp >= CHI_SQUARE_FLOOR
    stat = float(np.sum((obs[keep] - exp[keep]) ** 2 / exp[keep]))
    pooled_obs = float(obs[~keep].sum())
    pooled_exp = float(exp[~keep].sum())
    if pooled_exp > 0.0:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
    elif pooled_obs > 0.0:
        return math.inf
    return stat


def _replicate_pvalue(stat: float, rates: np.ndarray, n_obs: int, n_replicates: int, seq) -> float:
    """Add-one rank of ``stat`` among ``n_replicates`` multinomial replicates drawn from the rates.

    The draw uses the next child of ``seq``, the sequence the rates came from, so
    the replicate stream is disjoint from the rate chunks.
    """
    if n_replicates < 99:
        raise ValueError(f"need at least 99 replicates, got {n_replicates}")
    expected = n_obs * rates
    rng = np.random.default_rng(seq.spawn(1)[0])
    counts = rng.multinomial(int(n_obs), [*rates, max(0.0, 1.0 - rates.sum())], size=n_replicates)[:, :-1]
    exceed = sum(chi_square_discrepancy(c, expected) >= stat for c in counts)
    return (1 + exceed) / (n_replicates + 1)


def mc_pvalue(model: FittedModel, observed, n_obs: int, n_replicates: int, n_sims: int, seed) -> float:
    """Simulated p-value for the zero-count discrepancy, add-one convention.

    Each replicate is scored with ``chi_square_discrepancy`` against the table
    ``zero_rates(..., seed)`` gives, and the p-value is (1 + #{replicate >=
    observed}) / (n_replicates + 1); ``diagnose`` reports it for the same seed.
    """
    seq = _seed_sequence(seed)
    rates = zero_rates(model.params, model.n_parts, n_sims, seq)
    stat = chi_square_discrepancy(observed, n_obs * rates)
    return _replicate_pvalue(stat, rates, n_obs, n_replicates, seq)


def diagnose(
    model: FittedModel,
    dataset: CompositionalDataset,
    *,
    n_sims: int,
    seed,
    n_replicates: int | None = None,
) -> ZeroDiagnostics:
    """Full zero-count diagnostic of a dataset against a fitted model."""
    if dataset.n_parts != model.n_parts:
        raise ValueError(
            f"dataset has {dataset.n_parts} components but the model expects {model.n_parts}"
        )
    seq = _seed_sequence(seed)
    table = expected_zero_table(model, dataset.n_obs, n_sims, seq, names=dataset.names)
    observed = dataset.observed_zero_counts()
    stat = chi_square_discrepancy(observed, table.expected_counts)
    pvalue = None if n_replicates is None else _replicate_pvalue(
        stat, table.expected_rates, dataset.n_obs, n_replicates, seq
    )
    return replace(
        table,
        seed=_recorded_seed(seed),
        observed_counts=observed,
        observed_rates=observed / max(dataset.n_obs, 1),
        chi_square=stat,
        mc_pvalue=pvalue,
        n_replicates=n_replicates,
    )
