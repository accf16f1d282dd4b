"""Simulation from a fitted model and the zero-count goodness-of-fit diagnostic.

Draws come from the latent normal, are mapped back through the exponent-one
transform, and out-of-simplex draws are pulled onto a face, exactly as the
model censors, by the one boundary rule in ``geometry``: simulation calls
``project_rows``, and the zero rates count ``zero_parts`` without pulling.
The part count is always the model's, ``model.dim + 1``.  ``diagnose`` is
the one route to the diagnostic: it compares observed per-component zero
counts against Monte Carlo expectations under the fitted model, with a
chi-square discrepancy and an optional simulated p-value, whose replicate
zero counts are drawn from their exact law given the rates,
Multinomial(n, (rates, 1 - sum(rates))).

Determinism contract: every public operation takes an integer seed.  Rate
estimation runs in fixed chunks of ``CHUNK_SIZE`` latent draws; the chunk
generators are ``SeedSequence(seed).spawn(n_chunks)``, so the same seed and
``n_sims`` reproduce results exactly (and chunks may be evaluated in parallel
without changing them); the p-value replicates use child n_chunks.  Each
stream, a rate chunk's or a simulation's, is drawn in consecutive blocks of
``BLOCK_ROWS`` rows, and a remainder shorter than one block joins the last
block.  This changes no value: the output is bit-for-bit that of one
whole-stream draw.  So ``simulate_compositions`` holds its result plus one
block and ``zero_rates`` one block, and a tie or two-zero error names row
numbers within the block.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dataset import CompositionalDataset, part_names
from .gaussian import MvnParams
from .geometry import project_rows, zero_parts
from .likelihood import FittedModel, json_float
from .simplex import _inverse_affine

#: Latent draws per rate chunk, each chunk with its own child generator.
CHUNK_SIZE = 1 << 17
#: Rows per draw block: a stream is drawn, mapped and counted or pulled this many rows at a time.
BLOCK_ROWS = 1 << 14
#: Expected counts below this are pooled into a single leftover cell.
CHI_SQUARE_FLOOR = 0.5
MIN_RATE_SIMS = 10_000


def _draw_parts(model: MvnParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n latent normal draws mapped back to unit-sum parts, before any boundary rule."""
    latent = rng.standard_normal((n, model.dim)) @ model.chol.T
    latent += model.mean
    return _inverse_affine(latent)


def _draw_blocks(model: MvnParams, n: int, rng: np.random.Generator):
    """Yield (rows, parts) for consecutive blocks of n draws; together they are ``_draw_parts(model, n, rng)``.

    Blocks have ``BLOCK_ROWS`` rows and the remainder joins the last one, so
    no block but a lone one is shorter than that: BLAS rounds some small
    products differently, and blocks this long give the whole-array values.
    """
    n_blocks = max(1, n // BLOCK_ROWS)
    for i in range(n_blocks):
        start = i * BLOCK_ROWS
        stop = n if i == n_blocks - 1 else start + BLOCK_ROWS
        yield slice(start, stop), _draw_parts(model, stop - start, rng)


def _seed_sequence(seed) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def simulate_compositions(n: int, model: MvnParams, seed) -> CompositionalDataset:
    """Draw n compositions of ``model.dim + 1`` parts: latent normal, inverse transform, boundary pull.

    The draws are pulled block by block (see ``_draw_blocks``), so a tied or
    two-zero draw raises with its row number within its block.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    n = int(n)
    parts = np.empty((n, model.dim + 1))
    zero_index = np.empty(n, dtype=np.intp)
    for rows, block in _draw_blocks(model, n, np.random.default_rng(seed)):
        parts[rows], zero_index[rows] = project_rows(block)
        del block  # before the next block is drawn
    return CompositionalDataset(parts=parts, zero_index=zero_index)


def zero_rates(model: MvnParams, n_sims: int, seed) -> np.ndarray:
    """Monte Carlo probability that a draw lands with its zero in part j, for each of ``model.dim + 1`` parts.

    The draws run in chunks of ``CHUNK_SIZE``, each drawn and counted in
    blocks of ``BLOCK_ROWS`` rows, so one block is held at a time and a tied
    or two-zero draw raises with its row number within its block.  The rates
    sum to the overall boundary probability, which is at most 1.
    """
    if n_sims < MIN_RATE_SIMS:
        raise ValueError(f"need at least {MIN_RATE_SIMS} simulations, got {n_sims}")
    n_parts = model.dim + 1
    n_chunks = math.ceil(n_sims / CHUNK_SIZE)
    children = _seed_sequence(seed).spawn(n_chunks)
    counts = np.zeros(n_parts, dtype=np.int64)
    remaining = int(n_sims)
    for child in children:
        m = min(CHUNK_SIZE, remaining)
        for _, parts in _draw_blocks(model, m, np.random.default_rng(child)):
            counts += np.bincount(zero_parts(parts) + 1, minlength=n_parts + 1)[1:]
            del parts  # before the next block is drawn
        remaining -= m
    return counts / float(n_sims)


@dataclass(frozen=True)
class ZeroDiagnostics:
    """Observed versus model-expected zero counts per component, as ``diagnose`` reports them.

    ``mc_pvalue`` and ``n_replicates`` are None when no replicates were
    drawn.  The JSON form writes an infinite ``chi_square`` (an observed zero
    the model calls impossible) as null.
    """

    names: tuple[str, ...] | None
    observed_counts: np.ndarray
    expected_counts: np.ndarray
    observed_rates: np.ndarray
    expected_rates: np.ndarray
    chi_square: float
    mc_pvalue: float | None
    n_observations: int
    n_sims: int
    n_replicates: int | None
    seed: int

    def to_dict(self) -> dict:
        return {
            "names": None if self.names is None else list(self.names),
            "observed_counts": [int(v) for v in self.observed_counts],
            "expected_counts": [float(v) for v in self.expected_counts],
            "observed_rates": [float(v) for v in self.observed_rates],
            "expected_rates": [float(v) for v in self.expected_rates],
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
        rows = [
            ["Components", *part_names(self.names, self.expected_counts.size)],
            ["Observed zeros", *(str(int(v)) for v in self.observed_counts)],
            ["Estimated zeros", *(f"{v:.3f}" for v in self.expected_counts)],
        ]
        widths = [max(map(len, column)) for column in zip(*rows)]
        return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def _chi_square_discrepancy(observed, expected) -> float:
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


def diagnose(
    model: FittedModel,
    dataset: CompositionalDataset,
    *,
    n_sims: int,
    seed,
    n_replicates: int | None = None,
) -> ZeroDiagnostics:
    """Zero-count diagnostic of a dataset against a fitted model, with an optional simulated p-value.

    The expected counts are n times ``zero_rates(model.params, n_sims=n_sims,
    seed=seed)``, estimated once.  With ``n_replicates`` (at least 99) the
    p-value is the add-one rank (1 + #{replicate >= observed}) / (R + 1) of
    the chi-square discrepancy among R replicate zero-count vectors, drawn from
    the next child of the seed's sequence, after the rate chunks.
    """
    if dataset.n_parts != model.n_parts:
        raise ValueError(
            f"dataset has {dataset.n_parts} components but the model expects {model.n_parts}"
        )
    if n_replicates is not None and n_replicates < 99:
        raise ValueError(f"need at least 99 replicates, got {n_replicates}")
    seq = _seed_sequence(seed)
    # By keyword: the traced benchmark (perfbench/layers.py) reads n_sims from the call.
    rates = zero_rates(model.params, n_sims=n_sims, seed=seq)
    n_obs = dataset.n_obs
    expected = n_obs * rates
    observed = dataset.observed_zero_counts()
    stat = _chi_square_discrepancy(observed, expected)
    pvalue = None
    if n_replicates is not None:
        rng = np.random.default_rng(seq.spawn(1)[0])
        replicates = rng.multinomial(n_obs, [*rates, max(0.0, 1.0 - rates.sum())], size=n_replicates)
        exceed = sum(_chi_square_discrepancy(c, expected) >= stat for c in replicates[:, :-1])
        pvalue = (1 + exceed) / (n_replicates + 1)
    return ZeroDiagnostics(
        names=dataset.names,
        observed_counts=observed,
        expected_counts=expected,
        observed_rates=observed / max(n_obs, 1),
        expected_rates=rates,
        chi_square=stat,
        mc_pvalue=pvalue,
        n_observations=n_obs,
        n_sims=int(n_sims),
        n_replicates=n_replicates,
        seed=int(seed) if isinstance(seed, numbers.Integral) else -1,
    )
