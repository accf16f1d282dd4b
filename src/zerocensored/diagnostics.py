"""Simulation from a fitted model and the zero-count goodness-of-fit diagnostic.

Draws come from the latent normal, are mapped back through the exponent-one
transform, and out-of-simplex draws are pulled onto a face, exactly as the
model censors, by the one boundary rule in ``simplex``: simulation calls
``project_rows``, and the Monte Carlo zero rates apply the same rule,
without pulling, to each block of parts stored by part.  The part count is
always the model's, ``model.dim + 1``.  ``diagnose`` is the one route to the
diagnostic: it compares observed per-component zero counts against their
expectations under the fitted model, with a chi-square discrepancy and an
optional simulated p-value, whose replicate zero counts are drawn from
their exact law given the rates, Multinomial(n, (rates, 1 - sum(rates))).
At D = 3 the expected rates are exact, a fixed-node quadrature over the
direction angle on the likelihood's face kernel (``_arc_rates``); at any
other D they are a Monte Carlo estimate (``_monte_carlo_rates``).

Determinism contract: every public operation takes an integer seed.  At
D = 3 ``zero_rates`` draws nothing and ignores ``n_sims`` and ``seed``,
though it checks ``n_sims`` as at every D, so the same model gives the same
rates.  Elsewhere each estimate is one stream: ``zero_rates`` draws its
normal vectors from ``default_rng(seed)``, as ``simulate_compositions``
draws its rows, so the same seed and ``n_sims`` reproduce results exactly.
``diagnose`` names its two streams, ``SeedSequence(seed).spawn(2)``: the
rates use child 0 and the p-value replicates child 1.  The Monte Carlo rates
count each of their ⌈n_sims/4⌉ normal vectors four times, under the powers
of a quarter-turn (see ``_monte_carlo_rates``).
Each stream, the rates' or a simulation's, is drawn in consecutive blocks of
``BLOCK_ROWS`` draws (a rate block: ``BLOCK_ROWS / 4`` vectors and their
four images), and a remainder shorter than one block joins the last block.
The blocks change no value: the output is bit-for-bit that of one
whole-stream draw mapped the same way.  A call draws each block's normals
into one buffer and maps them into a second, both reused across blocks, so a
block is overwritten by the next one, and a tie or two-zero error names row
numbers within its block.  ``simulate_compositions`` maps rows and holds its
result plus the two buffers and one pulled block.  ``_monte_carlo_rates`` maps each
block's vectors by two products, for images 0 and 1, into their parts stored
by part, writes the parts of images 2 and 3, the reflections, beside them
from the same products, and adds only the zero rule's bool mask.  Those
products round differently from ``simulate``'s two, so a count can differ
only for a draw within an ulp of a ``ZERO_TOL`` threshold.  The CLI's
``simulate`` writes each pulled block as it comes, never holding the n-row
result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.random  # NumPy loads it, and about 20 modules with it, only on first use

from .dataset import CompositionalDataset, part_names
from .gaussian import MvnParams
from .likelihood import FittedModel, _face_terms, _solve_chol
from .simplex import _helmert_readonly, _inverse_affine, _zero_rule, project_rows

#: Rows per draw block: a stream is drawn, mapped and counted or pulled this many rows at a time.
BLOCK_ROWS = 1 << 14
#: Expected counts below this are pooled into a single leftover cell.
CHI_SQUARE_FLOOR = 0.5
MIN_RATE_SIMS = 10_000
#: Gauss–Legendre nodes in each graded piece of the D = 3 angle integral (``_arc_rates``).
ARC_NODES = 128


def _longest_block(n: int, block_rows: int = BLOCK_ROWS) -> int:
    """Rows in the longest block of a stream of n draws: the last one, which takes the remainder."""
    return n if n < block_rows else block_rows + n % block_rows


def _draw_blocks(d: int, n: int, seed, buffer: np.ndarray, block_rows: int = BLOCK_ROWS):
    """Yield the (m, d) standard normal draws of each block of a stream of n draws from
    ``default_rng(seed)``, drawn into the flat float64 ``buffer``.

    The blocks have ``block_rows`` rows and the remainder joins the last one,
    so no block but a lone one is shorter than that: BLAS rounds some small
    products differently, and ``BLOCK_ROWS``-row blocks give the whole-stream
    values.  ``buffer`` holds at least ``d`` times the longest block, and a
    yielded block is overwritten by the next.
    """
    rng = np.random.default_rng(seed)
    n_blocks = max(1, n // block_rows)
    for i in range(n_blocks):
        start = i * block_rows
        stop = n if i == n_blocks - 1 else start + block_rows
        yield rng.standard_normal(out=buffer[: (stop - start) * d].reshape(-1, d))


def _seed_sequence(seed) -> np.random.SeedSequence:
    """A new ``SeedSequence(seed)``, or a copy of a ``SeedSequence`` seed: spawning leaves the caller's as it was."""
    s = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return type(s)(s.entropy, spawn_key=s.spawn_key, pool_size=s.pool_size, n_children_spawned=s.n_children_spawned)


def _simulated_blocks(n: int, model: MvnParams, seed):
    """Yield (parts, zero_index) for each block of n draws, in order: the rows of
    ``simulate_compositions(n, model, seed)``, one pulled block at a time, mapped by rows."""
    d = model.dim
    rows_max = _longest_block(n)
    flat = np.empty(rows_max * (d + 1))  # the block's normal draws, then its parts
    latent = np.empty((rows_max, d))
    for normal in _draw_blocks(d, n, seed, flat):
        m = len(normal)
        block = np.matmul(normal, model.chol.T, out=latent[:m])
        block += model.mean
        yield project_rows(_inverse_affine(block, out=flat[: m * (d + 1)].reshape(m, d + 1)))


def simulate_compositions(n: int, model: MvnParams, seed) -> CompositionalDataset:
    """Draw n compositions of ``model.dim + 1`` parts: latent normal, inverse transform, boundary pull.

    The draws are pulled block by block (see ``_draw_blocks``), so a tied or
    two-zero draw raises with its row number within its block.
    """
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"need an integer n >= 0, got {n!r}")
    n = int(n)
    parts = np.empty((n, model.dim + 1))
    zero_index = np.empty(n, dtype=np.intp)
    start = 0
    for pulled in _simulated_blocks(n, model, seed):
        stop = start + len(pulled[1])
        parts[start:stop], zero_index[start:stop] = pulled
        start = stop
        del pulled  # not alive while the next block is drawn and pulled
    return CompositionalDataset(parts=parts, zero_index=zero_index)


def _column_map(model: MvnParams) -> tuple[np.ndarray, np.ndarray]:
    """(A, c) such that the parts of the latent draw mean + L z, stored by part, are A zᵀ + c:
    A = Hᵀ L / D and c = (Hᵀ mean + 1) / D, with c a (D, 1) column.

    A has d rounded up to even columns: for odd d its last column is zero,
    so z takes one normal more, which no part reads, and the pairs of
    coordinates that ``_quarter_turn`` turns are whole.
    """
    n_parts = model.dim + 1
    helmert_t = _helmert_readonly(n_parts).T
    weights = np.zeros((n_parts, model.dim + model.dim % 2))
    weights[:, : model.dim] = helmert_t @ model.chol / n_parts
    return weights, ((helmert_t @ model.mean + 1.0) / n_parts)[:, None]


def _quarter_turn(weights: np.ndarray) -> np.ndarray:
    """A R for the quarter-turn R, block diagonal in [[0, -1], [1, 0]] over pairs of coordinates:
    column 2i of A R is column 2i + 1 of A, and column 2i + 1 is minus column 2i, exactly."""
    turned = np.empty_like(weights)
    turned[:, 0::2] = weights[:, 1::2]
    np.negative(weights[:, 0::2], out=turned[:, 1::2])
    return turned


def zero_rates(model: MvnParams, n_sims: int, seed) -> np.ndarray:
    """Probability that a draw lands with its zero in part j, for each of ``model.dim + 1`` parts.

    At D = 3 the rates are exact (``_arc_rates``), and ``n_sims`` and
    ``seed`` are not used.  At any other D they are the Monte Carlo estimate
    of ``_monte_carlo_rates`` from ``n_sims`` draws of ``default_rng(seed)``.
    ``n_sims`` is checked at every D, so its errors do not depend on D.  The
    rates sum to the overall boundary probability, which is at most 1.
    """
    if not isinstance(n_sims, numbers.Integral) or n_sims < MIN_RATE_SIMS:
        raise ValueError(f"need an integer number of at least {MIN_RATE_SIMS} simulations, got {n_sims!r}")
    if model.dim == 2:
        return _arc_rates(model)
    return _monte_carlo_rates(model, n_sims, seed)


def _monte_carlo_rates(model: MvnParams, n_sims: int, seed) -> np.ndarray:
    """Monte Carlo probability that a draw lands with its zero in part j, for each of ``model.dim + 1`` parts.

    The n draws are one stream from ``default_rng(seed)``, and each normal
    vector z is counted four times, as its images R^j z, j = 0..3, under the
    quarter-turn R of ``_quarter_turn``.  R is orthogonal, so each image is
    standard normal and its draw has the model's law; R² = −I, so images 2
    and 3 are the antithetic reflections of images 0 and 1.  The stream is
    ⌈n/4⌉ vectors (of d rounded up to even coordinates, see
    ``_column_map``), and image j covers the first ⌊(n − j + 3)/4⌋ of them.
    It is counted in blocks of ``BLOCK_ROWS`` draws, ``BLOCK_ROWS / 4``
    vectors, and a tied or two-zero draw raises with its number within its
    block: in a block of m vectors, image j of vector i is number j·m + i.
    A block's parts, stored by part, are c + P, c + Q, c − P and c − Q for
    the products P = A zᵀ and Q = (A R) zᵀ (see ``_column_map``), so a
    reflection needs no product of its own, and the rule of ``zero_parts``
    counts them in that layout.  The images the stream's last vector goes
    without hold the simplex centre, which has no zero.  The rates sum to
    the overall boundary probability, which is at most 1.
    """
    n_parts = model.dim + 1
    vectors = -(-n_sims // 4)
    spare = 4 * vectors - n_sims  # the last vector goes without images 4 - spare .. 3
    weights, offsets = _column_map(model)
    turned = _quarter_turn(weights)
    dim = weights.shape[1]
    vector_rows = BLOCK_ROWS // 4
    rows_max = _longest_block(vectors, vector_rows)
    normal_buffer = np.empty(rows_max * dim)
    parts_buffer = np.empty(4 * rows_max * n_parts)
    mask_buffer = np.empty(4 * rows_max * n_parts, dtype=bool)
    counts = np.zeros(n_parts, dtype=np.int64)
    for normal in _draw_blocks(dim, vectors, seed, normal_buffer, vector_rows):
        m = len(normal)
        vectors -= m
        parts = parts_buffer[: 4 * m * n_parts].reshape(n_parts, 4 * m)
        np.matmul(weights, normal.T, out=parts[:, :m])
        np.matmul(turned, normal.T, out=parts[:, m : 2 * m])
        np.subtract(offsets, parts[:, : 2 * m], out=parts[:, 2 * m :])  # bit for bit the products of −z, plus c
        parts[:, : 2 * m] += offsets
        if not vectors:
            parts.reshape(n_parts, 4, m)[:, 4 - spare :, -1] = 1.0 / n_parts
        zeros = _zero_rule(parts, out=mask_buffer[: parts.size].reshape(n_parts, -1))[2]
        counts += [np.count_nonzero(part) for part in zeros]
    return counts / float(n_sims)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss–Legendre rule on [-1, 1], read-only.

    The nodes are the roots of the Legendre polynomial P_n, found by Newton's
    method from cos(pi (i - 1/4) / (n + 1/2)), with P_n and P_n' from the
    three-term recurrence, and the weights are 2 / ((1 - x^2) P_n'(x)^2).  No
    LAPACK eigensolver is touched: in a fresh process its code pages cost a
    command about 2 MB of resident memory.
    """
    x = np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(10):  # from this start, four steps reach full precision at 128 nodes
        before, p = np.ones(n), x
        for k in range(2, n + 1):
            before, p = p, ((2 * k - 1) * x * p - (k - 1) * before) / k
        slope = n * (x * p - before) / (x * x - 1.0)
        step = p / slope
        x = x - step
        if np.abs(step).max() <= 4.0 * np.finfo(float).eps:
            break
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    x.setflags(write=False)
    weights.setflags(write=False)
    return x, weights


def _held_to_arc(angle: float, lo: float, hi: float) -> float:
    """The angle in [lo, hi] of the point of that arc nearest ``angle`` on the circle (hi - lo < 2 pi)."""
    past = (angle - lo) % math.tau
    if past <= hi - lo:
        return lo + past
    return hi if past - (hi - lo) < math.tau - past else lo


def _arc_rates(model: MvnParams) -> np.ndarray:
    """Exact zero rates of a 3-part model, by fixed-node quadrature over the direction angle.

    In whitened coordinates z = L^-1 y the latent law is N(m, I) with
    m = L^-1 mu, and the parts of z = t e, for a unit direction e, are
    (H^T L e t + 1) / 3.  The first part to reach zero along e is
    j = argmin_k (H^T L e)_k, at the radius c = -1 / (H^T L e)_j, so rate j is
    the integral, over the angles of the directions whose part j that is, of
    the radial mass beyond c.  That mass is exp(term) (b/a + lam/sqrt(a)),
    E[T | T > c] for T ~ N(b/a, 1/a) times the face term of
    ``_face_terms(c, e, m, 0)``, with a = 1 and b = e . m.  Part j's
    directions are the arc between the whitened directions of the vertices
    at the ends of its edge, on which the integrand is smooth.

    Each arc is cut where the integrand can turn sharply: at m's angle and at
    the angle of the edge point nearest m, each held to the arc.  A cut at
    radius c gets the scale s = min(1, 1/|m|, delta/c^2), the angle across
    the unit-width blob at m or along a unit of the edge, whose distance
    from the origin is delta.  Each stretch between cuts is halved, and each
    half gets ``ARC_NODES`` Gauss–Legendre nodes in u, at the angle
    cut +/- s sinh(u), so they crowd towards its cut on the scale of its s
    (an arc end that is no cut has s = 1).  A sum of rates that rounding
    carries past 1 is scaled back to at most 1.
    """
    chol = model.chol
    helmert = _helmert_readonly(3)
    m = _solve_chol(chol, model.mean.copy())
    slopes = helmert.T @ chol  # part j of z = t e is (1 + t slopes[j] . e) / 3
    corners = _solve_chol(chol, helmert.copy())  # column k: the whitened direction of vertex k
    corner_angles = np.arctan2(corners[1], corners[0])
    norm_m = math.hypot(*m)
    m_angle = math.atan2(m[1], m[0])
    blob = min(1.0, 1.0 / norm_m) if norm_m else 1.0
    pieces = []  # (cut, signed length, scale, part) of each graded half
    order = np.argsort(corner_angles)
    for i in range(3):
        k, l = order[i], order[(i + 1) % 3]
        part = 3 - k - l  # zero on the edge between vertices k and l
        lo = corner_angles[k]
        hi = lo + (corner_angles[l] - lo) % math.tau
        normal = slopes[part]  # the edge is normal . z = -1, at distance 1/|normal| from the origin
        foot = m - (normal @ m + 1.0) / (normal @ normal) * normal
        scales = {lo: 1.0, hi: 1.0}
        for angle in (m_angle, math.atan2(foot[1], foot[0])):
            cut = _held_to_arc(angle, lo, hi)
            along = (normal[0] * math.cos(cut) + normal[1] * math.sin(cut)) ** 2 / math.hypot(*normal)  # delta/c^2
            scales[cut] = min(scales.get(cut, 1.0), blob, along)
        cuts = sorted(scales)
        for a, b in zip(cuts, cuts[1:]):
            middle = 0.5 * (a + b)
            pieces += [(a, middle - a, scales[a], part), (b, middle - b, scales[b], part)]
    cut, length, scale, part = (np.array(column) for column in zip(*pieces))
    nodes, weights = _gauss_legendre(ARC_NODES)
    span = np.arcsinh(np.abs(length) / scale)
    u = np.multiply.outer(0.5 * span, 1.0 + nodes)
    angles = (cut[:, None] + np.copysign(scale, length)[:, None] * np.sinh(u)).ravel()
    widths = ((0.5 * span * scale)[:, None] * weights * np.cosh(u)).ravel()
    directions = np.stack((np.cos(angles), np.sin(angles)))
    radii = -1.0 / np.min(slopes @ directions, axis=0)
    term, a, root_a, b, lam = _face_terms(radii, directions, m, 0.0)
    rates = np.bincount(np.repeat(part, ARC_NODES), weights=widths * np.exp(term) * (b / a + lam / root_a), minlength=3)
    total = rates.sum()
    while total > 1.0:  # rounding can carry a boundary mass of nearly 1 past it
        rates = np.nextafter(rates / total, 0.0)
        total = rates.sum()
    return rates


@dataclass(frozen=True)
class ZeroDiagnostics:
    """Observed versus model-expected zero counts per component, as ``diagnose`` reports them.

    ``mc_pvalue`` and ``n_replicates`` are None when no replicates were
    drawn.
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

    def table_text(self) -> str:
        """Aligned component/observed/estimated table (the classic zero-count layout)."""
        rows = [
            ["Components", *part_names(self.names, self.expected_counts.size)],
            ["Observed zeros", *(str(int(v)) for v in self.observed_counts)],
            ["Estimated zeros", *(f"{v:.3f}" for v in self.expected_counts)],
        ]
        widths = [max(map(len, column)) for column in zip(*rows)]
        return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def _chi_square_discrepancy(observed, expected):
    """Sum of (obs - exp)^2 / exp over components, pooling sparse cells.

    Components with expected count below ``CHI_SQUARE_FLOOR`` are pooled into
    a single leftover cell so the statistic stays defined for sparse tables.
    A leftover cell with zero expectation contributes 0 when its observed
    count is also zero and +inf otherwise (an observation the model calls
    impossible).  ``observed`` is a stack of tables in its rows, each scored
    on its own, so a row gets the same bits in any stack; the result is an
    array with one statistic per row.
    """
    tables = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if tables.ndim != 2 or tables.shape[1:] != exp.shape or exp.size == 0:
        raise ValueError("observed must be rows of tables as long as the non-empty expected vector")
    if np.any(exp < 0.0):
        raise ValueError("expected counts must be non-negative")
    keep = exp >= CHI_SQUARE_FLOOR
    stats = np.sum((tables[:, keep] - exp[keep]) ** 2 / exp[keep], axis=1)
    pooled_obs = tables[:, ~keep].sum(axis=1)
    pooled_exp = float(exp[~keep].sum())
    if pooled_exp > 0.0:
        # Python's float power, not NumPy's square, which rounds some values differently: the statistic keeps its bits.
        stats += [(p - pooled_exp) ** 2 / pooled_exp for p in pooled_obs.tolist()]
    else:
        stats[pooled_obs > 0.0] = math.inf
    return stats


def diagnose(
    model: FittedModel,
    dataset: CompositionalDataset,
    *,
    n_sims: int,
    seed,
    n_replicates: int | None = None,
) -> ZeroDiagnostics:
    """Zero-count diagnostic of a dataset against a fitted model, with an optional simulated p-value.

    The expected counts are n times ``zero_rates(model.params, n_sims,
    seed)`` with child 0 of ``SeedSequence(seed)``, taken once: exact at
    D = 3, and elsewhere estimated from ``n_sims`` draws, each normal vector
    counted under four quarter-turns, so from about ``n_sims / 4`` normal
    vectors.  With
    ``n_replicates`` (an integer, at least 99) the p-value is the add-one
    rank (1 + #{replicate >= observed}) / (R + 1) of the chi-square
    discrepancy among R replicate zero-count vectors, drawn from child 1.
    A ``SeedSequence`` seed is copied, not spawned from, so a call leaves it
    as it was and a second call with it repeats the first.
    """
    if dataset.n_parts != model.n_parts:
        raise ValueError(
            f"dataset has {dataset.n_parts} components but the model expects {model.n_parts}"
        )
    if n_replicates is not None and not isinstance(n_replicates, numbers.Integral):
        raise ValueError(f"need an integer number of replicates, got {n_replicates!r}")
    if n_replicates is not None and n_replicates < 99:
        raise ValueError(f"need at least 99 replicates, got {n_replicates}")
    rates_seed, replicates_seed = _seed_sequence(seed).spawn(2)
    # By keyword: the traced benchmark (perfbench/layers.py) reads n_sims from the call.
    rates = zero_rates(model.params, n_sims=n_sims, seed=rates_seed)
    n_obs = dataset.n_obs
    expected = n_obs * rates
    observed = dataset.observed_zero_counts()
    tables = observed[None, :]
    if n_replicates is not None:
        rng = np.random.default_rng(replicates_seed)
        replicates = rng.multinomial(n_obs, [*rates, max(0.0, 1.0 - rates.sum())], size=n_replicates)
        tables = np.vstack([observed, replicates[:, :-1]])
    stats = _chi_square_discrepancy(tables, expected)
    stat = float(stats[0])
    pvalue = None if n_replicates is None else (1 + int(np.count_nonzero(stats[1:] >= stat))) / (n_replicates + 1)
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
