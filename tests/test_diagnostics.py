"""Simulation and zero-count diagnostic tests."""

import json

import numpy as np
import pytest
from reference import (
    BLOCK_PARTS,
    exact_zero_rates_d3,
    image_parts_whole,
    image_vectors,
    quarter_turn_rows,
    simulate_compositions_whole,
    traced_peak,
    zero_parts_argmin,
    zero_rates_whole,
)

from zerocensored import (
    FittedModel,
    MvnParams,
    TiedMinimumError,
    alpha_transform,
    diagnose,
    helmert_submatrix,
    simulate_compositions,
    zero_rates,
)
from zerocensored.cli import main
from zerocensored.dataset import CompositionalDataset
from zerocensored.diagnostics import (
    BLOCK_ROWS,
    MIN_RATE_SIMS,
    _chi_square_discrepancy,
    _column_map,
    _monte_carlo_rates,
    _quarter_turn,
)
from zerocensored.io import write_diagnostics_json, write_model_json


def diagnostics_doc(result, tmp_path):
    """The document that ``write_diagnostics_json`` writes for ``result``."""
    path = tmp_path / "diagnostics.json"
    write_diagnostics_json(path, result)
    return json.loads(path.read_text(encoding="utf-8"))


def toy_model(mean, cov, n_parts):
    mean = np.asarray(mean, float)
    cov = np.asarray(cov, float)
    return FittedModel(
        mean=mean,
        cov=cov,
        loglik=0.0,
        iterations=0,
        converged=True,
        gradient_norm=0.0,
        n_parts=n_parts,
        n_interior=0,
        n_face=0,
    )


# A 3-part latent model with substantial boundary mass, used throughout.
BOUNDARY_MODEL = MvnParams(np.array([0.6, 0.8]), np.array([[0.15, -0.2], [-0.2, 1.5]]))


def zero_count_dataset(counts, n_obs):
    """n_obs 3-part rows, counts[j] of them with their zero in part j and the rest at the centre."""
    zero_index = np.repeat(np.arange(3), counts)
    rows = np.full((n_obs, 3), 1.0 / 3.0)
    rows[: zero_index.size] = 0.5
    rows[np.arange(zero_index.size), zero_index] = 0.0
    return CompositionalDataset.from_array(rows)


# --- simulation -----------------------------------------------------------------


def test_simulate_point_mass_stays_interior():
    centre_image = alpha_transform(np.array([0.5, 0.3, 0.2]), 1.0)
    model = MvnParams(centre_image, 1e-12 * np.eye(2))
    ds = simulate_compositions(2000, model, seed=1)
    assert ds.n_face == 0
    assert ds.n_obs == 2000
    assert ds.parts.min() > 0


def test_simulate_mixes_interior_and_faces():
    ds = simulate_compositions(4000, BOUNDARY_MODEL, seed=2)
    assert 0 < ds.n_face < 4000
    assert ds.parts.min() >= 0
    np.testing.assert_allclose(ds.parts.sum(axis=1), 1.0, atol=1e-9)
    # every face row carries exactly one zero, at the recorded index
    for i in np.flatnonzero(ds.zero_index >= 0):
        row = ds.parts[i]
        assert row[ds.zero_index[i]] == 0.0
        assert np.delete(row, ds.zero_index[i]).min() > 0


def test_simulate_deterministic_given_seed():
    a = simulate_compositions(300, BOUNDARY_MODEL, seed=9)
    b = simulate_compositions(300, BOUNDARY_MODEL, seed=9)
    np.testing.assert_array_equal(a.parts, b.parts)


def test_simulate_empty_draw():
    ds = simulate_compositions(0, BOUNDARY_MODEL, seed=0)
    assert ds.n_obs == 0


# --- zero rates -----------------------------------------------------------------


def test_zero_rates_tiny_covariance_all_zero():
    centre_image = alpha_transform(np.array([0.4, 0.35, 0.25]), 1.0)
    model = MvnParams(centre_image, 1e-10 * np.eye(2))
    np.testing.assert_array_equal(zero_rates(model, 10_000, seed=0), np.zeros(3))


def test_zero_rates_symmetric_model_equal_components():
    model = MvnParams(np.zeros(2), 4.0 * np.eye(2))
    rates = zero_rates(model, 200_000, seed=3)
    assert rates.sum() > 0.3
    se = np.sqrt(rates * (1 - rates) / 200_000)
    spread = rates.max() - rates.min()
    assert spread < 5 * se.max()


def test_zero_rates_sum_below_one_and_match_simulation():
    rates = zero_rates(BOUNDARY_MODEL, 100_000, seed=4)
    assert 0 < rates.sum() < 1
    ds = simulate_compositions(100_000, BOUNDARY_MODEL, seed=5)
    counts = ds.observed_zero_counts()
    np.testing.assert_allclose(rates, counts / 100_000, atol=0.01)


def quadruple_zero_counts(n, model, seed):
    """Zero counts per part of the n draws of ``zero_rates`` from ``seed``: image j of the quarter-turn for the
    first ⌊(n − j + 3)/4⌋ of its ⌈n/4⌉ normal vectors, under the reference rule.  Where d is even, image 0
    is the stream that simulate draws from the seed, so its zeros are those that simulate writes."""
    vectors = -(-n // 4)
    images = image_vectors(vectors, model.dim, seed)
    zero_index = [zero_parts_argmin(image_parts_whole(model, image[: (n - j + 3) // 4])) for j, image in enumerate(images)]
    if model.dim % 2 == 0:
        zero_index[0] = simulate_compositions(vectors, model, seed=seed).zero_index
    zero_index = np.concatenate(zero_index)
    return np.bincount(zero_index[zero_index >= 0], minlength=model.dim + 1)


def test_zero_rates_count_the_zeros_simulation_writes():
    # The Monte Carlo rates draw their vectors as one stream from their seed, exactly as simulate does from it
    n = 50_000
    rates = _monte_carlo_rates(BOUNDARY_MODEL, n, seed=13)
    counts = quadruple_zero_counts(n, BOUNDARY_MODEL, 13)
    assert counts.sum() > 10_000
    np.testing.assert_array_equal(rates, counts / n)


@pytest.mark.parametrize("n_parts", BLOCK_PARTS)
def test_zero_rates_count_the_zeros_simulation_writes_at_every_part_count(n_parts):
    # The rates map each block by two fused products, simulate and the reference by row-layout products: the
    # counts still agree exactly, as no draw of these lies within an ulp of a ZERO_TOL threshold.
    # n mod 4 = 3 leaves the stream's last vector without its image 3.
    model = correlated_model(n_parts)
    n = 3 * BLOCK_ROWS + 7
    rates = _monte_carlo_rates(model, n, seed=n_parts)
    counts = quadruple_zero_counts(n, model, n_parts)
    assert counts.sum() > 500
    np.testing.assert_array_equal(rates, counts / n)


@pytest.mark.parametrize("n_parts", BLOCK_PARTS)
def test_quarter_turn_is_a_signed_permutation_of_the_columns(n_parts):
    # Q = (A R) zᵀ is the parts' product for the image R z: A R must be exactly A's columns, swapped in pairs
    # and one of each pair negated, with a zero column for odd d.
    d = n_parts - 1
    weights, _ = _column_map(correlated_model(n_parts))
    turned = _quarter_turn(weights)
    assert weights.shape == (n_parts, d + d % 2)
    assert not weights[:, d:].any()
    assert_same_bits(turned[:, 0::2], weights[:, 1::2])
    assert_same_bits(turned[:, 1::2], -weights[:, 0::2])
    rotation = np.kron(np.eye(weights.shape[1] // 2), [[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(turned, weights @ rotation)
    z = np.random.default_rng(n_parts).standard_normal((5, weights.shape[1]))
    np.testing.assert_array_equal(quarter_turn_rows(z), z @ rotation.T)


@pytest.mark.parametrize("n_parts", BLOCK_PARTS)
def test_zero_rates_reflections_are_exact(n_parts):
    # A reflection's parts are c − A zᵀ from its vector's product: that is bit for bit A (−z)ᵀ + c,
    # as negating z negates every product term and rounding to nearest is sign-symmetric; so for A R.
    weights, offsets = _column_map(correlated_model(n_parts))
    rng = np.random.default_rng(n_parts)
    for m in (1, 7, BLOCK_ROWS // 4):
        z = rng.standard_normal((m, weights.shape[1]))
        for a in (weights, _quarter_turn(weights)):
            assert_same_bits(offsets - a @ z.T, a @ (-z).T + offsets)


@pytest.mark.parametrize("n_parts", [3, 4])
def test_zero_rates_number_image_j_of_vector_i_as_j_m_plus_i(monkeypatch, n_parts):
    import zerocensored.diagnostics as diagnostics

    # One block of m = 2 500 vectors, all zero but vector i, whose image j is a draw with a tied minimum.
    d = n_parts - 1
    model = MvnParams(np.zeros(d), np.eye(d))
    rest = np.arange(1.0, n_parts - 1)
    tied_parts = np.concatenate([[-0.25, -0.25], 1.5 * rest / rest.sum()])  # its other images have no tie
    tied = np.zeros((1, d + d % 2))
    tied[0, :d] = helmert_submatrix(n_parts) @ (n_parts * tied_parts - 1.0)  # the latent point of those parts
    m = MIN_RATE_SIMS // 4
    for j in range(4):
        vector = tied
        for _ in range(4 - j):  # R^(4 - j), so that image j, R^j of it, is the tied draw
            vector = quarter_turn_rows(vector)
        for i in (1, 7, m):

            def one_block(dim, n, seed, buffer, block_rows, vector=vector, i=i):
                normal = buffer[: n * dim].reshape(n, dim)
                normal[:] = 0.0
                normal[i - 1] = vector[0]
                yield normal

            monkeypatch.setattr(diagnostics, "_draw_blocks", one_block)
            with pytest.raises(TiedMinimumError) as raised:
                _monte_carlo_rates(model, MIN_RATE_SIMS, seed=0)
            assert str(raised.value).endswith(f"two zeros: {j * m + i}")


def test_counts_must_be_integers(tmp_path):
    # A float count was truncated without a word: 10 000.9 drew 10 000 rows but divided by 10 000.9.
    with pytest.raises(ValueError, match="integer"):
        zero_rates(BOUNDARY_MODEL, 10_000.9, seed=0)
    with pytest.raises(ValueError, match="integer"):
        zero_rates(BOUNDARY_MODEL, 20_000.0, seed=0)
    with pytest.raises(ValueError, match="integer"):
        simulate_compositions(3.7, BOUNDARY_MODEL, seed=0)
    # A float replicate count reached rng.multinomial, which raised TypeError: 'float' object is not iterable.
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = zero_count_dataset([30, 2, 5], 100)
    for n_replicates in (150.5, 1000.0):
        with pytest.raises(ValueError, match="integer"):
            diagnose(model, ds, n_sims=10_000, seed=0, n_replicates=n_replicates)
    np.testing.assert_array_equal(zero_rates(BOUNDARY_MODEL, np.int64(10_000), 0), zero_rates(BOUNDARY_MODEL, 10_000, 0))
    assert simulate_compositions(np.int32(3), BOUNDARY_MODEL, seed=0).n_obs == 3
    numpy_count = diagnose(model, ds, n_sims=10_000, seed=0, n_replicates=np.int64(120))
    plain = diagnose(model, ds, n_sims=10_000, seed=0, n_replicates=120)
    assert diagnostics_doc(numpy_count, tmp_path) == diagnostics_doc(plain, tmp_path)


def test_zero_rates_are_one_stream_from_their_seed():
    # 300 000 draws are 75 000 vectors of one stream from default_rng(seed), in blocks of BLOCK_ROWS / 4
    # vectors whose last takes the remainder; a SeedSequence seeds the same stream and is left as it was.
    n_sims = 300_000
    vectors, vector_rows = n_sims // 4, BLOCK_ROWS // 4
    assert vectors > vector_rows and vectors % vector_rows  # so the last block is longer than the others
    a = _monte_carlo_rates(BOUNDARY_MODEL, n_sims, seed=6)
    np.testing.assert_array_equal(a, _monte_carlo_rates(BOUNDARY_MODEL, n_sims, seed=6))
    assert_same_bits(a, zero_rates_whole(BOUNDARY_MODEL, n_sims, seed=6))
    seq = np.random.SeedSequence(6)
    assert_same_bits(a, _monte_carlo_rates(BOUNDARY_MODEL, n_sims, seed=seq))
    assert seq.n_children_spawned == 0


def test_zero_rates_monte_carlo_error_scales():
    # variance across repeats should drop roughly 100x from 1e4 to 1e6 draws
    def spread(n_sims, seeds):
        vals = np.array([_monte_carlo_rates(BOUNDARY_MODEL, n_sims, seed=s)[2] for s in seeds])
        return vals.var()

    v_small = spread(10_000, range(12))
    v_large = spread(1_000_000, range(100, 112))
    ratio = v_small / v_large
    assert 20 < ratio < 500


def test_zero_rates_disjoint_streams_agree():
    r1 = _monte_carlo_rates(BOUNDARY_MODEL, 400_000, seed=100)
    r2 = _monte_carlo_rates(BOUNDARY_MODEL, 400_000, seed=200)
    se = np.sqrt(r1 * (1 - r1) / 400_000)
    assert np.all(np.abs(r1 - r2) < 4 * np.maximum(se, 1e-4))


def test_exact_zero_rates_oracle_is_symmetric_for_a_centred_isotropic_model():
    rates = exact_zero_rates_d3(np.zeros(2), 0.5 * np.eye(2))
    assert rates[0] > 0.04
    np.testing.assert_allclose(rates, rates[0], rtol=1e-9)


@pytest.mark.parametrize(
    "mean, cov, seed",
    [
        ([0.625, 0.821], [[0.149, -0.200], [-0.200, 1.523]], 0),  # the paper's 3-part generator
        ([0.656, 0.788], [[0.129, -0.132], [-0.132, 1.477]], 400),  # its reported estimates
    ],
    ids=["generator", "reported-estimates"],
)
def test_zero_rates_match_the_exact_rates(mean, cov, seed):
    exact = exact_zero_rates_d3(mean, cov)
    n_sims = 1_000_000
    rates = _monte_carlo_rates(MvnParams(np.array(mean), np.array(cov)), n_sims, seed)
    se = np.sqrt(exact * (1 - exact) / n_sims)
    assert np.all(np.abs(rates - exact) <= 4 * se), (rates, exact)


def test_zero_rates_enforces_minimum_sims():
    with pytest.raises(ValueError):
        zero_rates(BOUNDARY_MODEL, 5000, seed=0)


# --- exact rates at three parts --------------------------------------------------------

PAPER_MODELS = {
    "generator": ([0.625, 0.821], [[0.149, -0.200], [-0.200, 1.523]]),
    "reported-estimates": ([0.656, 0.788], [[0.129, -0.132], [-0.132, 1.477]]),
}


def whitened_mean_norm(model):
    """|L^-1 mu|: the distance of the mean from the centre in units of the model's spread."""
    return float(np.linalg.norm(np.linalg.solve(model.chol, model.mean)))


def random_three_part_models(n, seed):
    """n 3-part models with |L^-1 mu| <= 100: standard deviations from 1e-2 to 3, correlations up to 0.999,
    and means inside the triangle, near a face, near a vertex, outside it or deep inside under a small spread."""
    rng = np.random.default_rng(seed)
    helmert = helmert_submatrix(3)
    models = []
    while len(models) < n:
        kind = len(models) % 5
        sd = 10.0 ** rng.uniform(-2.0, 0.5, size=2)
        rho = rng.choice([-0.999, 0.999]) if rng.random() < 0.3 else rng.uniform(-0.9, 0.9)
        if kind == 0:  # anywhere near the triangle
            x = rng.dirichlet([2.0, 2.0, 2.0]) + rng.normal(0.0, 0.1, 3)
        elif kind == 1:  # near a face
            x = np.insert(rng.dirichlet([2.0, 2.0]), rng.integers(3), rng.normal(0.0, 0.02))
        elif kind == 2:  # near a vertex
            x = np.eye(3)[rng.integers(3)] + rng.normal(0.0, 0.02, 3)
        elif kind == 3:  # deep inside: a deep upper tail beyond every face
            x = rng.dirichlet([5.0, 5.0, 5.0])
            sd = 10.0 ** rng.uniform(-2.0, -1.0, size=2)
        else:  # outside
            x = rng.dirichlet([2.0, 2.0, 2.0]) - np.eye(3)[rng.integers(3)] * rng.uniform(0.3, 0.6)
        mean = helmert @ (3.0 * x / x.sum() - 1.0)
        cov = np.outer(sd, sd) * np.array([[1.0, rho], [rho, 1.0]])
        model = MvnParams(mean, cov)
        if whitened_mean_norm(model) <= 100.0:
            models.append(model)
    return models


@pytest.mark.parametrize("mean, cov", PAPER_MODELS.values(), ids=PAPER_MODELS.keys())
def test_zero_rates_at_three_parts_are_the_exact_rates(mean, cov):
    # 10^6 draws counted the reported estimates' first face, rate 1.78e-5, as 0.
    rates = zero_rates(MvnParams(np.array(mean), np.array(cov)), 10_000, seed=0)
    np.testing.assert_allclose(rates, exact_zero_rates_d3(mean, cov), rtol=0.0, atol=1e-12)
    assert rates.min() > 0.0


def test_zero_rates_at_three_parts_match_the_oracle_on_random_models():
    models = random_three_part_models(60, seed=2026)
    worst = max(float(np.abs(zero_rates(m, 10_000, 0) - exact_zero_rates_d3(m.mean, m.cov)).max()) for m in models)
    assert worst <= 1e-12
    tails = [zero_rates(m, 10_000, 0).sum() for m in models[3::5]]
    assert min(tails) < 1e-12 < max(tails)  # the deep-inside models reach far into the tails


# Near-singular covariances whiten the triangle into a needle whose long edges meet the rays at grazing angles.
NEEDLES = {
    # The mean lies near the needle's tip, where the edge radius turns within delta/c^2 of the mean's angle.
    "mean-at-the-tip": ([0.0475, -2.3745], [[7.2075, -2.5685], [-2.5685, 0.91617]]),
    # The mass beyond a face gathers at the edge point nearest the mean, well away from the mean's angle.
    "mean-beside-an-edge": ([-0.0351, 0.4768], [[0.26994, 0.23255], [0.23255, 0.20037]]),
}


@pytest.mark.parametrize("mean, cov", NEEDLES.values(), ids=NEEDLES.keys())
def test_zero_rates_at_three_parts_match_the_oracle_on_needles(mean, cov):
    model = MvnParams(np.array(mean), np.array(cov))
    assert np.linalg.cond(model.cov) > 1e4
    np.testing.assert_allclose(zero_rates(model, 10_000, 0), exact_zero_rates_d3(mean, cov), rtol=0.0, atol=1e-12)


def test_zero_rates_at_three_parts_match_the_oracle_on_concentrated_models():
    # As the spread shrinks, the mass beyond a face gathers within about 1/|L^-1 mu| of the mean's direction;
    # the oracle's quadrature is split there.  Its rounding and ours grow with |L^-1 mu|^2.
    helmert = helmert_submatrix(3)
    cov = np.array(PAPER_MODELS["generator"][1])
    # On a face, near it, at a vertex, near it, outside a face and beyond a vertex.
    spots = [[0.0, 0.6, 0.4], [0.01, 0.59, 0.4], [1.0, 0.0, 0.0], [0.97, 0.02, 0.01], [-0.1, 0.7, 0.4], [1.1, -0.05, -0.05]]
    largest = 0.0
    for spot in spots:
        mean = helmert @ (3.0 * np.array(spot) - 1.0)
        for scale in (1.0, 0.1, 0.03, 0.01, 3e-3, 1e-3):
            model = MvnParams(mean, scale * scale * cov)
            if whitened_mean_norm(model) > 3_000.0:
                continue
            largest = max(largest, whitened_mean_norm(model))
            exact = exact_zero_rates_d3(mean, model.cov)
            np.testing.assert_allclose(zero_rates(model, 10_000, 0), exact, rtol=0.0, atol=1e-9)
    assert largest > 2_000.0


def test_zero_rates_at_three_parts_sum_to_at_most_one_and_repeat_bit_for_bit():
    # The last two lie almost wholly beyond the triangle; rounding carries the first one's integral to
    # 1 + 1.2e-13, and the second one's to 1 - 2.2e-11.
    models = [MvnParams(np.array(mean), np.array(cov)) for mean, cov in PAPER_MODELS.values()] + [
        BOUNDARY_MODEL,
        MvnParams(np.array([-0.0248, -2.7006]), np.array([[0.000989, -0.001168], [-0.001168, 0.002372]])),
        MvnParams(helmert_submatrix(3) @ np.array([-0.3, 3.3, 0.0]), 1e-5 * np.eye(2)),
    ]
    sums = []
    for model in models:
        rates = zero_rates(model, 10_000, seed=0)
        assert_same_bits(rates, zero_rates(model, 10_000, seed=0))
        sums.append(rates.sum())
    assert max(sums) <= 1.0
    assert max(sums) > 1.0 - 1e-12


def test_zero_rates_at_three_parts_ignore_the_count_and_the_seed():
    rates = zero_rates(BOUNDARY_MODEL, 10_000, seed=0)
    assert_same_bits(rates, zero_rates(BOUNDARY_MODEL, 1_000_000, seed=np.random.SeedSequence(7)))
    # The count is still checked, as at every other part count.
    for n_parts in (3, 4):
        model = MvnParams(np.zeros(n_parts - 1), np.eye(n_parts - 1))
        for n_sims in (MIN_RATE_SIMS - 1, 20_000.0):
            with pytest.raises(ValueError, match="simulations"):
                zero_rates(model, n_sims, seed=0)


def test_diagnose_draws_no_normals_at_three_parts(monkeypatch):
    import zerocensored.diagnostics as diagnostics

    def no_draws(*args, **kwargs):
        raise AssertionError("drew normal vectors")

    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(200, BOUNDARY_MODEL, seed=43)
    monkeypatch.setattr(diagnostics, "_draw_blocks", no_draws)
    result = diagnose(model, ds, n_sims=1_000_000, seed=44, n_replicates=99)
    assert_same_bits(result.expected_rates, zero_rates(BOUNDARY_MODEL, 10_000, seed=0))


# --- blocked draws ----------------------------------------------------------------


def correlated_model(n_parts, scale=0.605):
    """A fixed correlated normal in n_parts - 1 coordinates; at 10 parts and scale 0.605 it is the
    censored-d10 benchmark generator (about 35% single-zero rows)."""
    rng = np.random.default_rng(20220827)
    d = n_parts - 1
    a = rng.normal(size=(d, d))
    cov = a @ a.T / d + 0.5 * np.eye(d)
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    mean = 0.1 * rng.normal(size=d)
    return MvnParams(scale * mean, scale * scale * corr)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("n_parts", BLOCK_PARTS)
def test_simulate_blocks_give_the_whole_array_bits(n_parts):
    # Every block length the split can produce, from a lone short block to a long remainder;
    # blocks of at least BLOCK_ROWS rows keep BLAS off the small-matrix path, which rounds differently.
    model = correlated_model(n_parts)
    b = BLOCK_ROWS
    for n in (0, 1, b - 1, b, b + 1, 2 * b - 1, 2 * b + 1, 200_003):
        ds = simulate_compositions(n, model, seed=n)
        parts, zero_index = simulate_compositions_whole(n, model, seed=n)
        assert_same_bits(ds.parts, parts)
        np.testing.assert_array_equal(ds.zero_index, zero_index)
        assert ds.zero_index.dtype == zero_index.dtype


@pytest.mark.parametrize("n_parts", BLOCK_PARTS)
def test_zero_rates_blocks_give_the_whole_chunk_bits(n_parts):
    model = correlated_model(n_parts)
    # n mod 4 = 0, 2, 1, 1, 2 and 3, so the last vector goes without 0 to 3 images.  The streams past 10 002
    # draws end on a block of 4 096 vectors plus a remainder of 1, 2, 2 and 0 vectors.
    b = BLOCK_ROWS
    for n_sims in (10_000, 10_002, (1 << 17) + 1, (1 << 17) + b + 5, (1 << 17) + b + 6, 2 * (1 << 17) - 1):
        assert_same_bits(_monte_carlo_rates(model, n_sims, seed=n_parts), zero_rates_whole(model, n_sims, seed=n_parts))


def test_zero_rates_blocks_give_the_whole_chunk_bits_at_a_million_draws():
    model = correlated_model(10)
    assert_same_bits(zero_rates(model, 1_000_000, seed=0), zero_rates_whole(model, 1_000_000, seed=0))


def test_zero_rates_blocks_give_the_whole_chunk_bits_at_a_million_draws_of_20_parts():
    model = correlated_model(20)
    assert_same_bits(zero_rates(model, 1_000_000, seed=0), zero_rates_whole(model, 1_000_000, seed=0))


def test_zero_rates_holds_one_block():
    # The whole-chunk draw peaked at 20.1 MiB here; blocked into two reused buffers, it read 3.7 MiB, and
    # 3.1 MiB with the zero rule's float32 mask copy in the spent latent rows.  With the parts stored by
    # part and the rule's bool mask in a reused buffer, it read 3.06 MiB; drawing half the normal vectors, 2.48 MiB,
    # and a quarter, each counted under the four powers of a quarter-turn, 2.22 MiB.
    peak, _ = traced_peak(lambda: zero_rates(correlated_model(10), 1_000_000, seed=0))
    assert peak < 4 * 2**20


def test_simulate_holds_its_result_and_one_block():
    # The whole-array draw peaked at 103.7 MiB here, for a 32.0 MiB result; blocked into two reused buffers,
    # it reads 43.4 MiB.
    peak, ds = traced_peak(lambda: simulate_compositions(200_000, correlated_model(20), seed=0))
    assert peak < ds.parts.nbytes + ds.zero_index.nbytes + 12 * 2**20


def test_cli_simulate_holds_one_block_not_its_result(tmp_path):
    # Writing simulate_compositions' 7.9 MB result for 3 blocks, the command peaked at 17.3 MiB here (2 blocks:
    # 14.7 MiB, under the bound); writing each pulled block as it comes, it reads 9.7 MiB, and 11.4 MiB at
    # 200 000 rows, where the remainder joins the last block.
    model = correlated_model(20)
    path = tmp_path / "model.json"
    write_model_json(path, toy_model(model.mean, model.cov, 20))
    argv = ["simulate", str(path), "-n", str(3 * BLOCK_ROWS), "-o", str(tmp_path / "sims.csv")]
    peak, code = traced_peak(lambda: main(argv))
    assert code == 0
    assert peak < 16 * 2**20


# --- expected table ----------------------------------------------------------------


def test_expected_table_scales_linearly():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(100, BOUNDARY_MODEL, seed=10)
    half = CompositionalDataset(parts=ds.parts[:50], zero_index=ds.zero_index[:50])
    t1 = diagnose(model, half, n_sims=20_000, seed=11)
    t2 = diagnose(model, ds, n_sims=20_000, seed=11)
    np.testing.assert_allclose(2.0 * t1.expected_counts, t2.expected_counts, rtol=1e-12)
    np.testing.assert_array_equal(t1.expected_rates, t2.expected_rates)


def test_expected_table_zero_observations():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    empty = CompositionalDataset(parts=np.empty((0, 3)), zero_index=np.empty(0, dtype=int))
    table = diagnose(model, empty, n_sims=20_000, seed=11)
    np.testing.assert_array_equal(table.expected_counts, np.zeros(3))
    np.testing.assert_array_equal(table.observed_counts, np.zeros(3))
    assert table.chi_square == 0.0 and table.n_observations == 0


# --- chi-square discrepancy ----------------------------------------------------------


def test_chi_square_zero_when_equal():
    assert _chi_square_discrepancy([3, 1, 4], [3.0, 1.0, 4.0]) == 0.0


def test_chi_square_direct_arithmetic():
    assert _chi_square_discrepancy([2, 0], [1.0, 1.0]) == pytest.approx(2.0)


def test_chi_square_sparse_table_with_pooling():
    observed = [0, 1, 0, 4, 0, 0, 0, 0, 0, 0]
    expected = [0.593, 0.547, 2.106, 2.151, 0.002, 0.0, 0.0, 0.0, 0.137, 0.0]
    # retained cells: the four with expectation >= 0.5; the rest pool to 0.139 vs 0
    assert _chi_square_discrepancy(observed, expected) == pytest.approx(4.802554308739526)


def test_chi_square_pooled_zero_expectation():
    assert _chi_square_discrepancy([0, 0, 0], [0.0, 0.0, 0.0]) == 0.0
    assert _chi_square_discrepancy([0, 1, 0], [0.0, 0.0, 0.0]) == np.inf


@pytest.mark.parametrize(
    "expected",
    [[0.593, 0.547, 2.106, 2.151, 0.002, 0.0, 0.0, 0.0, 0.137, 0.0], [0.0] * 10, [3.3, 1.7, 0.25, 4.75] * 2 + [0.4, 0.6]],
    ids=["pooled", "all-pooled-zero", "mixed"],
)
def test_chi_square_scores_a_stack_of_tables_as_each_table(expected):
    # diagnose scores its replicates as one stack; each must get the bits of its own one-table score.
    tables = np.random.default_rng(7).integers(0, 6, size=(200, 10))
    tables[0] = 0
    stacked = _chi_square_discrepancy(tables, expected)
    assert stacked.shape == (200,)
    np.testing.assert_array_equal(stacked, [_chi_square_discrepancy(t, expected) for t in tables])
    assert np.isfinite(stacked).any() and (np.isinf(stacked).any() == (sum(expected) == 0.0))


def test_chi_square_input_validation():
    with pytest.raises(ValueError):
        _chi_square_discrepancy([1, 2], [1.0])
    with pytest.raises(ValueError):
        _chi_square_discrepancy([1], [-0.5])


# --- simulated p-value ------------------------------------------------------------------


def test_mc_pvalue_deterministic():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = zero_count_dataset([30, 2, 5], 100)
    p1 = diagnose(model, ds, n_sims=10_000, seed=21, n_replicates=99).mc_pvalue
    p2 = diagnose(model, ds, n_sims=10_000, seed=21, n_replicates=99).mc_pvalue
    assert p1 == p2
    assert 0 < p1 <= 1


def test_mc_pvalue_extreme_observation_hits_floor():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = zero_count_dataset([0, 100, 0], 100)  # zeros piled on the never-zero component
    p = diagnose(model, ds, n_sims=10_000, seed=22, n_replicates=99).mc_pvalue
    assert p == pytest.approx(1 / 100)


def test_mc_pvalue_typical_data_not_extreme():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(100, BOUNDARY_MODEL, seed=23)
    p = diagnose(model, ds, n_sims=10_000, seed=24, n_replicates=99).mc_pvalue
    assert p > 0.05


def test_mc_pvalue_requires_99_replicates():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    with pytest.raises(ValueError):
        diagnose(model, zero_count_dataset([1, 1, 1], 10), n_sims=10_000, seed=0, n_replicates=50)


# --- fitting data simulated from a known model ---------------------------------------------


def test_simulate_fit_round_trip_low_censoring():
    from zerocensored import fit, transform_dataset

    mean = alpha_transform(np.array([0.4, 0.35, 0.25]), 1.0)
    cov = np.array([[0.2, 0.05], [0.05, 0.15]])
    params = MvnParams(mean, cov)
    for seed in range(3):
        ds = simulate_compositions(5000, params, seed=seed)
        assert ds.n_face / ds.n_obs < 0.05  # mild censoring regime
        model = fit(transform_dataset(ds))
        np.testing.assert_allclose(model.mean, mean, atol=0.05)
        np.testing.assert_allclose(model.cov, cov, atol=0.1)


# --- end-to-end diagnose -----------------------------------------------------------------


def test_diagnose_wires_everything():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(200, BOUNDARY_MODEL, seed=31)
    ds = CompositionalDataset(parts=ds.parts, zero_index=ds.zero_index, names=("x", "y", "z"))
    result = diagnose(model, ds, n_sims=20_000, seed=32)
    np.testing.assert_array_equal(result.observed_counts, ds.observed_zero_counts())
    np.testing.assert_allclose(result.observed_rates, ds.observed_zero_counts() / 200)
    np.testing.assert_allclose(result.expected_counts, 200 * result.expected_rates)
    assert result.chi_square is not None and result.mc_pvalue is None
    assert result.names == ("x", "y", "z")

    with_p = diagnose(model, ds, n_sims=20_000, seed=32, n_replicates=99)
    assert with_p.mc_pvalue is not None


def test_diagnose_estimates_the_rates_once(monkeypatch):
    import zerocensored.diagnostics as diagnostics

    calls = []
    real = diagnostics.zero_rates

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "zero_rates", counting)
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(200, BOUNDARY_MODEL, seed=38)
    diagnose(model, ds, n_sims=20_000, seed=39, n_replicates=99)
    assert len(calls) == 1
    # By keyword: the traced benchmark reads the draw count as kwargs["n_sims"].
    assert calls[0]["n_sims"] == 20_000


def test_diagnose_pvalue_is_mc_pvalue_with_the_same_seed():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(200, BOUNDARY_MODEL, seed=40)
    rates_seed, replicates_seed = np.random.SeedSequence(41).spawn(2)
    # The rates are zero_rates' with child 0 of the seed's sequence, which at 3 parts are exact and draw
    # nothing, and the p-value ranks the reported statistic among multinomial replicates from the reported
    # rates, drawn from child 1.
    for n_sims in (100_000, 300_000):
        result = diagnose(model, ds, n_sims=n_sims, seed=41, n_replicates=199)
        np.testing.assert_array_equal(result.expected_rates, zero_rates(BOUNDARY_MODEL, n_sims, seed=rates_seed))
        rng = np.random.default_rng(replicates_seed)
        rates = result.expected_rates
        replicates = rng.multinomial(200, [*rates, 1.0 - rates.sum()], size=199)[:, :-1]
        exceed = sum(_chi_square_discrepancy(c, result.expected_counts) >= result.chi_square for c in replicates)
        assert result.mc_pvalue == (1 + exceed) / 200


def test_diagnose_repeats_itself_with_a_reused_seed_sequence(tmp_path):
    # diagnose spawned its streams from the caller's sequence: a second call with it drew other rates
    # ([0, 0.0895, 0.37585], then [0, 0.08995, 0.3712]) and the sequence's child count moved on to 4.
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(200, BOUNDARY_MODEL, seed=40)
    seq = np.random.SeedSequence(5)
    first = diagnostics_doc(diagnose(model, ds, n_sims=20_000, seed=seq, n_replicates=99), tmp_path)
    assert diagnostics_doc(diagnose(model, ds, n_sims=20_000, seed=seq, n_replicates=99), tmp_path) == first
    assert seq.n_children_spawned == 0
    integer_seeded = diagnose(model, ds, n_sims=20_000, seed=5, n_replicates=99)
    assert first == {**diagnostics_doc(integer_seeded, tmp_path), "seed": -1}


def test_diagnose_records_integral_seeds_as_themselves(tmp_path):
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(100, BOUNDARY_MODEL, seed=42)
    plain = diagnose(model, ds, n_sims=20_000, seed=3, n_replicates=99)
    numpy_int = diagnose(model, ds, n_sims=20_000, seed=np.int64(3), n_replicates=99)
    assert plain.seed == numpy_int.seed == 3
    assert diagnostics_doc(numpy_int, tmp_path) == diagnostics_doc(plain, tmp_path)
    assert diagnose(model, ds, n_sims=20_000, seed=np.int64(3)).seed == 3
    assert diagnose(model, ds, n_sims=20_000, seed=np.random.SeedSequence(3)).seed == -1


def test_diagnose_dimension_mismatch():
    model = toy_model(np.zeros(3), np.eye(3), 4)
    ds = simulate_compositions(50, BOUNDARY_MODEL, seed=33)
    with pytest.raises(ValueError):
        diagnose(model, ds, n_sims=20_000, seed=0)


def test_diagnostics_table_text_layout():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(100, BOUNDARY_MODEL, seed=34)
    ds = CompositionalDataset(parts=ds.parts, zero_index=ds.zero_index, names=("a", "b", "c"))
    text = diagnose(model, ds, n_sims=20_000, seed=35).table_text()
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].split()[0] == "Components"
    assert "Observed" in lines[1] and "Estimated" in lines[2]
    assert {"a", "b", "c"} <= set(lines[0].split())


def test_diagnostics_json_round_trip(tmp_path):
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(100, BOUNDARY_MODEL, seed=36)
    doc = diagnostics_doc(diagnose(model, ds, n_sims=20_000, seed=37), tmp_path)
    assert doc["n_observations"] == 100
    assert len(doc["expected_counts"]) == 3
    assert doc["mc_pvalue"] is None
    assert doc["chi_square"] >= 0
