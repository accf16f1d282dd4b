"""Simulation and zero-count diagnostic tests."""

import numpy as np
import pytest

from zerocensored import (
    FittedModel,
    MvnParams,
    alpha_transform,
    chi_square_discrepancy,
    diagnose,
    expected_zero_table,
    mc_pvalue,
    simulate_compositions,
    zero_rates,
)
from zerocensored.dataset import CompositionalDataset


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


# --- simulation -----------------------------------------------------------------


def test_simulate_point_mass_stays_interior():
    centre_image = alpha_transform(np.array([0.5, 0.3, 0.2]), 1.0)
    model = MvnParams(centre_image, 1e-12 * np.eye(2))
    ds = simulate_compositions(2000, model, 3, seed=1)
    assert ds.n_face == 0
    assert ds.n_obs == 2000
    assert ds.parts.min() > 0


def test_simulate_mixes_interior_and_faces():
    ds = simulate_compositions(4000, BOUNDARY_MODEL, 3, seed=2)
    assert 0 < ds.n_face < 4000
    assert ds.parts.min() >= 0
    np.testing.assert_allclose(ds.parts.sum(axis=1), 1.0, atol=1e-9)
    # every face row carries exactly one zero, at the recorded index
    for i in np.flatnonzero(ds.zero_index >= 0):
        row = ds.parts[i]
        assert row[ds.zero_index[i]] == 0.0
        assert np.delete(row, ds.zero_index[i]).min() > 0


def test_simulate_deterministic_given_seed():
    a = simulate_compositions(300, BOUNDARY_MODEL, 3, seed=9)
    b = simulate_compositions(300, BOUNDARY_MODEL, 3, seed=9)
    np.testing.assert_array_equal(a.parts, b.parts)


def test_simulate_empty_draw():
    ds = simulate_compositions(0, BOUNDARY_MODEL, 3, seed=0)
    assert ds.n_obs == 0


def test_simulate_dimension_check():
    with pytest.raises(ValueError):
        simulate_compositions(10, BOUNDARY_MODEL, 4, seed=0)


# --- zero rates -----------------------------------------------------------------


def test_zero_rates_tiny_covariance_all_zero():
    centre_image = alpha_transform(np.array([0.4, 0.35, 0.25]), 1.0)
    model = MvnParams(centre_image, 1e-10 * np.eye(2))
    np.testing.assert_array_equal(zero_rates(model, 3, 10_000, seed=0), np.zeros(3))


def test_zero_rates_symmetric_model_equal_components():
    model = MvnParams(np.zeros(2), 4.0 * np.eye(2))
    rates = zero_rates(model, 3, 200_000, seed=3)
    assert rates.sum() > 0.3
    se = np.sqrt(rates * (1 - rates) / 200_000)
    spread = rates.max() - rates.min()
    assert spread < 5 * se.max()


def test_zero_rates_sum_below_one_and_match_simulation():
    rates = zero_rates(BOUNDARY_MODEL, 3, 100_000, seed=4)
    assert 0 < rates.sum() < 1
    ds = simulate_compositions(100_000, BOUNDARY_MODEL, 3, seed=5)
    counts = ds.observed_zero_counts()
    np.testing.assert_allclose(rates, counts / 100_000, atol=0.01)


def test_zero_rates_count_the_zeros_simulation_writes():
    # one chunk: zero_rates draws from child 0 of its seed, exactly as simulate does from that child
    n = 50_000
    rates = zero_rates(BOUNDARY_MODEL, 3, n, seed=13)
    child = np.random.SeedSequence(13).spawn(1)[0]
    zero_index = simulate_compositions(n, BOUNDARY_MODEL, 3, seed=child).zero_index
    counts = np.bincount(zero_index[zero_index >= 0], minlength=3)
    assert counts.sum() > 10_000
    np.testing.assert_array_equal(rates, counts / n)


def test_zero_rates_deterministic_and_chunking_contract():
    a = zero_rates(BOUNDARY_MODEL, 3, 50_000, seed=6, chunk_size=1 << 17)
    b = zero_rates(BOUNDARY_MODEL, 3, 50_000, seed=6, chunk_size=1 << 17)
    np.testing.assert_array_equal(a, b)
    # a different chunk count is a different (but still deterministic) stream
    c = zero_rates(BOUNDARY_MODEL, 3, 50_000, seed=6, chunk_size=10_000)
    d = zero_rates(BOUNDARY_MODEL, 3, 50_000, seed=6, chunk_size=10_000)
    np.testing.assert_array_equal(c, d)


def test_zero_rates_monte_carlo_error_scales():
    # variance across repeats should drop roughly 100x from 1e4 to 1e6 draws
    def spread(n_sims, seeds):
        vals = np.array([zero_rates(BOUNDARY_MODEL, 3, n_sims, seed=s)[2] for s in seeds])
        return vals.var()

    v_small = spread(10_000, range(12))
    v_large = spread(1_000_000, range(100, 112))
    ratio = v_small / v_large
    assert 20 < ratio < 500


def test_zero_rates_disjoint_streams_agree():
    r1 = zero_rates(BOUNDARY_MODEL, 3, 400_000, seed=100)
    r2 = zero_rates(BOUNDARY_MODEL, 3, 400_000, seed=200)
    se = np.sqrt(r1 * (1 - r1) / 400_000)
    assert np.all(np.abs(r1 - r2) < 4 * np.maximum(se, 1e-4))


def test_zero_rates_enforces_minimum_sims():
    with pytest.raises(ValueError):
        zero_rates(BOUNDARY_MODEL, 3, 5000, seed=0)


# --- expected table ----------------------------------------------------------------


def test_expected_table_scales_linearly():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    t1 = expected_zero_table(model, 50, 20_000, seed=11)
    t2 = expected_zero_table(model, 100, 20_000, seed=11)
    np.testing.assert_allclose(2.0 * t1.expected_counts, t2.expected_counts, rtol=1e-12)
    np.testing.assert_array_equal(t1.expected_rates, t2.expected_rates)


def test_expected_table_zero_observations():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    table = expected_zero_table(model, 0, 20_000, seed=11)
    np.testing.assert_array_equal(table.expected_counts, np.zeros(3))
    assert table.observed_counts is None and table.chi_square is None


# --- chi-square discrepancy ----------------------------------------------------------


def test_chi_square_zero_when_equal():
    assert chi_square_discrepancy([3, 1, 4], [3.0, 1.0, 4.0]) == 0.0


def test_chi_square_direct_arithmetic():
    assert chi_square_discrepancy([2, 0], [1.0, 1.0]) == pytest.approx(2.0)


def test_chi_square_sparse_table_with_pooling():
    observed = [0, 1, 0, 4, 0, 0, 0, 0, 0, 0]
    expected = [0.593, 0.547, 2.106, 2.151, 0.002, 0.0, 0.0, 0.0, 0.137, 0.0]
    # retained cells: the four with expectation >= 0.5; the rest pool to 0.139 vs 0
    assert chi_square_discrepancy(observed, expected) == pytest.approx(4.802554308739526)


def test_chi_square_pooled_zero_expectation():
    assert chi_square_discrepancy([0, 0, 0], [0.0, 0.0, 0.0]) == 0.0
    assert chi_square_discrepancy([0, 1, 0], [0.0, 0.0, 0.0]) == np.inf


def test_chi_square_input_validation():
    with pytest.raises(ValueError):
        chi_square_discrepancy([1, 2], [1.0])
    with pytest.raises(ValueError):
        chi_square_discrepancy([1], [-0.5])


# --- simulated p-value ------------------------------------------------------------------


def test_mc_pvalue_deterministic():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    observed = [30, 2, 5]
    p1 = mc_pvalue(model, observed, 100, 99, 10_000, seed=21)
    p2 = mc_pvalue(model, observed, 100, 99, 10_000, seed=21)
    assert p1 == p2
    assert 0 < p1 <= 1


def test_mc_pvalue_extreme_observation_hits_floor():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    observed = [0, 100, 0]  # zeros piled on the never-zero component
    p = mc_pvalue(model, observed, 100, 99, 10_000, seed=22)
    assert p == pytest.approx(1 / 100)


def test_mc_pvalue_typical_data_not_extreme():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(100, BOUNDARY_MODEL, 3, seed=23)
    p = mc_pvalue(model, ds.observed_zero_counts(), 100, 99, 10_000, seed=24)
    assert p > 0.05


def test_mc_pvalue_requires_99_replicates():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    with pytest.raises(ValueError):
        mc_pvalue(model, [1, 1, 1], 10, 50, 10_000, seed=0)


# --- fitting data simulated from a known model ---------------------------------------------


def test_simulate_fit_round_trip_low_censoring():
    from zerocensored import fit, transform_dataset

    mean = alpha_transform(np.array([0.4, 0.35, 0.25]), 1.0)
    cov = np.array([[0.2, 0.05], [0.05, 0.15]])
    params = MvnParams(mean, cov)
    for seed in range(3):
        ds = simulate_compositions(5000, params, 3, seed=seed)
        assert ds.n_face / ds.n_obs < 0.05  # mild censoring regime
        model = fit(transform_dataset(ds))
        np.testing.assert_allclose(model.mean, mean, atol=0.05)
        np.testing.assert_allclose(model.cov, cov, atol=0.1)


# --- end-to-end diagnose -----------------------------------------------------------------


def test_diagnose_wires_everything():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(200, BOUNDARY_MODEL, 3, seed=31)
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
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "zero_rates", counting)
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(200, BOUNDARY_MODEL, 3, seed=38)
    diagnose(model, ds, n_sims=20_000, seed=39, n_replicates=99)
    assert len(calls) == 1


def test_diagnose_pvalue_is_mc_pvalue_with_the_same_seed():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(200, BOUNDARY_MODEL, 3, seed=40)
    result = diagnose(model, ds, n_sims=300_000, seed=41, n_replicates=199)
    p = mc_pvalue(model, ds.observed_zero_counts(), 200, 199, 300_000, seed=41)
    assert result.mc_pvalue == p
    # It ranks the reported statistic among multinomial replicates from the reported rates,
    # drawn from the child after the three rate chunks.
    np.testing.assert_array_equal(result.expected_rates, zero_rates(BOUNDARY_MODEL, 3, 300_000, seed=41))
    rng = np.random.default_rng(np.random.SeedSequence(41).spawn(4)[3])
    rates = result.expected_rates
    replicates = rng.multinomial(200, [*rates, 1.0 - rates.sum()], size=199)[:, :-1]
    exceed = sum(chi_square_discrepancy(c, result.expected_counts) >= result.chi_square for c in replicates)
    assert result.mc_pvalue == (1 + exceed) / 200


def test_diagnose_records_integral_seeds_as_themselves():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(100, BOUNDARY_MODEL, 3, seed=42)
    plain = diagnose(model, ds, n_sims=20_000, seed=3, n_replicates=99)
    numpy_int = diagnose(model, ds, n_sims=20_000, seed=np.int64(3), n_replicates=99)
    assert plain.seed == numpy_int.seed == 3
    assert numpy_int.to_dict() == plain.to_dict()
    assert expected_zero_table(model, 100, 20_000, seed=np.int64(3)).seed == 3
    assert diagnose(model, ds, n_sims=20_000, seed=np.random.SeedSequence(3)).seed == -1


def test_diagnose_dimension_mismatch():
    model = toy_model(np.zeros(3), np.eye(3), 4)
    ds = simulate_compositions(50, BOUNDARY_MODEL, 3, seed=33)
    with pytest.raises(ValueError):
        diagnose(model, ds, n_sims=20_000, seed=0)


def test_diagnostics_table_text_layout():
    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(100, BOUNDARY_MODEL, 3, seed=34)
    ds = CompositionalDataset(parts=ds.parts, zero_index=ds.zero_index, names=("a", "b", "c"))
    text = diagnose(model, ds, n_sims=20_000, seed=35).table_text()
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].split()[0] == "Components"
    assert "Observed" in lines[1] and "Estimated" in lines[2]
    assert {"a", "b", "c"} <= set(lines[0].split())


def test_diagnostics_json_round_trip():
    import json

    model = toy_model(BOUNDARY_MODEL.mean, BOUNDARY_MODEL.cov, 3)
    ds = simulate_compositions(100, BOUNDARY_MODEL, 3, seed=36)
    doc = json.loads(diagnose(model, ds, n_sims=20_000, seed=37).to_json())
    assert doc["n_observations"] == 100
    assert len(doc["expected_counts"]) == 3
    assert doc["mc_pvalue"] is None
    assert doc["chi_square"] >= 0
