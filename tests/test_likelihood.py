"""Censored likelihood tests.

The boundary term is checked against adaptive quadrature of the normal
density along the censoring ray, and the full likelihood against a
from-scratch implementation built on naive matrix inverses plus the same
quadrature: the two routes share no code with the module under test.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from zerocensored import (
    FittedModel,
    ParameterBoundError,
    boundary_term,
    fit,
    gram_schmidt_rotation,
    log_likelihood,
    mvn_logpdf,
    numerical_gradient,
    pack_params,
    simulate_compositions,
    transform_dataset,
    unpack_params,
    MvnParams,
)
import zerocensored.likelihood as likelihood_module
from zerocensored.dataset import TransformedSample
from zerocensored.likelihood import (
    _boundary_terms,
    _diag_positions,
    _log_likelihood_frame,
    _loglik_and_score,
    _unpack_chol,
)


def random_spd(rng, d, jitter=0.3):
    a = rng.normal(size=(d, d))
    return a @ a.T + jitter * np.eye(d)


def naive_logpdf(y, mean, cov):
    d = len(mean)
    resid = np.asarray(y) - mean
    return -0.5 * (
        d * math.log(2 * math.pi)
        + math.log(np.linalg.det(cov))
        + resid @ np.linalg.inv(cov) @ resid
    )


def ray_tail_integral(direction, c1, mean, cov):
    """Quadrature of the normal density along {t * direction : t >= c1}."""
    val, err = quad(
        lambda t: math.exp(naive_logpdf(t * np.asarray(direction), mean, cov)),
        c1,
        np.inf,
        epsabs=0.0,
        epsrel=1e-11,
        limit=300,
    )
    assert err < 1e-8 * val
    return val


def interior_only_sample(points, n_parts):
    d = n_parts - 1
    return TransformedSample(
        interior=np.asarray(points, float),
        face=np.empty((0, d)),
        face_zero_index=np.empty(0, dtype=int),
        alpha=1.0,
        n_parts=n_parts,
    )


def build_sample(interior, face_vectors, n_parts):
    d = n_parts - 1
    face = np.asarray(face_vectors, float).reshape(-1, d)
    return TransformedSample(
        interior=np.asarray(interior, float).reshape(-1, d),
        face=face,
        face_zero_index=np.zeros(face.shape[0], dtype=int),
        alpha=1.0,
        n_parts=n_parts,
    )


# --- parameter packing -----------------------------------------------------------


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(30)
    for d in (1, 2, 5, 9):
        mean = rng.normal(size=d)
        cov = random_spd(rng, d)
        mean2, cov2 = unpack_params(pack_params(mean, cov), d)
        np.testing.assert_allclose(mean2, mean, atol=1e-12)
        np.testing.assert_allclose(cov2, cov, atol=1e-12)


def test_any_packed_vector_gives_spd():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        theta = rng.normal(scale=2.0, size=d + d * (d + 1) // 2)
        _, cov = unpack_params(theta, d)
        assert np.linalg.eigvalsh(cov).min() > 0


def test_unpack_rejects_log_diag_beyond_bound():
    theta = np.zeros(2 + 3)
    theta[2 + _diag_positions(2)[0]] = 31.0
    with pytest.raises(ParameterBoundError):
        unpack_params(theta, 2)


# --- boundary term ----------------------------------------------------------------


def test_boundary_term_isotropic_closed_form():
    from scipy.stats import norm

    for d in (2, 3, 5):
        rng = np.random.default_rng(d)
        b = gram_schmidt_rotation(rng.normal(size=d))
        c1 = 1.3
        got = boundary_term(b, c1, np.zeros(d), np.eye(d))
        expected = -0.5 * (d - 1) * math.log(2 * math.pi) + math.log(norm.sf(c1))
        assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("d", (2, 3))
def test_boundary_term_matches_ray_quadrature(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(10):
        cov = random_spd(rng, d)
        mean = rng.normal(size=d)
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        c1 = float(rng.uniform(0.1, 2.5))
        b = gram_schmidt_rotation(direction * c1)
        term = boundary_term(b, c1, mean, cov)
        assert math.exp(term) == pytest.approx(
            ray_tail_integral(direction, c1, mean, cov), rel=1e-6
        )


def test_boundary_term_one_dimensional_reduces_to_tail():
    from scipy.stats import norm

    term = boundary_term(np.array([[1.0]]), 0.8, np.array([0.2]), np.array([[0.25]]))
    assert term == pytest.approx(math.log(norm.sf((0.8 - 0.2) / 0.5)), rel=1e-12)


def test_boundary_term_vanishes_monotonically_in_radius():
    rng = np.random.default_rng(41)
    b = gram_schmidt_rotation(rng.normal(size=3))
    cov = random_spd(rng, 3)
    mean = rng.normal(size=3)
    radii = np.linspace(0.5, 12.0, 40)
    vals = [boundary_term(b, c1, mean, cov) for c1 in radii]
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < -30


def test_boundary_term_invariant_to_row_sign_flips():
    rng = np.random.default_rng(42)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        y = rng.normal(size=d)
        b = gram_schmidt_rotation(y)
        c1 = float(np.linalg.norm(y))
        mean = rng.normal(size=d)
        cov = random_spd(rng, d)
        base = boundary_term(b, c1, mean, cov)
        for row in range(1, d):
            flipped = b.copy()
            flipped[row] = -flipped[row]
            assert boundary_term(flipped, c1, mean, cov) == pytest.approx(base, abs=1e-10)


@pytest.mark.parametrize("d", [1, 2, 4, 9, 19])
def test_vectorized_boundary_terms_match_scalar_route(d):
    rng = np.random.default_rng(43)
    n2 = 15
    face = rng.normal(size=(n2, d))
    mean = rng.normal(size=d)
    cov = random_spd(rng, d)
    batch = _boundary_terms(face, mean, np.linalg.cholesky(cov))
    scalar = [boundary_term(gram_schmidt_rotation(y), np.linalg.norm(y), mean, cov) for y in face]
    np.testing.assert_allclose(batch, scalar, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_vectorized_boundary_terms_finite_deep_in_the_tail(d):
    rng = np.random.default_rng(44)
    cov = 0.01 * np.eye(d)
    mean = np.zeros(d)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    face = np.outer([10.0, 30.0, 50.0], direction) * 0.1  # c / sigma = 10, 30, 50
    batch = _boundary_terms(face, mean, np.linalg.cholesky(cov))
    scalar = [boundary_term(gram_schmidt_rotation(y), np.linalg.norm(y), mean, cov) for y in face]
    assert np.all(np.isfinite(batch))
    np.testing.assert_allclose(batch, scalar, rtol=1e-12)


def direction_form_mp(y, mean, cov):
    """The direction form of the boundary term in 60-digit arithmetic."""
    with mp.workdps(60):
        d = len(y)
        sigma = mp.matrix(cov.tolist())
        lower = mp.cholesky(sigma)
        c1 = mp.norm(mp.matrix(y.tolist()))
        w = mp.lu_solve(lower, mp.matrix(y.tolist()) / c1)
        m = mp.lu_solve(lower, mp.matrix(mean.tolist()))
        a = sum(v * v for v in w)
        b = sum(wi * mi for wi, mi in zip(w, m))
        log_det = 2 * sum(mp.log(lower[i, i]) for i in range(d))
        quad_m = sum(v * v for v in m)
        marginal = -(
            (d - 1) * mp.log(2 * mp.pi) + log_det + quad_m - b * b / a + mp.log(a)
        ) / 2
        z = (c1 - b / a) * mp.sqrt(a)
        return float(marginal + mp.log(mp.erfc(z / mp.sqrt(2)) / 2))


@pytest.mark.parametrize("d", [3, 9])
def test_vectorized_boundary_terms_near_singular_cov(d):
    rng = np.random.default_rng(45)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cov = basis @ np.diag(np.logspace(0, -8, d)) @ basis.T  # condition number 1e8
    cov = 0.5 * (cov + cov.T)
    face = rng.normal(size=(6, d))
    mean = 3.0 * face[0]  # on the first ray, where ||m||^2 - b^2/a cancels
    batch = _boundary_terms(face, mean, np.linalg.cholesky(cov))
    reference = [direction_form_mp(y, mean, cov) for y in face]
    np.testing.assert_allclose(batch, reference, rtol=1e-7)


def test_boundary_term_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        boundary_term(np.eye(2), 0.0, np.zeros(2), np.eye(2))


def test_censored_contribution_below_interior_density():
    # at mu=0, sigma=I, c1=2 the tail term must undercut the plain density
    b = np.eye(2)
    censored = boundary_term(b, 2.0, np.zeros(2), np.eye(2))
    interior = mvn_logpdf(np.array([2.0, 0.0]), MvnParams(np.zeros(2), np.eye(2)))
    assert censored < interior


# --- full likelihood ------------------------------------------------------------------


def test_likelihood_reduces_to_mvn_when_no_faces():
    rng = np.random.default_rng(50)
    d, n = 3, 40
    points = rng.normal(size=(n, d))
    sample = interior_only_sample(points, d + 1)
    mean = rng.normal(size=d)
    cov = random_spd(rng, d)
    got = log_likelihood(sample, mean, cov)
    plain = sum(naive_logpdf(y, mean, cov) for y in points)
    constant = (n * d + n / 2) * math.log(d + 1)
    assert got == pytest.approx(plain + constant, rel=1e-12)


def test_likelihood_single_point_at_mean():
    d = 2
    sample = interior_only_sample(np.zeros((1, d)), d + 1)
    got = log_likelihood(sample, np.zeros(d), np.eye(d))
    assert got == pytest.approx(-0.5 * d * math.log(2 * math.pi) + (d + 0.5) * math.log(3))


def test_likelihood_matches_independent_implementation():
    rng = np.random.default_rng(51)
    interior = rng.normal(size=(3, 2))
    face_dir = rng.normal(size=2)
    face_dir /= np.linalg.norm(face_dir)
    face_y = 1.7 * face_dir
    sample = build_sample(interior, face_y, 3)
    mean = rng.normal(size=2)
    cov = random_spd(rng, 2)

    n = 4
    independent = (n * 2 + n / 2) * math.log(3)
    independent += sum(naive_logpdf(y, mean, cov) for y in interior)
    independent += math.log(ray_tail_integral(face_dir, 1.7, mean, cov))

    assert log_likelihood(sample, mean, cov) == pytest.approx(independent, abs=1e-6)


def test_likelihood_invariant_to_reordering():
    rng = np.random.default_rng(52)
    interior = rng.normal(size=(30, 2))
    faces = rng.normal(size=(8, 2)) + np.array([2.0, 0.0])
    sample = build_sample(interior, faces, 3)
    perm_i = rng.permutation(30)
    perm_f = rng.permutation(8)
    shuffled = build_sample(interior[perm_i], faces[perm_f], 3)
    mean = rng.normal(size=2)
    cov = random_spd(rng, 2)
    assert log_likelihood(sample, mean, cov) == pytest.approx(
        log_likelihood(shuffled, mean, cov), rel=1e-12
    )


def test_likelihood_rejects_empty_sample():
    sample = interior_only_sample(np.empty((0, 2)), 3)
    with pytest.raises(ValueError):
        log_likelihood(sample, np.zeros(2), np.eye(2))


# --- gradients -------------------------------------------------------------------------


def test_gradient_matches_higher_order_stencil():
    rng = np.random.default_rng(53)
    interior = rng.normal(size=(25, 2))
    faces = rng.normal(size=(5, 2)) + np.array([1.5, 0.5])
    sample = build_sample(interior, faces, 3)

    def negloglik(theta):
        mean, cov = unpack_params(theta, 2)
        return -log_likelihood(sample, mean, cov)

    def stencil_gradient(fun, theta, rel_step=1e-4):
        grad = np.empty(theta.size)
        for i in range(theta.size):
            h = rel_step * (1.0 + abs(theta[i]))
            shifts = [-2, -1, 1, 2]
            weights = [1.0, -8.0, 8.0, -1.0]
            acc = 0.0
            for s, w in zip(shifts, weights):
                t = theta.copy()
                t[i] += s * h
                acc += w * fun(t)
            grad[i] = acc / (12.0 * h)
        return grad

    for _ in range(20):
        theta = pack_params(rng.normal(size=2), random_spd(rng, 2))
        g_fast = numerical_gradient(negloglik, theta)
        g_ref = stencil_gradient(negloglik, theta)
        assert np.linalg.norm(g_fast - g_ref) <= 1e-4 * max(np.linalg.norm(g_ref), 1.0)


def four_point_stencil(fun, theta, rel_step=1e-4):
    """The fourth-order central difference of ``test_gradient_matches_higher_order_stencil``."""
    grad = np.empty(theta.size)
    for i in range(theta.size):
        h = rel_step * (1.0 + abs(theta[i]))
        acc = 0.0
        for shift, weight in zip((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0)):
            t = theta.copy()
            t[i] += shift * h
            acc += weight * fun(t)
        grad[i] = acc / (12.0 * h)
    return grad


def packed_loglik(sample):
    return lambda theta: log_likelihood(sample, *unpack_params(theta, sample.dim))


def assert_score_matches(sample, theta, rtol, rel_step=1e-4):
    value, score = _loglik_and_score(sample, theta)
    assert np.all(np.isfinite(score))
    assert value == _log_likelihood_frame(sample, *_unpack_chol(theta, sample.dim))[0]
    ref = four_point_stencil(packed_loglik(sample), theta, rel_step)
    assert np.linalg.norm(score - ref) <= rtol * max(np.linalg.norm(ref), 1.0)


@pytest.mark.parametrize("kind", ["interior", "face", "mixed"])
@pytest.mark.parametrize("d", [1, 2, 4, 9, 19])
def test_score_matches_finite_differences(d, kind):
    rng = np.random.default_rng(60 + d)
    n1 = 0 if kind == "face" else 30
    n2 = 0 if kind == "interior" else 12
    sample = build_sample(rng.normal(size=(n1, d)), rng.normal(size=(n2, d)) + 0.5, d + 1)
    for _ in range(3):
        theta = pack_params(rng.normal(size=d), random_spd(rng, d))
        assert_score_matches(sample, theta, rtol=1e-9)
        score = _loglik_and_score(sample, theta)[1]
        oracle = numerical_gradient(packed_loglik(sample), theta)
        assert np.linalg.norm(score - oracle) <= 1e-6 * max(np.linalg.norm(oracle), 1.0)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_score_finite_deep_in_the_tail(d):
    rng = np.random.default_rng(61)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    face = np.outer([10.0, 30.0, 50.0], direction) * 0.1  # c / sigma = 10, 30, 50
    sample = build_sample(0.1 * rng.normal(size=(20, d)), face, d + 1)
    cov = 0.01 * np.eye(d)
    assert_score_matches(sample, pack_params(np.zeros(d), cov), rtol=1e-8)
    # The mean far beyond every face point along its ray: z = (c - b/a) sqrt(a) << 0.
    assert_score_matches(sample, pack_params(8.0 * direction, cov), rtol=1e-8)


@pytest.mark.parametrize("d", [3, 9])
def test_score_near_singular_cov(d):
    rng = np.random.default_rng(62)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cov = basis @ np.diag(np.logspace(0, -8, d)) @ basis.T  # condition number 1e8
    cov = 0.5 * (cov + cov.T)
    mean = basis[:, 0] + 0.1 * basis[:, -1]
    draws = rng.multivariate_normal(mean, cov, size=26)
    face = np.vstack([mean / 3.0, draws[20:]])  # the first on the mean's ray, where ||m||^2 - b^2/a cancels
    sample = build_sample(draws[:20], face, d + 1)
    # Cholesky entries down to 1e-4 need a stencil step well below the default.
    assert_score_matches(sample, pack_params(mean, cov), rtol=1e-6, rel_step=1e-6)


def test_fit_uses_the_score_and_reports_its_calls(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit called numerical_gradient")

    monkeypatch.setattr(likelihood_module, "numerical_gradient", refuse)
    rng = np.random.default_rng(63)
    sample = build_sample(rng.normal(size=(60, 2)), rng.normal(size=(20, 2)) + 1.0, 3)
    model = fit(sample)
    assert model.converged and model.gradient_norm < 1e-2
    assert model.evaluations >= model.iterations
    assert isinstance(model.message, str) and model.message
    back = FittedModel.from_json(model.to_json())
    assert back.evaluations == model.evaluations and back.message == model.message


# --- fit -------------------------------------------------------------------------------


def test_fit_zero_free_equals_closed_form_mle():
    rng = np.random.default_rng(54)
    d, n = 2, 200
    points = rng.normal(size=(n, d)) @ np.array([[1.0, 0.0], [0.4, 0.7]]) + [0.3, -0.8]
    sample = interior_only_sample(points, d + 1)
    model = fit(sample)
    mle_mean = points.mean(axis=0)
    resid = points - mle_mean
    mle_cov = resid.T @ resid / n
    np.testing.assert_allclose(model.mean, mle_mean, atol=1e-6)
    np.testing.assert_allclose(model.cov, mle_cov, atol=1e-6)
    assert model.converged


def test_fit_ascends_from_initialization():
    rng = np.random.default_rng(55)
    interior = rng.normal(size=(60, 2)) * [0.5, 1.5]
    faces = rng.normal(size=(25, 2)) + np.array([1.5, 1.0])
    sample = build_sample(interior, faces, 3)
    model = fit(sample)
    assert model.loglik >= model.trace[0]
    assert np.all(np.diff(model.trace) >= -1e-9)
    assert model.loglik == pytest.approx(
        log_likelihood(sample, model.mean, model.cov), rel=1e-12
    )


def test_fit_converges_at_twenty_parts():
    rng = np.random.default_rng(64)
    d = 19
    a = rng.normal(size=(d, d))
    cov = a @ a.T / d + 0.5 * np.eye(d)
    sd = np.sqrt(np.diag(cov))
    params = MvnParams(0.05 * rng.normal(size=d), 0.16 * cov / np.outer(sd, sd))
    sample = transform_dataset(simulate_compositions(2000, params, d + 1, 65))
    assert sample.n_face > 50
    model = fit(sample)
    assert model.converged
    assert model.loglik >= model.trace[0]
    assert model.loglik == pytest.approx(log_likelihood(sample, model.mean, model.cov), rel=1e-12)


def test_fit_warns_with_too_few_interior_points():
    rng = np.random.default_rng(56)
    faces = np.abs(rng.normal(size=(12, 2))) + 0.5
    sample = build_sample(rng.normal(size=(2, 2)), faces, 3)
    with pytest.warns(UserWarning, match="unidentifiable"):
        fit(sample, max_iter=50)


def test_fit_records_seed_provenance():
    rng = np.random.default_rng(57)
    sample = interior_only_sample(rng.normal(size=(20, 2)), 3)
    model = fit(sample, seed=1234)
    assert model.seed == 1234


# --- serialization -----------------------------------------------------------------------


def test_fitted_model_json_round_trip():
    model = FittedModel(
        mean=np.array([0.1, -0.2]),
        cov=np.array([[1.0, 0.2], [0.2, 0.5]]),
        loglik=-12.5,
        iterations=31,
        converged=True,
        gradient_norm=3e-7,
        n_parts=3,
        n_interior=40,
        n_face=9,
        seed=7,
        evaluations=40,
        message="CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL",
    )
    back = FittedModel.from_json(model.to_json())
    np.testing.assert_allclose(back.mean, model.mean)
    np.testing.assert_allclose(back.cov, model.cov)
    assert back.loglik == model.loglik
    assert back.iterations == 31 and back.converged and back.seed == 7
    assert back.n_parts == 3 and back.n_interior == 40 and back.n_face == 9
    assert back.gradient_norm == model.gradient_norm
    assert back.evaluations == 40 and back.message == model.message
    doc = model.to_dict()
    assert set(doc) == {
        "mean", "cov", "loglik", "converged", "iterations", "gradient_norm", "evaluations", "message",
        "D", "n1", "n2", "seed",
    }


def test_model_json_without_optimizer_fields_reads_back_none():
    doc = {
        "mean": [0.1, -0.2], "cov": [[1.0, 0.2], [0.2, 0.5]], "loglik": -12.5, "converged": True,
        "iterations": 31, "gradient_norm": 3e-7, "D": 3, "n1": 40, "n2": 9, "seed": None,
    }
    model = FittedModel.from_dict(doc)
    assert model.evaluations is None and model.message is None
    assert json.loads(model.to_json())["evaluations"] is None
