"""Censored likelihood tests.

The boundary term is checked against adaptive quadrature of the normal
density along the censoring ray, and the full likelihood against a
from-scratch implementation built on naive matrix inverses plus the same
quadrature: the two routes share no code with the module under test.
"""

import dataclasses
import json
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from zerocensored import (
    FittedModel,
    ParameterBoundError,
    boundary_term,
    fit,
    gram_schmidt_rotation,
    log_likelihood,
    simulate_compositions,
    transform_dataset,
    MvnParams,
)
import zerocensored.likelihood as likelihood_module
from zerocensored.dataset import CompositionalDataset, TransformedSample
from zerocensored.gaussian import NotPositiveDefiniteError, cholesky
from zerocensored.io import read_model_json, write_model_json
from zerocensored.likelihood import (
    LOG_DIAG_BOUND,
    LOGLIK_REL_TOL,
    START_RIDGE,
    _ERFCX_POWERS,
    _erfcx,
    _face_terms,
    _log_ndtr_erfcx,
    _loglik_and_score,
    _pack_params,
    _sample_columns,
    _solve_chol,
    _tri_layout,
    _unpack_chol,
)
from zerocensored.simplex import _inverse_affine

from reference import (
    boundary_term_schur,
    erfcx_power_series,
    fit_lbfgsb,
    loglik_and_score_per_call,
    loglik_and_score_scipy,
    loglik_frame_per_call,
    mvn_logpdf,
    numerical_gradient,
    traced_peak,
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
        n_parts=n_parts,
    )


def build_sample(interior, face_vectors, n_parts):
    d = n_parts - 1
    face = np.asarray(face_vectors, float).reshape(-1, d)
    return TransformedSample(
        interior=np.asarray(interior, float).reshape(-1, d),
        face=face,
        face_zero_index=np.zeros(face.shape[0], dtype=int),
        n_parts=n_parts,
    )


# --- parameter packing -----------------------------------------------------------


def unpack(theta, d):
    """(mean, cov) at packed coordinates."""
    mean, chol = _unpack_chol(theta, d)
    return mean, chol @ chol.T


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(30)
    for d in (1, 2, 5, 9):
        mean = rng.normal(size=d)
        cov = random_spd(rng, d)
        mean2, cov2 = unpack(_pack_params(mean, cov), d)
        np.testing.assert_allclose(mean2, mean, atol=1e-12)
        np.testing.assert_allclose(cov2, cov, atol=1e-12)


def test_any_packed_vector_gives_spd():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        theta = rng.normal(scale=2.0, size=d + d * (d + 1) // 2)
        _, cov = unpack(theta, d)
        assert np.linalg.eigvalsh(cov).min() > 0


def test_unpack_rejects_log_diag_beyond_bound():
    theta = np.zeros(2 + 3)
    theta[2 + _tri_layout(2)[1][0]] = 31.0
    with pytest.raises(ParameterBoundError):
        _unpack_chol(theta, 2)


def test_tri_layout_is_cached_and_read_only():
    tril, diag_pos = _tri_layout(4)
    assert _tri_layout(4)[1] is diag_pos
    np.testing.assert_array_equal(diag_pos, [0, 2, 5, 9])
    for index in (*tril, diag_pos):
        assert not index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 1


# --- normal-tail kernels ------------------------------------------------------------

#: Both kernels agree with 40-digit mpmath to this many units in the last place; the worst seen is 5 (erfcx,
#: near t = 0, where the series' terms cancel) and 6 (log Phi, near x = 0).
KERNEL_ULPS = 8
ERFCX_GRID = np.unique(np.concatenate([np.linspace(0.0, 30.0, 3001), np.geomspace(1e-12, 1e9, 3001)]))
LOG_NDTR_GRID = np.unique(
    np.concatenate([np.linspace(-40.0, 40.0, 4001), -np.geomspace(1e-12, 1e9, 2001), np.geomspace(1e-12, 40.0, 2001)])
)


def ulps_off(got, exact):
    return np.abs(got - exact) / np.spacing(np.abs(exact))


def log_ndtr(x):
    """log Phi(x) from the package's normal-tail kernel."""
    return _log_ndtr_erfcx(x)[0]


def test_erfcx_matches_mpmath_to_a_few_ulps():
    with mp.workdps(40):
        exact = np.array([float(mp.exp(mp.mpf(t) ** 2) * mp.erfc(t)) for t in ERFCX_GRID])
    assert ulps_off(_erfcx(ERFCX_GRID), exact).max() <= KERNEL_ULPS


def test_log_ndtr_matches_mpmath_to_a_few_ulps():
    with mp.workdps(40):
        exact = np.array(
            [float(mp.log(mp.ncdf(x)) if x < 0 else mp.log1p(-mp.ncdf(-x))) for x in LOG_NDTR_GRID]
        )
    assert ulps_off(log_ndtr(LOG_NDTR_GRID), exact).max() <= KERNEL_ULPS


def test_normal_tail_kernels_at_special_values():
    with np.errstate(all="raise", under="ignore"):  # NumPy's default ignores underflow only
        ends = _erfcx(np.array([0.0, -0.0, np.inf, np.nan]))
        got = log_ndtr(np.array([-np.inf, np.inf, np.nan, -0.0, 0.0, 40.0, 1e300, -1e300]))
    np.testing.assert_allclose(ends, [1.0, 1.0, 0.0, np.nan], rtol=2.3e-16, atol=0)
    np.testing.assert_array_equal(got[:3], [-np.inf, 0.0, np.nan])
    assert got[3] == got[4] == pytest.approx(math.log(0.5), rel=1e-15)
    assert got[5] == got[6] == 0.0 and got[7] == -np.inf
    assert log_ndtr(-3.0).shape == () and log_ndtr(np.zeros((2, 3))).shape == (2, 3)


def test_normal_tail_kernels_match_scipy():
    # SciPy is a test-only oracle now.  Above x = 6 its log_ndtr is up to 5e-11 off on this grid, where ours
    # is within 4 ulps of mpmath, so the comparison stops there.
    np.testing.assert_allclose(_erfcx(ERFCX_GRID), scipy.special.erfcx(ERFCX_GRID), rtol=2e-15, atol=0)
    x = LOG_NDTR_GRID[LOG_NDTR_GRID < 6.0]
    np.testing.assert_allclose(log_ndtr(x), scipy.special.log_ndtr(x), rtol=1e-14, atol=0)


def test_erfcx_table_is_the_reference_series():
    assert erfcx_power_series() == _ERFCX_POWERS


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
            # The package reads only B's first row; the rotated-frame oracle reads all of it.
            assert boundary_term_schur(flipped, c1, mean, cov) == pytest.approx(base, abs=1e-10)


@pytest.mark.parametrize("d", [1, 2, 4, 9, 19])
def test_vectorized_boundary_terms_match_scalar_route(d):
    rng = np.random.default_rng(43)
    n2 = 15
    face = rng.normal(size=(n2, d))
    mean = rng.normal(size=d)
    cov = random_spd(rng, d)
    batch = face_terms(face, mean, np.linalg.cholesky(cov))
    scalar = [boundary_term_schur(gram_schmidt_rotation(y), np.linalg.norm(y), mean, cov) for y in face]
    np.testing.assert_allclose(batch, scalar, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_vectorized_boundary_terms_finite_deep_in_the_tail(d):
    rng = np.random.default_rng(44)
    cov = 0.01 * np.eye(d)
    mean = np.zeros(d)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    face = np.outer([10.0, 30.0, 50.0], direction) * 0.1  # c / sigma = 10, 30, 50
    batch = face_terms(face, mean, np.linalg.cholesky(cov))
    scalar = [boundary_term_schur(gram_schmidt_rotation(y), np.linalg.norm(y), mean, cov) for y in face]
    assert np.all(np.isfinite(batch))
    np.testing.assert_allclose(batch, scalar, rtol=1e-12)


def face_terms(face, mean, chol):
    """The boundary terms of ``_face_terms`` for a stack of face points at (mean, L)."""
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    radii = np.linalg.norm(face, axis=1)
    w = _solve_chol(chol, np.ascontiguousarray((face / radii[:, None]).T))
    return _face_terms(radii, w, _solve_chol(chol, mean.copy()), log_det)[0]


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


@pytest.mark.parametrize("d", [2, 4, 9])
def test_vectorized_boundary_terms_far_from_the_centre(d):
    # With |L^-1 mu| near 1e4 along the rays, ||m||^2 - b^2/a would lose about 1e8 ulps of an O(1) term.
    rng = np.random.default_rng(46)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cov = basis @ np.diag(np.linspace(1.0, 2.0, d)) @ basis.T
    cov = 0.5 * (cov + cov.T)
    unit = rng.normal(size=d)
    unit /= np.linalg.norm(unit)
    mean = 1e4 * unit
    rays = unit + 1e-4 * rng.normal(size=(4, d))
    face = rng.uniform(0.5, 2.0, size=(4, 1)) * rays / np.linalg.norm(rays, axis=1, keepdims=True)
    batch = face_terms(face, mean, np.linalg.cholesky(cov))
    reference = np.array([direction_form_mp(y, mean, cov) for y in face])
    assert np.max(np.abs(batch - reference) / np.maximum(1.0, np.abs(reference))) <= 1e-11


@pytest.mark.parametrize("d", [3, 9])
def test_vectorized_boundary_terms_near_singular_cov(d):
    rng = np.random.default_rng(45)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cov = basis @ np.diag(np.logspace(0, -8, d)) @ basis.T  # condition number 1e8
    cov = 0.5 * (cov + cov.T)
    face = rng.normal(size=(6, d))
    mean = 3.0 * face[0]  # on the first ray, where ||m||^2 - b^2/a cancels
    batch = face_terms(face, mean, np.linalg.cholesky(cov))
    reference = [direction_form_mp(y, mean, cov) for y in face]
    np.testing.assert_allclose(batch, reference, rtol=1e-7)


BAD_BOUNDARY_INPUTS = {
    "zero-radius": (np.eye(2), 0.0, np.zeros(2)),
    "negative-radius": (np.eye(2), -1.0, np.zeros(2)),
    "nan-radius": (np.eye(2), np.nan, np.zeros(2)),
    "infinite-radius": (np.eye(2), np.inf, np.zeros(2)),
    "nan-mean": (np.eye(2), 1.0, np.array([np.nan, 0.0])),
    "infinite-mean": (np.eye(2), 1.0, np.array([0.0, np.inf])),
    "oversized-rotation": (np.eye(4), 1.0, np.zeros(2)),
    # Only the first row is read: each of these passed and gave a term (2 I gave -5.395, the identity -2.760).
    "scaled-rotation": (2.0 * np.eye(2), 1.0, np.zeros(2)),
    "singular-rotation": (np.array([[1.0, 0.0], [1.0, 0.0]]), 1.0, np.zeros(2)),
    "non-unit-second-row": (np.diag([1.0, 1.5, 1.0]), 1.0, np.zeros(3)),
}


@pytest.mark.parametrize("rotation, radius, mean", BAD_BOUNDARY_INPUTS.values(), ids=BAD_BOUNDARY_INPUTS.keys())
def test_boundary_term_rejects_nonpositive_radius(rotation, radius, mean):
    # log_likelihood refuses a non-finite mean too; a NaN must not pass as a term.
    with pytest.raises(ValueError):
        boundary_term(rotation, radius, mean, np.eye(mean.size))


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
        mean, cov = unpack(theta, 2)
        return -log_likelihood(sample, mean, cov)

    for _ in range(20):
        theta = _pack_params(rng.normal(size=2), random_spd(rng, 2))
        g_fast = numerical_gradient(negloglik, theta)
        g_ref = four_point_stencil(negloglik, theta)
        assert np.linalg.norm(g_fast - g_ref) <= 1e-4 * max(np.linalg.norm(g_ref), 1.0)


def four_point_stencil(fun, theta, rel_step=1e-4):
    """Fourth-order central-difference gradient with per-coordinate step rel_step * (1 + |theta_i|)."""
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
    return lambda theta: log_likelihood(sample, *unpack(theta, sample.dim))


def loglik_and_score(sample, theta):
    return _loglik_and_score(sample, *_unpack_chol(theta, sample.dim), _sample_columns(sample))


def assert_score_matches(sample, theta, rtol, rel_step=1e-4):
    score = loglik_and_score(sample, theta)[1]
    assert np.all(np.isfinite(score))
    ref = four_point_stencil(packed_loglik(sample), theta, rel_step)
    assert np.linalg.norm(score - ref) <= rtol * max(np.linalg.norm(ref), 1.0)


#: Interior rows whose scatter has rank below d: one row, d - 1 rows, or rows on one line; drawn with face rows.
RANK_DEFICIENT = {
    "n1=1": lambda rng, n, d: rng.normal(size=(1, d)),
    "n1=d-1": lambda rng, n, d: rng.normal(size=(d - 1, d)),
    "collinear": lambda rng, n, d: rng.normal(size=d) + np.outer(rng.normal(size=n), rng.normal(size=d)),
}


def sample_of_kind(rng, kind, n1, n2, d):
    """n1 interior rows ("interior", "mixed" or a ``RANK_DEFICIENT`` kind) and n2 face rows (not "interior")."""
    if kind in RANK_DEFICIENT:
        interior = RANK_DEFICIENT[kind](rng, n1, d)
    else:
        interior = rng.normal(size=(0 if kind == "face" else n1, d))
    return build_sample(interior, rng.normal(size=(0 if kind == "interior" else n2, d)) + 0.5, d + 1)


@pytest.mark.parametrize(
    "d, kind",
    [(d, kind) for d in (1, 2, 4, 9, 19) for kind in ("interior", "face", "mixed")]
    + [(d, kind) for d in (4, 9, 19) for kind in RANK_DEFICIENT],
)
def test_score_matches_finite_differences(d, kind):
    rng = np.random.default_rng(60 + d)
    sample = sample_of_kind(rng, kind, 30, 12, d)
    for _ in range(3):
        theta = _pack_params(rng.normal(size=d), random_spd(rng, d))
        assert_score_matches(sample, theta, rtol=1e-9)
        score = loglik_and_score(sample, theta)[1]
        oracle = numerical_gradient(packed_loglik(sample), theta)
        assert np.linalg.norm(score - oracle) <= 1e-6 * max(np.linalg.norm(oracle), 1.0)


#: Agreement with the SciPy route: over 21 seeds of each case below the worst was 6.7e-14 (value, relative)
#: and 7.2e-15 (score, relative to its largest entry).
VALUE_RTOL_SCIPY = 1e-12
SCORE_RTOL_SCIPY = 1e-13


def random_evaluations(n_parts, kind, seed):
    """A sample of the given kind (``sample_of_kind``) and ten packed parameter vectors near random (mean, cov)."""
    d = n_parts - 1
    rng = np.random.default_rng(seed)
    sample = sample_of_kind(rng, kind, 400, 150, d)
    points = []
    for _ in range(10):
        mean, cov = rng.normal(size=d), random_spd(rng, d)
        points.append((mean, cov, _pack_params(mean, cov) + 0.2 * rng.normal(size=d + d * (d + 1) // 2)))
    return sample, points


EVALUATION_CASES = [(n_parts, kind) for n_parts in (3, 10, 20) for kind in ("interior", "face", "mixed")] + [
    (n_parts, kind) for n_parts in (5, 10, 20) for kind in RANK_DEFICIENT
]


@pytest.mark.parametrize("n_parts, kind", EVALUATION_CASES)
def test_value_and_score_bit_equal_the_solve_triangular_pass(n_parts, kind):
    # The package builds the data-only solve columns once per fit; the reference rebuilds everything per
    # call, with the package's substitution and normal-tail kernels and the same operands in the same order.
    sample, points = random_evaluations(n_parts, kind, 70 + n_parts)
    columns = _sample_columns(sample)
    for mean, cov, theta in points:
        value, score = _loglik_and_score(sample, *_unpack_chol(theta, sample.dim), columns)
        ref_value, ref_score = loglik_and_score_per_call(sample, theta)
        assert value == ref_value
        assert np.array_equal(score, ref_score)
        assert log_likelihood(sample, mean, cov) == loglik_frame_per_call(sample, mean, np.linalg.cholesky(cov))[0]


@pytest.mark.parametrize("n_parts, kind", EVALUATION_CASES)
def test_value_and_score_match_the_scipy_route(n_parts, kind):
    # solve_triangular and scipy.special.log_ndtr, as the package computed before it had its own kernels.
    sample, points = random_evaluations(n_parts, kind, 70 + n_parts)
    columns = _sample_columns(sample)
    for _, _, theta in points:
        value, score = _loglik_and_score(sample, *_unpack_chol(theta, sample.dim), columns)
        ref_value, ref_score = loglik_and_score_scipy(sample, theta)
        assert value == pytest.approx(ref_value, rel=VALUE_RTOL_SCIPY)
        assert np.max(np.abs(score - ref_score)) <= SCORE_RTOL_SCIPY * np.max(np.abs(ref_score))


def test_evaluations_read_the_interior_statistics_not_the_rows():
    # 20 000 interior rows enter the solve as min(n1, d) + 1 columns, so the evaluation costs the same as
    # with none and gives the same value and score with the rows themselves overwritten.
    rng = np.random.default_rng(77)
    d = 9
    sample = build_sample(rng.normal(size=(20_000, d)), rng.normal(size=(40, d)) + 0.5, d + 1)
    radii, columns = _sample_columns(sample)
    assert columns.shape[1] <= sample.n_face + 2 * d + 2
    theta = _pack_params(rng.normal(size=d), random_spd(rng, d))
    value, score = loglik_and_score(sample, theta)
    blank = TransformedSample(np.full_like(sample.interior, np.nan), sample.face, sample.face_zero_index, d + 1)
    assert _loglik_and_score(blank, *_unpack_chol(theta, d), (radii, columns))[0] == value
    ref_value, ref_score = loglik_and_score_scipy(sample, theta)
    assert value == pytest.approx(ref_value, rel=VALUE_RTOL_SCIPY)
    assert np.max(np.abs(score - ref_score)) <= SCORE_RTOL_SCIPY * np.max(np.abs(ref_score))


@pytest.mark.parametrize("kind", ["interior", "face", "mixed"])
@pytest.mark.parametrize("where", ["mean", "off-diagonal", "log-diagonal"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_parameters_raise_the_solve_error(kind, where, bad):
    rng = np.random.default_rng(75)
    d = 3
    n1 = 0 if kind == "face" else 20
    n2 = 0 if kind == "interior" else 8
    sample = build_sample(rng.normal(size=(n1, d)), rng.normal(size=(n2, d)) + 0.5, d + 1)
    theta = _pack_params(rng.normal(size=d), random_spd(rng, d))
    theta[{"mean": 1, "off-diagonal": d + 1, "log-diagonal": d + 2}[where]] = bad
    # An infinite log-diagonal coordinate is past the safety bound; a NaN one is not.
    expected = ParameterBoundError if (where, bad) == ("log-diagonal", math.inf) else ValueError
    match = "safety bound" if expected is ParameterBoundError else "^array must not contain infs or NaNs$"
    with pytest.raises(expected, match=match):
        loglik_and_score_scipy(sample, theta)
    with pytest.raises(expected, match=match):
        loglik_and_score(sample, theta)
    if where == "mean":
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            log_likelihood(sample, theta[:d], random_spd(rng, d))


def test_finite_parameters_that_overflow_raise_the_solve_error():
    # Off-diagonal entries of 1e30 over a log-diagonal of -30 overflow L^-1: the value is not finite, and
    # the score's right-hand side is refused as solve_triangular refused it, not handed on as NaN.
    rng = np.random.default_rng(76)
    d = 9
    sample = build_sample(rng.normal(size=(5, d)), rng.normal(size=(4, d)) + 0.5, d + 1)
    theta = np.zeros(d + d * (d + 1) // 2)
    theta[d:] = 1e30
    theta[d + _tri_layout(d)[1]] = -LOG_DIAG_BOUND
    with np.errstate(all="ignore"):
        for evaluate in (loglik_and_score_scipy, loglik_and_score):
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                evaluate(sample, theta)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_score_finite_deep_in_the_tail(d):
    rng = np.random.default_rng(61)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    face = np.outer([10.0, 30.0, 50.0], direction) * 0.1  # c / sigma = 10, 30, 50
    sample = build_sample(0.1 * rng.normal(size=(20, d)), face, d + 1)
    cov = 0.01 * np.eye(d)
    assert_score_matches(sample, _pack_params(np.zeros(d), cov), rtol=1e-8)
    # The mean far beyond every face point along its ray: z = (c - b/a) sqrt(a) << 0.
    assert_score_matches(sample, _pack_params(8.0 * direction, cov), rtol=1e-8)


@pytest.mark.parametrize("z", [0.5, 6.0, 29.9, 30.1, 1e2, 1e4, 1e6, 1e8, 1e9])
def test_score_matches_mpmath_at_any_tail_depth(z):
    # One face point at y = c on the line, mean mu and sd sigma: the term is log(1 - Phi(z)) with
    # z = (c - mu) / sigma, so the score is lam (1 / sigma, z) with lam = phi(z) / (1 - Phi(z)).
    mu, sigma = 0.25, 0.5
    sample = build_sample(np.empty((0, 1)), [mu + z * sigma], 2)
    score = loglik_and_score(sample, np.array([mu, math.log(sigma)]))[1]
    with mp.workdps(40):
        lam = mp.npdf(z) / mp.ncdf(-z)
        exact = [float(lam / sigma), float(lam * z)]
    np.testing.assert_allclose(score, exact, rtol=1e-12)


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
    assert_score_matches(sample, _pack_params(mean, cov), rtol=1e-6, rel_step=1e-6)


def test_fit_uses_the_score_and_reports_its_calls(tmp_path):
    rng = np.random.default_rng(63)
    sample = build_sample(rng.normal(size=(60, 2)), rng.normal(size=(20, 2)) + 1.0, 3)
    model = fit(sample)
    assert model.converged and model.gradient_norm < 1e-2
    assert model.evaluations >= model.iterations
    assert isinstance(model.message, str) and model.message
    _, back = write_and_read(tmp_path, model)
    assert back.evaluations == model.evaluations and back.message == model.message


def test_fit_makes_one_likelihood_pass_per_evaluation(monkeypatch):
    # The start point's value comes from the optimizer's first call, not from a pass of its own.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return _loglik_and_score(*args, **kwargs)

    monkeypatch.setattr(likelihood_module, "_loglik_and_score", counting)
    rng = np.random.default_rng(64)
    sample = build_sample(rng.normal(size=(60, 2)), rng.normal(size=(20, 2)) + 1.0, 3)
    model = fit(sample)
    assert model.converged
    assert len(calls) == model.evaluations
    assert model.trace[0] == _loglik_and_score(sample, *calls[0])[0]


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
    sample = transform_dataset(simulate_compositions(2000, params, 65))
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


def oracle_case(kind, n_parts, seed):
    """A sample for comparing ``fit`` with the L-BFGS-B oracle: 1 000 simulated rows, or 300 interior ones."""
    d = n_parts - 1
    rng = np.random.default_rng(seed)
    if kind == "cond 1e6":
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        cov = 0.09 * basis @ np.diag(np.logspace(0, -6, d)) @ basis.T
        params = MvnParams(0.05 * rng.normal(size=d), 0.5 * (cov + cov.T))
    else:
        a = rng.normal(size=(d, d))
        cov = a @ a.T / d + 0.5 * np.eye(d)
        sd = np.sqrt(np.diag(cov))
        corr = cov / np.outer(sd, sd)
        if kind == "interior":
            return interior_only_sample(0.1 + rng.normal(size=(300, d)) @ np.linalg.cholesky(0.25 * corr).T, n_parts)
        if kind == "face-heavy":
            direction = rng.normal(size=d)
            params = MvnParams(1.2 * direction / np.linalg.norm(direction), 0.36 * corr)
        else:
            params = MvnParams(0.05 * rng.normal(size=d), 0.36 * corr)
    return transform_dataset(simulate_compositions(1000, params, seed))


ORACLE_CASES = [("censored", n_parts) for n_parts in (2, 3, 5, 10, 20)] + [
    ("interior", 3), ("interior", 10), ("face-heavy", 3), ("face-heavy", 10), ("cond 1e6", 5), ("cond 1e6", 10),
]


@pytest.mark.parametrize("kind, n_parts", ORACLE_CASES)
def test_fit_reaches_the_lbfgsb_oracle(kind, n_parts):
    sample = oracle_case(kind, n_parts, seed=80 + n_parts)
    if kind == "face-heavy":
        assert sample.n_face > 0.3 * sample.n_obs
    model, oracle = fit(sample), fit_lbfgsb(sample)
    assert model.converged and model.message.startswith("converged: ")
    assert model.loglik >= oracle.loglik - LOGLIK_REL_TOL * abs(oracle.loglik)
    assert model.trace[-1] == model.loglik and np.all(np.diff(model.trace) >= 0.0)


def test_fit_line_search_ends_in_rounding_noise():
    # Zero-free rows under a covariance with condition number 1e6 start at the closed-form maximum, where the
    # score (about 5e-6) is rounding noise above tol and trial values differ from the start's by one ulp.
    # Without bisection and the narrow-bracket exit the line search spends all 60 trials here.
    rng = np.random.default_rng(3)
    d = 9
    mean = 0.05 * rng.normal(size=d)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cov = 0.25 * basis @ np.diag(np.logspace(0, -6, d)) @ basis.T
    sample = transform_dataset(simulate_compositions(1000, MvnParams(mean, 0.5 * (cov + cov.T)), 3))
    assert sample.n_face == 0
    model = fit(sample)
    assert model.converged and model.evaluations < 20
    assert model.loglik >= fit_lbfgsb(sample).loglik


def test_fit_raises_at_the_bound_where_the_oracle_does():
    # Identical rows: the likelihood grows without bound as the variance shrinks to zero.
    sample = interior_only_sample(np.full((5, 1), 0.2), 2)
    for fitter in (fit, fit_lbfgsb):
        with pytest.raises(ParameterBoundError, match="degenerate"):
            fitter(sample)


def test_fit_stopped_by_max_iter_is_not_converged():
    rng = np.random.default_rng(58)
    sample = build_sample(rng.normal(size=(60, 2)), rng.normal(size=(20, 2)) + 1.0, 3)
    model = fit(sample, max_iter=1)
    assert not model.converged and model.iterations == 1
    assert model.message == "stopped: max_iter (1) iterations"
    assert len(model.trace) == 2


def test_fit_ridges_a_singular_start_covariance():
    # Forty interior points on one line through the centre: the start covariance has rank one.
    t = np.linspace(-0.3, 0.3, 40)
    parts = _inverse_affine(np.column_stack([t, t / 2.0]))
    sample = transform_dataset(CompositionalDataset(parts=parts, zero_index=np.full(40, -1)))
    mean0 = sample.interior.mean(axis=0)
    resid = sample.interior - mean0
    cov0 = resid.T @ resid / 40
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(cov0)
    model = fit(sample, max_iter=1)
    assert not model.converged and "max_iter" in model.message
    assert model.trace[0] == pytest.approx(log_likelihood(sample, mean0, cov0 + START_RIDGE * np.eye(2)), rel=1e-12)


def test_fit_frees_its_start_moments_before_the_search():
    # The start moments took two n × d copies of the sample, which stayed alive through the search: one
    # iteration on these 50 000 rows peaked at 4.0 times the sample's bytes.  Computed in a helper, whose
    # one copy dies on return, it reads 2.0 times.
    rng = np.random.default_rng(61)
    sample = build_sample(rng.normal(size=(49_000, 19)), rng.normal(size=(1_000, 19)) + 0.5, 20)
    peak, _ = traced_peak(lambda: fit(sample, max_iter=1))
    assert peak < 3 * (sample.interior.nbytes + sample.face.nbytes)


def test_fit_names_the_stop_test():
    rng = np.random.default_rng(59)
    sample = build_sample(rng.normal(size=(60, 2)), rng.normal(size=(20, 2)) + 1.0, 3)
    assert fit(sample).message == "converged: relative reduction <= LOGLIK_REL_TOL"
    # Zero-free data start at the closed-form maximum, so the start point passes the gradient test.
    closed_form = fit(interior_only_sample(rng.normal(size=(50, 2)), 3), gradient_tol=1e-3)
    assert closed_form.message == "converged: projected gradient inf-norm <= tol"
    assert closed_form.iterations == 0 and closed_form.evaluations == 1


# --- serialization -----------------------------------------------------------------------


def write_and_read(tmp_path, model):
    """Write ``model`` with ``write_model_json``; the document written and the model ``read_model_json`` reads."""
    path = tmp_path / "model.json"
    write_model_json(path, model)
    return json.loads(path.read_text(encoding="utf-8")), read_model_json(path)


def test_fitted_model_json_round_trip(tmp_path):
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
        evaluations=40,
        message="CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL",
    )
    doc, back = write_and_read(tmp_path, model)
    np.testing.assert_allclose(back.mean, model.mean)
    np.testing.assert_allclose(back.cov, model.cov)
    assert back.loglik == model.loglik
    assert back.iterations == 31 and back.converged
    assert back.n_parts == 3 and back.n_interior == 40 and back.n_face == 9
    assert back.gradient_norm == model.gradient_norm
    assert back.evaluations == 40 and back.message == model.message
    assert set(doc) == {
        "mean", "cov", "loglik", "converged", "iterations", "gradient_norm", "evaluations", "message",
        "D", "n1", "n2", "seed",
    }
    # The model keeps no seed: it is written as null, and an earlier file's integer is checked but not kept.
    assert doc["seed"] is None
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({**doc, "seed": 7}), encoding="utf-8")
    assert read_model_json(path).message == model.message
    # A non-finite log-likelihood and gradient norm are written as null and read back as NaN.
    doc, back = write_and_read(tmp_path, dataclasses.replace(model, loglik=math.nan, gradient_norm=math.inf))
    assert doc["loglik"] is None and doc["gradient_norm"] is None
    assert math.isnan(back.loglik) and math.isnan(back.gradient_norm)
    assert back.iterations == 31 and back.message == model.message


def test_model_json_without_optimizer_fields_reads_back_none(tmp_path):
    doc = {
        "mean": [0.1, -0.2], "cov": [[1.0, 0.2], [0.2, 0.5]], "loglik": -12.5, "converged": True,
        "iterations": 31, "gradient_norm": 3e-7, "D": 3, "n1": 40, "n2": 9, "seed": None,
    }
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    model = read_model_json(path)
    assert model.evaluations is None and model.message is None
    assert write_and_read(tmp_path, model)[0]["evaluations"] is None
