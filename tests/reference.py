"""Reference routines that the tests check the package against; not part of the package's API."""

import csv
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.optimize import minimize
from scipy.special import log_ndtr, ndtr

from zerocensored.gaussian import LOG_2PI, MvnParams, NotPositiveDefiniteError, cholesky
from zerocensored.likelihood import (
    LOG_DIAG_BOUND,
    LOGLIK_REL_TOL,
    START_RIDGE,
    FittedModel,
    ParameterBoundError,
    _log_ndtr_erfcx,
    _loglik_and_score,
    _pack_params,
    _sample_columns,
    _solve_chol,
    _tri_layout,
    _unpack_chol,
)
from zerocensored.simplex import (
    ZERO_TOL,
    MultipleZerosError,
    TiedMinimumError,
    format_rows,
    helmert_submatrix,
    inverse_alpha_transform,
)
from zerocensored.ternary import TRIANGLE


def traced_peak(fun):
    """Peak bytes traced by tracemalloc (NumPy buffers included) while fun runs, and its result."""
    tracemalloc.start()
    try:
        result = fun()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def mvn_logpdf(y, params: MvnParams):
    """Normal log-density at one point (1-d input) or a stack of points (2-d input)."""
    y = np.asarray(y, dtype=float)
    d = params.dim
    if y.shape[-1] != d:
        raise ValueError(f"point dimension {y.shape[-1]} does not match parameters ({d})")
    chol = params.chol
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    resid = np.atleast_2d(y) - params.mean
    w = solve_triangular(chol, resid.T, lower=True)
    quad = np.sum(w * w, axis=0)
    out = -0.5 * (d * LOG_2PI + log_det + quad)
    return float(out[0]) if y.ndim == 1 else out


def numerical_gradient(fun, theta, *, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate step rel_step * (1 + |theta_i|)."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.size)
    for i in range(theta.size):
        h = rel_step * (1.0 + abs(theta[i]))
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (fun(up) - fun(down)) / (2.0 * h)
    return grad


def barycentric_from_xy(xy) -> np.ndarray:
    """Invert ``ternary._ternary_coordinates``; coordinates may lie outside the triangle."""
    xy = np.asarray(xy, dtype=float)
    c = xy[..., 1] / TRIANGLE[2, 1]
    b = xy[..., 0] - 0.5 * c
    a = 1.0 - b - c
    return np.stack([a, b, c], axis=-1)


def write_compositions_csv_rowwise(path, dataset) -> None:
    """Row-by-row ``csv.writer`` form of ``io.write_compositions_csv``: zeros as ``0``, others ``repr``."""
    names = dataset.names or tuple(f"comp{i + 1}" for i in range(dataset.n_parts))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in dataset.parts:
            writer.writerow(["0" if v == 0.0 else repr(float(v)) for v in row])


#: Part counts at which the bit-for-bit tests run, from the smallest model to past the D = 20 target.
BLOCK_PARTS = (2, 3, 5, 8, 10, 15, 20, 21)


def _zero_rule_argmin(x):
    """The boundary rule of ``simplex`` row by row, from each row's argmin and a per-row zero count.

    Returns (outside, stretch 1 - D min, zero_index) of an (n, D) array and
    raises as the package does.
    """
    zero_index = x.argmin(axis=1)
    mins = x[np.arange(x.shape[0]), zero_index]
    outside = mins < -ZERO_TOL
    stretch = 1.0 - x.shape[1] * mins
    counts = np.count_nonzero(x <= np.where(outside, mins + ZERO_TOL * stretch, ZERO_TOL)[:, None], axis=1)
    tied = np.flatnonzero(outside & (counts > 1)) + 1
    if tied.size:
        raise TiedMinimumError(f"rows with a tied minimum, which the pull would turn into two zeros: {format_rows(tied)}")
    multi = np.flatnonzero(counts > 1) + 1
    if multi.size:
        raise MultipleZerosError(f"rows with more than one zero part: {format_rows(multi)}", rows=multi)
    return outside, stretch, np.where(counts == 1, zero_index, -1)


def zero_parts_argmin(parts) -> np.ndarray:
    """``simplex.zero_parts`` through ``_zero_rule_argmin``."""
    return _zero_rule_argmin(np.asarray(parts, dtype=float))[2]


def project_rows_argmin(parts) -> tuple[np.ndarray, np.ndarray]:
    """``simplex.project_rows`` through ``_zero_rule_argmin``: the same pull, step by step."""
    x = np.asarray(parts, dtype=float)
    outside, stretch, zero_index = _zero_rule_argmin(x)
    out = x.copy()
    centre = 1.0 / x.shape[1]
    pulled = x[outside]
    pulled -= centre
    pulled *= 1.0 / stretch[outside, None]
    pulled += centre
    out[outside] = pulled
    rows = np.flatnonzero(zero_index >= 0)
    out[rows, zero_index[rows]] = 0.0
    return out, zero_index


def _draw_parts_whole(model, n, rng) -> np.ndarray:
    latent = model.mean + rng.standard_normal((n, model.dim)) @ model.chol.T
    return inverse_alpha_transform(latent, 1.0)[0]


def simulate_compositions_whole(n, model, seed) -> tuple[np.ndarray, np.ndarray]:
    """``simulate_compositions`` as one whole-array draw and row-wise pull; returns (parts, zero_index)."""
    return project_rows_argmin(_draw_parts_whole(model, n, np.random.default_rng(seed)))


def quarter_turn_rows(z) -> np.ndarray:
    """R z for each row z, with R block diagonal in [[0, -1], [1, 0]] over pairs of coordinates."""
    turned = np.empty_like(z)
    turned[:, 0::2] = -z[:, 1::2]
    turned[:, 1::2] = z[:, 0::2]
    return turned


def image_vectors(n, dim, seed) -> list[np.ndarray]:
    """The images R^j z, j = 0..3, of the first n normal vectors z of ``default_rng(seed)``, each of dim
    rounded up to even coordinates, cut back to their first dim coordinates."""
    z = np.random.default_rng(seed).standard_normal((n, dim + dim % 2))
    turned = quarter_turn_rows(z)
    return [image[:, :dim] for image in (z, turned, -z, -turned)]


def image_parts_whole(model, vectors) -> np.ndarray:
    """Parts of the draws mean + v Lᵀ for each row v of vectors, row by row."""
    return inverse_alpha_transform(model.mean + vectors @ model.chol.T, 1.0)[0]


def zero_rates_whole(model, n_sims, seed) -> np.ndarray:
    """``diagnostics._monte_carlo_rates`` drawn and counted row-wise as one array: the ⌈n/4⌉ normal vectors z of
    ``default_rng(seed)``, and image j = 0..3 of the quarter-turn, R^j z, for the first ⌊(n − j + 3)/4⌋ of
    them, each mapped as mean + R^j z Lᵀ."""
    images = image_vectors(-(-n_sims // 4), model.dim, seed)
    vectors = np.concatenate([image[: (n_sims - j + 3) // 4] for j, image in enumerate(images)])
    zero_index = zero_parts_argmin(image_parts_whole(model, vectors))
    return np.bincount(zero_index + 1, minlength=model.dim + 2)[1:] / float(n_sims)


def exact_zero_rates_d3(mean, cov) -> np.ndarray:
    """Exact probability that a 3-part model's draw lands with its zero in each part.

    A latent point t u, with u a unit vector and t > 0, has its zero in part
    j = argmin_k (H^T u)_k once t passes the edge radius c = -1 / (H^T u)_j.
    With P = cov^-1, a = u'P u, m = u'P mean / a and s = a^(-1/2), the radial
    integral of t f(t u) from c to infinity is closed-form:
    s^2 e^(-(c - m)^2 / 2 s^2) + m s sqrt(2 pi) Phi(-(c - m) / s), times the
    density's factor along the ray, e^(-(mean'P mean - a m^2) / 2) / (2 pi |cov|^(1/2)).
    The angle integral runs by quadrature over the three arcs between vertex
    directions, on each of which j is fixed, and an arc that holds the mean's
    direction is split there, at the peak of a concentrated model's mass.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    prec = np.linalg.inv(cov)
    h = helmert_submatrix(3)
    scale = 2.0 * math.pi * math.sqrt(np.linalg.det(cov))
    q = float(mean @ prec @ mean)

    def ray_mass(theta, j):
        u = np.array([math.cos(theta), math.sin(theta)])
        c = -1.0 / float(u @ h[:, j])
        pu = prec @ u
        a = float(u @ pu)
        m = float(pu @ mean) / a
        s = 1.0 / math.sqrt(a)
        radial = s * s * math.exp(-0.5 * ((c - m) / s) ** 2) + m * s * math.sqrt(2.0 * math.pi) * ndtr(-(c - m) / s)
        return math.exp(-0.5 * (q - a * m * m)) * radial / scale

    vertices = sorted(math.atan2(col[1], col[0]) % (2.0 * math.pi) for col in h.T)
    peak = math.atan2(mean[1], mean[0])
    rates = np.zeros(3)
    for lo, hi in zip(vertices, vertices[1:] + [vertices[0] + 2.0 * math.pi]):
        mid = 0.5 * (lo + hi)
        j = int(np.argmin(np.array([math.cos(mid), math.sin(mid)]) @ h))
        split = lo + (peak - lo) % (2.0 * math.pi)
        for a, b in [(lo, split), (split, hi)] if split < hi else [(lo, hi)]:
            rates[j] += quad(ray_mass, a, b, args=(j,), epsabs=0.0, epsrel=1e-10, limit=200)[0]
    return rates


def loglik_and_score_per_call(sample, theta) -> tuple[float, np.ndarray]:
    """``likelihood._loglik_and_score`` as one self-contained pass per call.

    Unpacks the factor with fresh ``np.tril_indices``, rebuilds the face radii,
    unit directions, interior statistics and solve columns, and computes
    log|Sigma|, sqrt(a) and log(1 - Phi(z)) where each is used, with the
    package's substitution and normal-tail kernels.  Every expression has the
    package's operands and order, so the two agree bit for bit.
    """
    d = sample.dim
    theta = np.asarray(theta, dtype=float)
    rows, cols = np.tril_indices(d)
    diag_pos = np.flatnonzero(rows == cols)
    tri = theta[d:].copy()
    if np.any(np.abs(tri[diag_pos]) > LOG_DIAG_BOUND + 1e-3):
        raise ParameterBoundError("log-diagonal coordinate beyond the +/-30 safety bound")
    tri[diag_pos] = np.exp(tri[diag_pos])
    chol = np.zeros((d, d))
    chol[np.tril_indices(d)] = tri
    mean = theta[:d].copy()
    value, inverse, resid, face = loglik_frame_per_call(sample, mean, chol)

    g_mean = np.zeros(d)
    g_chol = np.zeros((d, d))
    count = 0
    if resid is not None:
        g_mean += math.sqrt(sample.n_interior) * resid[:, -1]
        g_chol += resid @ resid.T
        count += sample.n_interior
    if face is not None:
        radii, w, m, a, b, z, log_tail, erfcx = face
        root_a = np.sqrt(a)
        lam = math.sqrt(2.0 / math.pi) / erfcx
        below = z < 0.0
        lam[below] = np.exp(-0.5 * (z[below] ** 2 + LOG_2PI) - log_tail[below])
        g_b = b / a + lam / root_a
        g_a = -0.5 * (b * b / (a * a) + 1.0 / a) - 0.5 * lam * (radii / root_a + b / (a * root_a))
        w_gb = w @ g_b
        g_m = w_gb - a.size * m
        g_mean += g_m
        g_chol -= np.outer(g_m, m) + np.outer(m, w_gb) + 2.0 * (w * g_a) @ w.T
        count += a.size
    solved = inverse.T @ np.column_stack([g_mean, g_chol])
    g_tri = np.tril(solved[:, 1:])
    diag = np.arange(d)
    g_tri[diag, diag] = g_tri[diag, diag] * chol[diag, diag] - count
    return value, np.concatenate([solved[:, 0], g_tri[np.tril_indices(d)]])


def loglik_frame_per_call(sample, mean, chol):
    """The value of ``loglik_and_score_per_call`` at (mean, L), L^-1, its whitened interior statistics
    L^-1 [R^T | sqrt(n1) (ybar - mu)] and its face frame (radii, w, m, a, b, z, log(1 - Phi(z)),
    erfcx(|z| / sqrt 2))."""
    d = sample.dim
    n1 = sample.n_interior
    n2 = sample.n_face
    n = n1 + n2
    radii = np.linalg.norm(sample.face, axis=1)
    centre = sample.interior.sum(axis=0) / max(n1, 1)
    root = np.linalg.qr(sample.interior - centre, mode="r")
    x = np.zeros((d, n2 + 1 + d + root.shape[0] + 1))
    x[:, :n2] = (sample.face / radii[:, None]).T
    x[:, n2] = mean
    x[:, n2 + 1 : n2 + 1 + d] = np.eye(d)
    x[:, n2 + 1 + d : -1] = root.T
    x[:, -1] = math.sqrt(n1) * centre
    x[:, -1] -= math.sqrt(n1) * mean
    _solve_chol(chol, x)
    total = (n * d + 0.5 * n) * math.log(sample.n_parts)
    resid = face = None
    if n1:
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        resid = x[:, n2 + 1 + d :]
        total += -0.5 * n1 * (d * LOG_2PI + log_det) - 0.5 * float(np.sum(resid * resid))
    if n2:
        w = x[:, :n2]
        m = x[:, n2].copy()
        a = np.sum(w * w, axis=0)
        b = m @ w
        z = (radii - b / a) * np.sqrt(a)
        log_tail, erfcx = _log_ndtr_erfcx(-z)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        perp = m[:, None] - (b / a) * w
        marginal = -0.5 * ((d - 1) * LOG_2PI + log_det + np.sum(perp * perp, axis=0) + np.log(a))
        total += float(np.sum(marginal + log_tail))
        face = (radii, w, m, a, b, z, log_tail, erfcx)
    return total, x[:, n2 + 1 : n2 + 1 + d], resid, face


def boundary_term_schur(rotation, radius: float, mean, cov) -> float:
    """Censored log-contribution of one face point with rotation data (B, c1), in the rotated frame.

    ``likelihood.boundary_term`` as the package computed it before it became
    the face kernel at one point.  With mu_z = B mu and Sigma_z = B Sigma B^T,
    the term is the log-density of the non-first rotated coordinates at zero
    plus the log upper tail of the first one beyond c1 given them.  Through
    L = chol(Sigma_22), half = L^-1 Sigma_21 and m = L^-1 mu_2, the marginal is
    -1/2 [(d - 1) log 2 pi + log|Sigma_22| + m.m] and the conditional of the
    first coordinate has mean mu_1 - half.m and variance Sigma_11 - half.half
    (the Schur complement), so the tail is
    log(1 - Phi((c1 - cond_mean) / sqrt(cond_var))).
    """
    b = np.asarray(rotation, dtype=float)
    c1 = float(radius)
    if c1 <= 0.0:
        raise ValueError(f"rotation radius must be positive, got {c1!r}")
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    mu_z = b @ mean
    sig_z = b @ cov @ b.T
    sig_z = 0.5 * (sig_z + sig_z.T)  # rotation leaves eps-level asymmetry
    d = mu_z.size
    if d == 1:
        sd = math.sqrt(float(sig_z[0, 0]))
        return float(_log_ndtr_erfcx(-(c1 - float(mu_z[0])) / sd)[0])
    chol = cholesky(sig_z[1:, 1:])
    half = _solve_chol(chol, sig_z[1:, 0].copy())
    m = _solve_chol(chol, mu_z[1:].copy())
    cond_mean = float(mu_z[0] - half @ m)
    cond_var = float(sig_z[0, 0] - half @ half)
    if cond_var <= 0.0:
        raise NotPositiveDefiniteError("conditional variance is not positive")
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    marginal = -0.5 * ((d - 1) * LOG_2PI + log_det + m @ m)
    return float(marginal + _log_ndtr_erfcx(-(c1 - cond_mean) / math.sqrt(cond_var))[0])


def erfcx_power_series(n_terms: int = 25, k: float = 3.75, nodes: int = 128, dps: int = 40) -> tuple[float, ...]:
    """``likelihood._ERFCX_POWERS``: (1 + 2t) erfcx(t) = sum_j a_j s^j with s = (t - K) / (t + K), from mpmath.

    Shepherd and Laframboise's Chebyshev series in s, with its coefficients
    taken by interpolation at ``nodes`` Chebyshev points in ``dps``-digit
    arithmetic, is cut at ``n_terms`` terms and rewritten in powers of s;
    each power's coefficient is rounded to a double once.
    """
    with mp.workdps(dps):
        scale = mp.mpf(k)
        samples = []
        for j in range(nodes):
            angle = mp.pi * (j + mp.mpf(1) / 2) / nodes
            s = mp.cos(angle)
            t = scale * (1 + s) / (1 - s)
            samples.append(((1 + 2 * t) * mp.erfc(t) * mp.exp(t * t), angle))
        cheb = [2 * mp.fsum(f * mp.cos(i * angle) for f, angle in samples) / nodes for i in range(n_terms)]
        cheb[0] /= 2
        basis = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]  # T_0, T_1, ... in powers of s
        while len(basis) < n_terms:  # T_i = 2 s T_(i-1) - T_(i-2)
            nxt = [mp.mpf(0)] + [2 * v for v in basis[-1]]
            for j, v in enumerate(basis[-2]):
                nxt[j] -= v
            basis.append(nxt)
        powers = [mp.fsum(c * poly[j] for c, poly in zip(cheb, basis) if j < len(poly)) for j in range(n_terms)]
        return tuple(float(v) for v in powers)


def loglik_and_score_scipy(sample, theta) -> tuple[float, np.ndarray]:
    """The value and score as the package computed them through SciPy, one self-contained pass per call.

    Solves with ``solve_triangular`` and its finiteness scans, takes log(1 -
    Phi(z)) from ``scipy.special.log_ndtr`` and the Mills ratio in logs.  The
    package's own kernels agree with it to rounding while z is moderate.
    """
    d = sample.dim
    theta = np.asarray(theta, dtype=float)
    rows, cols = np.tril_indices(d)
    diag_pos = np.flatnonzero(rows == cols)
    tri = theta[d:].copy()
    if np.any(np.abs(tri[diag_pos]) > LOG_DIAG_BOUND + 1e-3):
        raise ParameterBoundError("log-diagonal coordinate beyond the +/-30 safety bound")
    tri[diag_pos] = np.exp(tri[diag_pos])
    chol = np.zeros((d, d))
    chol[np.tril_indices(d)] = tri
    mean = theta[:d].copy()
    value, resid, face = loglik_frame_scipy(sample, mean, chol)

    g_mean = np.zeros(d)
    g_chol = np.zeros((d, d))
    count = 0
    if resid is not None:
        g_mean += resid.sum(axis=1)
        g_chol += resid @ resid.T
        count += resid.shape[1]
    if face is not None:
        radii, w, m, a, b, z = face
        root_a = np.sqrt(a)
        lam = np.exp(-0.5 * (z * z + LOG_2PI) - log_ndtr(-z))
        g_b = b / a + lam / root_a
        g_a = -0.5 * (b * b / (a * a) + 1.0 / a) - 0.5 * lam * (radii / root_a + b / (a * root_a))
        w_gb = w @ g_b
        g_m = w_gb - a.size * m
        g_mean += g_m
        g_chol -= np.outer(g_m, m) + np.outer(m, w_gb) + 2.0 * (w * g_a) @ w.T
        count += a.size
    solved = solve_triangular(chol, np.column_stack([g_mean, g_chol]), lower=True, trans="T")
    g_tri = np.tril(solved[:, 1:])
    diag = np.arange(d)
    g_tri[diag, diag] = g_tri[diag, diag] * chol[diag, diag] - count
    return value, np.concatenate([solved[:, 0], g_tri[np.tril_indices(d)]])


def loglik_frame_scipy(sample, mean, chol):
    """The value of ``loglik_and_score_scipy`` at (mean, L), its whitened interior residuals and its face
    frame (radii, w, m, a, b, z)."""
    d = sample.dim
    n1 = sample.n_interior
    n2 = sample.n_face
    n = n1 + n2
    total = (n * d + 0.5 * n) * math.log(sample.n_parts)
    resid = face = None
    if n1:
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        resid = solve_triangular(chol, (sample.interior - mean).T, lower=True)
        total += -0.5 * n1 * (d * LOG_2PI + log_det) - 0.5 * float(np.sum(resid * resid))
    if n2:
        radii = np.linalg.norm(sample.face, axis=1)
        w = solve_triangular(chol, (sample.face / radii[:, None]).T, lower=True)
        m = solve_triangular(chol, mean, lower=True)
        a = np.sum(w * w, axis=0)
        b = m @ w
        z = (radii - b / a) * np.sqrt(a)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        marginal = -0.5 * ((d - 1) * LOG_2PI + log_det + m @ m - b * b / a + np.log(a))
        total += float(np.sum(marginal + log_ndtr(-z)))
        face = (radii, w, m, a, b, z)
    return total, resid, face


def fit_lbfgsb(sample, *, max_iter=5000, gradient_tol=1e-6) -> FittedModel:
    """``likelihood.fit`` through SciPy's L-BFGS-B, as the package fitted before it had its own L-BFGS.

    Same start point, objective, bound and stop tests (``ftol`` is
    ``LOGLIK_REL_TOL``); it returns the best point evaluated, and its trace
    records each iterate the optimizer reports.
    """
    d = sample.dim
    n1 = sample.n_interior
    if sample.n_obs == 0:
        raise ValueError("empty sample")
    if n1 < d + 1:
        warnings.warn(
            f"only {n1} interior points for dimension {d}; covariance may be unidentifiable",
            stacklevel=2,
        )

    points = np.vstack([sample.interior, sample.face])
    mean0 = points.mean(axis=0)
    resid = points - mean0
    cov0 = resid.T @ resid / points.shape[0]
    try:
        cholesky(cov0)
    except NotPositiveDefiniteError:
        cov0 = cov0 + START_RIDGE * np.eye(d)
        cholesky(cov0)  # give up if still singular
    theta0 = _pack_params(mean0, cov0)

    columns = _sample_columns(sample)

    def negloglik_and_score(theta: np.ndarray) -> tuple[float, np.ndarray]:
        value, score = _loglik_and_score(sample, *_unpack_chol(theta, d), columns)
        return -value, -score

    best_theta, best_value = theta0, math.inf
    last_theta, last_value = theta0, math.inf
    trace: list[float] = []

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_theta, best_value, last_theta, last_value
        value, score = negloglik_and_score(theta)
        last_theta, last_value = np.array(theta), value
        if not trace:  # L-BFGS-B's first call is at theta0
            trace.append(-value)
        if value < best_value:
            best_value = value
            best_theta = last_theta
        return value, score

    def record(theta: np.ndarray) -> None:
        # L-BFGS-B reports an iterate right after evaluating it.
        same = np.array_equal(theta, last_theta)
        trace.append(-last_value if same else _loglik_and_score(sample, *_unpack_chol(theta, d), columns)[0])

    diag_pos = _tri_layout(d)[1]
    bounds = [(None, None)] * theta0.size
    for pos in diag_pos:
        bounds[d + pos] = (-LOG_DIAG_BOUND, LOG_DIAG_BOUND)

    result = minimize(
        objective,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        callback=record,
        options={
            "maxiter": max_iter,
            "maxfun": 50 * max_iter,
            "ftol": LOGLIK_REL_TOL,
            "gtol": gradient_tol,
            "maxls": 60,
        },
    )
    at_result = result.fun <= best_value
    if at_result:
        best_value = float(result.fun)
        best_theta = np.array(result.x)

    tri = best_theta[d:]
    if np.any(np.abs(tri[diag_pos]) >= LOG_DIAG_BOUND - 1e-6):
        raise ParameterBoundError(
            "optimum hit the +/-30 log-diagonal bound; the covariance scale is degenerate"
        )

    mean_hat, chol_hat = _unpack_chol(best_theta, d)
    grad = result.jac if at_result else negloglik_and_score(best_theta)[1]
    grad_norm = float(np.max(np.abs(grad)))
    return FittedModel(
        mean=mean_hat,
        cov=chol_hat @ chol_hat.T,
        loglik=-best_value,
        iterations=int(result.nit),
        converged=bool(result.success),
        gradient_norm=grad_norm,
        n_parts=sample.n_parts,
        n_interior=n1,
        n_face=sample.n_face,
        trace=tuple(trace),
        evaluations=int(result.nfev),
        message=str(result.message),
    )
