"""The zero-censored Gaussian log-likelihood, its score, and its maximization.

Interior points contribute ordinary normal log-densities.  A point that was
pulled to a face enters through its rotated coordinates z = B y: the density
of the non-first coordinates evaluated at zero, times the upper-tail
probability of the first coordinate beyond the rotation radius c1.
``boundary_term`` evaluates exactly that and is kept as the rotated-frame
reference.  The term depends only on the unit direction u = y / c1 and c1, so
the likelihood itself uses the equivalent direction form in
``_boundary_terms``, which needs no rotation.  The constant Jacobian term
(n d + n/2) log D of the exponent-one transformation is included so reported
values are full data log-likelihoods; it does not move the maximizer.

The covariance is optimized through its Cholesky factor with log-transformed
diagonal, so every parameter vector maps to an SPD matrix and the search is
unconstrained apart from a +/-30 safety bound on the log-diagonal entries.
``_score`` is the exact gradient in those coordinates, built from the
quantities the likelihood has already computed; ``numerical_gradient`` is
the central-difference reference it is tested against.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize
from scipy.special import log_ndtr

from .dataset import TransformedSample
from .gaussian import (
    LOG_2PI,
    MvnParams,
    NotPositiveDefiniteError,
    cholesky,
    conditional_split,
    mvn_logpdf,
    std_normal_log_tail,
)

#: Safety bound on the log-diagonal coordinates of the packed Cholesky factor.
LOG_DIAG_BOUND = 30.0


class ParameterBoundError(RuntimeError):
    """Raised when the optimizer drives a log-diagonal coordinate onto the safety bound."""


def pack_params(mean, cov) -> np.ndarray:
    """Pack (mean, SPD cov) into one unconstrained vector of length d + d(d+1)/2.

    Layout: mean entries, then the lower triangle of the Cholesky factor in
    row-major order with the diagonal log-transformed.
    """
    mean = np.asarray(mean, dtype=float)
    chol = cholesky(cov)
    d = mean.size
    tri = chol[np.tril_indices(d)].copy()
    diag_pos = _diag_positions(d)
    tri[diag_pos] = np.log(tri[diag_pos])
    return np.concatenate([mean, tri])


def unpack_params(theta, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert ``pack_params``: returns (mean, cov) with cov SPD by construction."""
    mean, chol = _unpack_chol(theta, dim)
    return mean, chol @ chol.T


def _diag_positions(d: int) -> np.ndarray:
    rows, cols = np.tril_indices(d)
    return np.flatnonzero(rows == cols)


def _unpack_chol(theta, dim: int) -> tuple[np.ndarray, np.ndarray]:
    theta = np.asarray(theta, dtype=float)
    expected = dim + dim * (dim + 1) // 2
    if theta.shape != (expected,):
        raise ValueError(f"packed vector must have length {expected}, got shape {theta.shape}")
    tri = theta[dim:].copy()
    diag_pos = _diag_positions(dim)
    # Allow finite-difference checks of the score to peek just past the optimizer bound.
    if np.any(np.abs(tri[diag_pos]) > LOG_DIAG_BOUND + 1e-3):
        raise ParameterBoundError("log-diagonal coordinate beyond the +/-30 safety bound")
    tri[diag_pos] = np.exp(tri[diag_pos])
    chol = np.zeros((dim, dim))
    chol[np.tril_indices(dim)] = tri
    return theta[:dim].copy(), chol


def boundary_term(rotation, radius: float, mean, cov) -> float:
    """Censored log-contribution of one face point with rotation data (B, c1).

    Computes mu_z = B mu and Sigma_z = B Sigma B^T, splits off the first
    rotated coordinate, and returns the marginal log-density of the remaining
    coordinates at zero plus log(1 - Phi((c1 - cond_mean) / cond_sd)).
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
        return std_normal_log_tail((c1 - float(mu_z[0])) / sd)
    split = conditional_split(MvnParams(mu_z, sig_z))
    marginal = mvn_logpdf(np.zeros(d - 1), MvnParams(split.marginal_mean, split.marginal_cov))
    tail = std_normal_log_tail((c1 - split.cond_mean_at_zero) / math.sqrt(split.cond_var))
    return float(marginal + tail)


def _boundary_terms(face: np.ndarray, mean: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Vectorized ``boundary_term`` over a stack of face points, without rotations.

    With u = y / c1, L = chol(Sigma), w = L^-1 u, m = L^-1 mu, a = ||w||^2 and
    b = w . m, the rotated first coordinate has conditional precision a and
    conditional mean b / a given the others at zero, so the term is
    -1/2 [(d - 1) log 2 pi + log|Sigma| + ||m||^2 - b^2/a + log a]
    + log(1 - Phi((c1 - b/a) sqrt(a))).
    """
    return _face_frame(face, mean, chol)[0]


@dataclass(frozen=True)
class _FaceFrame:
    """The face points' quantities that the score reuses: radii c1, w (d, n2), m, a, b and z."""

    radii: np.ndarray
    w: np.ndarray
    m: np.ndarray
    a: np.ndarray
    b: np.ndarray
    z: np.ndarray


def _face_frame(face: np.ndarray, mean: np.ndarray, chol: np.ndarray) -> tuple[np.ndarray, _FaceFrame]:
    """The boundary terms of ``_boundary_terms`` and the frame they were computed in."""
    radii = np.linalg.norm(face, axis=1)
    w = solve_triangular(chol, (face / radii[:, None]).T, lower=True)  # (d, n2)
    m = solve_triangular(chol, mean, lower=True)
    a = np.sum(w * w, axis=0)
    b = m @ w
    z = (radii - b / a) * np.sqrt(a)
    d = mean.size
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    marginal = -0.5 * ((d - 1) * LOG_2PI + log_det + m @ m - b * b / a + np.log(a))
    return marginal + log_ndtr(-z), _FaceFrame(radii, w, m, a, b, z)


def log_likelihood(sample: TransformedSample, mean, cov) -> float:
    """Full zero-censored log-likelihood of a transformed sample at (mean, cov).

    Equals -(n1/2) log|2 pi Sigma| minus half the interior quadratic forms,
    plus the face-point boundary terms, plus (n d + n/2) log D.  Summation is
    NumPy pairwise over fixed-shape arrays, so values are reproducible for a
    given sample ordering.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if sample.n_obs == 0:
        raise ValueError("empty sample")
    if mean.shape != (sample.dim,) or cov.shape != (sample.dim, sample.dim):
        raise ValueError("parameter dimensions do not match the sample")
    return _log_likelihood_frame(sample, mean, cholesky(cov))[0]


def _log_likelihood_frame(
    sample: TransformedSample, mean: np.ndarray, chol: np.ndarray
) -> tuple[float, np.ndarray | None, _FaceFrame | None]:
    """The log-likelihood, the whitened interior residuals (d, n1) and the face frame."""
    d = sample.dim
    n1 = sample.n_interior
    n2 = sample.n_face
    n = n1 + n2
    total = (n * d + 0.5 * n) * math.log(sample.n_parts)
    resid = frame = None
    if n1:
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        resid = solve_triangular(chol, (sample.interior - mean).T, lower=True)
        total += -0.5 * n1 * (d * LOG_2PI + log_det) - 0.5 * float(np.sum(resid * resid))
    if n2:
        terms, frame = _face_frame(sample.face, mean, chol)
        total += float(np.sum(terms))
    return total, resid, frame


def _loglik_and_score(sample: TransformedSample, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """The log-likelihood at packed parameters and its gradient in those coordinates."""
    mean, chol = _unpack_chol(theta, sample.dim)
    value, resid, frame = _log_likelihood_frame(sample, mean, chol)
    return value, _score(chol, resid, frame)


def _score(chol: np.ndarray, resid: np.ndarray | None, frame: _FaceFrame | None) -> np.ndarray:
    """Gradient of the log-likelihood in the packed coordinates of ``pack_params``.

    Interior points give dl/dmu = L^-T sum z and dl/dL = tril(L^-T Z Z^T) - n1 diag(1/L).
    Face points go through (m, w, a, b): with the inverse Mills ratio
    lam = phi(z) / (1 - Phi(z)), computed in logs so it stays finite deep in the
    tail, g_b = b/a + lam/sqrt(a), g_a = -(b^2/a^2 + 1/a)/2 - lam (c1/sqrt(a) +
    b/a^(3/2))/2 and g_m = -n2 m + W g_b; then dl/dmu = L^-T g_m and
    dl/dL = -tril(L^-T [g_m m^T + m (W g_b)^T + 2 W diag(g_a) W^T]) - n2 diag(1/L).
    The log-diagonal coordinates take dl/dL_jj * L_jj.
    """
    d = chol.shape[0]
    g_mean = np.zeros(d)
    g_chol = np.zeros((d, d))
    count = 0
    if resid is not None:
        g_mean += resid.sum(axis=1)
        g_chol += resid @ resid.T
        count += resid.shape[1]
    if frame is not None:
        w, m, a, b = frame.w, frame.m, frame.a, frame.b
        root_a = np.sqrt(a)
        lam = np.exp(-0.5 * (frame.z * frame.z + LOG_2PI) - log_ndtr(-frame.z))
        g_b = b / a + lam / root_a
        g_a = -0.5 * (b * b / (a * a) + 1.0 / a) - 0.5 * lam * (frame.radii / root_a + b / (a * root_a))
        w_gb = w @ g_b
        g_m = w_gb - a.size * m
        g_mean += g_m
        g_chol -= np.outer(g_m, m) + np.outer(m, w_gb) + 2.0 * (w * g_a) @ w.T
        count += a.size
    solved = solve_triangular(chol, np.column_stack([g_mean, g_chol]), lower=True, trans="T")
    g_tri = np.tril(solved[:, 1:])
    diag = np.arange(d)
    g_tri[diag, diag] = g_tri[diag, diag] * chol[diag, diag] - count
    return np.concatenate([solved[:, 0], g_tri[np.tril_indices(d)]])


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


def json_float(value) -> float | None:
    """Strict JSON has no NaN or infinity: a non-finite value (or None) is written as null."""
    return None if value is None or not math.isfinite(value) else float(value)


def _float_or_nan(value) -> float:
    return math.nan if value is None else float(value)


@dataclass(frozen=True)
class FittedModel:
    """Maximum-likelihood estimate with convergence metadata.

    ``trace`` holds the log-likelihood at the initial point and after each
    optimizer iteration.  ``evaluations`` counts the optimizer's combined
    value-and-score calls and ``message`` is its exit message.  ``seed``
    records data provenance when the fitted sample was simulated; it is None
    for real data.  The JSON form writes a non-finite ``loglik`` or
    ``gradient_norm`` as null and reads null, or a missing ``gradient_norm``,
    back as NaN; a missing ``evaluations`` or ``message`` reads back as None.
    """

    mean: np.ndarray
    cov: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    gradient_norm: float
    n_parts: int
    n_interior: int
    n_face: int
    trace: tuple[float, ...] = field(default=(), repr=False)
    seed: int | None = None
    evaluations: int | None = None
    message: str | None = None

    @property
    def params(self) -> MvnParams:
        return MvnParams(self.mean, self.cov)

    @property
    def dim(self) -> int:
        return int(self.mean.size)

    def to_dict(self) -> dict:
        return {
            "mean": [float(v) for v in self.mean],
            "cov": [[float(v) for v in row] for row in self.cov],
            "loglik": json_float(self.loglik),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "gradient_norm": json_float(self.gradient_norm),
            "evaluations": None if self.evaluations is None else int(self.evaluations),
            "message": self.message,
            "D": int(self.n_parts),
            "n1": int(self.n_interior),
            "n2": int(self.n_face),
            "seed": None if self.seed is None else int(self.seed),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), allow_nan=False, **kwargs)

    @classmethod
    def from_dict(cls, doc: dict) -> "FittedModel":
        return cls(
            mean=np.asarray(doc["mean"], dtype=float),
            cov=np.asarray(doc["cov"], dtype=float),
            loglik=_float_or_nan(doc["loglik"]),
            iterations=int(doc["iterations"]),
            converged=bool(doc["converged"]),
            gradient_norm=_float_or_nan(doc.get("gradient_norm")),
            n_parts=int(doc["D"]),
            n_interior=int(doc["n1"]),
            n_face=int(doc["n2"]),
            seed=doc.get("seed"),
            evaluations=doc.get("evaluations"),
            message=doc.get("message"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FittedModel":
        return cls.from_dict(json.loads(text))


def fit(
    sample: TransformedSample,
    *,
    max_iter: int = 5000,
    gradient_tol: float = 1e-6,
    loglik_rel_tol: float = 1e-10,
    ridge: float = 1e-8,
    seed: int | None = None,
) -> FittedModel:
    """Maximize the censored log-likelihood over (mean, cov) by L-BFGS-B.

    The optimizer gets the value and the exact score from one call per
    point (``_score``).  The start point is the sample mean and covariance
    (1/n convention) of all transformed points, face vectors included as-is;
    the covariance gets a +ridge * I bump if it is numerically singular.
    Convergence means the projected gradient inf-norm fell below
    ``gradient_tol`` or the relative log-likelihood change fell below
    ``loglik_rel_tol``; hitting ``max_iter`` returns ``converged=False``
    rather than raising.
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
        cov0 = cov0 + ridge * np.eye(d)
        cholesky(cov0)  # give up if still singular
    theta0 = pack_params(mean0, cov0)

    def negloglik(theta: np.ndarray) -> float:
        return -_log_likelihood_frame(sample, *_unpack_chol(theta, d))[0]

    def negloglik_and_score(theta: np.ndarray) -> tuple[float, np.ndarray]:
        value, score = _loglik_and_score(sample, theta)
        return -value, -score

    best_theta = theta0.copy()
    best_value = negloglik(theta0)
    last_theta, last_value = best_theta, best_value

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_theta, best_value, last_theta, last_value
        value, score = negloglik_and_score(theta)
        last_theta, last_value = np.array(theta), value
        if value < best_value:
            best_value = value
            best_theta = last_theta
        return value, score

    trace = [-best_value]

    def record(theta: np.ndarray) -> None:
        # L-BFGS-B reports an iterate right after evaluating it.
        trace.append(-(last_value if np.array_equal(theta, last_theta) else negloglik(theta)))

    bounds = [(None, None)] * theta0.size
    for pos in _diag_positions(d):
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
            "ftol": loglik_rel_tol,
            "gtol": gradient_tol,
            "maxls": 60,
        },
    )
    at_result = result.fun <= best_value
    if at_result:
        best_value = float(result.fun)
        best_theta = np.array(result.x)

    tri = best_theta[d:]
    if np.any(np.abs(tri[_diag_positions(d)]) >= LOG_DIAG_BOUND - 1e-6):
        raise ParameterBoundError(
            "optimum hit the +/-30 log-diagonal bound; the covariance scale is degenerate"
        )

    mean_hat, cov_hat = unpack_params(best_theta, d)
    grad = result.jac if at_result else negloglik_and_score(best_theta)[1]
    grad_norm = float(np.max(np.abs(grad)))
    return FittedModel(
        mean=mean_hat,
        cov=cov_hat,
        loglik=-best_value,
        iterations=int(result.nit),
        converged=bool(result.success),
        gradient_norm=grad_norm,
        n_parts=sample.n_parts,
        n_interior=n1,
        n_face=sample.n_face,
        trace=tuple(trace),
        seed=seed,
        evaluations=int(result.nfev),
        message=str(result.message),
    )
