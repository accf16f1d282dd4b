"""The zero-censored Gaussian log-likelihood, its score, and its maximization.

Interior points contribute ordinary normal log-densities, which depend on
the data only through n1, the interior mean and the scatter about it.  A
point that was pulled to a face enters through its rotated coordinates
z = B y: the density of the non-first coordinates evaluated at zero, times
the upper-tail probability of the first coordinate beyond the rotation
radius c1.  B is the paper's orthonormal matrix built by Gram-Schmidt,
``gram_schmidt_rotation``, which lives beside ``boundary_term``.  The term
depends only on the unit direction u = y / c1 and c1, so one kernel,
``_face_terms``, evaluates it from those with no rotation for the
likelihood, its score and the exact D = 3 zero rates, and ``boundary_term``
is that kernel at one point given (B, c1).  The rotated-frame form, which
splits the rotated normal by the Schur complement of its non-first block,
is kept only as the tests' oracle.  The constant Jacobian
term (n d + n/2) log D of the exponent-one transformation, the only member
of the power family that the likelihood is defined for, is included so
reported values are full data log-likelihoods; it does not move the
maximizer.

The covariance is optimized through its Cholesky factor with log-transformed
diagonal, so every parameter vector maps to an SPD matrix and the search is
unconstrained apart from a +/-30 safety bound on the log-diagonal entries.
``_loglik_and_score`` computes the value and its exact gradient in those
coordinates in one pass, and ``log_likelihood`` returns its value.  A fit
lays out its data once, the face points' unit directions and the interior
points' statistics as the columns of one array (``_sample_columns``), and
each evaluation checks its parameters for finiteness once and solves those
columns, the mean and the identity in one forward substitution
(``_solve_chol``).  The normal tail comes from the module's erfcx kernel
(``_erfcx``, ``_log_ndtr_erfcx``), and ``fit`` maximizes with the module's
own L-BFGS (``_lbfgs``) under L-BFGS-B's stop tests, so the package needs
only NumPy.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dataset import TransformedSample
from .gaussian import LOG_2PI, MvnParams, NotPositiveDefiniteError, cholesky
from .simplex import DIRECTION_TOL

#: Safety bound on the log-diagonal coordinates of the packed Cholesky factor.
LOG_DIAG_BOUND = 30.0
#: The fit stops once an iteration's relative log-likelihood gain is at most this (L-BFGS-B's ``ftol``).
LOGLIK_REL_TOL = 1e-10
#: Added to the diagonal of a numerically singular start covariance.
START_RIDGE = 1e-8
#: Candidate basis vectors with residual norm below this are skipped during completion.
GS_SKIP_TOL = 1e-8
#: ``boundary_term`` refuses a rotation B with max|B B^T - I| above this; Gram-Schmidt's is below 1e-15.
ORTHONORMAL_TOL = 1e-10

#: (1 + 2t) erfcx(t) = sum_j a_j s^j with s = (t - K) / (t + K), K = 3.75, for t >= 0: Shepherd and
#: Laframboise's Chebyshev series (Math. Comp. 36 (1981) 249-253), cut at 25 terms (2.2e-16 relative) and
#: rewritten in powers of s, so Horner's rule takes two array passes a term where Clenshaw's takes three.
#: The |a_j| sum to 1.76 against values of at least 1, so little cancels.  Generated with mpmath by
#: ``tests/reference.py::erfcx_power_series``.
_ERFCX_K = 3.75
_ERFCX_POWERS = (
    1.2375126308378275,
    -0.14024059858554697,
    0.0035854154854644293,
    0.0822767384901452,
    -0.10880393014174886,
    0.09230432116037748,
    -0.05869339858963677,
    0.028362277418956406,
    -0.009746579558029276,
    0.0017556258528952954,
    0.0002937136655913448,
    -0.0002901540805408417,
    5.164909889268241e-05,
    2.238423915508223e-05,
    -1.1444146237700524e-05,
    -9.73559896736775e-07,
    1.751637648849062e-06,
    -5.7218230603224086e-08,
    -2.5866850716155884e-07,
    2.3263508708859124e-08,
    3.8675334242222354e-08,
    -3.744210080962018e-09,
    -5.1739902140113095e-09,
    3.1114333809799254e-10,
    4.25147144479639e-10,
)
# 0-d arrays: NumPy adds one to an array faster than it adds a Python float.
_ERFCX_HORNER = tuple(np.array(a) for a in reversed(_ERFCX_POWERS[:-1]))
_SQRT_HALF = math.sqrt(0.5)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class ParameterBoundError(RuntimeError):
    """Raised when the optimizer drives a log-diagonal coordinate onto the safety bound."""


def _pack_params(mean, cov) -> np.ndarray:
    """Pack (mean, SPD cov) into one unconstrained vector of length d + d(d+1)/2.

    Layout: mean entries, then the lower triangle of the Cholesky factor in
    row-major order with the diagonal log-transformed.
    """
    mean = np.asarray(mean, dtype=float)
    chol = cholesky(cov)
    tril, diag_pos = _tri_layout(mean.size)
    tri = chol[tril]
    tri[diag_pos] = np.log(tri[diag_pos])
    return np.concatenate([mean, tri])


@lru_cache(maxsize=64)
def _tri_layout(d: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Row-major lower-triangle (rows, cols) of a d x d factor and the diagonal's positions in it; read-only."""
    rows, cols = np.tril_indices(d)
    diag_pos = np.flatnonzero(rows == cols)
    for index in (rows, cols, diag_pos):
        index.setflags(write=False)
    return (rows, cols), diag_pos


def _unpack_chol(theta, dim: int) -> tuple[np.ndarray, np.ndarray]:
    theta = np.asarray(theta, dtype=float)
    expected = dim + dim * (dim + 1) // 2
    if theta.shape != (expected,):
        raise ValueError(f"packed vector must have length {expected}, got shape {theta.shape}")
    tri = theta[dim:].copy()
    tril, diag_pos = _tri_layout(dim)
    # Allow finite-difference checks of the score to peek just past the optimizer bound.
    if np.any(np.abs(tri[diag_pos]) > LOG_DIAG_BOUND + 1e-3):
        raise ParameterBoundError("log-diagonal coordinate beyond the +/-30 safety bound")
    tri[diag_pos] = np.exp(tri[diag_pos])
    chol = np.zeros((dim, dim))
    chol[tril] = tri
    return theta[:dim].copy(), chol


def _erfcx(t: np.ndarray) -> np.ndarray:
    """exp(t^2) erfc(t) elementwise for t >= 0 by Horner's rule on ``_ERFCX_POWERS``; erfcx(inf) = 0, NaN stays NaN."""
    s = 2.0 * _ERFCX_K / (t + _ERFCX_K)
    np.subtract(1.0, s, out=s)  # (t - K) / (t + K), and 1 at t = inf
    y = np.full_like(s, _ERFCX_POWERS[-1])
    for a in _ERFCX_HORNER:
        y *= s
        y += a
    y /= 2.0 * t + 1.0
    return y


def _log_ndtr_erfcx(x) -> tuple[np.ndarray, np.ndarray]:
    """log Phi(x) and erfcx(|x| / sqrt 2), elementwise over an array of any shape.

    Below zero log Phi(x) = log(erfcx(t) / 2) - x^2/2 with t = -x / sqrt 2,
    which holds to the far tail.  From zero up it is log1p(-erfc(t) / 2) with
    t = x / sqrt 2, where exp(-x^2/2) in erfc(t) = exp(-t^2) erfcx(t) takes x
    split into a float32 part hi, whose square is exact, and the rest, so the
    exponent carries no rounding of x^2.  log Phi(-inf) = -inf, log Phi(inf)
    = 0 and NaN stays NaN, without warnings.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    ex = _erfcx(np.abs(flat) * _SQRT_HALF)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.log(0.5 * ex) - 0.5 * flat * flat
    upper = flat >= 0.0
    if upper.any():
        xu = np.minimum(flat[upper], 40.0)  # Phi(-40) is below the smallest double
        hi = xu.astype(np.float32).astype(float)
        tail = np.exp(-0.5 * hi * hi) * np.exp(-0.5 * (xu - hi) * (xu + hi)) * ex[upper]
        out[upper] = np.log1p(-0.5 * tail)
    return out.reshape(x.shape), ex.reshape(x.shape)


def _solve_chol(chol: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Overwrite x, a C-ordered float (d,) or (d, k) array, with L^-1 x for a lower-triangular L; return x.

    Forward substitution one row at a time: row i of the solution is row i
    of x, less one dot of L's row i with the rows already solved, divided by
    L_ii, over all columns at once.  The caller checks finiteness
    (``_require_finite``).
    """
    d = chol.shape[0]
    rows = x.reshape(d, -1)
    rows[0] /= chol[0, 0]
    for i in range(1, d):
        rows[i] -= np.dot(chol[i, :i], rows[:i])
        rows[i] /= chol[i, i]
    return x


def _require_finite(*arrays: np.ndarray) -> None:
    """Refuse infs and NaNs, with the error SciPy's solves gave, once for the parameters of an evaluation."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def gram_schmidt_rotation(y) -> np.ndarray:
    """Orthonormal matrix B with first row y/||y||, so B y = (||y||, 0, ..., 0)^T.

    The basis is completed with standard basis vectors taken in index order,
    skipping any whose residual norm after removing projections onto the
    accepted rows falls below ``GS_SKIP_TOL``.  The completion order makes B
    deterministic and reproducible across platforms.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"expected one vector, got shape {y.shape}")
    norm = float(np.linalg.norm(y))
    if norm <= DIRECTION_TOL:
        raise ValueError("cannot build a rotation from a zero vector")
    d = y.size
    rows = np.empty((d, d))
    rows[0] = y / norm
    count = 1
    for k in range(d):
        if count == d:
            break
        v = np.zeros(d)
        v[k] = 1.0
        # Two orthogonalization passes: one leaves O(eps / residual) error for
        # nearly dependent candidates, which would break B B^T = I at 1e-10.
        for _ in range(2):
            v -= rows[:count].T @ (rows[:count] @ v)
        residual = float(np.linalg.norm(v))
        if residual < GS_SKIP_TOL:
            continue
        rows[count] = v / residual
        count += 1
    if count < d:  # unreachable: y plus the standard basis spans R^d
        raise RuntimeError("Gram-Schmidt completion failed to produce a full basis")
    return rows


def boundary_term(rotation, radius: float, mean, cov) -> float:
    """Censored log-contribution of one face point with rotation data (B, c1): ``_face_terms`` at that point.

    The log-density of the non-first rotated coordinates at zero plus the log
    upper tail of the first one beyond c1 depends on B only through its first
    row u, so this is the face kernel at w = L^-1 u and m = L^-1 mu with
    L = chol(Sigma).  The rotated-frame Schur-complement form is the tests'
    oracle.  A radius that is not positive and finite, a non-finite rotation
    or mean, a rotation not orthonormal within ``ORTHONORMAL_TOL``, or
    mismatched shapes are a ``ValueError``.
    """
    b = np.asarray(rotation, dtype=float)
    c1 = float(radius)
    if not 0.0 < c1 < math.inf:
        raise ValueError(f"rotation radius must be positive and finite, got {c1!r}")
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = mean.size
    if mean.shape != (d,) or b.shape != (d, d) or cov.shape != (d, d):
        raise ValueError("parameter dimensions do not match the rotation")
    _require_finite(b, mean)
    if np.abs(b @ b.T - np.eye(d)).max() > ORTHONORMAL_TOL:
        raise ValueError(f"rotation must be orthonormal (max |B B^T - I| <= {ORTHONORMAL_TOL:g})")
    chol = cholesky(cov)
    x = _solve_chol(chol, np.column_stack([b[0], mean]))
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return float(_face_terms(np.array([c1]), x[:, :1], x[:, 1], log_det)[0][0])


def _sample_columns(sample: TransformedSample) -> tuple[np.ndarray, np.ndarray]:
    """The data-only part of every evaluation's solve, built once per fit: the face radii c1 and the columns.

    The columns are one C-ordered (d, n2 + 1 + d + min(n1, d) + 1) array
    [U | 0 | I | R^T | sqrt(n1) ybar]: the face points' unit directions
    u = y / c1, a slot for the mean, the identity and the interior points'
    statistics, R the QR factor of their deviations from their mean ybar
    (R^T R is their scatter); with no interior points, R has no rows.
    """
    d, n1, n2 = sample.dim, sample.n_interior, sample.n_face
    radii = np.linalg.norm(sample.face, axis=1)
    centre = sample.interior.sum(axis=0) / max(n1, 1)
    root = np.linalg.qr(sample.interior - centre, mode="r")
    columns = [(sample.face / radii[:, None]).T, np.zeros((d, 1)), np.eye(d), root.T, math.sqrt(n1) * centre[:, None]]
    return radii, np.concatenate(columns, axis=1)


def _face_terms(
    radii: np.ndarray, w: np.ndarray, m: np.ndarray, log_det: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The censored terms of face points with radii c1 and w = L^-1 u, with a, sqrt(a), b and lam.

    The package's one censored-term formula; ``boundary_term`` is it at one
    point.  With u = y / c1, L = chol(Sigma), m = L^-1 mu, a = ||w||^2 and
    b = w . m, the rotated first coordinate has conditional precision a and
    conditional mean b / a given the others at zero, so the term is
    -1/2 [(d - 1) log 2 pi + log|Sigma| + ||m - (b/a) w||^2 + log a]
    + log(1 - Phi(z)) with z = (c1 - b/a) sqrt(a).  No rotation is built.
    ||m - (b/a) w||^2 equals ||m||^2 - b^2/a without its cancellation when m
    lies far out along u; it reuses the (d, n2) buffer of a.  The inverse
    Mills ratio lam = phi(z) / (1 - Phi(z)) is sqrt(2/pi) / erfcx(z/sqrt(2))
    for z >= 0 from the tail's own erfcx, to any tail depth, and is computed
    in logs below zero, where 1 - Phi(z) > 1/2.
    """
    square = w * w
    a = square.sum(axis=0)
    b = m @ w
    centre = b / a
    np.multiply(w, -centre, out=square)
    square += m[:, None]
    square *= square
    perp = square.sum(axis=0)
    del square  # not alive while the tail's temporaries are
    root_a = np.sqrt(a)
    z = (radii - centre) * root_a
    log_tail, erfcx = _log_ndtr_erfcx(-z)
    marginal = -0.5 * ((m.size - 1) * LOG_2PI + log_det + perp + np.log(a))
    with np.errstate(divide="ignore", over="ignore"):  # an infinite z is refused with the score
        lam = _SQRT_2_OVER_PI / erfcx
        below = z < 0.0
        if below.any():
            lam[below] = np.exp(-0.5 * (z[below] ** 2 + LOG_2PI) - log_tail[below])
    return marginal + log_tail, a, root_a, b, lam


def log_likelihood(sample: TransformedSample, mean, cov) -> float:
    """Full zero-censored log-likelihood of a transformed sample at (mean, cov).

    Equals -(n1/2) log|2 pi Sigma| minus half the interior quadratic forms,
    plus the face-point boundary terms, plus (n d + n/2) log D, from columns
    of ``_sample_columns`` built for the call.  Its sums and QR run over
    fixed-shape arrays, so values are reproducible for a given sample ordering.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if sample.n_obs == 0:
        raise ValueError("empty sample")
    if mean.shape != (sample.dim,) or cov.shape != (sample.dim, sample.dim):
        raise ValueError("parameter dimensions do not match the sample")
    return _loglik_and_score(sample, mean, cholesky(cov), _sample_columns(sample))[0]


def _loglik_and_score(
    sample: TransformedSample, mean: np.ndarray, chol: np.ndarray, columns: tuple[np.ndarray, np.ndarray]
) -> tuple[float, np.ndarray]:
    """The log-likelihood at (mean, L) and its gradient in the packed coordinates of ``_pack_params``.

    One substitution pass over the ``_sample_columns``, with the mean filled
    in and sqrt(n1) mu taken from the last column, solves the face directions
    W, m, L^-1 and the interior statistics Z = L^-1 [R^T | sqrt(n1) (ybar - mu)]
    together; Z Z^T is the sum of z z^T over interior points, z = L^-1 (y - mu).
    Interior points give dl/dmu = L^-T sqrt(n1) Z[:, -1] and
    dl/dL = tril(L^-T Z Z^T) - n1 diag(1/L).  Face points go through
    (m, w, a, b) and the inverse Mills ratio lam of ``_face_terms``:
    g_b = b/a + lam/sqrt(a), g_a = -(b^2/a^2 + 1/a)/2 - lam (c1/sqrt(a) +
    b/a^(3/2))/2 and g_m = -n2 m + W g_b; then dl/dmu = L^-T g_m and
    dl/dL = -tril(L^-T [g_m m^T + m (W g_b)^T + 2 W diag(g_a) W^T]) - n2 diag(1/L).
    The log-diagonal coordinates take dl/dL_jj * L_jj.
    """
    _require_finite(mean, chol)
    d = sample.dim
    n1 = sample.n_interior
    n2 = sample.n_face
    n = n1 + n2
    radii, data = columns
    x = data.copy()
    x[:, n2] = mean
    x[:, -1] -= math.sqrt(n1) * mean
    _solve_chol(chol, x)
    total = (n * d + 0.5 * n) * math.log(sample.n_parts)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    resid = x[:, n2 + 1 + d :]
    total += -0.5 * n1 * (d * LOG_2PI + log_det) - 0.5 * float(np.sum(resid * resid))
    g_mean = math.sqrt(n1) * resid[:, -1]
    g_chol = resid @ resid.T
    if n2:
        w, m = x[:, :n2], x[:, n2].copy()
        terms, a, root_a, b, lam = _face_terms(radii, w, m, log_det)
        total += float(np.sum(terms))
        g_b = b / a + lam / root_a
        g_a = -0.5 * (b * b / (a * a) + 1.0 / a) - 0.5 * lam * (radii / root_a + b / (a * root_a))
        w_gb = w @ g_b
        g_m = w_gb - n2 * m
        g_mean += g_m
        g_chol -= np.outer(g_m, m) + np.outer(m, w_gb) + 2.0 * (w * g_a) @ w.T
    rhs = np.column_stack([g_mean, g_chol])
    # Finite parameters can still overflow w = L^-1 u; this is a ValueError, not a NaN step for the optimizer.
    _require_finite(rhs)
    solved = x[:, n2 + 1 : n2 + 1 + d].T @ rhs
    tril, diag_pos = _tri_layout(d)
    g_tri = solved[:, 1:][tril]
    g_tri[diag_pos] = g_tri[diag_pos] * np.diagonal(chol) - n
    return total, np.concatenate([solved[:, 0], g_tri])


@dataclass(frozen=True)
class FittedModel:
    """Maximum-likelihood estimate with convergence metadata.

    ``trace`` holds the log-likelihood at the initial point and after each
    optimizer iteration.  ``evaluations`` counts the optimizer's combined
    value-and-score calls and ``message`` names the test that stopped it.
    It keeps no seed: a model file's ``seed`` is always written as null.
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
    evaluations: int | None = None
    message: str | None = None

    @property
    def params(self) -> MvnParams:
        return MvnParams(self.mean, self.cov)

    @property
    def dim(self) -> int:
        return int(self.mean.size)


def _lbfgs(fun, x: np.ndarray, box: np.ndarray, *, max_iter: int, gradient_tol: float):
    """Minimize ``fun`` (value and gradient) from x inside [-box, box] by L-BFGS.

    The direction comes from the two-loop recursion over the last 10 (s, y)
    pairs with H0 = s.y / y.y (Liu and Nocedal 1989); a pair whose s.y is not
    positive is skipped.  The first trial step is the gradient step shortened
    to length at most 1, as in L-BFGS-B; later ones start at the full
    quasi-Newton step.  The stop tests are L-BFGS-B's: projected
    gradient, relative reduction, iteration limit.  Returns (x, gradient,
    start and accepted values, evaluations, converged, message), where the
    message names the test that stopped the search.
    """
    f, g = fun(x)
    evaluations, values = 1, [f]
    pairs: deque = deque(maxlen=10)
    while True:
        if np.max(np.abs(np.clip(x - g, -box, box) - x)) <= gradient_tol:
            return x, g, values, evaluations, True, "converged: projected gradient inf-norm <= tol"
        if len(values) > 1 and values[-2] - f <= LOGLIK_REL_TOL * max(abs(values[-2]), abs(f), 1.0):
            return x, g, values, evaluations, True, "converged: relative reduction <= LOGLIK_REL_TOL"
        if len(values) > max_iter:
            return x, g, values, evaluations, False, f"stopped: max_iter ({max_iter}) iterations"
        q = g.copy()
        alphas = []
        for s, y in reversed(pairs):
            alphas.append(s @ q / (s @ y))
            q -= alphas[-1] * y
        if pairs:
            s, y = pairs[-1]
            q *= (s @ y) / (y @ y)
        for (s, y), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - y @ q / (s @ y)) * s
        step = 1.0 if len(values) > 1 else min(1.0, 1.0 / float(np.linalg.norm(q)))
        found, trials = _wolfe_step(fun, x, f, g, -q, step, box)
        evaluations += trials
        if found is None:
            return x, g, values, evaluations, False, f"stopped: no line-search step in {trials} trials"
        s, y = found[0] - x, found[2] - g
        if s @ y > 0.0:
            pairs.append((s, y))
        x, f, g = found
        values.append(f)


def _wolfe_step(fun, x, f0, g0, p, step, box):
    """A point x + t p, clipped to the box, with sufficient decrease (c1 = 1e-3) and curvature (c2 = 0.9).

    A trial that fails the decrease test, or whose value is not finite,
    bounds t from above; one that passes it but is still steep bounds t from
    below, and t grows fourfold until an upper bound is found.  Then each
    trial comes from ``_bracket_step``, or halves the bracket if the last two
    shrank it by less than a third (More and Thuente's safeguard); once it is
    narrower than a tenth of its upper end, rounding noise rules and its
    lower end is taken.  Returns ((x, f, g), trials), or (None, 60) when no
    trial is accepted.
    """
    slope0 = g0 @ p
    lo, hi, best = (0.0, f0, slope0), None, None
    widths = [math.inf, math.inf]
    for trial in range(1, 61):
        point = np.clip(x + step * p, -box, box)
        f, g = fun(point)
        slope = g @ p
        if not (math.isfinite(f) and f <= min(f0 + 1e-3 * step * slope0, lo[1])):
            hi = (step, f, slope)
        elif slope >= 0.9 * slope0:
            return (point, f, g), trial
        else:
            lo, best = (step, f, slope), (point, f, g)
        if hi is None:
            step *= 4.0
            continue
        width = hi[0] - lo[0]
        if best is not None and width <= 0.1 * hi[0]:
            return best, trial
        step = lo[0] + 0.5 * width if width > 0.66 * widths[-2] else _bracket_step(lo, hi)
        widths.append(width)
    return None, 60


def _bracket_step(lo, hi) -> float:
    """The minimizer of the cubic through the bracket's ends (t, f, slope), else of the quadratic without hi's slope.

    The midpoint stands in when neither has a finite minimizer or hi's value
    is not finite; the result is kept from 0.1% to 90% of the way to hi.
    """
    (a, fa, da), (b, fb, db) = lo, hi
    width = b - a
    t = a + 0.5 * width
    if math.isfinite(fb):
        d1 = da + db - 3.0 * (fb - fa) / width
        radicand = d1 * d1 - da * db
        denominator = db - da + 2.0 * math.sqrt(radicand) if radicand >= 0.0 else 0.0
        curvature = fb - fa - da * width
        if denominator != 0.0:
            t = b - width * (db + math.sqrt(radicand) - d1) / denominator
        elif curvature > 0.0:
            t = a - da * width * width / (2.0 * curvature)
    return min(max(t, a + 1e-3 * width), b - 0.1 * width) if math.isfinite(t) else a + 0.5 * width


def _start_point(sample: TransformedSample) -> np.ndarray:
    """``fit``'s start θ: the mean and covariance (1/n convention) of all transformed points, face
    vectors included as-is, with +START_RIDGE * I on a covariance that is not positive definite.

    Its n × d copy of the sample dies on return, before the search.
    """
    points = np.vstack([sample.interior, sample.face])
    mean0 = points.mean(axis=0)
    points -= mean0
    cov0 = points.T @ points / points.shape[0]
    try:
        return _pack_params(mean0, cov0)
    except NotPositiveDefiniteError:
        return _pack_params(mean0, cov0 + START_RIDGE * np.eye(sample.dim))


def fit(
    sample: TransformedSample,
    *,
    max_iter: int = 5000,
    gradient_tol: float = 1e-6,
) -> FittedModel:
    """Maximize the censored log-likelihood over (mean, cov) by L-BFGS (``_lbfgs``).

    The optimizer gets the value and the exact score from one call per
    point (``_loglik_and_score``), and every accepted iterate raises the
    value.  The start point is the sample mean and covariance (1/n convention) of all
    transformed points, face vectors included as-is; the covariance gets a
    +START_RIDGE * I bump if it is numerically singular.  Convergence means
    the projected gradient inf-norm fell below ``gradient_tol`` or the
    relative log-likelihood change fell below ``LOGLIK_REL_TOL``; hitting
    ``max_iter``, or a line search that finds no step, returns
    ``converged=False`` rather than raising, and ``message`` names the test
    that stopped the fit.  ``max_iter`` below 1, or a ``gradient_tol`` that
    is negative or not finite, is a ``ValueError``.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter (--max-iter) must be at least 1, got {max_iter}")
    if not (0.0 <= gradient_tol < math.inf):  # NaN fails too
        raise ValueError(f"gradient_tol (--tol) must be finite and non-negative, got {gradient_tol}")
    d = sample.dim
    n1 = sample.n_interior
    if sample.n_obs == 0:
        raise ValueError("empty sample")
    if n1 < d + 1:
        warnings.warn(
            f"only {n1} interior points for dimension {d}; covariance may be unidentifiable",
            stacklevel=2,
        )

    theta0 = _start_point(sample)
    columns = _sample_columns(sample)

    def negloglik_and_score(theta: np.ndarray) -> tuple[float, np.ndarray]:
        value, score = _loglik_and_score(sample, *_unpack_chol(theta, d), columns)
        return -value, -score

    diag_pos = _tri_layout(d)[1]
    box = np.full(theta0.size, math.inf)
    box[d + diag_pos] = LOG_DIAG_BOUND
    theta, grad, values, evaluations, converged, message = _lbfgs(
        negloglik_and_score, theta0, box, max_iter=max_iter, gradient_tol=gradient_tol
    )

    if np.any(np.abs(theta[d + diag_pos]) >= LOG_DIAG_BOUND - 1e-6):
        raise ParameterBoundError(
            "optimum hit the +/-30 log-diagonal bound; the covariance scale is degenerate"
        )

    mean_hat, chol_hat = _unpack_chol(theta, d)
    return FittedModel(
        mean=mean_hat,
        cov=chol_hat @ chol_hat.T,
        loglik=-values[-1],
        iterations=len(values) - 1,
        converged=converged,
        gradient_norm=float(np.max(np.abs(grad))),
        n_parts=sample.n_parts,
        n_interior=n1,
        n_face=sample.n_face,
        trace=tuple(-v for v in values),
        evaluations=evaluations,
        message=message,
    )
