"""Reference decoders and the Monte Carlo trial runner.

Three estimators probe the bounds empirically:

* Unconstrained least squares (closed form): unbiased and efficient under
  Gaussian noise, so its variance should sit on the CRB.
* Non-negative least squares via projected gradient descent.
* Poisson maximum likelihood via Richardson-Lucy multiplicative updates,
  which preserve positivity and never decrease the likelihood.

The two iterative decoders give their start, its objective, their
per-column state arrays and a step to one per-column stopping loop,
``_iterate``, which alone owns and compacts every per-column array, and
return its ``DecoderResult``. Each step forms only the products it needs:
RL one image Hv + background per iteration, which serves its next ratio and
its likelihood; NNLS one product (H^T H) V and no image, tracking its
squared residual from its gradient. Every column starts from its own data,
so a trial's iterates do not depend on the trials decoded with it.

``run_trials`` repeats sample -> estimate with draws from one generator and
accumulates per-pixel mean/variance with chunked Welford merges, so the
statistics do not depend on the chunk size, up to the rounding of the
batched products. That rounding moves a column's stopping step only when
its objective change lands within rounding of tol.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas, eigvalsh

from . import fisher
from .errors import DimensionError, GramUnderflowError, TrialFailureError
from .fisher import CrbMap, diagonal_load, loaded_cholesky
from .forward_model import SystemMatrix, adjoint, forward, weighted_gram
from .noise import check_parameter, sample

TRIAL_CHUNK = 1000    # trials sampled and decoded as one batch
TINY = np.finfo(float).tiny   # smallest normal float64


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------


def make_gls_solver(H: SystemMatrix):
    """Factor (H^T H + eps*I) once, with diagonal_load's default eps;
    return a solver mapping y -> v.

    The solver accepts y of shape (k,) or (k, n) and may return negatives.
    """
    G = weighted_gram(H)
    c = loaded_cholesky(G, diagonal_load(G))

    def solve(y):
        return fisher.cho_solve(c, adjoint(H, y))

    return solve


# ---------------------------------------------------------------------------
# Iterative decoders
# ---------------------------------------------------------------------------


class DecoderResult(NamedTuple):
    """An iterative decoder's last iterates and its per-column convergence
    record; converged is derived from that record."""

    values: np.ndarray            # (d, n) last iterate of each column
    n_iters: int                  # iterations of the slowest column
    column_converged: np.ndarray  # (n,) which columns met the stopping rule

    @property
    def converged(self) -> bool:
        """Every column met the stopping rule."""
        return bool(self.column_converged.all())


def _iterate(H: SystemMatrix, y, setup, max_iters: int, tol: float) -> DecoderResult:
    """Iterate each column of the (k, n) batch y until its objective settles.

    setup(Y) returns the start V (d, n), its objective f (n,), a tuple of
    per-column state arrays (each with n columns) and step(V, f, state),
    which maps the running columns to their next iterate, its objective and
    its state. The step holds no column state of its own: this loop alone
    owns every per-column array. A column stops when its objective changes
    by less than tol relative; it is then written back and dropped from V,
    f and every state array, so the running columns stay contiguous.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    Y = np.asarray(y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != H.k:
        raise DimensionError(f"decoders take a ({H.k}, n) batch, got shape {Y.shape}")
    V, f, state, step = setup(Y)
    cols = np.arange(Y.shape[1])      # the running columns, in batch order
    done = np.zeros(Y.shape[1], dtype=bool)
    Vr = V
    n_iters = 0
    while n_iters < max_iters and cols.size:
        n_iters += 1
        Vr, new, state = step(Vr, f, state)
        stop = np.abs(new - f) / np.maximum(np.abs(f), 1e-300) < tol
        f = new
        if np.any(stop):
            V[:, cols[stop]] = Vr[:, stop]
            done[cols[stop]] = True
            keep = ~stop
            cols, Vr, f = cols[keep], Vr[:, keep], f[keep]
            state = tuple(s[:, keep] for s in state)
    V[:, cols] = Vr
    return DecoderResult(V, n_iters, done)


def nnls_estimate(H: SystemMatrix, y, max_iters: int = 5000,
                  tol: float = 1e-9) -> DecoderResult:
    """Projected gradient descent on ||y - Hv||^2 with v >= 0, from v = 0.

    Step 1/L with L the largest eigenvalue of H^T H (LAPACK), so the objective
    never rises. Each step forms one product (H^T H) V for its half-gradient
    g = H^T H v - H^T y and no image Hv: the objective starts from ||y||^2 at
    v = 0 and moves by <v' - v, g' + g>, the exact change of a quadratic.
    Its level keeps the rounding of ||y||^2 (a few eps ||y||^2), but its
    changes, which the stopping rule reads, are those of the residual. The
    step carries each column's H^T y and g as its state.
    Non-convergence returns the last iterate with converged=False.
    GramUnderflowError if H^T H underflows to L = 0 (every squared PSF entry
    below the smallest subnormal: a peak below about 2e-162).
    """
    def setup(Y):
        A = weighted_gram(H)
        L = eigvalsh(A, subset_by_index=[H.d - 1, H.d - 1])[0]
        if not L > 0:
            raise GramUnderflowError(float(np.max(H.psf)))
        HtY = adjoint(H, Y)

        def step(V, f, state):
            HtY, g = state
            V_next = np.maximum(V - g / L, 0.0)
            # A is column-major and exactly symmetric, so A V = (V^T A)^T; V is
            # row-major, so dgemm reads V.T and A without a copy, and the
            # half-gradient comes out row-major like V
            g_next = blas.dgemm(1.0, V_next.T, A).T
            g_next -= HtY
            # the expanded ||y||^2 - 2<v, H^T y> + <v, Av> rounds ||y||^2
            # afresh at every step, which at bright objects moves it by more
            # than tol; this sum keeps one rounding throughout. g is spent
            # after this step, so it takes the sum in place
            g += g_next
            return V_next, f + np.sum((V_next - V) * g, axis=0), (HtY, g_next)

        # at v = 0 the objective is ||y||^2 and the half-gradient -H^T y
        return np.zeros((H.d, Y.shape[1])), np.sum(Y * Y, axis=0), (HtY, -HtY), step

    return _iterate(H, y, setup, max_iters, tol)


def _poisson_objective(Y, B):
    """Sum of y ln b - b per column; the -ln(y!) constant is omitted.

    The log of the floored image is finite everywhere, so a zero count adds
    0 * ln b - b, which is exactly -b.
    """
    t = np.maximum(B, 1e-300)
    np.log(t, out=t)
    t *= Y
    t -= B
    return t.sum(axis=0)


def poisson_mle(H: SystemMatrix, y, background: float = 0.0,
                max_iters: int = 10_000, tol: float = 1e-10) -> DecoderResult:
    """Richardson-Lucy iterations for the Poisson likelihood.

    v <- v * [H^T (y / (Hv + background))] / H^T 1; H^T 1 is the PSF mass
    at every pixel. Each column starts uniform at max(mean(y_j) / mass,
    1e-12), from its own counts alone. The objective is ln p(y; v) with the
    additive constant dropped; it never falls. The step carries each
    column's counts and image Hv + background as its state.
    """
    check_parameter("background", background, allow_zero=True)
    mass = H.psf.sum()

    def setup(Y):
        if np.any(Y < 0):
            raise ValueError("Poisson measurements must be non-negative")
        V = np.full((H.d, Y.shape[1]), np.maximum(Y.mean(axis=0) / mass, 1e-12))
        B = forward(H, V)         # the image HV + background of the iterate
        B += background

        def step(V, f, state):
            Y, B = state
            # a zero count over the floored rate is already +0.0
            ratio = np.maximum(B, 1e-300)
            np.divide(Y, ratio, out=ratio)
            update = adjoint(H, ratio)
            update /= mass
            update *= V
            # EM shrinks empty pixels geometrically into the subnormal
            # range, where every later product takes the CPU's slow path.
            # Such a pixel times a unit-mass PSF entry is under half an ulp
            # of any rate above about 1e-290, so zeroing it keeps the
            # images' bits; the update keeps a 0 at 0.
            np.putmask(update, update < TINY, 0.0)
            B = forward(H, update)
            B += background
            return update, _poisson_objective(Y, B), (Y, B)

        return V, _poisson_objective(Y, B), (Y, B), step

    return _iterate(H, y, setup, max_iters, tol)


# ---------------------------------------------------------------------------
# Trial runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialReport:
    n_trials: int
    per_pixel_mean: np.ndarray
    per_pixel_variance: np.ndarray
    efficiency: np.ndarray | None   # variance / CRB, elementwise
    n_failed: int = 0
    n_converged: int | None = None  # trials whose decoder met tol; None for GLS


def _with_count(res: DecoderResult):
    """A decoder's values and how many of its columns met the stopping rule."""
    return res.values, int(np.count_nonzero(res.column_converged))


def _merge_moments(n1, mean1, m2_1, n2, mean2, m2_2):
    """Combine two (count, mean, sum-of-squared-deviations) states."""
    n = n1 + n2
    delta = mean2 - mean1
    mean = mean1 + delta * (n2 / n)
    m2 = m2_1 + m2_2 + delta * delta * (n1 * n2 / n)
    return n, mean, m2


def run_trials(model, H: SystemMatrix, v_true, estimator: str, n_trials: int,
               seed: int, crb: CrbMap | None = None,
               estimator_options: dict | None = None) -> TrialReport:
    """Sample -> estimate n_trials times; report per-pixel moments and efficiency.

    A run draws every trial from one generator, default_rng(seed), in
    batches of TRIAL_CHUNK trials that are decoded together. The generator
    draws in sequence, so the chunk size does not change a run's draws, and
    runs at different seeds share none. DimensionError unless crb, if
    given, is a map of H's object.
    Estimates containing non-finite values count as failures; more than 1%
    failures raises TrialFailureError. n_converged counts the trials whose
    decoder met its stopping rule (None for GLS, which is not iterative).
    """
    if n_trials < 2:
        raise ValueError("n_trials must be >= 2")
    if crb is not None and crb.object_shape != H.obj_shape:
        raise DimensionError(f"CRB map of object {crb.object_shape} given with H of "
                             f"object {H.obj_shape}")
    options = estimator_options or {}
    if estimator == "gls":
        if options:
            raise ValueError(f"gls takes no estimator options, got {sorted(options)}")
        solve = make_gls_solver(H)

        def estimate(Y):
            return solve(Y), None
    elif estimator == "nnls":
        def estimate(Y):
            return _with_count(nnls_estimate(H, Y, **options))
    elif estimator == "mle":
        def estimate(Y):
            return _with_count(poisson_mle(H, Y, background=model.background, **options))
    else:
        raise ValueError(f"unknown estimator: {estimator!r}")
    b = forward(H, v_true)
    rng = np.random.default_rng(seed)

    n_acc, mean_acc, m2_acc = 0, np.zeros(H.d), np.zeros(H.d)
    n_failed, n_converged = 0, None if estimator == "gls" else 0
    for start in range(0, n_trials, TRIAL_CHUNK):
        m = min(TRIAL_CHUNK, n_trials - start)
        # the decoders run faster on a row-major (k, m) batch than on the
        # transposed draws
        V, converged = estimate(
            np.ascontiguousarray(sample(model, np.broadcast_to(b, (m, H.k)), rng).T))
        if converged is not None:
            n_converged += converged
        ok = np.all(np.isfinite(V), axis=0)
        n_failed += int(m - ok.sum())
        V = V[:, ok]
        if V.shape[1] == 0:
            continue
        c_n = V.shape[1]
        c_mean = V.mean(axis=1)
        c_m2 = np.sum((V - c_mean[:, None]) ** 2, axis=1)
        n_acc, mean_acc, m2_acc = _merge_moments(n_acc, mean_acc, m2_acc,
                                                 c_n, c_mean, c_m2)
    if n_failed > 0.01 * n_trials:
        raise TrialFailureError(n_failed, n_trials)
    variance = m2_acc / (n_acc - 1)
    efficiency = None
    if crb is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            efficiency = np.where(crb.values > 0, variance / crb.values, np.inf)
    return TrialReport(n_trials=n_acc, per_pixel_mean=mean_acc,
                       per_pixel_variance=variance, efficiency=efficiency,
                       n_failed=n_failed, n_converged=n_converged)
