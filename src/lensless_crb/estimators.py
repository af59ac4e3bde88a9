"""Reference decoders and the Monte Carlo trial runner.

Three estimators probe the bounds empirically:

* Unconstrained least squares (closed form): unbiased and efficient under
  Gaussian noise, so its variance should sit on the CRB.
* Non-negative least squares via projected gradient descent.
* Poisson maximum likelihood via Richardson-Lucy multiplicative updates,
  which preserve positivity and never decrease the likelihood.

The two iterative decoders give only their start value, step and objective
to one per-column loop, ``_iterate``, and return its ``DecoderResult``.

``run_trials`` repeats sample -> estimate with draws from one generator and
accumulates per-pixel mean/variance with chunked Welford merges, so the
statistics are independent of the chunk size.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas, eigvalsh

from . import fisher
from .errors import DimensionError, TrialFailureError
from .fisher import CrbMap, loaded_cholesky
from .forward_model import SystemMatrix, adjoint, forward, weighted_gram
from .noise import sample

TRIAL_CHUNK = 1000    # trials sampled and decoded as one batch
TINY = np.finfo(float).tiny   # smallest normal float64


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------


def make_gls_solver(H: SystemMatrix):
    """Factor (H^T H + eps*I) once, with loaded_cholesky's default eps;
    return a solver mapping y -> v.

    The solver accepts y of shape (k,) or (k, n) and may return negatives.
    """
    c, _ = loaded_cholesky(weighted_gram(H))

    def solve(y):
        return fisher.cho_solve(c, adjoint(H, y))

    return solve


# ---------------------------------------------------------------------------
# Iterative decoders
# ---------------------------------------------------------------------------


class DecoderResult(NamedTuple):
    values: np.ndarray    # (d, n) last iterate of each column
    converged: bool       # every column met the stopping rule
    n_iters: int          # iterations of the slowest column


def _iterate(H: SystemMatrix, y, setup, objective, max_iters: int, tol: float,
             background: float = 0.0) -> DecoderResult:
    """Iterate each column of the (k, n) batch y until its objective settles.

    setup(Y) returns the start (d, n) and step(V, Y, B, cols), which maps the
    running columns V to their next iterate; B = HV + background is their
    image and cols their indices in the batch. objective(Y, B) gives one value
    per column. The image of each iterate is formed once and serves both the
    objective and the next step. A column stops when its objective changes by
    less than tol relative; it is then written back and dropped, so the
    running columns stay one contiguous array.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    Y = np.asarray(y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != H.k:
        raise DimensionError(f"decoders take a ({H.k}, n) batch, got shape {Y.shape}")
    V, step = setup(Y)
    cols = np.arange(Y.shape[1])      # the running columns, in batch order
    Vr, Yr = V, Y
    B = forward(H, V)
    B += background
    f = objective(Y, B)
    n_iters = 0
    while n_iters < max_iters and cols.size:
        n_iters += 1
        Vr = step(Vr, Yr, B, cols)
        B = forward(H, Vr)
        B += background
        new, old = objective(Yr, B), f[cols]
        stop = np.abs(new - old) / np.maximum(np.abs(old), 1e-300) < tol
        f[cols] = new
        if np.any(stop):
            V[:, cols[stop]] = Vr[:, stop]
            cols, Vr, Yr, B = cols[~stop], Vr[:, ~stop], Yr[:, ~stop], B[:, ~stop]
    V[:, cols] = Vr
    return DecoderResult(V, cols.size == 0, n_iters)


def _squared_residual(Y, B):
    return np.sum((Y - B) ** 2, axis=0)


def nnls_estimate(H: SystemMatrix, y, max_iters: int = 5000,
                  tol: float = 1e-9) -> DecoderResult:
    """Projected gradient descent on ||y - Hv||^2 with v >= 0, from v = 0.

    Step 1/L with L the largest eigenvalue of H^T H (LAPACK), so the objective
    never rises. Non-convergence returns the last iterate with
    converged=False.
    """
    def setup(Y):
        A = weighted_gram(H)
        L = eigvalsh(A, subset_by_index=[H.d - 1, H.d - 1])[0]
        HtY = adjoint(H, Y)
        gathered, HtY_r = None, None    # the running columns and their HtY

        def step(V, Y, B, cols):
            nonlocal gathered, HtY_r
            if cols is not gathered:    # _iterate makes a new cols when one stops
                gathered, HtY_r = cols, HtY[:, cols]
            # A is column-major and exactly symmetric, so A V = (V^T A)^T; V is
            # row-major, so dgemm reads V.T and A without a copy, and the
            # half-gradient of the objective comes out row-major like V
            grad = blas.dgemm(1.0, V.T, A).T - HtY_r
            return np.maximum(V - grad / L, 0.0)

        return np.zeros((H.d, Y.shape[1])), step

    return _iterate(H, y, setup, _squared_residual, max_iters, tol)


def _poisson_objective(Y, B):
    """Sum of y ln b - b per column; the -ln(y!) constant is omitted.

    The log is taken only where y > 0; a zero count adds -b alone.
    """
    t = np.log(np.maximum(B, 1e-300), out=np.zeros_like(B), where=Y > 0)
    t *= Y
    t -= B
    return t.sum(axis=0)


def poisson_mle(H: SystemMatrix, y, background: float = 0.0,
                max_iters: int = 10_000, tol: float = 1e-10) -> DecoderResult:
    """Richardson-Lucy iterations for the Poisson likelihood.

    v <- v * [H^T (y / (Hv + background))] / H^T 1, started uniform positive;
    H^T 1 is the PSF mass at every pixel. The objective is ln p(y; v) with
    the additive constant dropped; it never falls.
    """
    fisher.check_parameter("background", background, allow_zero=True)
    mass = H.psf.sum()

    def setup(Y):
        if np.any(Y < 0):
            raise ValueError("Poisson measurements must be non-negative")

        def step(V, Y, B, cols):
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
            return update

        return np.full((H.d, Y.shape[1]), max(Y.mean() / mass, 1e-12)), step

    return _iterate(H, y, setup, _poisson_objective, max_iters, tol, background)


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
    failures raises TrialFailureError.
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
        estimate = make_gls_solver(H)
    elif estimator == "nnls":
        def estimate(Y):
            return nnls_estimate(H, Y, **options).values
    elif estimator == "mle":
        def estimate(Y):
            return poisson_mle(H, Y, background=model.background, **options).values
    else:
        raise ValueError(f"unknown estimator: {estimator!r}")
    b = forward(H, v_true)
    rng = np.random.default_rng(seed)

    n_acc, mean_acc, m2_acc = 0, np.zeros(H.d), np.zeros(H.d)
    n_failed = 0
    for start in range(0, n_trials, TRIAL_CHUNK):
        m = min(TRIAL_CHUNK, n_trials - start)
        # the decoders run faster on a row-major (k, m) batch than on the
        # transposed draws
        V = estimate(np.ascontiguousarray(sample(model, np.broadcast_to(b, (m, H.k)), rng).T))
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
                       n_failed=n_failed)
