"""Reference decoders and the Monte Carlo trial runner.

Three estimators probe the bounds empirically:

* Unconstrained least squares (closed form): unbiased and efficient under
  Gaussian noise, so its variance should sit on the CRB.
* Non-negative least squares via projected gradient descent.
* Poisson maximum likelihood via Richardson-Lucy multiplicative updates,
  which preserve positivity and never decrease the likelihood.

``run_trials`` repeats sample -> estimate over many seeds and accumulates
per-pixel mean/variance with chunked Welford merges, so the statistics are
independent of chunk size and thread count.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigvalsh

from . import fisher
from .errors import DimensionError, TrialFailureError
from .fisher import CrbMap, loaded_cholesky
from .forward_model import SystemMatrix, adjoint, forward, weighted_gram
from .noise import sample

TRIAL_CHUNK = 1000    # trials sampled and decoded as one batch


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
# Non-negative least squares
# ---------------------------------------------------------------------------


def _batch(y) -> np.ndarray:
    """A (k, n) batch of measurements, one per column, as floats."""
    Y = np.asarray(y, dtype=float)
    if Y.ndim != 2:
        raise DimensionError(f"decoders take a (k, n) batch, got ndim={Y.ndim}")
    return Y


class NnlsResult(NamedTuple):
    values: np.ndarray
    converged: bool
    n_iters: int


def nnls_estimate(H: SystemMatrix, y, max_iters: int = 5000,
                  tol: float = 1e-9) -> NnlsResult:
    """Projected gradient descent on ||y - Hv||^2 with v >= 0.

    Step 1/L with L the largest eigenvalue of H^T H (LAPACK); each column
    of the (k, n) batch y stops when its relative objective decrease drops
    below tol. Non-convergence returns the last iterate with
    converged=False.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    Y = _batch(y)
    A = weighted_gram(H)
    L = eigvalsh(A, subset_by_index=[H.d - 1, H.d - 1])[0]
    HtY = adjoint(H, Y)
    V = np.zeros((H.d, Y.shape[1]))
    active = np.ones(Y.shape[1], dtype=bool)
    obj = np.sum(Y ** 2, axis=0)
    it = 0
    while it < max_iters and np.any(active):
        idx = np.flatnonzero(active)       # converged columns stop updating
        Va = V[:, idx]
        grad = A @ Va - HtY[:, idx]        # half-gradient of the objective
        Va = np.maximum(Va - grad / L, 0.0)
        V[:, idx] = Va
        new_obj = np.sum((Y[:, idx] - forward(H, Va)) ** 2, axis=0)
        rel_drop = (obj[idx] - new_obj) / np.maximum(obj[idx], 1e-300)
        active[idx[rel_drop < tol]] = False
        obj[idx] = new_obj
        it += 1
    return NnlsResult(V, converged=not np.any(active), n_iters=it)


# ---------------------------------------------------------------------------
# Poisson maximum likelihood (Richardson-Lucy)
# ---------------------------------------------------------------------------


class MleResult(NamedTuple):
    values: np.ndarray
    converged: bool
    n_iters: int
    loglik_trace: np.ndarray   # (iters + 1, n) ln p(y; v), additive constant dropped


def _poisson_objective(Y, B):
    """Sum of y ln b - b per column; the -ln(y!) constant is omitted."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(Y > 0, Y * np.log(np.maximum(B, 1e-300)), 0.0)
    return np.sum(t - B, axis=0)


def poisson_mle(H: SystemMatrix, y, background: float = 0.0,
                max_iters: int = 10_000, tol: float = 1e-10) -> MleResult:
    """Richardson-Lucy iterations for the Poisson likelihood.

    v <- v * [H^T (y / (Hv + background))] / H^T 1, started uniform positive;
    H^T 1 is the PSF mass at every pixel. Each column of the (k, n) batch
    y stops when its relative log-likelihood change drops below tol.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    fisher.check_parameter("background", background, allow_zero=True)
    Y = _batch(y)
    if np.any(Y < 0):
        raise ValueError("Poisson measurements must be non-negative")
    mass = H.psf.sum()

    n_cols = Y.shape[1]
    V = np.full((H.d, n_cols), max(Y.mean() / mass, 1e-12))
    obj = _poisson_objective(Y, forward(H, V) + background)
    trace = [obj.copy()]
    active = np.ones(n_cols, dtype=bool)
    it = 0
    while it < max_iters and np.any(active):
        idx = np.flatnonzero(active)       # converged columns stop updating
        Va, Ya = V[:, idx], Y[:, idx]
        B = forward(H, Va) + background
        ratio = np.where(Ya > 0, Ya / np.maximum(B, 1e-300), 0.0)
        Va = Va * (adjoint(H, ratio) / mass)
        V[:, idx] = Va
        new_obj = _poisson_objective(Ya, forward(H, Va) + background)
        rel = np.abs(new_obj - obj[idx]) / np.maximum(np.abs(obj[idx]), 1e-300)
        active[idx[rel < tol]] = False
        obj[idx] = new_obj
        trace.append(obj.copy())
        it += 1
    return MleResult(V, not np.any(active), it, np.array(trace))


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

    Trial i uses seed ``seed + i`` so any subset of trials is reproducible;
    trials are decoded in batches of TRIAL_CHUNK.
    Estimates containing non-finite values count as failures; more than 1%
    failures raises TrialFailureError.
    """
    if n_trials < 2:
        raise ValueError("n_trials must be >= 2")
    options = estimator_options or {}
    if estimator == "gls":
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

    n_acc, mean_acc, m2_acc = 0, np.zeros(H.d), np.zeros(H.d)
    n_failed = 0
    for start in range(0, n_trials, TRIAL_CHUNK):
        m = min(TRIAL_CHUNK, n_trials - start)
        Y = np.empty((H.k, m))
        for i in range(m):
            Y[:, i] = sample(model, b, seed + start + i)
        V = estimate(Y)
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
