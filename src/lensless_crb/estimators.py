"""Reference decoders and the Monte Carlo trial runner.

Three estimators probe the bounds empirically:

* Unconstrained least squares (closed form): unbiased and efficient under
  Gaussian noise, so its variance should sit on the CRB.
* Non-negative least squares via accelerated projected gradient (FISTA)
  with adaptive restart, which never raises the residual.
* Poisson maximum likelihood via Richardson-Lucy multiplicative updates,
  which preserve positivity and never decrease the likelihood.

The two iterative decoders give their start, its objective, their
per-column state arrays and a step to one per-column stopping loop,
``_iterate``, which alone owns and compacts every per-column array, and
return its ``DecoderResult``. The loop tests its stopping rule only on check
steps, every STOP_STRIDE iterations and at max_iters, and needs a step's
objective only on a check step and the step before it. Each step forms
only the products it needs: RL one image Hv + background per iteration,
which serves its next ratio, and its likelihood only when asked; NNLS one
product (H^T H) V and no image (a second for the columns that restart),
moving its squared residual by each step's exact change, which its
restart test forms anyway. Every column starts from its own data, so a
trial's iterates do not depend on the trials decoded with it.

``run_trials`` repeats sample -> estimate with draws from one generator in
the calling process and accumulates per-pixel mean/variance with chunked
Welford merges in chunk order, so the statistics do not depend on the
chunk size, up to the rounding of the batched products. That rounding
moves a column's stopping step, by one stride, only when its objective
change at a check step lands within rounding of tol. The iterative
decoders' chunks run on one forked worker process per usable CPU, each at
one BLAS thread, so a run's report does not depend on the worker count.
"""

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from . import fisher
from .errors import DimensionError, GramUnderflowError, TrialFailureError
from .fisher import CrbMap, diagonal_load, loaded_cholesky
from .forward_model import (SystemMatrix, adjoint, blas, build_matrix, forward, lapack,
                            weighted_gram)
from .noise import check_parameter, sample

# trials sampled and decoded as one batch, the unit of parallel work; at
# 8x8 an RL step cost least per column at about 50 columns
TRIAL_CHUNK = 50
STOP_STRIDE = 10      # iterations between tests of the stopping rule
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
    """An iterative decoder's last iterates and its per-column record: the
    step at which each column stopped and whether it met the stopping rule.
    n_iters and converged are derived from that record."""

    values: np.ndarray            # (d, n) last iterate of each column
    column_iters: np.ndarray      # (n,) the step at which each column stopped
    column_converged: np.ndarray  # (n,) which columns met the stopping rule

    @property
    def n_iters(self) -> int:
        """Iterations of the slowest column."""
        return int(self.column_iters.max(initial=0))

    @property
    def converged(self) -> bool:
        """Every column met the stopping rule."""
        return bool(self.column_converged.all())


def _iterate(H: SystemMatrix, y, setup, max_iters: int, tol: float) -> DecoderResult:
    """Iterate each column of the (k, n) batch y until its objective settles.

    setup(Y) returns the start V (d, n), its objective f (n,), a tuple of
    per-column state arrays (each with n columns) and step(V, f, state,
    form), which maps the running columns to their next iterate, an
    objective and its state. The objective is the new iterate's when form
    is true; otherwise it may be f, untouched. The loop sets form only on
    check steps (multiples of STOP_STRIDE, and max_iters) and the step
    before each, so f always holds the objective of the step before a
    check. The step holds no column state of its own: this loop alone owns
    every per-column array. A column stops at the first check step whose one-step
    objective change is below tol relative; it is then written back and
    dropped from V, f and every state array, so the running columns stay
    contiguous.
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
    iters = np.full(Y.shape[1], max_iters)
    Vr = V
    n_iters = 0
    while n_iters < max_iters and cols.size:
        n_iters += 1
        check = n_iters % STOP_STRIDE == 0 or n_iters == max_iters
        before_check = (n_iters + 1) % STOP_STRIDE == 0 or n_iters + 1 == max_iters
        Vr, new, state = step(Vr, f, state, check or before_check)
        if check:
            stop = np.abs(new - f) / np.maximum(np.abs(f), 1e-300) < tol
        f = new
        if check and np.any(stop):
            V[:, cols[stop]] = Vr[:, stop]
            done[cols[stop]] = True
            iters[cols[stop]] = n_iters
            keep = ~stop
            cols, Vr, f = cols[keep], Vr[:, keep], f[keep]
            state = tuple(s[:, keep] for s in state)
    V[:, cols] = Vr
    return DecoderResult(V, iters, done)


def largest_eigenvalue(A: np.ndarray) -> float:
    """The largest eigenvalue of the symmetric A, read from its lower
    triangle: scipy.linalg.eigvalsh(A, subset_by_index=[d - 1, d - 1])[0]
    bit for bit. It is LAPACK's dsyevr on the one index d, with the work
    sizes dsyevr_lwork gives, as eigvalsh takes them; another lwork can
    change the last bits. A is checked finite first (ValueError)."""
    d = len(A)
    lwork, liwork, _info = lapack.dsyevr_lwork(d, lower=1)
    w, _z, _m, _isuppz, info = lapack.dsyevr(np.asarray_chkfinite(A), compute_v=0, range="I",
                                             lower=1, il=d, iu=d, lwork=int(lwork),
                                             liwork=int(liwork))
    if info != 0:
        raise LinAlgError(f"dsyevr failed (info={info})")
    return w[0]


def nnls_estimate(H: SystemMatrix, y, max_iters: int = 5000,
                  tol: float = 1e-9) -> DecoderResult:
    """Accelerated projected gradient (FISTA; Beck & Teboulle, SIAM J.
    Imaging Sci. 2(1), 2009) on ||y - Hv||^2 with v >= 0, from v = 0, with
    adaptive restart (O'Donoghue & Candes, Found. Comput. Math. 15(3), 2015).

    Step 1/L with L the largest eigenvalue of H^T H (LAPACK). Each step moves
    to the projected gradient step u of the extrapolated point z = v + b (v -
    v_prev), with b = (t - 1) / t' and t' = (1 + sqrt(1 + 4 t^2)) / 2. It
    keeps the half-gradient g = H^T H v - H^T y of each accepted iterate, so
    z's is g + b (g - g_prev) by linearity, and forms one product (H^T H) U
    per step, on the new iterate, and no image Hv. The change of the squared
    residual from v to u is <u - v, g_u + g_v>, exact for a quadratic. Where
    it is positive the column restarts: its momentum resets (t = 1) and it
    takes a plain projected gradient step from v instead, one more product
    for those columns only, so the residual never rises and a restart does
    not stall a column. The residual starts from ||y||^2 at v = 0 and moves
    by each step's change: its level keeps the rounding of ||y||^2, but its
    changes, which the stopping rule reads, are those of the residual. The
    step carries each column's H^T y, g, v_prev, g_prev and t as its state.
    Non-convergence returns the last iterate with converged=False.
    GramUnderflowError if H^T H underflows to L = 0 (every squared PSF entry
    below the smallest subnormal: a peak below about 2e-162).
    """
    def setup(Y):
        A = weighted_gram(H)
        L = largest_eigenvalue(A)
        if not L > 0:
            raise GramUnderflowError(float(np.max(H.psf)))
        HtY = adjoint(H, Y)

        def descend(V, G, Z, G_z, HtY):
            """The projected gradient step U from Z, whose half-gradient is
            G_z; U's half-gradient; and the exact change of the squared
            residual from V, whose half-gradient is G, to U."""
            U = np.maximum(Z - G_z / L, 0.0)
            # A is column-major and exactly symmetric, so A U = (U^T A)^T; U
            # is row-major, so dgemm reads U.T and A without a copy, and the
            # half-gradient comes out row-major like U
            G_u = blas.dgemm(1.0, U.T, A).T
            G_u -= HtY
            return U, G_u, np.sum((U - V) * (G_u + G), axis=0)

        def step(V, f, state, form):
            HtY, G, V_prev, G_prev, t = state
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            b = (t - 1.0) / t_next
            U, G_u, change = descend(V, G, V + b * (V - V_prev), G + b * (G - G_prev), HtY)
            r = np.flatnonzero(change > 0.0)
            if r.size:
                V_r, G_r = V[:, r], G[:, r]
                U[:, r], G_u[:, r], change[r] = descend(V_r, G_r, V_r, G_r, HtY[:, r])
                t_next[:, r] = (1.0 + np.sqrt(5.0)) / 2.0    # t' at t = 1
            # the expanded ||y||^2 - 2<v, H^T y> + <v, Av> rounds ||y||^2
            # afresh at every step, which at bright objects moves it by more
            # than tol; this sum keeps one rounding throughout
            return U, f + change, (HtY, G_u, V, G, t_next)

        # at v = 0 the objective is ||y||^2 and the half-gradient -H^T y; t
        # is a (1, n) row, so the loop compacts it with the other state
        V, G = np.zeros((H.d, Y.shape[1])), -HtY
        return V, np.sum(Y * Y, axis=0), (HtY, G, V, G, np.ones((1, Y.shape[1]))), step

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
    additive constant dropped; it never falls. Each step forms the image
    Hv + background, which the next ratio needs, but takes its logarithm
    for the objective only when the loop asks: on a check step and the
    step before it. The step carries each column's counts and image as its
    state.
    """
    check_parameter("background", background, allow_zero=True)
    mass = H.psf.sum()

    def setup(Y):
        if np.any(Y < 0):
            raise ValueError("Poisson measurements must be non-negative")
        V = np.full((H.d, Y.shape[1]), np.maximum(Y.mean(axis=0) / mass, 1e-12))
        B = forward(H, V)         # the image HV + background of the iterate
        B += background

        def step(V, f, state, form):
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
            return update, _poisson_objective(Y, B) if form else f, (Y, B)

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
    # (min, median, max) over trials of the step each stopped at; None for GLS
    iterations: tuple[int, float, int] | None = None


def _merge_moments(n1, mean1, m2_1, n2, mean2, m2_2):
    """Combine two (count, mean, sum-of-squared-deviations) states."""
    n = n1 + n2
    delta = mean2 - mean1
    mean = mean1 + delta * (n2 / n)
    m2 = m2_1 + m2_2 + delta * delta * (n1 * n2 / n)
    return n, mean, m2


# the estimate of a trial worker process, set by its pool's initializer
_worker_estimate = None


def _init_trial_worker(estimate):
    global _worker_estimate
    _worker_estimate = estimate


def _estimate_in_worker(Y):
    return _worker_estimate(Y)


def run_trials(model, H: SystemMatrix, v_true, estimator: str, n_trials: int,
               seed: int, crb: CrbMap | None = None,
               estimator_options: dict | None = None) -> TrialReport:
    """Sample -> estimate n_trials times; report per-pixel moments and efficiency.

    A run draws every trial from one generator, default_rng(seed), in the
    calling process, in chunks of TRIAL_CHUNK trials that are decoded
    together, with one noise.sample call per chunk. The generator draws in
    sequence, so the chunk size does not change a run's draws, and runs at
    different seeds share none. DimensionError unless crb, if given, is a
    map of H's object.

    GLS decodes each chunk in the calling process at the process's BLAS
    thread count. An iterative decoder's chunks run through fisher.in_order
    at one BLAS thread: on min(cpu_count, chunks) fork_pool workers, which
    inherit the model, H (its dense matrix built here first) and the
    options, so a job pickles only its chunk's counts, at most 2 * workers
    chunks drawn ahead; or, for one chunk or one usable CPU, in the calling
    thread. A chunk's estimates do not depend on where it ran, and the
    moments are merged in chunk order, so the report depends on TRIAL_CHUNK
    but not on the worker count. The first failing chunk's error is raised,
    and every worker is joined before the run returns or raises.

    Estimates containing non-finite values count as failures; more than 1%
    failures raises TrialFailureError. n_converged counts the trials whose
    decoder met its stopping rule and iterations gives the (min, median,
    max) of the steps at which the trials stopped (both None for GLS, which
    is not iterative).
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
            res = nnls_estimate(H, Y, **options)
            return res.values, res
    elif estimator == "mle":
        def estimate(Y):
            res = poisson_mle(H, Y, background=model.background, **options)
            return res.values, res
    else:
        raise ValueError(f"unknown estimator: {estimator!r}")
    b = forward(H, v_true)
    # every decoder's adjoint reads H's dense matrix: build it here, so the
    # forked workers share this one copy
    build_matrix(H)
    rng = np.random.default_rng(seed)
    # the decoders run faster on a row-major (k, m) batch than on the
    # transposed draws
    batches = (np.ascontiguousarray(sample(
        model, np.broadcast_to(b, (min(TRIAL_CHUNK, n_trials - start), H.k)), rng).T)
        for start in range(0, n_trials, TRIAL_CHUNK))
    if estimator == "gls":
        results = map(estimate, batches)
    else:
        workers = min(fisher.cpu_count(), -(-n_trials // TRIAL_CHUNK))
        pool, decode = None, estimate
        if workers > 1:
            pool = fisher.fork_pool(workers, _init_trial_worker, (estimate,))
            decode = _estimate_in_worker
        results = fisher.in_order(pool, (partial(decode, Y) for Y in batches), 2 * workers)

    n_acc, mean_acc, m2_acc = 0, np.zeros(H.d), np.zeros(H.d)
    n_failed, n_converged, stop_steps = 0, None if estimator == "gls" else 0, []
    for V, res in results:
        if res is not None:
            n_converged += int(np.count_nonzero(res.column_converged))
            stop_steps.append(res.column_iters)
        ok = np.all(np.isfinite(V), axis=0)
        n_failed += int(ok.size - ok.sum())
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
    iterations = None
    if stop_steps:
        steps = np.concatenate(stop_steps)
        iterations = (int(steps.min()), float(np.median(steps)), int(steps.max()))
    efficiency = None
    if crb is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            efficiency = np.where(crb.values > 0, variance / crb.values, np.inf)
    return TrialReport(n_trials=n_acc, per_pixel_mean=mean_acc,
                       per_pixel_variance=variance, efficiency=efficiency,
                       n_failed=n_failed, n_converged=n_converged,
                       iterations=iterations)
