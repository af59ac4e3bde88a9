"""Fisher information matrices and Cramér-Rao bound extraction.

Every closed form is one weighted Gram, J = H^T diag(w) H with the noise
model's per-measurement Fisher weights w at the mean measurement
b = H v + background, formed in one place (_fisher_gram):

* Gaussian: w = 1 / sigma2 (object-independent, so v may be None).
* Poisson:  w = 1 / b.

Every Fisher matrix is a plain (d, d) symmetric PSD array. A Monte Carlo
estimator built from sampled score outer products serves as an independent
oracle for both closed forms. The CRB is the diagonal of the inverse Fisher
matrix, computed through a Cholesky factorization J + eps*I = L L^T with
eps = epsilon_rel * max(diag(J)), so Gaussian and Poisson scales both
behave: diag((L L^T)^-1) holds the squared column norms of L^-1.

bound(model, H, v) is the one call from a noise model, H and an object to
a CRB map, and the weights pick its algorithm. Scalar weights make J a
function of the lag between two pixels, equal to its point reflection
J[::-1, ::-1] bit for bit; with an even d, that J splits into an even and
an odd block of half its size, which are factored and inverted in its
place at a quarter of the flops. Any other J is factored whole, in place.
crb_from_fisher(J) bounds a caller-held J, factoring a copy of it whole.

Every factorization, solve and triangular inverse is LAPACK through
forward_model.lapack, SciPy's compiled wrappers: cho_factor and cho_solve
give scipy.linalg.cho_factor's and cho_solve's bits and errors without
loading the scipy.linalg package.
"""

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.linalg import LinAlgError

from .errors import DimensionError, FactorizationError
from .forward_model import (GRAM_BLOCK_BYTES, SystemMatrix, adjoint, build_matrix,
                            gram, lapack, one_blas_thread, weighted_gram)
from .noise import GaussianNoise, PoissonNoise, check_parameter, mean_measurement

MC_CHUNK = 20_000           # Monte Carlo samples per seed chunk
EPSILON_REL = 1e-9    # default diagonal loading, relative to max(diag(J))


@dataclass(frozen=True)
class CrbMap:
    """Per-object-pixel lower bounds on unbiased estimator variance (photons^2)."""

    values: np.ndarray            # 1-D, length d, >= 0
    epsilon_used: float
    object_shape: tuple[int, int]
    # bound's seconds: "fisher" forming J, "crb" factoring and inverting it
    seconds: dict = field(default_factory=dict)

    def grid(self) -> np.ndarray:
        return self.values.reshape(self.object_shape)


def fisher_information(model, H: SystemMatrix, v=None) -> np.ndarray:
    """Closed-form Fisher matrix H^T diag(w) H of the noise model at object
    v, with w = model.fisher_weights of its mean measurement. v = None gives
    the model no mean, which only an object-independent model accepts."""
    return _fisher_gram(model, H, v)[0]


def _fisher_gram(model, H: SystemMatrix, v):
    """(J, whether the Fisher weights are one scalar) of fisher_information:
    the one place J is formed from the model's weights."""
    w = model.fisher_weights(None if v is None else mean_measurement(model, H, v))
    return weighted_gram(H, w), np.ndim(w) == 0


def bound(model, H: SystemMatrix, v=None, epsilon_rel: float = EPSILON_REL) -> CrbMap:
    """CRB map diag((J + eps*I)^-1) of J = fisher_information(model, H, v),
    eps = diagonal_load(J, epsilon_rel), laid out on H's object grid, with
    the eps used and the seconds of its two stages: "fisher", forming J,
    and "crb", factoring and inverting it.

    Scalar weights make J the weighted autocorrelation Gram, whose entry
    depends only on the lag between its two pixels and not on the lag's
    sign (forward_model averages the lag table with its reflection), so J
    equals its point reflection J[::-1, ::-1] bit for bit. A J of even size
    d then splits orthogonally into an even and an odd block of half its
    size (Cantoni & Butler, Linear Algebra Appl. 13(3), 1976). With m = d // 2
    and P the index reversal, E = J11 + J12 P and O = J11 - J12 P, J12 P read
    from the lower-left block as J[d-1-i, j]. Both halves take the same eps,
    which the orthogonal split leaves a multiple of I, so the map is exactly
    the bound of J + eps*I: 0.5 * (diag E^-1 + diag O^-1) on the first m
    pixels, mirrored onto the last m. Two (d/2)^3 factorizations replace one
    d^3, and each half block is the one working array beside J. Any other J
    (a weight vector, or odd d) is loaded, factored and inverted in place,
    so J is the one d x d float array the call holds.
    """
    t0 = time.perf_counter()
    J, scalar_weights = _fisher_gram(model, H, v)
    t1 = time.perf_counter()
    eps = diagonal_load(J, epsilon_rel)
    if scalar_weights and H.d % 2 == 0:
        m = H.d // 2
        top, flipped = J[:m, :m], J[::-1][:m, :m]   # flipped[i, j] = J[d-1-i, j]
        half = 0.5 * (_inverse_diagonal(top + flipped, eps)
                      + _inverse_diagonal(top - flipped, eps))
        values = np.concatenate([half, half[::-1]])
    else:
        values = _inverse_diagonal(J, eps)
    return CrbMap(values, eps, H.obj_shape, {"fisher": t1 - t0, "crb": time.perf_counter() - t1})


def fisher_gaussian(H: SystemMatrix, sigma2: float) -> np.ndarray:
    """fisher_information for i.i.d. Gaussian noise of variance sigma2."""
    return fisher_information(GaussianNoise(sigma2), H)


def fisher_poisson(H: SystemMatrix, v, background: float = 0.0) -> np.ndarray:
    """fisher_information for Poisson noise over background at object v."""
    return fisher_information(PoissonNoise(background), H, v)


def fisher_monte_carlo(model, H: SystemMatrix, v, n_samples: int,
                       seed: int = 0) -> np.ndarray:
    """Monte Carlo Fisher estimate: mean of score outer products.

    Samples come in chunks of MC_CHUNK, each drawn from its own generator
    seeded by one child of SeedSequence(seed). in_order runs the chunks on
    monte_carlo_workers(n_samples) threads at one BLAS thread, at most
    2 * workers of them queued or done but not yet added (NumPy releases
    the GIL in the draws and the score-weight ufuncs; SciPy's BLAS wrappers
    hold it, so the workers' products take turns), and the main thread adds
    their S^T S partials, each built by forward_model.gram, in chunk order.
    So the result depends only on (model, H, v, n_samples, seed), bitwise,
    whatever the worker or BLAS thread count, and it is exactly symmetric.

    The draws come from model.sampler(mean), built once here and shared by
    the workers read-only. For Poisson that is noise.PoissonTables: per-pixel
    CDF tables with a guide table, inverted with one rng.random double per
    count (about a quarter of rng.poisson's time at the rates verify draws),
    unless the tables would exceed GRAM_BLOCK_BYTES; then rng.poisson draws.

    Memory is bounded whatever n_samples is: a worker draws and projects its
    chunk in row blocks of at most GRAM_BLOCK_BYTES of measurements (one
    row if a row is larger), and holds at most four block-sized arrays at
    once: the draws, their score weights and two ufunc temporaries (with
    Poisson tables two: the uniforms, which become the counts in place,
    beside first their guide bins and then the score weights). Beyond its
    d x d partials the call allocates less than workers * 4 *
    GRAM_BLOCK_BYTES, the Poisson tables (at most GRAM_BLOCK_BYTES) included.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    # the workers' adjoint reads H's dense matrix: build and cache it here,
    # on the calling thread, so they share one copy
    build_matrix(H)
    mean = mean_measurement(model, H, v)
    draw = model.sampler(mean)
    # spawned one at a time, the children are those of spawn(n_chunks), and
    # no per-chunk object outlives its chunk
    ss = np.random.SeedSequence(seed)
    chunks = (partial(_chunk_gram, model, H, mean, draw, ss.spawn(1)[0],
                      min(MC_CHUNK, n_samples - start))
              for start in range(0, n_samples, MC_CHUNK))
    workers = monte_carlo_workers(n_samples)
    J = np.zeros((H.d, H.d), order="F")
    for part in in_order(ThreadPoolExecutor(workers), chunks, 2 * workers):
        J += part
    J /= n_samples
    return J


def monte_carlo_workers(n_samples: int) -> int:
    """Threads fisher_monte_carlo uses: the usable CPUs, at most one per chunk."""
    return min(cpu_count(), -(-n_samples // MC_CHUNK))


def in_order(pool, jobs, window: int):
    """Run the zero-argument jobs on the executor pool at one BLAS thread
    (forward_model.one_blas_thread) and yield their results in job order.

    At most window jobs are submitted but not yet taken. The pool is shut
    down, its queued jobs cancelled and its workers joined, when the jobs
    are done, at the first failing job (whose error is raised) and when the
    caller stops early. A fork_pool starts its workers at the first submit,
    so they fork at one BLAS thread too. A pool of None runs each job in
    the calling thread as its result is taken.
    """
    with one_blas_thread():
        if pool is None:
            for job in jobs:
                yield job()
            return
        try:
            pending = deque()
            for job in jobs:
                pending.append(pool.submit(job))
                if len(pending) == window:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)


def fork_pool(workers: int, initializer=None, initargs=()) -> ProcessPoolExecutor:
    """The package's one pool of worker processes, for in_order: workers
    processes forked from this one, since SciPy's BLAS wrappers hold the
    GIL. Forked, they share the parent's imports and arrays, and
    initializer(*initargs) runs in each worker on objects it inherits, not
    on pickled copies, so a job carries only its own arguments."""
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=initializer, initargs=initargs)


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity mask on this platform
        return os.cpu_count() or 1


def _chunk_gram(model, H: SystemMatrix, mean, draw, seed_seq, m: int) -> np.ndarray:
    """S^T S over m samples from one seed chunk, drawn by draw(rng, shape)
    in row blocks of at most GRAM_BLOCK_BYTES of measurements; a
    generator's draws split into blocks are the draws of one call."""
    rng = np.random.default_rng(seed_seq)
    rows = max(1, GRAM_BLOCK_BYTES // (8 * H.k))

    def block(n):
        # adjoint returns the row-major H^T W^T, so S = W H is column-major
        # and dsyrk reads it without a copy
        return adjoint(H, model.score_weights(draw(rng, (n, H.k)), mean).T).T

    return gram(((0, block(min(rows, m - start))) for start in range(0, m, rows)), H.d)


def diagonal_load(A: np.ndarray, epsilon_rel: float = EPSILON_REL) -> float:
    """The diagonal load eps = epsilon_rel * max(diag(A)) of the symmetric A.

    An epsilon_rel of 1 or more is a ValueError: then eps >= max(diag(A)),
    so every loaded bound is at most 1/eps <= 1 / max(diag(A)), while every
    exact bound is at least 1 / A_ii; the load, not A, would set the map.
    """
    check_parameter("epsilon_rel", epsilon_rel, allow_zero=True)
    if epsilon_rel >= 1:
        raise ValueError(f"epsilon_rel must be below 1, got {epsilon_rel!r}")
    return epsilon_rel * float(np.max(np.diag(A)))


def cho_factor(a, lower=True, overwrite_a=False):
    """(c, lower) of scipy.linalg.cho_factor(a, lower, overwrite_a), bit for
    bit, on LAPACK's dpotrf in float64: c holds the Cholesky factor in its
    lower (or upper) triangle and a's entries in the other. The whole of a
    is checked finite first (ValueError), and LinAlgError, NumPy's class
    that SciPy raises too, says a is not positive definite."""
    c, info = lapack.dpotrf(np.asarray_chkfinite(a), lower=lower, clean=0,
                            overwrite_a=overwrite_a)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c, lower


def cho_solve(c_and_lower, b):
    """x solving A x = b for the (c, lower) cho_factor gives of A, bit for
    bit scipy.linalg.cho_solve's, on LAPACK's dpotrs; b is (d,) or (d, n).
    Both arrays are checked finite first (ValueError)."""
    c, lower = c_and_lower
    x, info = lapack.dpotrs(np.asarray_chkfinite(c), np.asarray_chkfinite(b), lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def loaded_cholesky(A: np.ndarray, eps: float):
    """Cholesky factor of the symmetric matrix A + eps*I, as cho_factor gives it.

    A is loaded and factored in place (a column-major float A is not
    copied): the factor is A's lower triangle, and A's entries above the
    diagonal stay as they were. Raises FactorizationError when A + eps*I is
    not positive definite.
    """
    A[np.diag_indices_from(A)] += eps
    try:
        return cho_factor(A, lower=True, overwrite_a=True)
    except LinAlgError as exc:
        raise FactorizationError(eps, f"Cholesky of A + eps*I failed (eps={eps!r}): {exc}")


def crb_from_fisher(J: np.ndarray, epsilon_rel: float = EPSILON_REL, *,
                    object_shape) -> CrbMap:
    """diag((J + eps*I)^-1), eps = diagonal_load(J, epsilon_rel), laid out on
    the (height, width) object_shape, of a caller-held J; the eps used is
    recorded. J must be symmetric; its values are read from its lower
    triangle alone, and J is left unchanged. DimensionError unless J is
    square with one row per pixel of object_shape.

    The working array is one column-major copy of J's lower triangle, which
    _inverse_diagonal factors whole and inverts in place; its zeros above
    the diagonal keep cho_factor's finiteness check off J's upper triangle.
    bound computes the map of a noise model, H and an object, and factors a
    Gaussian J as two half blocks.
    """
    h, w = int(object_shape[0]), int(object_shape[1])
    J = np.asarray(J, dtype=float)
    if J.shape != (h * w, h * w):
        raise DimensionError(f"object shape {(h, w)} does not match J of shape {J.shape}")
    eps = diagonal_load(J, epsilon_rel)
    return CrbMap(_inverse_diagonal(np.triu(J.T).T, eps), eps, (h, w))


def _inverse_diagonal(A: np.ndarray, eps: float) -> np.ndarray:
    """diag((A + eps*I)^-1) of the symmetric A, read from its lower
    triangle: A is loaded and factored in place (A + eps*I = L L^T; a
    column-major A is not copied), dtrtri inverts L in place, and the
    diagonal holds the squared column norms of L^-1. Neither call writes
    above the diagonal, where A's own entries stay, so that triangle is
    zeroed in place, through a boolean mask, before the norms are taken."""
    L, _lower_flag = loaded_cholesky(A, eps)
    Linv, info = lapack.dtrtri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise FactorizationError(eps, f"triangular inverse failed (info={info})")
    Linv[np.tri(len(Linv), k=-1, dtype=bool).T] = 0.0
    return np.einsum("ij,ij->j", Linv, Linv)
