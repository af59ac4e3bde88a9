"""Fisher information matrices and Cramér-Rao bound extraction.

Closed forms:

* Gaussian: J = H^T H / sigma2 (object-independent).
* Poisson:  J = H^T diag(1 / (H v + background)) H.

Every Fisher matrix is a plain (d, d) symmetric PSD array. A Monte Carlo
estimator built from sampled score outer products serves as an independent
oracle for both closed forms. The CRB is the diagonal of the inverse Fisher
matrix, computed through a Cholesky factorization J + eps*I = L L^T with
eps = epsilon_rel * max(diag(J)), so Gaussian and Poisson scales both
behave: diag((L L^T)^-1) holds the squared column norms of L^-1.
"""

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
# cho_solve pairs with loaded_cholesky; the GLS solver calls it as fisher.cho_solve
from scipy.linalg import LinAlgError, cho_factor, cho_solve, lapack  # noqa: F401

from .errors import DimensionError, FactorizationError, SingularRateError
from .forward_model import SystemMatrix, adjoint, forward, one_blas_thread, weighted_gram

MC_CHUNK = 20_000           # Monte Carlo samples per seed chunk
MC_BLOCK_BYTES = 8 << 20    # draws one Monte Carlo worker holds at a time
EPSILON_REL = 1e-9    # default diagonal loading, relative to max(diag(J))


def check_parameter(name: str, value: float, allow_zero: bool = False) -> None:
    """Raise ValueError unless value is finite and positive (or zero, if allowed).

    An infinite variance or background would give J = 0, whose reported
    bound is the artefact 1/eps of the diagonal loading; a negative or
    non-finite eps would report no bound at all.
    """
    if not (np.isfinite(value) and (value > 0 or (allow_zero and value == 0))):
        bound = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


@dataclass(frozen=True)
class CrbMap:
    """Per-object-pixel lower bounds on unbiased estimator variance (photons^2)."""

    values: np.ndarray            # 1-D, length d, >= 0
    epsilon_used: float
    object_shape: tuple[int, int]

    def grid(self) -> np.ndarray:
        return self.values.reshape(self.object_shape)


def fisher_gaussian(H: SystemMatrix, sigma2: float) -> np.ndarray:
    """Closed-form Fisher matrix for i.i.d. Gaussian noise."""
    check_parameter("sigma2", sigma2)
    return weighted_gram(H, 1.0 / sigma2)


def fisher_poisson(H: SystemMatrix, v, background: float = 0.0) -> np.ndarray:
    """Closed-form Fisher matrix for Poisson noise at object v."""
    check_parameter("background", background, allow_zero=True)
    rate = forward(H, v) + background
    if np.any(rate <= 0):
        raise SingularRateError(int(np.argmax(rate <= 0)))
    return weighted_gram(H, 1.0 / rate)


def fisher_monte_carlo(model, H: SystemMatrix, v, n_samples: int,
                       seed: int = 0) -> np.ndarray:
    """Monte Carlo Fisher estimate: mean of score outer products.

    Samples come in chunks of MC_CHUNK, each drawn from its own generator
    seeded by one child of SeedSequence(seed). The chunks run on
    monte_carlo_workers(n_samples) threads (NumPy releases the GIL in the
    draws, the score-weight ufuncs and the BLAS products), and the main
    thread adds their S^T S partials in chunk order. The workers' BLAS calls
    run at one BLAS thread (forward_model.one_blas_thread). So the result
    depends only on (model, H, v, n_samples, seed), bitwise, whatever the
    worker or BLAS thread count; each partial is exactly symmetric, and so
    is the sum.

    Memory is bounded whatever n_samples is: a worker draws and projects its
    chunk in row blocks of at most MC_BLOCK_BYTES of measurements (one row
    if a row is larger), and holds at most four block-sized arrays at once
    (the draws, their score weights and two ufunc temporaries). Beyond its
    d x d partials the call allocates less than
    workers * 4 * MC_BLOCK_BYTES.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    # forward builds H's cached dense matrix here, before any worker reads it
    mean = forward(H, v) + model.background
    # spawned one at a time, the children are those of spawn(n_chunks), and
    # no per-chunk object outlives its chunk
    ss = np.random.SeedSequence(seed)
    chunks = (partial(_chunk_gram, model, H, mean, ss.spawn(1)[0],
                      min(MC_CHUNK, n_samples - start))
              for start in range(0, n_samples, MC_CHUNK))
    workers = monte_carlo_workers(n_samples)
    J = np.zeros((H.d, H.d))
    # at most 2 * workers chunks are queued or done but not yet added; one
    # BLAS thread per worker leaves every CPU to the draws
    with one_blas_thread():
        pool = ThreadPoolExecutor(workers)
        try:
            pending = deque()
            for chunk in chunks:
                pending.append(pool.submit(chunk))
                if len(pending) == 2 * workers:
                    J += pending.popleft().result()
            while pending:
                J += pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)
    J /= n_samples
    return J


def monte_carlo_workers(n_samples: int) -> int:
    """Threads fisher_monte_carlo uses: the usable CPUs, at most one per chunk."""
    return min(cpu_count(), -(-n_samples // MC_CHUNK))


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity mask on this platform
        return os.cpu_count() or 1


def _chunk_gram(model, H: SystemMatrix, mean, seed_seq, m: int) -> np.ndarray:
    """S^T S over m samples from one seed chunk, in row blocks of at most
    MC_BLOCK_BYTES; a generator's draws split into blocks are the draws of
    one call."""
    rng = np.random.default_rng(seed_seq)
    rows = max(1, MC_BLOCK_BYTES // (8 * H.k))
    G = np.zeros((H.d, H.d))
    for start in range(0, m, rows):
        Y = model.draw(rng, mean, (min(rows, m - start), H.k))
        S = adjoint(H, model.score_weights(Y, mean).T).T
        G += S.T @ S
    return G


def loaded_cholesky(A: np.ndarray, epsilon_rel: float = EPSILON_REL):
    """Cholesky factor of the symmetric matrix A + eps*I, and the eps used.

    eps = epsilon_rel * max(diag(A)); A is loaded in place. Raises
    FactorizationError when A + eps*I is not positive definite.
    """
    check_parameter("epsilon_rel", epsilon_rel, allow_zero=True)
    eps = epsilon_rel * float(np.max(np.diag(A)))
    A[np.diag_indices_from(A)] += eps
    try:
        return cho_factor(A, lower=True), eps
    except LinAlgError as exc:
        raise FactorizationError(eps, f"Cholesky of A + eps*I failed (eps={eps!r}): {exc}")


def crb_from_fisher(J: np.ndarray, epsilon_rel: float = EPSILON_REL, *,
                    object_shape) -> CrbMap:
    """diag((J + eps*I)^-1) via Cholesky and a triangular inverse, laid out on
    the (height, width) object_shape; the epsilon actually used is recorded.
    J itself is left unchanged; DimensionError unless object_shape has one
    pixel per row of J."""
    h, w = int(object_shape[0]), int(object_shape[1])
    if h * w != len(J):
        raise DimensionError(f"object shape {(h, w)} does not match J of size {len(J)}")
    (c, _lower), eps = loaded_cholesky(np.array(J, dtype=float), epsilon_rel)
    # cho_factor leaves the entries of A above the diagonal of c; triu of the
    # transpose zeroes them and keeps c column-major, so dtrtri copies nothing
    Linv, info = lapack.dtrtri(np.triu(c.T).T, lower=1, overwrite_c=1)
    if info != 0:
        raise FactorizationError(eps, f"triangular inverse failed (info={info})")
    values = np.einsum("ij,ij->j", Linv, Linv)
    return CrbMap(values=values, epsilon_used=eps, object_shape=(h, w))


def crb_summary(cmap: CrbMap) -> dict:
    """Summary statistics plus the central-row cross-section of the CRB map."""
    grid = cmap.grid()
    return {
        "mean": float(np.mean(grid)),
        "median": float(np.median(grid)),
        "max": float(np.max(grid)),
        "cross_section": grid[grid.shape[0] // 2].copy(),
    }
