import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from lensless_crb import (
    DimensionError,
    FactorizationError,
    GaussianNoise,
    PoissonNoise,
    SingularRateError,
    bound,
    build_system_matrix,
    crb_from_fisher,
    fisher_information,
    fisher_monte_carlo,
    fisher_poisson,
    forward,
    generate_psf,
    hessian_log_likelihood,
    sample,
    score,
    vectorize,
)
from lensless_crb import cli, fisher, noise
from lensless_crb.fisher import MC_CHUNK, fisher_gaussian
from lensless_crb.forward_model import GRAM_BLOCK_BYTES, weighted_gram
from lensless_crb.oracles import relative_error
from lensless_crb.psf import Diffuser, Lenslets, PsfSpec, Rml
from conftest import assert_same_bits, one_working_array_bound, traced_peak_bytes


def triple_loop_weighted_gram(M, w):
    """Naive O(k d^2) evaluation of M^T diag(w) M."""
    k, d = M.shape
    J = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            for l in range(k):
                J[i, j] += M[l, i] * w[l] * M[l, j]
    return J


class TestFisherGaussian:
    def test_identity_diagonal(self):
        H = build_system_matrix(np.ones((1, 1)), (2, 2))
        J = fisher_gaussian(H, 2.0)
        np.testing.assert_allclose(J, 0.5 * np.eye(4))

    def test_matches_triple_loop_oracle(self):
        H = build_system_matrix(np.ones((2, 2)), (2, 2), (2, 2))
        J = fisher_gaussian(H, 1.7)
        expected = triple_loop_weighted_gram(H.matrix, np.full(H.k, 1 / 1.7))
        np.testing.assert_allclose(J, expected, rtol=1e-12)

    def test_variance_scaling_exact(self, small_lenslet_h):
        J1 = fisher_gaussian(small_lenslet_h, 1.0)
        J2 = fisher_gaussian(small_lenslet_h, 2.0)
        np.testing.assert_array_equal(J2, 0.5 * J1)

    @pytest.mark.parametrize("sigma2", [0.0, np.inf, np.nan, 1e-320])
    def test_bad_variance_rejected(self, small_lenslet_h, sigma2):
        with pytest.raises(ValueError):
            fisher_gaussian(small_lenslet_h, sigma2)

    def test_object_independent(self, small_lenslet_h):
        # the closed form takes no object at all; repeated calls are identical
        a = fisher_gaussian(small_lenslet_h, 1.0)
        b = fisher_gaussian(small_lenslet_h, 1.0)
        np.testing.assert_array_equal(a, b)


class TestFisherPoisson:
    def test_identity_diagonal(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 2))
        J = fisher_poisson(H, np.array([4.0, 9.0]), 0.0)
        np.testing.assert_allclose(J, np.diag([0.25, 1 / 9]))

    def test_brightness_scaling(self, unpadded_lenslet_h):
        rng = np.random.default_rng(0)
        v = rng.uniform(0.5, 2.0, size=unpadded_lenslet_h.d)
        J1 = fisher_poisson(unpadded_lenslet_h, v, 0.0)
        J3 = fisher_poisson(unpadded_lenslet_h, 3.0 * v, 0.0)
        np.testing.assert_allclose(J3, J1 / 3.0, rtol=1e-12)

    def test_matches_triple_loop_oracle(self):
        psf = np.zeros((3, 3))
        psf[0, 1] = 0.6
        psf[2, 2] = 0.4
        H = build_system_matrix(psf, (3, 3), (3, 3))
        rng = np.random.default_rng(1)
        v = rng.uniform(0.5, 3.0, size=9)
        beta = 0.01
        J = fisher_poisson(H, v, beta)
        w = 1.0 / (H.matrix @ v + beta)
        np.testing.assert_allclose(J,
                                   triple_loop_weighted_gram(H.matrix, w),
                                   rtol=1e-12)

    @pytest.mark.parametrize("background", [-1.0, np.inf, np.nan, 1e-320])
    def test_bad_background_rejected(self, unpadded_lenslet_h, background):
        with pytest.raises(ValueError):
            fisher_poisson(unpadded_lenslet_h, np.ones(unpadded_lenslet_h.d), background)

    def test_exactly_symmetric(self):
        from lensless_crb import DenseCells, ObjectSpec, generate_object
        from lensless_crb.psf import Rml

        psf = generate_psf(PsfSpec(Rml(), (16, 16), 1))
        obj = generate_object(ObjectSpec(DenseCells(), (16, 16), 100.0, 1))
        J = fisher_poisson(build_system_matrix(psf, obj.shape, (18, 18)),
                           vectorize(obj), 1e-3)
        assert np.array_equal(J, J.T)

    def test_zero_rate_rejected(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 2))
        with pytest.raises(SingularRateError):
            fisher_poisson(H, np.array([0.0, 1.0]), 0.0)


class TestFisherInformation:
    @pytest.mark.parametrize("beta", [1e2, 1e4, 1e6])
    def test_poisson_tends_to_unit_gaussian_at_large_background(self, small_lenslet_h, beta):
        # beta / (Hv + beta) = 1 - Hv / (Hv + beta) and H >= 0, so
        # beta * J_Poisson lies within max(Hv) / beta of H^T H, the Gaussian
        # Fisher matrix at sigma2 = 1, in relative Frobenius norm
        H = small_lenslet_h
        v = np.random.default_rng(8).uniform(0.5, 2.0, size=H.d)
        poisson = beta * fisher_information(PoissonNoise(beta), H, v)
        gaussian = fisher_information(GaussianNoise(1.0), H)
        err = relative_error(poisson, gaussian)
        assert 0 < err <= np.max(forward(H, v)) / beta

    def test_gaussian_needs_no_object(self, small_lenslet_h):
        v = np.ones(small_lenslet_h.d)
        np.testing.assert_array_equal(
            fisher_information(GaussianNoise(2.0), small_lenslet_h, v),
            fisher_information(GaussianNoise(2.0), small_lenslet_h))

    def test_poisson_without_object_raises(self, small_lenslet_h):
        with pytest.raises(DimensionError):
            fisher_information(PoissonNoise(1e-3), small_lenslet_h)


class TestFisherMonteCarlo:
    def test_gaussian_matches_closed_form(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 2))
        J = fisher_monte_carlo(GaussianNoise(1.0), H, np.ones(2), 200_000, seed=0)
        np.testing.assert_allclose(J, np.eye(2), atol=0.03)

    def test_poisson_matches_closed_form(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 1))
        J = fisher_monte_carlo(PoissonNoise(0.0), H, np.array([100.0]), 200_000,
                               seed=1)
        assert J[0, 0] == pytest.approx(0.01, rel=0.03)

    def test_single_sample_is_score_outer_product(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 2))
        model = GaussianNoise(1.0)
        v = np.array([1.0, 2.0])
        J = fisher_monte_carlo(model, H, v, 1, seed=5)
        # replicate the sampler's seed path to recover the single draw
        child = np.random.SeedSequence(5).spawn(1)[0]
        noise = np.random.default_rng(child).normal(0, 1.0, size=(1, H.k))
        s = score(model, H, v, forward(H, v) + noise[0])
        np.testing.assert_allclose(J, np.outer(s, s), rtol=1e-12)

    @pytest.mark.parametrize("model", [GaussianNoise(1.0), PoissonNoise(1e-3)])
    def test_oracle_equivalence_small_instance(self, model, small_lenslet_h):
        rng = np.random.default_rng(2)
        v = rng.uniform(0.5, 2.0, size=small_lenslet_h.d)
        closed = fisher_information(model, small_lenslet_h, v)
        mc = fisher_monte_carlo(model, small_lenslet_h, v, 200_000, seed=3)
        assert relative_error(mc, closed) < 0.05

    def test_invariants(self, small_lenslet_h):
        mc = fisher_monte_carlo(GaussianNoise(1.0), small_lenslet_h,
                                np.ones(small_lenslet_h.d), 5000, seed=4)
        assert np.array_equal(mc, mc.T)
        assert np.linalg.eigvalsh(mc).min() >= -1e-8

    def test_exactly_symmetric_across_chunks(self, small_lenslet_h):
        # a sum of S^T S chunks needs no symmetrizing step
        v = np.ones(small_lenslet_h.d)
        mc = fisher_monte_carlo(PoissonNoise(1e-3), small_lenslet_h, v,
                                MC_CHUNK + 10, seed=8)
        assert np.array_equal(mc, mc.T)


def serial_monte_carlo(model, H, v, n_samples, seed):
    """Monte Carlo Fisher with whole-chunk draws from the model's sampler,
    summed one chunk after another."""
    mean = forward(H, v) + model.background
    draw = model.sampler(mean)
    n_chunks = -(-n_samples // MC_CHUNK)
    J = np.zeros((H.d, H.d))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        m = min(MC_CHUNK, n_samples - i * MC_CHUNK)
        Y = draw(np.random.default_rng(child), (m, H.k))
        S = model.score_weights(Y, mean) @ H.matrix
        J += S.T @ S
    return J / n_samples


class _ChunkError(RuntimeError):
    pass


class FailingModel:
    """Stub noise model whose score weights fail in the second seed chunk."""

    background = 0.0

    def sampler(self, mean):
        # the last entry of a spawned child's key is its chunk index
        return lambda rng, shape: np.full(shape,
                                          float(rng.bit_generator.seed_seq.spawn_key[-1]))

    def score_weights(self, y, mean):
        if y[0, 0] == 1.0:
            raise _ChunkError("chunk 2")
        return y - mean


class FakePool:
    """An executor that runs a job when its result is taken, and records how
    many jobs were ever submitted but not yet taken, and its shutdowns."""

    class Future:
        def __init__(self, pool, job):
            self.pool, self.job, self.cancelled = pool, job, False

        def result(self):
            self.pool.taken.append(self)
            return self.job()

    def __init__(self):
        self.futures, self.taken, self.shutdowns, self.most_untaken = [], [], [], 0

    def submit(self, job):
        self.futures.append(self.Future(self, job))
        self.most_untaken = max(self.most_untaken, len(self.futures) - len(self.taken))
        return self.futures[-1]

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))
        for future in self.futures:
            future.cancelled |= cancel_futures and future not in self.taken

    def queued(self):
        return [f for f in self.futures if f not in self.taken]


class TestInOrder:
    """fisher.in_order runs jobs on a pool in a bounded window, in order."""

    def test_window_order_and_shutdown(self):
        pool = FakePool()
        jobs = [lambda i=i: i * i for i in range(10)]
        assert list(fisher.in_order(pool, iter(jobs), 3)) == [i * i for i in range(10)]
        assert pool.most_untaken == 3
        assert pool.shutdowns == [(True, True)]

    def test_failing_job_cancels_the_queued_ones(self):
        pool = FakePool()

        def fail():
            raise _ChunkError

        jobs = [lambda: 0, lambda: 1, fail] + [lambda: 3] * 7
        results = fisher.in_order(pool, iter(jobs), 4)
        with pytest.raises(_ChunkError):
            for _ in results:
                pass
        assert len(pool.futures) == 6   # the jobs after the window were never submitted
        assert pool.queued() and all(f.cancelled for f in pool.queued())
        assert pool.shutdowns == [(True, True)]

    def test_stopping_early_shuts_the_pool_down(self):
        pool = FakePool()
        results = fisher.in_order(pool, iter([lambda: 1] * 10), 4)
        assert [next(results), next(results)] == [1, 1]
        assert pool.shutdowns == []
        results.close()
        assert pool.queued() and all(f.cancelled for f in pool.queued())
        assert pool.shutdowns == [(True, True)]

    def test_jobs_run_at_one_blas_thread(self, blas_threads_at_two):
        if blas_threads_at_two is None:
            pytest.skip("SciPy's OpenBLAS was not found")
        seen = list(fisher.in_order(FakePool(), [blas_threads_at_two] * 3, 2))
        assert seen == [1, 1, 1]
        assert blas_threads_at_two() == 2


class TestMonteCarloChunks:
    """fisher_monte_carlo runs its seed chunks on a thread pool."""

    N = 2 * MC_CHUNK + 123    # three chunks, the last a short one

    @pytest.mark.parametrize("model", [GaussianNoise(1.0), PoissonNoise(1e-3)])
    def test_bitwise_equal_across_worker_counts(self, model, small_lenslet_h,
                                                monkeypatch):
        v = np.linspace(1.0, 40.0, small_lenslet_h.d)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # more thread switches, more interleavings
        try:
            for workers in (1, 2, 3, 3):
                monkeypatch.setattr(fisher, "cpu_count", lambda w=workers: w)
                results.append(fisher_monte_carlo(model, small_lenslet_h, v, self.N,
                                                  seed=9))
        finally:
            sys.setswitchinterval(interval)
        for J in results[1:]:
            np.testing.assert_array_equal(J, results[0])

    def test_rng_poisson_path_bitwise_equal_across_worker_counts(self, small_lenslet_h,
                                                                 monkeypatch):
        # rates whose tables would exceed GRAM_BLOCK_BYTES draw with
        # rng.poisson, and still give the same J at every worker count
        model, v = PoissonNoise(1e-3), np.linspace(1.0, 40.0, small_lenslet_h.d) * 400.0
        assert noise.table_bytes(forward(small_lenslet_h, v) + model.background) == 0
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(fisher, "cpu_count", lambda w=workers: w)
            results.append(fisher_monte_carlo(model, small_lenslet_h, v, self.N, seed=9))
        for J in results[1:]:
            np.testing.assert_array_equal(J, results[0])
        reference = serial_monte_carlo(model, small_lenslet_h, v, self.N, seed=9)
        assert relative_error(results[0], reference) < 1e-13

    def test_poisson_tables_built_once_on_the_calling_thread(self, small_lenslet_h,
                                                             monkeypatch):
        built = []
        tables = noise.PoissonTables.__init__

        def recording(self, mean):
            built.append(threading.get_ident())
            tables(self, mean)

        monkeypatch.setattr(noise.PoissonTables, "__init__", recording)
        monkeypatch.setattr(fisher, "cpu_count", lambda: 3)
        fisher_monte_carlo(PoissonNoise(1e-3), small_lenslet_h,
                           np.linspace(1.0, 40.0, small_lenslet_h.d), self.N, seed=9)
        assert built == [threading.get_ident()]

    def test_dense_matrix_built_once_on_the_calling_thread(self, small_lenslet_h,
                                                           monkeypatch, dense_builds):
        # the workers' adjoint reads H's dense matrix, and one object's
        # forward no longer builds it: fisher_monte_carlo builds it before
        # the pool starts, so a fresh H gives the same J at every worker count
        model, v = PoissonNoise(1e-3), np.linspace(1.0, 40.0, small_lenslet_h.d)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(fisher, "cpu_count", lambda w=workers: w)
            H = build_system_matrix(small_lenslet_h.psf, small_lenslet_h.obj_shape)
            results.append(fisher_monte_carlo(model, H, v, self.N, seed=9))
        assert dense_builds() == [(os.getpid(), threading.get_ident())] * 3
        for J in results[1:]:
            np.testing.assert_array_equal(J, results[0])

    @pytest.mark.parametrize("model", [GaussianNoise(1.0), PoissonNoise(1e-3)])
    def test_matches_serial_whole_chunk_reference(self, model, small_lenslet_h):
        # k = 289 splits each chunk into row blocks, so the draws of one
        # chunk come from several generator calls
        assert GRAM_BLOCK_BYTES // (8 * small_lenslet_h.k) < MC_CHUNK
        v = np.linspace(1.0, 40.0, small_lenslet_h.d)
        J = fisher_monte_carlo(model, small_lenslet_h, v, self.N, seed=10)
        reference = serial_monte_carlo(model, small_lenslet_h, v, self.N, seed=10)
        assert relative_error(J, reference) < 1e-13
        assert np.array_equal(J, J.T)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_chunk_exception_reaches_caller(self, workers, monkeypatch,
                                            blas_threads_at_two):
        monkeypatch.setattr(fisher, "cpu_count", lambda: workers)
        H = build_system_matrix(np.ones((1, 1)), (1, 2))
        threads = threading.active_count()
        with pytest.raises(_ChunkError):
            fisher_monte_carlo(FailingModel(), H, np.ones(2), 3 * MC_CHUNK, seed=0)
        assert threading.active_count() == threads
        if blas_threads_at_two is not None:
            assert blas_threads_at_two() == 2

    def test_draws_run_at_one_blas_thread_and_counts_restored(
            self, small_lenslet_h, blas_threads_at_two):
        if blas_threads_at_two is None:
            pytest.skip("SciPy's OpenBLAS was not found")
        seen = []

        class Recording(GaussianNoise):
            def draw(self, rng, mean, shape):
                seen.append(blas_threads_at_two())
                return super().draw(rng, mean, shape)

        fisher_monte_carlo(Recording(1.0), small_lenslet_h,
                           np.ones(small_lenslet_h.d), 2 * MC_CHUNK, seed=0)
        assert seen and all(count == 1 for count in seen)
        assert blas_threads_at_two() == 2

    def test_memory_bounded_in_sample_count(self, small_lenslet_h, monkeypatch):
        H = small_lenslet_h
        model = PoissonNoise(1e-3)   # its draws and weights need the most temporaries
        v = np.linspace(1.0, 40.0, H.d)

        def peak_bytes(n_samples):
            return traced_peak_bytes(
                lambda: fisher_monte_carlo(model, H, v, n_samples, seed=11))[1]

        # one worker makes the allocation sequence, and so the peak, repeatable;
        # the slack covers allocator bookkeeping, not a chunk's draws
        monkeypatch.setattr(fisher, "cpu_count", lambda: 1)
        peak_bytes(1)
        assert peak_bytes(4 * MC_CHUNK) <= peak_bytes(2 * MC_CHUNK) + (64 << 10)
        # the docstring's bound, with every worker busy
        workers = 3
        monkeypatch.setattr(fisher, "cpu_count", lambda: workers)
        assert fisher.monte_carlo_workers(4 * MC_CHUNK) == workers
        assert peak_bytes(4 * MC_CHUNK) < workers * 4 * GRAM_BLOCK_BYTES


def test_monte_carlo_bitwise_independent_of_blas_threads():
    # the 8x8 lenslets3 operator over three seed chunks, in fresh processes
    # at one and at two OpenBLAS threads
    code = (
        "import hashlib, numpy as np\n"
        "from lensless_crb import GaussianNoise, PoissonNoise, build_system_matrix, "
        "fisher_monte_carlo, generate_psf\n"
        "from lensless_crb.psf import Lenslets, PsfSpec\n"
        "H = build_system_matrix(generate_psf(PsfSpec(Lenslets(3), (8, 8), 0)), "
        "(8, 8), (10, 10))\n"
        "v = np.linspace(1.0, 40.0, H.d)\n"
        "for model in (GaussianNoise(1.0), PoissonNoise(1e-3)):\n"
        f"    J = fisher_monte_carlo(model, H, v, {TestMonteCarloChunks.N}, seed=9)\n"
        "    print(hashlib.sha256(J.tobytes()).hexdigest())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        outputs.append(out.stdout.split())
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


class TestHessianAverageEquivalence:
    def test_gaussian_exact_with_one_sample(self, small_lenslet_h):
        H = small_lenslet_h
        v = np.ones(H.d)
        model = GaussianNoise(1.5)
        y = sample(model, forward(H, v), seed=0)
        neg_hess = -hessian_log_likelihood(model, H, v, y)
        np.testing.assert_allclose(neg_hess, fisher_gaussian(H, 1.5),
                                   rtol=1e-12)

    def test_poisson_sample_average(self, small_lenslet_h):
        H = small_lenslet_h
        rng = np.random.default_rng(6)
        v = rng.uniform(0.5, 2.0, size=H.d)
        model = PoissonNoise(1e-3)
        b = forward(H, v) + model.background
        # the Hessian is linear in y ...
        y1 = sample(model, forward(H, v), seed=1)
        y2 = sample(model, forward(H, v), seed=2)
        lhs = hessian_log_likelihood(model, H, v, y1) \
            + hessian_log_likelihood(model, H, v, y2)
        rhs = 2 * hessian_log_likelihood(model, H, v, (y1 + y2) / 2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)
        # ... so the sample average equals the Hessian at the sample-mean y
        n = 200_000
        rng2 = np.random.default_rng(7)
        y_bar = rng2.poisson(b, size=(n, H.k)).mean(axis=0)
        avg_neg_hess = -hessian_log_likelihood(model, H, v, y_bar)
        closed = fisher_poisson(H, v, model.background)
        assert relative_error(avg_neg_hess, closed) < 0.05


class TestCrb:
    def test_diagonal_inversion(self):
        J = np.diag([0.25, 1 / 9, 1.0, 4.0])
        cmap = crb_from_fisher(J, epsilon_rel=0.0, object_shape=(2, 2))
        np.testing.assert_allclose(cmap.values, [4.0, 9.0, 1.0, 0.25])
        assert cmap.epsilon_used == 0.0

    def test_fisher_matrix_left_unchanged(self, small_lenslet_h):
        J = fisher_gaussian(small_lenslet_h, 1.0)
        before = J.copy()
        crb_from_fisher(J, object_shape=small_lenslet_h.obj_shape)
        np.testing.assert_array_equal(J, before)

    def test_object_shape_must_match_fisher_size(self):
        with pytest.raises(DimensionError):
            crb_from_fisher(np.eye(4), object_shape=(3, 3))

    @pytest.mark.parametrize("J", [np.ones(4), np.ones((4, 3))])
    def test_fisher_matrix_must_be_square(self, J):
        # the working copy is J's lower triangle, which a vector would
        # broadcast into, so the shape is checked before any copy
        with pytest.raises(DimensionError):
            crb_from_fisher(J, object_shape=(2, 2))

    @pytest.mark.parametrize("model", [GaussianNoise(1.0), PoissonNoise(1e-3)],
                             ids=["gaussian-split", "poisson-whole"])
    def test_one_working_array(self, full_scale_lenslet_h, model):
        # one copy of J is loaded, factored and inverted in place; a
        # caller-held J is factored whole, whichever model formed it
        H = full_scale_lenslet_h
        J = fisher_information(model, H, np.linspace(1.0, 40.0, H.d))
        _, peak = traced_peak_bytes(lambda: crb_from_fisher(J, object_shape=H.obj_shape))
        assert peak <= one_working_array_bound(H.d)

    def test_no_information_raises(self):
        # eps scales with max(diag(J)), so J = 0 gets no loading and no bound
        with pytest.raises(FactorizationError):
            crb_from_fisher(np.zeros((2, 2)), object_shape=(1, 2))

    def test_matches_dense_inverse_on_rml_poisson(self):
        from lensless_crb import DenseCells, ObjectSpec, generate_object
        from lensless_crb.psf import Rml

        psf = generate_psf(PsfSpec(Rml(), (16, 16), 0))
        obj = generate_object(ObjectSpec(DenseCells(), (16, 16), 100.0, 0))
        H = build_system_matrix(psf, obj.shape, (18, 18))
        J = fisher_poisson(H, vectorize(obj), 1e-3)
        cmap = crb_from_fisher(J, object_shape=obj.shape)
        loaded = J + cmap.epsilon_used * np.eye(H.d)
        # cond(J) is about 2e7, so LU and Cholesky may differ near 2e7 * 2e-16
        np.testing.assert_allclose(cmap.values, np.diag(np.linalg.inv(loaded)),
                                   rtol=1e-8)

    @pytest.mark.parametrize("model", [GaussianNoise(1.0), PoissonNoise(1e-3)],
                             ids=["gaussian", "poisson"])
    def test_psf_pad_does_not_move_the_bound(self, model):
        # zero-padding the PSF adds only all-zero rows to H, which add
        # nothing to J: k and the cost change, J and the bound do not. J
        # moves in its last bits only (summation order), on the diffuser too;
        # the bound is compared on the lenslet encoder (cond J about 3e3),
        # since on the diffuser (about 1e5) those bits move the Gaussian
        # bound by 1.2e-12
        from lensless_crb import DenseCells, ObjectSpec, generate_object

        v = vectorize(generate_object(ObjectSpec(DenseCells(), (8, 8), 100.0, 0)))
        fishers = {kind: [fisher_information(model, build_system_matrix(
                              generate_psf(PsfSpec(kind, (8, 8), 0)), (8, 8), (8 + e, 8 + e)), v)
                          for e in (0, 2, 6)]
                   for kind in (Lenslets(3), Diffuser())}
        for unpadded, *padded in fishers.values():
            for J in padded:
                np.testing.assert_allclose(J, unpadded, rtol=0, atol=1e-15 * np.max(unpadded))
        unpadded, *padded = [crb_from_fisher(J, object_shape=(8, 8)).values
                             for J in fishers[Lenslets(3)]]
        for bound in padded:
            np.testing.assert_allclose(bound, unpadded, rtol=1e-12)

    def test_identity_gaussian_crb_is_sigma2(self):
        H = build_system_matrix(np.ones((1, 1)), (4, 4))
        cmap = crb_from_fisher(fisher_gaussian(H, 1.0), object_shape=H.obj_shape)
        np.testing.assert_allclose(cmap.values, 1.0, rtol=1e-6)

    def test_center_worse_than_corner_for_two_lenslets(self):
        psf = generate_psf(PsfSpec(Lenslets(2), (8, 8), 0))
        H = build_system_matrix(psf, (8, 8), (10, 10))
        grid = crb_from_fisher(fisher_gaussian(H, 1.0), object_shape=H.obj_shape).grid()
        assert grid[4, 4] > grid[0, 0]

    def test_sigma2_scaling_linear(self, small_lenslet_h):
        c = 3.5
        shape = small_lenslet_h.obj_shape
        crb1 = crb_from_fisher(fisher_gaussian(small_lenslet_h, 1.0), object_shape=shape)
        crbc = crb_from_fisher(fisher_gaussian(small_lenslet_h, c), object_shape=shape)
        np.testing.assert_allclose(crbc.values, c * crb1.values, rtol=1e-9)

    def test_brightness_scaling_linear(self, unpadded_lenslet_h):
        rng = np.random.default_rng(3)
        v = rng.uniform(0.5, 2.0, size=unpadded_lenslet_h.d)
        c = 4.0
        shape = unpadded_lenslet_h.obj_shape
        crb1 = crb_from_fisher(fisher_poisson(unpadded_lenslet_h, v, 0.0),
                               object_shape=shape)
        crbc = crb_from_fisher(fisher_poisson(unpadded_lenslet_h, c * v, 0.0),
                               object_shape=shape)
        np.testing.assert_allclose(crbc.values, c * crb1.values, rtol=1e-9)

    def test_epsilon_monotonicity(self, small_lenslet_h):
        J = fisher_gaussian(small_lenslet_h, 1.0)
        maps = [crb_from_fisher(J, epsilon_rel=r, object_shape=(8, 8)).values
                for r in (1e-9, 1e-6, 1e-3)]
        assert np.all(maps[1] <= maps[0] + 1e-12)
        assert np.all(maps[2] <= maps[1] + 1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"epsilon_rel": -0.5}, {"epsilon_rel": np.nan}, {"epsilon_rel": np.inf},
        {"epsilon_rel": 1.0}, {"epsilon_rel": 1e10}])
    def test_epsilon_policy_rejects_negative_or_non_finite(self, kwargs):
        # at epsilon_rel >= 1 the load, not J, would set every pixel's bound
        with pytest.raises(ValueError, match="epsilon_rel"):
            crb_from_fisher(np.eye(4), object_shape=(2, 2), **kwargs)

    def test_epsilon_recorded(self, small_lenslet_h):
        J = fisher_gaussian(small_lenslet_h, 1.0)
        cmap = crb_from_fisher(J, epsilon_rel=1e-6, object_shape=(8, 8))
        assert cmap.epsilon_used == pytest.approx(1e-6 * np.diag(J).max())


@pytest.fixture
def factored_sizes(monkeypatch):
    """The sizes of the matrices fisher.cho_factor factors during the test."""
    sizes = []
    factor = fisher.cho_factor

    def recording(A, **kwargs):
        sizes.append(len(A))
        return factor(A, **kwargs)

    monkeypatch.setattr(fisher, "cho_factor", recording)
    return sizes


def lenslet_h(object_shape):
    """H of the 8x8 lenslets3 PSF on an object of the given shape (unpadded;
    its Gaussian Fisher matrix has cond about 1e3)."""
    return build_system_matrix(generate_psf(PsfSpec(Lenslets(3), (8, 8), 0)), object_shape)


def lenslet_gaussian_fisher(object_shape):
    """The unit-variance Gaussian Fisher matrix of lenslet_h(object_shape)."""
    return fisher_gaussian(lenslet_h(object_shape), 1.0)


def split_sizes(d):
    """The sizes bound factors for scalar Fisher weights on d pixels: two
    halves for even d, J whole for odd d."""
    return [d // 2, d // 2] if d % 2 == 0 else [d]


class NoInformation:
    """A noise model whose scalar Fisher weight is 0, so its J is 0."""

    background = 0.0

    def fisher_weights(self, mean):
        return 0.0


class TestCentrosymmetricSplit:
    """bound picks its algorithm from the Fisher weights: scalar weights on
    an even number of pixels factor two half blocks of J, odd d or a weight
    vector factors J whole."""

    @pytest.mark.parametrize("make_h, shape", [
        (lenslet_h, (8, 8)),
        (lenslet_h, (3, 5)),
        (lambda shape: build_system_matrix(np.ones((1, 1)), shape), (3, 3)),
    ], ids=["gaussian-8x8", "gaussian-3x5", "identity-9"])
    @pytest.mark.parametrize("epsilon_rel", [fisher.EPSILON_REL, 0.0])
    def test_matches_dense_inverse(self, make_h, shape, epsilon_rel, factored_sizes):
        H = make_h(shape)
        J = fisher_gaussian(H, 1.0)
        cmap = bound(GaussianNoise(1.0), H, epsilon_rel=epsilon_rel)
        assert factored_sizes == split_sizes(H.d)
        assert cmap.epsilon_used == epsilon_rel * np.max(np.diag(J))
        loaded = J + cmap.epsilon_used * np.eye(H.d)
        np.testing.assert_allclose(cmap.values, np.diag(np.linalg.inv(loaded)), rtol=1e-8)

    def test_path_follows_the_symmetry(self, small_lenslet_h, factored_sizes):
        H, v = small_lenslet_h, np.linspace(1.0, 40.0, small_lenslet_h.d)
        bound(GaussianNoise(1.0), H)
        assert factored_sizes == [32, 32]
        factored_sizes.clear()
        bound(PoissonNoise(1e-3), H, v)
        assert factored_sizes == [64]

    @pytest.mark.parametrize("pad", [None, (34, 34)], ids=["unpadded", "pad-34"])
    @pytest.mark.parametrize("psf_name", list(cli.STUDY_PSFS))
    def test_every_study_psf_follows_the_symmetry(self, psf_name, pad, factored_sizes):
        # bound splits every Gaussian J on the premise that it equals its
        # point reflection bit for bit; a Gram that broke that by one ulp
        # would give a wrong split bound
        cfg = {**cli.DEFAULTS, "seed": 3, **cli.STUDY_PSFS[psf_name]}
        H = build_system_matrix(cli.make_psf_grid(cfg), (32, 32), pad)
        gaussian = cli.NOISE_MODELS["gaussian"](cfg)
        J = fisher_information(gaussian, H)
        assert np.array_equal(J, J[::-1, ::-1])
        bound(gaussian, H)
        assert factored_sizes == [512, 512]
        factored_sizes.clear()
        v = cli.make_object_grid({**cfg, "object_kind": "cells"}).ravel()
        bound(cli.NOISE_MODELS["poisson"](cfg), H, v)
        assert factored_sizes == [1024]

    @pytest.mark.parametrize("psf_name", list(cli.STUDY_PSFS))
    def test_matches_the_two_step_bound(self, psf_name):
        # bound is crb_from_fisher(fisher_information(...)) in one call: the
        # same bits where both factor J whole (Poisson), and the same map to
        # the rounding of the two factorizations where bound splits it
        cfg = {**cli.DEFAULTS, "seed": 3, **cli.STUDY_PSFS[psf_name]}
        H = build_system_matrix(cli.make_psf_grid(cfg), (32, 32))
        v = cli.make_object_grid({**cfg, "object_kind": "cells"}).ravel()
        for label, rtol in (("poisson", 0.0), ("gaussian", 1e-10)):
            model = cli.NOISE_MODELS[label](cfg)
            one = bound(model, H, v)
            two = crb_from_fisher(fisher_information(model, H, v), object_shape=(32, 32))
            assert one.epsilon_used == two.epsilon_used
            np.testing.assert_allclose(one.values, two.values, rtol=rtol, atol=0)

    def test_poisson_path_holds_j_alone(self, full_scale_lenslet_h):
        # bound factors and inverts the Gram it formed in place, so J is the
        # one d x d float array it holds; forming J, then bounding a copy of
        # it, holds two
        H = full_scale_lenslet_h
        v = np.linspace(1.0, 40.0, H.d)
        _, peak = traced_peak_bytes(lambda: bound(PoissonNoise(1e-3), H, v))
        assert peak < 2 * 8 * H.d * H.d

    @pytest.mark.parametrize("shape", [(8, 8), (3, 5)])
    def test_reads_only_the_lower_triangle(self, shape, factored_sizes):
        # crb_from_fisher factors a caller-held J whole, from its lower
        # triangle: NaN above the diagonal changes nothing
        J = lenslet_gaussian_fisher(shape)
        d = len(J)
        lower = np.tril(J)
        lower[np.triu_indices(d, 1)] = np.nan
        want = crb_from_fisher(J, object_shape=shape).values
        got = crb_from_fisher(lower, object_shape=shape).values
        assert factored_sizes == [d, d]
        np.testing.assert_array_equal(got, want)

    def test_one_pixel(self, factored_sizes):
        H = build_system_matrix(np.ones((1, 1)), (1, 1))
        cmap = bound(GaussianNoise(0.25), H, epsilon_rel=0.0)
        np.testing.assert_array_equal(cmap.values, [0.25])
        assert factored_sizes == [1]

    def test_no_information_raises_on_the_split_path(self, factored_sizes):
        H = build_system_matrix(np.ones((1, 1)), (1, 2))
        with pytest.raises(FactorizationError):
            bound(NoInformation(), H)
        assert factored_sizes == [1]


def eigh_inverse_diagonal(A):
    """diag(A^-1) of a symmetric positive definite A from its eigenpairs."""
    lam, U = np.linalg.eigh(A)
    return (U * U) @ (1.0 / lam)


class TestExactCrbOracle:
    """The unloaded (eps = 0) bound on 16x16 Poisson cases at beta = 1e-3.

    The worst per-pixel error against eigh measured 1.9e-10 relative, so both
    checks hold to RTOL. At the default eps neither check is asserted: the
    loading moves the dense-object bounds by up to 1e-2 relative, and 101-217
    of their 244 support pixels break the Schur bound.
    """

    RTOL = 1e-9

    @pytest.fixture(scope="class", params=["cells", "beads"])
    def obj(self, request):
        from lensless_crb import DenseCells, ObjectSpec, SparseBeads, generate_object

        kind = {"cells": DenseCells(), "beads": SparseBeads()}[request.param]
        return generate_object(ObjectSpec(kind, (16, 16), 100.0, 0)).ravel()

    @pytest.fixture(scope="class", params=["diffuser", "rml", "lenslets1"])
    def J(self, request, obj):
        kind = {"diffuser": Diffuser(), "rml": Rml(), "lenslets1": Lenslets(1)}[request.param]
        H = build_system_matrix(generate_psf(PsfSpec(kind, (16, 16), 42)), (16, 16), (18, 18))
        return fisher_poisson(H, obj, 1e-3)

    def test_matches_eigh_at_every_pixel(self, J):
        crb = crb_from_fisher(J, 0.0, object_shape=(16, 16)).values
        np.testing.assert_allclose(crb, eigh_inverse_diagonal(J), rtol=self.RTOL)

    def test_schur_bound_on_the_support(self, J, obj):
        # knowing the other pixels are zero can only lower the bound:
        # diag([J^-1]_SS) >= diag((J_SS)^-1)
        S = np.flatnonzero(obj > 0)
        crb = crb_from_fisher(J, 0.0, object_shape=(16, 16)).values
        known_support = eigh_inverse_diagonal(J[np.ix_(S, S)])
        assert np.all(crb[S] >= known_support * (1 - self.RTOL))


class TestExactGaussianCrbOracle:
    """bound's unloaded (eps = 0) Gaussian map on 16x16 (d = 256, the
    half-block path) and 15x15 (d = 225, odd, factored whole) objects. The worst per-pixel error against eigh measured 2.9e-12
    relative (rml, cond about 3.5e5)."""

    RTOL = TestExactCrbOracle.RTOL

    @pytest.mark.parametrize("side", [16, 15])
    @pytest.mark.parametrize("kind", [Diffuser(), Rml(), Lenslets(1)],
                             ids=["diffuser", "rml", "lenslets1"])
    def test_matches_eigh_at_every_pixel(self, kind, side, factored_sizes):
        H = build_system_matrix(generate_psf(PsfSpec(kind, (16, 16), 42)), (side, side),
                                (18, 18))
        crb = bound(GaussianNoise(1.0), H, epsilon_rel=0.0).values
        assert factored_sizes == split_sizes(H.d)
        J = fisher_information(GaussianNoise(1.0), H)
        np.testing.assert_allclose(crb, eigh_inverse_diagonal(J), rtol=self.RTOL)


class TestCrbSummary:
    def test_dense_object_mean_ordering(self):
        # Poisson bounds on a dense object degrade with multiplexing
        from lensless_crb import DenseCells, ObjectSpec, generate_object
        from lensless_crb.psf import Diffuser

        obj = generate_object(ObjectSpec(DenseCells(), (16, 16), 100.0, 0))
        v = vectorize(obj)
        means = []
        for kind in (Lenslets(1), Lenslets(5), Diffuser()):
            psf = generate_psf(PsfSpec(kind, (16, 16), 42))
            H = build_system_matrix(psf, obj.shape, (18, 18))
            cmap = crb_from_fisher(fisher_poisson(H, v, 1e-3),
                                   object_shape=obj.shape)
            means.append(cmap.values.mean())
        assert means[0] <= means[1] <= means[2]


def loaded_fisher(name, full_scale_lenslet_h, small_lenslet_h):
    """A loaded SPD matrix the package factors: the d = 1024 Poisson J of
    bound's whole path, or the 8x8 GLS Gram; each column-major."""
    if name == "poisson-J":
        H = full_scale_lenslet_h
        A = fisher_information(PoissonNoise(1e-3), H, np.linspace(1.0, 40.0, H.d))
    else:
        A = weighted_gram(small_lenslet_h)
    A[np.diag_indices_from(A)] += fisher.diagonal_load(A)
    return A


class TestLapackWrappers:
    """fisher.cho_factor and fisher.cho_solve call SciPy's dpotrf and dpotrs
    without scipy.linalg's Python wrappers, which give the same bits."""

    @pytest.mark.parametrize("name", ["poisson-J", "gls-gram"])
    def test_factor_and_solve_match_scipy_bitwise(self, name, full_scale_lenslet_h,
                                                  small_lenslet_h):
        import scipy.linalg

        A = loaded_fisher(name, full_scale_lenslet_h, small_lenslet_h)
        c, lower = fisher.cho_factor(A.copy(order="F"), lower=True, overwrite_a=True)
        want_c, want_lower = scipy.linalg.cho_factor(A.copy(order="F"), lower=True,
                                                     overwrite_a=True)
        assert lower is want_lower is True
        assert_same_bits(c, want_c)
        for b in (np.linspace(-1.0, 2.0, len(A)),
                  np.random.default_rng(0).uniform(size=(len(A), 3))):
            assert_same_bits(fisher.cho_solve((c, lower), b),
                             scipy.linalg.cho_solve((want_c, want_lower), b))

    def test_not_positive_definite_raises_scipys_error(self):
        import scipy.linalg

        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(scipy.linalg.LinAlgError) as want:
            scipy.linalg.cho_factor(A, lower=True)
        with pytest.raises(np.linalg.LinAlgError) as got:
            fisher.cho_factor(A)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises_scipys_error(self, bad):
        import scipy.linalg

        A = np.eye(3)
        A[2, 0] = bad
        with pytest.raises(ValueError) as want:
            scipy.linalg.cho_factor(A, lower=True)
        with pytest.raises(ValueError) as got:
            fisher.cho_factor(A)
        assert str(got.value) == str(want.value)
        c = fisher.cho_factor(np.eye(3))
        b = np.array([1.0, bad, 0.0])
        with pytest.raises(ValueError) as want:
            scipy.linalg.cho_solve(c, b)
        with pytest.raises(ValueError) as got:
            fisher.cho_solve(c, b)
        assert str(got.value) == str(want.value)
