import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lensless_crb import (
    CrbMap,
    DimensionError,
    FactorizationError,
    GaussianNoise,
    PoissonNoise,
    SingularRateError,
    build_system_matrix,
    crb_from_fisher,
    crb_summary,
    fisher_gaussian,
    fisher_monte_carlo,
    fisher_poisson,
    forward,
    generate_psf,
    hessian_log_likelihood,
    sample,
    score,
    vectorize,
)
from lensless_crb import fisher
from lensless_crb.fisher import MC_BLOCK_BYTES, MC_CHUNK
from lensless_crb.oracles import relative_error
from lensless_crb.psf import Lenslets, PsfSpec


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

    @pytest.mark.parametrize("sigma2", [0.0, np.inf, np.nan])
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

    @pytest.mark.parametrize("background", [-1.0, np.inf, np.nan])
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
        if isinstance(model, GaussianNoise):
            closed = fisher_gaussian(small_lenslet_h, model.sigma2)
        else:
            closed = fisher_poisson(small_lenslet_h, v, model.background)
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
    """Monte Carlo Fisher with whole-chunk draws, summed one chunk after another."""
    mean = forward(H, v) + model.background
    n_chunks = -(-n_samples // MC_CHUNK)
    J = np.zeros((H.d, H.d))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        m = min(MC_CHUNK, n_samples - i * MC_CHUNK)
        Y = model.draw(np.random.default_rng(child), mean, (m, H.k))
        S = model.score_weights(Y, mean) @ H.matrix
        J += S.T @ S
    return J / n_samples


class _ChunkError(RuntimeError):
    pass


class FailingModel:
    """Stub noise model whose score weights fail in the second seed chunk."""

    background = 0.0

    def draw(self, rng, mean, shape):
        # the last entry of a spawned child's key is its chunk index
        return np.full(shape, float(rng.bit_generator.seed_seq.spawn_key[-1]))

    def score_weights(self, y, mean):
        if y[0, 0] == 1.0:
            raise _ChunkError("chunk 2")
        return y - mean


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

    @pytest.mark.parametrize("model", [GaussianNoise(1.0), PoissonNoise(1e-3)])
    def test_matches_serial_whole_chunk_reference(self, model, small_lenslet_h):
        # k = 289 splits each chunk into row blocks, so the draws of one
        # chunk come from several generator calls
        assert MC_BLOCK_BYTES // (8 * small_lenslet_h.k) < MC_CHUNK
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
            assert blas_threads_at_two() == [2, 2]

    def test_draws_run_at_one_blas_thread_and_counts_restored(
            self, small_lenslet_h, blas_threads_at_two):
        if blas_threads_at_two is None:
            pytest.skip("NumPy's and SciPy's OpenBLAS were not both found")
        seen = []

        class Recording(GaussianNoise):
            def draw(self, rng, mean, shape):
                seen.append(blas_threads_at_two())
                return super().draw(rng, mean, shape)

        fisher_monte_carlo(Recording(1.0), small_lenslet_h,
                           np.ones(small_lenslet_h.d), 2 * MC_CHUNK, seed=0)
        assert seen and all(counts == [1, 1] for counts in seen)
        assert blas_threads_at_two() == [2, 2]

    def test_memory_bounded_in_sample_count(self, small_lenslet_h, monkeypatch):
        H = small_lenslet_h
        model = PoissonNoise(1e-3)   # its draws and weights need the most temporaries
        v = np.linspace(1.0, 40.0, H.d)

        def peak_bytes(n_samples):
            tracemalloc.start()
            try:
                fisher_monte_carlo(model, H, v, n_samples, seed=11)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one worker makes the allocation sequence, and so the peak, repeatable;
        # the slack covers allocator bookkeeping, not a chunk's draws
        monkeypatch.setattr(fisher, "cpu_count", lambda: 1)
        peak_bytes(1)
        assert peak_bytes(4 * MC_CHUNK) <= peak_bytes(2 * MC_CHUNK) + (64 << 10)
        # the docstring's bound, with every worker busy
        workers = 3
        monkeypatch.setattr(fisher, "cpu_count", lambda: workers)
        assert fisher.monte_carlo_workers(4 * MC_CHUNK) == workers
        assert peak_bytes(4 * MC_CHUNK) < workers * 4 * MC_BLOCK_BYTES


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
        {"epsilon_rel": -0.5}, {"epsilon_rel": np.nan}, {"epsilon_rel": np.inf}])
    def test_epsilon_policy_rejects_negative_or_non_finite(self, kwargs):
        with pytest.raises(ValueError):
            crb_from_fisher(np.eye(4), object_shape=(2, 2), **kwargs)

    def test_epsilon_recorded(self, small_lenslet_h):
        J = fisher_gaussian(small_lenslet_h, 1.0)
        cmap = crb_from_fisher(J, epsilon_rel=1e-6, object_shape=(8, 8))
        assert cmap.epsilon_used == pytest.approx(1e-6 * np.diag(J).max())


class TestCrbSummary:
    def test_uniform_map(self):
        cmap = CrbMap(np.full(4, 4.0), 0.0, (2, 2))
        s = crb_summary(cmap)
        assert s["mean"] == s["median"] == s["max"] == 4.0

    def test_cross_section_row_convention(self):
        cmap = CrbMap(np.array([1.0, 2.0, 3.0, 4.0]), 0.0, (2, 2))
        np.testing.assert_array_equal(crb_summary(cmap)["cross_section"], [3.0, 4.0])

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
            means.append(crb_summary(cmap)["mean"])
        assert means[0] <= means[1] <= means[2]
