import itertools
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from scipy.linalg import blas, eigvalsh
from scipy.optimize import nnls as scipy_nnls

from lensless_crb import (
    DimensionError,
    GaussianNoise,
    GramUnderflowError,
    ObjectSpec,
    PoissonNoise,
    SparseBeads,
    TrialFailureError,
    adjoint,
    build_system_matrix,
    crb_from_fisher,
    fisher_poisson,
    forward,
    generate_object,
    generate_psf,
    log_likelihood,
    make_gls_solver,
    nnls_estimate,
    poisson_mle,
    run_trials,
    sample,
    vectorize,
)
from lensless_crb import estimators, fisher
from lensless_crb.fisher import fisher_gaussian
from lensless_crb.forward_model import weighted_gram
from lensless_crb.objects import DenseCells
from lensless_crb.psf import Lenslets, PsfSpec
from conftest import CallLog, assert_same_bits, one_working_array_bound, traced_peak_bytes


def lenslet1_8x8():
    psf = generate_psf(PsfSpec(Lenslets(1), (8, 8), 0))
    return build_system_matrix(psf, (8, 8), (10, 10))


def beads_8x8():
    """The bead instance of the MLE efficiency check: H and the object."""
    psf = generate_psf(PsfSpec(Lenslets(3), (8, 8), 0))
    H = build_system_matrix(psf, (8, 8), (10, 10))
    return H, vectorize(generate_object(ObjectSpec(SparseBeads(2), (8, 8), 100.0, 5)))


def textbook_rl_iterates(H, Y, background, n_iters):
    """Richardson-Lucy with every pass in full and no flush of subnormal
    pixels, yielding the start and each of n_iters iterates."""
    mass = H.psf.sum()
    V = np.full((H.d, Y.shape[1]), np.maximum(Y.mean(axis=0) / mass, 1e-12))
    yield V
    for _ in range(n_iters):
        B = forward(H, V) + background
        ratio = np.where(Y > 0, Y / np.maximum(B, 1e-300), 0.0)
        V = V * (adjoint(H, ratio) / mass)
        yield V


def textbook_rl(H, Y, background, n_iters):
    """poisson_mle's oracle at tol = 0: the last textbook iterate."""
    *_, V = textbook_rl_iterates(H, Y, background, n_iters)
    return V


def dense_cells_8x8(peak):
    """The bead instance's H and a dense-cells object of the given peak, as
    the decoder benchmark's NNLS trials use."""
    psf = generate_psf(PsfSpec(Lenslets(3), (8, 8), 0))
    H = build_system_matrix(psf, (8, 8), (10, 10))
    return H, vectorize(generate_object(ObjectSpec(DenseCells(n_blobs=3), (8, 8), peak, 11)))


def textbook_nnls_iterates(H, Y, n_iters):
    """Projected gradient with the gradient formed afresh from each iterate
    and no objective, on nnls_estimate's Gram, step 1/L and product,
    yielding the start and each of n_iters iterates."""
    A = weighted_gram(H)
    L = eigvalsh(A, subset_by_index=[H.d - 1, H.d - 1])[0]
    HtY = adjoint(H, Y)
    V = np.zeros((H.d, Y.shape[1]))
    yield V
    for _ in range(n_iters):
        grad = blas.dgemm(1.0, V.T, A).T - HtY
        V = np.maximum(V - grad / L, 0.0)
        yield V


def textbook_nnls(H, Y, n_iters):
    """nnls_estimate's oracle at tol = 0: the last textbook iterate."""
    *_, V = textbook_nnls_iterates(H, Y, n_iters)
    return V


def record_nnls_steps(monkeypatch):
    """Lists that fill, as NNLS runs, with the step number, the iterate and
    the objective of its start and of each step that forms its objective."""
    steps, iterates, objectives, iterate = [], [], [], estimators._iterate

    def recording(H, y, setup, max_iters, tol):
        def recorded_setup(Y):
            V, f, state, step = setup(Y)
            count = itertools.count(1)
            steps.append(0)
            iterates.append(V.copy())
            objectives.append(f.copy())

            def recorded_step(V, f, state, form):
                V, f, state = step(V, f, state, form)
                n = next(count)
                if form:
                    steps.append(n)
                    iterates.append(V.copy())
                    objectives.append(f.copy())
                return V, f, state

            return V, f, state, recorded_step

        return iterate(H, y, recorded_setup, max_iters, tol)

    monkeypatch.setattr(estimators, "_iterate", recording)
    return steps, iterates, objectives


def record_rl_objectives(monkeypatch):
    """A list that fills with every evaluation of RL's objective."""
    evaluate, trace = estimators._poisson_objective, []

    def recording(Y, B):
        f = evaluate(Y, B)
        trace.append(f.copy())
        return f

    monkeypatch.setattr(estimators, "_poisson_objective", recording)
    return trace


def check_steps(max_iters):
    """The steps at which the decoders test their stopping rule: the
    multiples of STOP_STRIDE up to max_iters, and max_iters."""
    return np.union1d(np.arange(estimators.STOP_STRIDE, max_iters + 1,
                                estimators.STOP_STRIDE), [max_iters])


def first_settled_check(f, tol):
    """The first check step whose objective moved by less than tol relative
    from the step before, or None if none did: the stopping step of one
    column whose objective at steps 0, 1, ..., max_iters is f. Only the
    check steps and the steps before them are read."""
    checks = check_steps(len(f) - 1)
    before = f[checks - 1]
    settled = np.abs(f[checks] - before) / np.maximum(np.abs(before), 1e-300) < tol
    return int(checks[np.argmax(settled)]) if settled.any() else None


def textbook_objective(Y, B):
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(Y > 0, Y * np.log(np.maximum(B, 1e-300)), 0.0)
    return np.sum(t - B, axis=0)


class TestGls:
    def test_identity_recovers_measurement(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 2))
        v = make_gls_solver(H)(np.array([3.0, -1.0]))
        np.testing.assert_allclose(v, [3.0, -1.0], atol=1e-9)

    def test_noiseless_recovery(self):
        H = lenslet1_8x8()
        rng = np.random.default_rng(0)
        v_true = rng.uniform(0, 5, size=H.d)
        v_hat = make_gls_solver(H)(forward(H, v_true))
        np.testing.assert_allclose(v_hat, v_true, atol=1e-6)

    def test_solver_batched_matches_loop(self):
        H = lenslet1_8x8()
        rng = np.random.default_rng(1)
        Y = rng.uniform(0, 3, size=(H.k, 4))
        solve = make_gls_solver(H)
        batched = solve(Y)
        for j in range(4):
            np.testing.assert_allclose(batched[:, j], solve(Y[:, j]), rtol=1e-12)

    def test_attains_gaussian_crb(self):
        H = lenslet1_8x8()
        rng = np.random.default_rng(2)
        v_true = rng.uniform(1, 5, size=H.d)
        crb = crb_from_fisher(fisher_gaussian(H, 1.0), object_shape=(8, 8))
        rep = run_trials(GaussianNoise(1.0), H, v_true, "gls", 10_000, seed=0,
                         crb=crb)
        assert rep.n_failed == 0
        assert 0.9 <= np.median(rep.efficiency) <= 1.1
        # CRB validity: empirical variance should not fall far below the bound
        assert np.mean(rep.per_pixel_variance >= 0.9 * crb.values) >= 0.95
        # unbiasedness: per-pixel mean within 4 standard errors of the truth
        se = np.sqrt(rep.per_pixel_variance / rep.n_trials)
        assert np.all(np.abs(rep.per_pixel_mean - v_true) < 4 * se)

    def test_factors_its_gram_in_place(self, full_scale_lenslet_h):
        # loaded_cholesky factors the column-major Gram without a copy
        H = full_scale_lenslet_h
        _, peak = traced_peak_bytes(lambda: make_gls_solver(H))
        assert peak <= one_working_array_bound(H.d)


class TestNnls:
    def test_identity_single_step(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 3))
        res = nnls_estimate(H, np.array([[2.0], [0.0], [5.0]]))
        np.testing.assert_allclose(res.values[:, 0], [2.0, 0.0, 5.0])
        assert res.converged

    def test_all_negative_measurement_clips_to_zero(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 3))
        res = nnls_estimate(H, np.array([[-1.0], [-2.0], [-0.5]]))
        np.testing.assert_array_equal(res.values, 0.0)

    @pytest.mark.parametrize("h", ["small_lenslet_h", "full_scale_lenslet_h"])
    def test_step_size_matches_eigvalsh_bitwise(self, h, request):
        # every NNLS iterate divides by L, so L keeps eigvalsh's last bits
        # (8x8, d = 64, and 32^2, d = 1024)
        H = request.getfixturevalue(h)
        A = weighted_gram(H)
        L = estimators.largest_eigenvalue(A)
        want = eigvalsh(A, subset_by_index=[H.d - 1, H.d - 1])[0]
        assert np.float64(L).tobytes() == want.tobytes()

    def test_matches_active_set_reference(self):
        # compare the projected-gradient objective to scipy's active-set NNLS
        psf = generate_psf(PsfSpec(Lenslets(2), (8, 8), 0))
        H = build_system_matrix(psf, (6, 6), (10, 10))
        rng = np.random.default_rng(3)
        y = np.abs(forward(H, rng.uniform(0, 2, size=H.d))
                   + rng.normal(0, 0.05, size=H.k))
        res = nnls_estimate(H, y[:, None], max_iters=50_000, tol=1e-14)
        v = res.values[:, 0]
        ref, ref_rnorm = scipy_nnls(H.matrix, y)
        assert np.all(v >= 0)
        rnorm = np.linalg.norm(y - forward(H, v))
        assert rnorm ** 2 <= ref_rnorm ** 2 + 1e-6

    def test_textbook_bits(self):
        # carrying the gradient from one step to the next, and tracking the
        # objective from it, leaves every iterate's bits as the textbook loop's
        H, _ = beads_8x8()
        rng = np.random.default_rng(9)
        Y = forward(H, rng.uniform(0.0, 50.0, size=(H.d, 6))) + rng.normal(size=(H.k, 6))
        V = nnls_estimate(H, Y, max_iters=400, tol=0.0).values
        assert_same_bits(V, textbook_nnls(H, Y, 400))
        assert np.any(V == 0.0) and np.any(V > 0.0)

    @pytest.mark.parametrize("peak", [50.0, 1e6], ids=["peak-50", "peak-1e6"])
    def test_tracked_objective_is_the_squared_residual(self, peak, monkeypatch):
        # NNLS forms no image Hv: its objective starts at ||y||^2 and, on each
        # check step and the step before it, moves by the exact change of a
        # quadratic since the step it was last formed. Wherever it is formed
        # it stays within one length-d inner product's worst-case rounding of
        # ||y||^2 of the direct residual, so its error does not grow with the
        # steps (measured: 5e-14 relative at peak 50; 1e-5 at peak 1e6,
        # where ||y||^2 is 1e11 times the final residual). Its one-step
        # changes at the check steps are exact to the rounding of the
        # residual itself, so each column stops at the check step the direct
        # residual gives; the expanded form ||y||^2 - 2<v, H^T y> +
        # <v, H^T H v> stops at peak 1e6 near step 6900 whatever tol is
        H, v = dense_cells_8x8(peak)
        y = forward(H, v.values) + np.random.default_rng(11).normal(size=H.k)
        steps, iterates, objectives = record_nnls_steps(monkeypatch)
        nnls_estimate(H, y[:, None], max_iters=15_000, tol=0.0)
        f = np.concatenate(objectives)
        direct = np.sum((y[:, None] - forward(H, np.concatenate(iterates, axis=1))) ** 2,
                        axis=0)
        checks = check_steps(15_000)
        assert steps == sorted({0, *checks, *(checks - 1)})
        assert f[0] == np.sum(y * y)
        assert np.all(np.abs(f - direct) <= H.d * np.finfo(float).eps * f[0])
        trace = np.full(15_001, np.nan)
        trace[steps] = direct
        assert first_settled_check(trace, 1e-6) is not None
        for tol in (1e-6, 1e-9):
            stop = first_settled_check(trace, tol)
            res = nnls_estimate(H, y[:, None], max_iters=15_000, tol=tol)
            assert (res.n_iters, res.converged) == (stop or 15_000, stop is not None)


class TestPoissonMle:
    def test_identity_fixed_point(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 1))
        res = poisson_mle(H, np.array([[7.0]]))
        np.testing.assert_allclose(res.values, [[7.0]], rtol=1e-8)
        assert res.converged

    def test_noiseless_likelihood_not_below_truth(self):
        H = lenslet1_8x8()
        rng = np.random.default_rng(4)
        v_true = rng.uniform(0.5, 3, size=H.d)
        y = forward(H, v_true)
        res = poisson_mle(H, y[:, None], max_iters=20_000, tol=1e-12)
        model = PoissonNoise(0.0)
        ll_hat = log_likelihood(model, H, res.values[:, 0], np.round(y))
        ll_true = log_likelihood(model, H, v_true, np.round(y))
        assert ll_hat >= ll_true - 1e-6

    def test_negative_measurement_rejected(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 1))
        with pytest.raises(ValueError):
            poisson_mle(H, np.array([[-1.0]]))

    def test_textbook_bits_where_normal_and_no_subnormals(self):
        # RL shrinks the empty pixels of a bead object into the subnormal
        # range; poisson_mle zeroes them there and keeps every other bit
        H, v = beads_8x8()
        rng = np.random.default_rng(7)
        Y = np.ascontiguousarray(rng.poisson(forward(H, v) + 1e-7, size=(16, H.k)).T,
                                 dtype=float)
        ref = textbook_rl(H, Y, 1e-7, 600)
        V = poisson_mle(H, Y, background=1e-7, max_iters=600, tol=0.0).values
        tiny = np.finfo(float).tiny
        normal = ref >= tiny
        assert np.any((ref > 0) & ~normal)
        assert_same_bits(V[normal], ref[normal])
        assert np.all(V[~normal] == 0.0)
        assert not np.any((V > 0) & (V < tiny))

    def test_ratio_and_objective_keep_the_masked_forms_bits(self):
        # zero counts, no background, and counts over exactly zero images
        # (rows of H that the padded PSF never reaches)
        H, _ = beads_8x8()
        rng = np.random.default_rng(8)
        V = rng.uniform(0.0, 2.0, size=(H.d, 5))
        V[rng.uniform(size=V.shape) < 0.5] = 0.0
        B = forward(H, V)
        Y = rng.poisson(B).astype(float)
        Y[np.flatnonzero(np.all(B == 0, axis=1))[::2]] = 3.0
        assert np.any(Y == 0) and np.any((Y > 0) & (B == 0))
        assert_same_bits(estimators._poisson_objective(Y, B), textbook_objective(Y, B))
        res = poisson_mle(H, Y, background=0.0, max_iters=3, tol=0.0)
        assert_same_bits(res.values, textbook_rl(H, Y, 0.0, 3))

    @pytest.mark.parametrize("background", [-1.0, np.nan, np.inf])
    def test_bad_background_rejected(self, background):
        # a negative or non-finite floor gives NaN or all-zero estimates
        H = build_system_matrix(np.ones((1, 1)), (1, 1))
        with pytest.raises(ValueError, match="background"):
            poisson_mle(H, np.array([[7.0]]), background=background)


def gls_trials(H, y, **options):
    return run_trials(GaussianNoise(1.0), H, y[:, 0], "gls", 5, seed=0,
                      estimator_options=options)


@pytest.mark.parametrize("decoder, options", [
    pytest.param(nnls_estimate, {"max_iters": 0}, id="nnls_estimate"),
    pytest.param(poisson_mle, {"max_iters": 0}, id="poisson_mle"),
    pytest.param(nnls_estimate, {"tol": np.nan}, id="nnls_estimate-tol_nan"),
    pytest.param(poisson_mle, {"tol": np.nan}, id="poisson_mle-tol_nan"),
    pytest.param(nnls_estimate, {"tol": -1e-9}, id="nnls_estimate-tol_negative"),
    pytest.param(poisson_mle, {"tol": -1e-9}, id="poisson_mle-tol_negative"),
    pytest.param(poisson_mle, {"tol": np.inf}, id="poisson_mle-tol_inf"),
    # GLS has no options, so any it is given are an error, not ignored
    pytest.param(gls_trials, {"max_iters": 0, "bogus": 1}, id="gls-options"),
])
def test_max_iters_validated(decoder, options):
    H = build_system_matrix(np.ones((1, 1)), (1, 1))
    with pytest.raises(ValueError):
        decoder(H, np.array([[1.0]]), **options)


@pytest.mark.parametrize("decoder, record, sign",
                         [(nnls_estimate, lambda mp: record_nnls_steps(mp)[2], -1.0),
                          (poisson_mle, record_rl_objectives, 1.0)],
                         ids=["nnls_estimate", "poisson_mle"])
def test_objective_trace_monotone(decoder, record, sign, monkeypatch):
    # the NNLS residual never rises and the RL log-likelihood never falls;
    # an objective is formed for the start and for each check step and the
    # step before it: each evaluation of RL's, and each that NNLS forms
    # from its gradient
    trace = record(monkeypatch)
    psf = generate_psf(PsfSpec(Lenslets(3), (8, 8), 0))
    H = build_system_matrix(psf, (8, 8), (10, 10))
    rng = np.random.default_rng(5)
    v_true = rng.uniform(0.5, 3, size=H.d)
    y = rng.poisson(forward(H, v_true)).astype(float)
    res = decoder(H, y[:, None], max_iters=500, tol=0.0)
    assert len(trace) == 1 + 2 * len(check_steps(res.n_iters))
    trace = np.concatenate(trace)
    assert len(trace) >= 100
    assert np.all(sign * np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))


@pytest.mark.parametrize("decoder", [nnls_estimate, poisson_mle],
                         ids=lambda f: f.__name__)
def test_one_image_per_iteration(decoder, monkeypatch):
    # RL's image Hv + background of an iterate serves its objective and the
    # next step, so a call forms at most one image per iteration plus the
    # start; NNLS tracks its objective from its gradient and forms none
    calls = []

    def counted(H, v):
        calls.append(1)
        return forward(H, v)

    monkeypatch.setattr(estimators, "forward", counted)
    psf = generate_psf(PsfSpec(Lenslets(3), (8, 8), 0))
    H = build_system_matrix(psf, (8, 8), (10, 10))
    rng = np.random.default_rng(6)
    Y = rng.poisson(forward(H, rng.uniform(0.5, 3, size=(H.d, 3)))).astype(float)
    res = decoder(H, Y, max_iters=300, tol=1e-9)
    assert res.n_iters > 10
    assert len(calls) <= (res.n_iters + 1 if decoder is poisson_mle else 0)


def test_objective_formed_only_around_check_steps(monkeypatch):
    # RL's image serves every next ratio, but it takes the image's log for
    # its objective only on a check step and the step before it, and once
    # for the start
    trace = record_rl_objectives(monkeypatch)
    psf = generate_psf(PsfSpec(Lenslets(3), (8, 8), 0))
    H = build_system_matrix(psf, (8, 8), (10, 10))
    rng = np.random.default_rng(6)
    Y = rng.poisson(forward(H, rng.uniform(0.5, 3, size=(H.d, 3)))).astype(float)
    res = poisson_mle(H, Y, max_iters=300, tol=1e-9)
    assert res.n_iters > estimators.STOP_STRIDE
    assert len(trace) <= 1 + 2 * -(-res.n_iters // estimators.STOP_STRIDE)


class TestStoppingRule:
    """A column stops at the first check step (a multiple of STOP_STRIDE, or
    max_iters) whose one-step objective change is below tol relative, read
    off the textbook iterates: RL's log-likelihood and NNLS's direct squared
    residual. Each column is decoded alone, so its products are the
    textbook's bit for bit."""

    @pytest.mark.parametrize("max_iters", [400, 57])
    @pytest.mark.parametrize("name", ["mle", "nnls"])
    def test_stops_at_the_rules_check_step(self, name, max_iters):
        if name == "mle":
            H = lenslet1_8x8()
            rng = np.random.default_rng(13)
            Y = rng.poisson(forward(H, rng.uniform(0.5, 3.0, size=(H.d, 3))) + 1.0).astype(float)

            def iterates_and_objectives(y):
                iterates = list(textbook_rl_iterates(H, y, 1.0, max_iters))
                return iterates, np.array([textbook_objective(y, forward(H, V) + 1.0)[0]
                                           for V in iterates])

            def decode(y, tol):
                return poisson_mle(H, y, background=1.0, max_iters=max_iters, tol=tol)
            tols = (1e-4, 1e-6, 1e-9)
        else:
            H, v = dense_cells_8x8(50.0)
            Y = forward(H, v.values)[:, None] + np.random.default_rng(14).normal(
                size=(H.k, 3))

            def iterates_and_objectives(y):
                iterates = list(textbook_nnls_iterates(H, y, max_iters))
                return iterates, np.array([np.sum((y - forward(H, V)) ** 2)
                                           for V in iterates])

            def decode(y, tol):
                return nnls_estimate(H, y, max_iters=max_iters, tol=tol)
            tols = (1e-3, 1e-4, 1e-6)
        last_check = check_steps(max_iters)[-2]
        for j in range(Y.shape[1]):
            y = Y[:, [j]]
            iterates, f = iterates_and_objectives(y)
            change = np.abs(np.diff(f)) / np.abs(f[:-1])
            # a tol that the check step before max_iters misses and
            # max_iters meets
            at_max = np.sqrt(change[last_check - 1] * change[max_iters - 1])
            assert first_settled_check(f, at_max) == max_iters
            for tol in (*tols, at_max):
                stop = first_settled_check(f, tol)
                res = decode(y, tol)
                assert (int(res.column_iters[0]), res.converged) == \
                    (stop or max_iters, stop is not None)
                assert_same_bits(res.values, iterates[stop or max_iters])


@pytest.mark.parametrize("decoder", [nnls_estimate, poisson_mle],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("y", [np.ones(9), np.ones((9, 1, 1)), 1.0, np.ones((10, 2))],
                         ids=["1-D", "3-D", "scalar", "k+1 rows"])
def test_decoders_take_only_a_batch(decoder, y, identity_h):
    with pytest.raises(DimensionError):
        decoder(identity_h, y)


class TestBatchedDecoding:
    """A batch stops each column at its own convergence step, so every
    column matches a single-column call (to the rounding of the batched
    product) and the batch takes as many iterations as its slowest column."""

    @pytest.mark.parametrize("name, atol", [("mle", 1e-12), ("nnls", 1e-10)])
    def test_batch_matches_per_column_calls(self, name, atol):
        psf = generate_psf(PsfSpec(Lenslets(3), (8, 8), 0))
        H = build_system_matrix(psf, (8, 8), (10, 10))
        rng = np.random.default_rng(12)
        B = forward(H, rng.uniform(0.5, 3.0, size=(H.d, 4)))
        if name == "mle":
            Y = rng.poisson(B + 1e-3).astype(float)

            def decode(y):
                return poisson_mle(H, y, background=1e-3, tol=1e-9)
        else:
            Y = B + rng.normal(0, 0.5, size=B.shape)

            def decode(y):
                return nnls_estimate(H, y, tol=1e-10)
        batch = decode(Y)
        columns = [decode(Y[:, [j]]) for j in range(Y.shape[1])]
        assert len({c.n_iters for c in columns}) > 1
        assert batch.converged == all(c.converged for c in columns)
        assert batch.n_iters == max(c.n_iters for c in columns)
        np.testing.assert_array_equal(batch.column_iters, [c.n_iters for c in columns])
        values = np.concatenate([c.values for c in columns], axis=1)
        # each column starts from its own data and leaves the batch at its
        # own stopping step; what is left is the rounding of the batched
        # products (0 on this instance for both decoders)
        assert np.max(np.abs(batch.values - values)) <= atol * np.max(values)


def small_decoder_case(estimator):
    """(model, H, object, options) of a trial run in which some trials meet
    tol and some do not."""
    if estimator == "nnls":
        H, v = dense_cells_8x8(50.0)
        return GaussianNoise(1.0), H, v, {"max_iters": 1000, "tol": 1e-5}
    H, v = beads_8x8()
    return PoissonNoise(1e-7), H, v, {"max_iters": 500, "tol": 1e-9}


class TestRunTrials:
    @pytest.mark.parametrize("estimator", ["nnls", "mle"])
    def test_converged_count_matches_single_column_calls(self, estimator, monkeypatch):
        model, H, v, options = small_decoder_case(estimator)
        decoder, kwargs = ((nnls_estimate, {}) if estimator == "nnls"
                           else (poisson_mle, {"background": model.background}))
        # the draws are made in the calling process, wherever a chunk decodes
        draws = []

        def recording(*args):
            draws.append(sample(*args))
            return draws[-1]

        monkeypatch.setattr(estimators, "sample", recording)
        rep = run_trials(model, H, v, estimator, 20, seed=3, estimator_options=options)
        Y = np.ascontiguousarray(np.concatenate(draws).T)
        columns = [decoder(H, Y[:, [j]], **kwargs, **options) for j in range(20)]
        assert 0 < rep.n_converged < 20
        assert rep.n_converged == sum(c.converged for c in columns)
        iters = [c.n_iters for c in columns]
        assert rep.iterations == (min(iters), float(np.median(iters)), max(iters))
        np.testing.assert_array_equal(decoder(H, Y, **kwargs, **options).column_converged,
                                      [c.converged for c in columns])

    def test_gls_reports_no_converged_count(self):
        H = lenslet1_8x8()
        rep = run_trials(GaussianNoise(1.0), H, np.ones(H.d), "gls", 10, seed=0)
        assert rep.n_converged is None and rep.iterations is None

    def test_vanishing_noise_zero_variance(self):
        H = lenslet1_8x8()
        v = np.full(H.d, 2.0)
        rep = run_trials(GaussianNoise(1e-18), H, v, "gls", 10, seed=0)
        assert np.all(rep.per_pixel_variance < 1e-12)
        np.testing.assert_allclose(rep.per_pixel_mean, v, atol=1e-6)

    def test_identity_poisson_mle_variance_is_mean(self, monkeypatch):
        # larger batches keep the 100 000 trials quick
        monkeypatch.setattr(estimators, "TRIAL_CHUNK", 10_000)
        H = build_system_matrix(np.ones((1, 1)), (2, 2))
        v = np.full(4, 100.0)
        rep = run_trials(PoissonNoise(0.0), H, v, "mle", 100_000, seed=0,
                         estimator_options={"max_iters": 500, "tol": 1e-12})
        assert np.all(np.abs(rep.per_pixel_variance - 100.0) < 2.0)

    # the mle case runs a fixed 200 iterations (tol = 0), so it compares each
    # trial's iterates, which must not depend on the trials decoded with it;
    # a stopping rule adds the step of a column whose objective change lands
    # within rounding of tol, which the batch's BLAS rounding may move
    @pytest.mark.parametrize("estimator, model, options",
                             [("gls", GaussianNoise(1.0), None),
                              ("mle", PoissonNoise(1.0), {"max_iters": 200, "tol": 0.0})],
                             ids=["gls", "mle"])
    def test_chunk_size_does_not_change_moments(self, estimator, model, options,
                                                monkeypatch):
        H = lenslet1_8x8()
        v = np.full(H.d, 1.0)
        reports = []
        for chunk in (7, 300):
            monkeypatch.setattr(estimators, "TRIAL_CHUNK", chunk)
            reports.append(run_trials(model, H, v, estimator, 300, seed=1,
                                      estimator_options=options))
        a, b = reports
        np.testing.assert_allclose(a.per_pixel_mean, b.per_pixel_mean, rtol=1e-10)
        np.testing.assert_allclose(a.per_pixel_variance, b.per_pixel_variance,
                                   rtol=1e-10)

    def test_one_sample_call_per_chunk(self, monkeypatch):
        # a run draws each chunk of trials in one call, from one generator
        calls = []

        def counted(*args):
            calls.append(1)
            return sample(*args)

        monkeypatch.setattr(estimators, "sample", counted)
        monkeypatch.setattr(estimators, "TRIAL_CHUNK", 7)
        H = lenslet1_8x8()
        run_trials(GaussianNoise(1.0), H, np.ones(H.d), "gls", 30, seed=1)
        assert len(calls) == 5

    def test_runs_at_neighbouring_seeds_share_no_draw(self, monkeypatch):
        # each seed starts a stream of its own, so the trials of seed s are
        # not those of seed s + 1 shifted by one
        batches = []
        solver = estimators.make_gls_solver

        def recording(H):
            solve = solver(H)

            def record(Y):
                batches.append(Y.copy())
                return solve(Y)

            return record

        monkeypatch.setattr(estimators, "make_gls_solver", recording)
        H = lenslet1_8x8()
        for seed in (4, 5):
            run_trials(GaussianNoise(1.0), H, np.ones(H.d), "gls", 20, seed=seed)
        a, b = batches
        assert not any(np.array_equal(a[:, i], b[:, j])
                       for i in range(20) for j in range(20))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2)])
    def test_crb_of_another_object_rejected(self, shape, identity_h, monkeypatch):
        # the map must belong to H's 3x3 object; no trial runs before the check
        monkeypatch.setattr(estimators, "sample", None)
        crb = crb_from_fisher(np.eye(shape[0] * shape[1]), object_shape=shape)
        with pytest.raises(DimensionError):
            run_trials(GaussianNoise(1.0), identity_h, np.ones(9), "gls", 10, seed=0,
                       crb=crb)

    def test_too_few_trials_rejected(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 1))
        with pytest.raises(ValueError):
            run_trials(GaussianNoise(1.0), H, [1.0], "gls", 1, seed=0)

    def test_non_finite_estimates_raise_trial_failure(self, monkeypatch):
        # sample rejects a non-finite mean, so a decoder that diverges on
        # every trial stands in for non-finite estimates
        def diverging(H, Y, **options):
            return estimators.DecoderResult(np.full((H.d, Y.shape[1]), np.nan),
                                            np.full(Y.shape[1], 2),
                                            np.zeros(Y.shape[1], dtype=bool))

        monkeypatch.setattr(estimators, "nnls_estimate", diverging)
        H = build_system_matrix(np.ones((1, 1)), (1, 2))
        with pytest.raises(TrialFailureError) as info:
            run_trials(GaussianNoise(1.0), H, [1.0, 2.0], "nnls", 10, seed=0,
                       estimator_options={"max_iters": 2})
        assert (info.value.n_failed, info.value.n_trials) == (10, 10)
        assert isinstance(info.value, RuntimeError)

    def test_underflowing_gram_raises_typed_error(self):
        # a valid PSF so faint that H^T H underflows to zero: NNLS's step
        # 1/L would be infinite, so it names the PSF scale instead of
        # returning non-finite estimates
        H = build_system_matrix(np.full((1, 1), 1e-200), (1, 2))
        with pytest.raises(GramUnderflowError, match="1e-200") as info:
            run_trials(GaussianNoise(1.0), H, [1.0, 2.0], "nnls", 10, seed=0,
                       estimator_options={"max_iters": 2})
        assert info.value.psf_peak == 1e-200
        assert isinstance(info.value, FloatingPointError)

    def test_non_finite_object_rejected(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 2))
        with pytest.raises(ValueError, match="finite and non-negative"):
            run_trials(GaussianNoise(1.0), H, [1.0, np.nan], "nnls", 10, seed=0)

    def test_unknown_estimator_rejected(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 1))
        with pytest.raises(ValueError):
            run_trials(GaussianNoise(1.0), H, [1.0], "ridge", 5, seed=0)


class TestTrialWorkers:
    """An iterative decoder's chunks run on one forked worker per usable CPU
    (in the calling thread for one), each at one BLAS thread, and are merged
    in chunk order."""

    @pytest.mark.parametrize("estimator", ["mle", "nnls"])
    def test_reports_bitwise_equal_at_any_worker_count(self, estimator, monkeypatch,
                                                       blas_threads_at_two):
        model, H, v, options = small_decoder_case(estimator)
        monkeypatch.setattr(estimators, "TRIAL_CHUNK", 10)
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(fisher, "cpu_count", lambda: cpus)
            reports.append(run_trials(model, H, v, estimator, 30, seed=5,
                                      estimator_options=options))
        first = reports[0]
        assert 0 < first.n_converged < 30
        for rep in reports[1:]:
            np.testing.assert_array_equal(rep.per_pixel_mean, first.per_pixel_mean)
            np.testing.assert_array_equal(rep.per_pixel_variance, first.per_pixel_variance)
            assert (rep.n_converged, rep.iterations, rep.n_failed) == \
                (first.n_converged, first.iterations, first.n_failed)
        if blas_threads_at_two is not None:
            assert blas_threads_at_two() == 2

    def test_chunks_decode_in_worker_processes_on_one_dense_h(self, monkeypatch, tmp_path,
                                                           dense_builds):
        # each decode sleeps, so a worker holding one chunk leaves the
        # others to the other workers
        decode, decodes = estimators.poisson_mle, CallLog(tmp_path / "decodes.log")

        def logged(*args, **kwargs):
            decodes.record(str(os.getpid()))
            time.sleep(0.2)
            return decode(*args, **kwargs)

        monkeypatch.setattr(estimators, "poisson_mle", logged)
        monkeypatch.setattr(estimators, "TRIAL_CHUNK", 10)
        monkeypatch.setattr(fisher, "cpu_count", lambda: 3)
        model, H, v, options = small_decoder_case("mle")
        run_trials(model, H, v, "mle", 30, seed=5, estimator_options=options)
        pids = decodes.lines()
        assert len(pids) == 3 and len(set(pids)) >= 2
        assert str(os.getpid()) not in pids
        assert dense_builds() == [(os.getpid(), threading.get_ident())]
        assert multiprocessing.active_children() == []

    def test_error_in_a_worker_keeps_its_type(self, monkeypatch):
        # the first failing chunk's error crosses the process boundary intact,
        # and every worker is joined
        monkeypatch.setattr(estimators, "TRIAL_CHUNK", 5)
        monkeypatch.setattr(fisher, "cpu_count", lambda: 2)
        H = build_system_matrix(np.full((1, 1), 1e-200), (1, 2))
        with pytest.raises(GramUnderflowError, match="1e-200") as info:
            run_trials(GaussianNoise(1.0), H, [1.0, 2.0], "nnls", 10, seed=0,
                       estimator_options={"max_iters": 2})
        assert info.value.psf_peak == 1e-200
        assert multiprocessing.active_children() == []


class TestMleApproachesPoissonCrb:
    def test_sparse_beads_efficiency(self):
        # isolated bright beads with a small background floor: the constrained
        # MLE behaves like the unconstrained one at the bead pixels, so its
        # variance should approach the bound there
        H, v = beads_8x8()
        beta = 1e-7
        crb = crb_from_fisher(fisher_poisson(H, v.values, beta),
                              object_shape=(8, 8))
        rep = run_trials(PoissonNoise(beta), H, v, "mle", 2000, seed=123,
                         crb=crb,
                         estimator_options={"max_iters": 2000, "tol": 1e-13})
        on = v.values > 0
        assert np.all(rep.efficiency[on] >= 0.75)
        assert np.all(rep.efficiency[on] <= 1.25)
