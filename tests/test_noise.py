import numpy as np
import pytest

from lensless_crb import (
    DimensionError,
    GaussianNoise,
    PoissonNoise,
    SingularRateError,
    build_system_matrix,
    forward,
    hessian_log_likelihood,
    log_likelihood,
    sample,
    score,
)
from lensless_crb import noise
from lensless_crb.oracles import fd_gradient, fd_jacobian, relative_error


def two_by_two_h():
    rng = np.random.default_rng(12)
    psf = rng.uniform(0.1, 1.0, size=(2, 2))
    return build_system_matrix(psf, (2, 2), (2, 2))


class TestParameters:
    @pytest.mark.parametrize("sigma2", [0.0, -1.0, np.inf, np.nan, 1e-320])
    def test_gaussian_rejects_bad_variance(self, sigma2):
        with pytest.raises(ValueError):
            GaussianNoise(sigma2)

    @pytest.mark.parametrize("background", [-1e-3, np.inf, np.nan, 1e-320])
    def test_poisson_rejects_bad_background(self, background):
        with pytest.raises(ValueError):
            PoissonNoise(background)

    def test_zero_background_allowed(self):
        assert PoissonNoise(0.0).background == 0.0


class TestSample:
    def test_gaussian_vanishing_variance(self):
        b = np.array([1.0, 2.0, 3.0])
        y = sample(GaussianNoise(1e-18), b, seed=0)
        np.testing.assert_allclose(y, b, atol=1e-6)

    def test_poisson_zero_rates(self):
        y = sample(PoissonNoise(0.0), np.zeros(50), seed=1)
        np.testing.assert_array_equal(y, 0.0)

    def test_poisson_moments(self):
        b = np.full(1, 100.0)
        draws = np.array([sample(PoissonNoise(0.0), b, seed=s)[0]
                          for s in range(100_000)])
        assert abs(draws.mean() - 100.0) < 0.5

    def test_deterministic_per_seed(self):
        b = np.arange(5, dtype=float)
        np.testing.assert_array_equal(sample(GaussianNoise(1.0), b, 7),
                                      sample(GaussianNoise(1.0), b, 7))

    def test_negative_noiseless_image_rejected(self):
        with pytest.raises(ValueError):
            sample(GaussianNoise(1.0), np.array([-1.0]), 0)

    # NaN passes a plain "mean < 0" check; Poisson would otherwise raise
    # NumPy's "lam value too large" on NaN and inf
    @pytest.mark.parametrize("model", [GaussianNoise(1.0), PoissonNoise(0.0)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_mean_rejected(self, model, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            sample(model, np.array([bad, 1.0]), 0)


class TestLogLikelihood:
    def test_gaussian_zero_residual(self, identity_h):
        v = np.arange(1.0, 10.0)
        y = forward(identity_h, v)
        ll = log_likelihood(GaussianNoise(1.0), identity_h, v, y)
        assert ll == pytest.approx(-4.5 * np.log(2 * np.pi))

    def test_poisson_zero_count(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 1))
        assert log_likelihood(PoissonNoise(0.0), H, [1.0], [0.0]) == pytest.approx(-1.0)

    def test_poisson_scalar_oracle(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 1))
        ll = log_likelihood(PoissonNoise(0.0), H, [2.5], [3.0])
        assert ll == pytest.approx(3 * np.log(2.5) - 2.5 - np.log(6))

    def test_zero_rate_nonzero_count_is_minus_inf(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 1))
        assert log_likelihood(PoissonNoise(0.0), H, [0.0], [1.0]) == float("-inf")

    def test_positive_background_keeps_likelihood_finite(self):
        H = two_by_two_h()
        v = np.array([0.0, 0.0, 5.0, 0.0])
        y = sample(PoissonNoise(1e-3), forward(H, v), seed=2)
        assert np.isfinite(log_likelihood(PoissonNoise(1e-3), H, v, y))


class TestScore:
    def test_gaussian_zero_residual(self, identity_h):
        v = np.arange(1.0, 10.0)
        s = score(GaussianNoise(2.0), identity_h, v, forward(identity_h, v))
        np.testing.assert_array_equal(s, np.zeros(9))

    def test_poisson_at_mean(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 1))
        s = score(PoissonNoise(0.0), H, [4.0], [4.0])
        np.testing.assert_array_equal(s, [0.0])

    @pytest.mark.parametrize("model", [GaussianNoise(1.3), PoissonNoise(0.05)])
    def test_matches_finite_differences(self, model):
        H = two_by_two_h()
        rng = np.random.default_rng(8)
        v = rng.uniform(0.5, 2.0, size=4)
        y = sample(model, forward(H, v), seed=3)
        g = score(model, H, v, y)
        g_fd = fd_gradient(lambda x: log_likelihood(model, H, x, y), v)
        assert relative_error(g_fd, g) < 1e-5

    def test_zero_rate_error_names_pixel(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 2))
        with pytest.raises(SingularRateError) as exc:
            score(PoissonNoise(0.0), H, [0.0, 1.0], [1.0, 1.0])
        assert exc.value.pixel == 0

    def test_poisson_weights_keep_the_ratio_bits(self):
        # the one-pass weights when every rate is positive, against the
        # masked ratio, on counts with many zeros; y is left as it was
        rng = np.random.default_rng(4)
        mean = rng.uniform(1e-3, 50.0, size=37)
        y = rng.poisson(mean, size=(200, 37)).astype(float)
        y_before = y.copy()
        w = PoissonNoise(0.0).score_weights(y, mean)
        np.testing.assert_array_equal(w, noise._poisson_ratio(mean, y) - 1.0)
        assert not np.shares_memory(w, y)
        np.testing.assert_array_equal(y, y_before)

    @pytest.mark.parametrize("model", [GaussianNoise(0.8), PoissonNoise(0.0)])
    def test_zero_mean_over_samples(self, model):
        H = two_by_two_h()
        v = np.array([1.0, 2.0, 0.5, 3.0])
        b = forward(H, v)
        n = 100_000
        scores = np.array([score(model, H, v, sample(model, b, seed=i))
                           for i in range(n)])
        mean = scores.mean(axis=0)
        se = scores.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean) < 4 * se)


class TestHessian:
    def test_gaussian_diagonal_case(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 3))
        hess = hessian_log_likelihood(GaussianNoise(2.0), H, np.ones(3), np.ones(3))
        np.testing.assert_allclose(hess, -0.5 * np.eye(3))

    def test_poisson_scalar_case(self):
        H = build_system_matrix(np.ones((1, 1)), (1, 1))
        hess = hessian_log_likelihood(PoissonNoise(0.0), H, [4.0], [4.0])
        np.testing.assert_allclose(hess, [[-0.25]])

    def test_gaussian_independent_of_measurement(self, small_lenslet_h):
        H = small_lenslet_h
        v = np.ones(H.d)
        h1 = hessian_log_likelihood(GaussianNoise(1.0), H, v, np.zeros(H.k))
        h2 = hessian_log_likelihood(GaussianNoise(1.0), H, v, np.full(H.k, 9.0))
        np.testing.assert_array_equal(h1, h2)

    @pytest.mark.parametrize("model", [GaussianNoise(1.1), PoissonNoise(0.01)])
    def test_matches_finite_differences_of_score(self, model):
        H = build_system_matrix(np.array([[0.4, 0.2], [0.1, 0.3]]), (1, 3), (2, 2))
        rng = np.random.default_rng(9)
        v = rng.uniform(0.5, 2.0, size=3)
        y = sample(model, forward(H, v), seed=4)
        hess = hessian_log_likelihood(model, H, v, y)
        h_fd = fd_jacobian(lambda x: score(model, H, x, y), v)
        assert relative_error(h_fd, hess) < 1e-4

    @pytest.mark.parametrize("model", [GaussianNoise(0.7), PoissonNoise(0.02)])
    def test_negative_semidefinite(self, model):
        H = two_by_two_h()
        rng = np.random.default_rng(10)
        for seed in range(5):
            v = rng.uniform(0.1, 3.0, size=4)
            y = sample(model, forward(H, v), seed=seed)
            if isinstance(model, GaussianNoise):
                y = np.abs(y)
            hess = hessian_log_likelihood(model, H, v, y)
            assert np.linalg.eigvalsh(hess).max() <= 1e-10


class TestChangeFromReference:
    """log_likelihood and score against a reference object, differenced per
    measurement before summing."""

    MODELS = [GaussianNoise(1.3), PoissonNoise(0.05)]

    @pytest.mark.parametrize("model", MODELS)
    def test_equal_the_differences_at_moderate_scale(self, model, small_lenslet_h):
        H = small_lenslet_h
        rng = np.random.default_rng(14)
        v0, v = rng.uniform(0.5, 2.0, size=(2, H.d))
        y = sample(model, forward(H, v0), seed=5)
        ratio = log_likelihood(model, H, v, y, reference=v0)
        assert ratio == pytest.approx(log_likelihood(model, H, v, y)
                                      - log_likelihood(model, H, v0, y), rel=1e-10)
        np.testing.assert_allclose(score(model, H, v, y, reference=v0),
                                   score(model, H, v, y) - score(model, H, v0, y),
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_zero_at_the_reference(self, model, small_lenslet_h):
        H = small_lenslet_h
        v = np.linspace(0.5, 2.0, H.d)
        y = sample(model, forward(H, v), seed=6)
        assert log_likelihood(model, H, v, y, reference=v) == 0.0
        np.testing.assert_array_equal(score(model, H, v, y, reference=v), np.zeros(H.d))

    @pytest.mark.parametrize("model", [GaussianNoise(1e12), PoissonNoise(1e9)],
                             ids=["sigma2=1e12", "background=1e9"])
    def test_finite_differences_hold_at_large_scale(self, model, small_lenslet_h):
        # the whole log-likelihood and score would lose the change over one
        # FD step to round-off here; the per-measurement changes keep it
        H = small_lenslet_h
        v = np.random.default_rng(15).uniform(0.5, 2.0, size=H.d)
        y = sample(model, forward(H, v), seed=7)
        g_fd = fd_gradient(lambda x: log_likelihood(model, H, x, y, reference=v), v)
        assert relative_error(g_fd, score(model, H, v, y)) < 1e-9
        h_fd = fd_jacobian(lambda x: score(model, H, x, y, reference=v), v)
        assert relative_error(h_fd, hessian_log_likelihood(model, H, v, y)) < 1e-9

    def test_poisson_ratio_leaves_out_unmoved_zero_rates(self):
        # at zero background the padded measurements no pixel reaches have
        # rate 0 before and after, and add nothing
        H = build_system_matrix(np.ones((1, 1)), (1, 2), (2, 2))
        v0, v = np.array([1.0, 2.0]), np.array([1.5, 2.0])
        y = forward(H, v0)
        assert np.any(forward(H, v0) == 0)
        want = 1.0 * np.log(1.5) - 0.5
        assert log_likelihood(PoissonNoise(0.0), H, v, y, reference=v0) \
            == pytest.approx(want, rel=1e-14)
        np.testing.assert_allclose(score(PoissonNoise(0.0), H, v, y, reference=v0),
                                   [1 / 1.5 - 1, 0.0], rtol=1e-14)


class TestPoissonTables:
    """PoissonNoise.sampler draws by guide-table inversion (noise.PoissonTables)."""

    RATES = np.array([0.0, 1e-3, 0.44, 3.0, 47.0, 100.0])

    def test_counts_follow_the_poisson_pmf(self):
        # a chi-squared test per pixel against scipy.stats' pmf, with bins of
        # fewer than 5 expected counts merged into one
        from scipy import stats

        n = 400_000
        Y = PoissonNoise(0.0).sampler(self.RATES)(np.random.default_rng(21),
                                                  (n, self.RATES.size))
        assert np.all(Y[:, 0] == 0)
        for lam, y in zip(self.RATES[1:], Y[:, 1:].T):
            counts = np.bincount(y.astype(np.intp))
            expected = n * stats.poisson.pmf(np.arange(counts.size), lam)
            big = expected >= 5
            observed = np.append(counts[big], n - counts[big].sum())
            expected = np.append(expected[big], n - expected[big].sum())
            chi2 = np.sum((observed - expected) ** 2 / expected)
            p = stats.chi2.sf(chi2, observed.size - 1)
            assert p > 1e-3, (lam, chi2, observed.size)

    def test_one_uniform_per_count_in_row_major_order(self):
        # each count is the smallest j with u < F(j) for the double that
        # rng.random gives at its place, so split draws equal one draw
        tables = noise.PoissonTables(self.RATES)
        cdf = tables.cdf.reshape(self.RATES.size, tables.n)
        U = np.random.default_rng(5).random((5000, self.RATES.size))
        want = np.stack([np.searchsorted(cdf[i], U[:, i], side="right")
                         for i in range(self.RATES.size)], axis=1)
        rng = np.random.default_rng(5)
        got = np.concatenate([tables.draw(rng, (rows, self.RATES.size))
                              for rows in (1, 1999, 3000)])
        np.testing.assert_array_equal(got, want)

    def test_tables_rise_to_one_and_their_bytes_are_counted(self):
        tables = noise.PoissonTables(self.RATES)
        cdf = tables.cdf.reshape(self.RATES.size, tables.n)
        assert np.all(np.diff(cdf, axis=1) >= 0)
        assert np.all(cdf[:, -1] == np.inf) and np.all(cdf[:, -2] == 1.0)
        assert noise.table_bytes(self.RATES) == (tables.cdf.nbytes + tables.guide.nbytes
                                                 + tables.ambiguous.nbytes)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_non_finite_or_negative_mean_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            PoissonNoise(0.0).sampler(np.array([1.0, bad]))

    def test_large_rates_draw_with_rng_poisson(self):
        # tables beyond GRAM_BLOCK_BYTES: the model's own rng.poisson draws
        mean = np.full(300, 1e4)
        assert noise.table_bytes(mean) == 0
        got = PoissonNoise(0.0).sampler(mean)(np.random.default_rng(3), (7, 300))
        want = PoissonNoise(0.0).draw(np.random.default_rng(3), mean, (7, 300))
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("fn", [log_likelihood, score, hessian_log_likelihood])
@pytest.mark.parametrize("y", [1.0, np.ones(4), np.ones((9, 1))],
                         ids=["scalar", "short", "column"])
def test_measurement_shape_checked(fn, y, identity_h):
    # a scalar would broadcast as a measurement, a wrong length would reach
    # NumPy's broadcasting error; both are one DimensionError instead
    with pytest.raises(DimensionError):
        fn(GaussianNoise(1.0), identity_h, np.ones(9), y)
