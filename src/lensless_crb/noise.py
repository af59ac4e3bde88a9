"""Noise samplers and the probabilistic layer.

Two measurement models over the noiseless image b = H v:

* Gaussian: y = b + n with n ~ N(0, sigma2 * I) (read-noise-limited).
* Poisson:  y_l ~ Poisson(b_l + background) independently (shot-noise-limited).

Each model holds its per-measurement math: the additive background of its
mean measurement, its draws, its log-density, its score weights r (score =
H^T r), the changes of both when the mean moves (differenced per
measurement, so the finite-difference oracles keep their digits at any
background or variance), its curvature weights w (Hessian = -H^T diag(w)
H) and its Fisher weights (1 / sigma2, or 1 / mean;
fisher.fisher_information forms J = H^T diag(w) H from them). No model method sees H: the functions below
apply that math through H, whatever the model, at the one mean measurement
mean_measurement(model, H, v). A model validates its parameter once, when it
is built. A model's sampler(mean) draws many measurements around one fixed
mean row, as the Monte Carlo Fisher does: Poisson counts then come from
PoissonTables, one uniform per count.

The Poisson background floor keeps likelihood, score, and Fisher information
well defined where a sparse object's PSF copies never deposit photons;
background = 0 is allowed and raises explicit errors on zero rates.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionError, SingularRateError
from .forward_model import GRAM_BLOCK_BYTES, SystemMatrix, adjoint, forward, weighted_gram

# bytes of PoissonTables per table entry: its CDF value and two guide bins,
# each a float64 first guess and a bool flag
TABLE_ENTRY_BYTES = 8 + 2 * (8 + 1)


def check_parameter(name: str, value: float, allow_zero: bool = False) -> None:
    """Raise ValueError unless value is finite and positive with a finite
    reciprocal (or zero, if allowed).

    An infinite variance or background would give J = 0, whose reported
    bound is the artefact 1/eps of the diagonal loading; one so small that
    its reciprocal overflows (1e-320, say) would give infinite Fisher
    weights; a negative or non-finite eps would report no bound at all.
    """
    value = float(value)
    if not (allow_zero and value == 0 or 0 < value < math.inf and 1.0 / value < math.inf):
        bound = "0, or finite and positive" if allow_zero else "finite and positive"
        raise ValueError(f"{name} must be {bound} with a finite reciprocal, got {value!r}")


@dataclass(frozen=True)
class GaussianNoise:
    sigma2: float  # per-pixel variance, photons^2
    background: ClassVar[float] = 0.0   # the mean measurement is b itself

    def __post_init__(self):
        check_parameter("sigma2", self.sigma2)

    def draw(self, rng, mean, shape) -> np.ndarray:
        return mean + rng.normal(0.0, np.sqrt(self.sigma2), size=shape)

    def sampler(self, mean):
        """draw(rng, shape) around the fixed mean row: the model's own draws."""
        return lambda rng, shape: self.draw(rng, mean, shape)

    def draw_path(self, mean) -> dict:
        """How sampler(mean) draws, as a manifest records it."""
        return {"path": "rng.normal", "table_bytes": 0}

    def log_pdf(self, y, mean) -> float:
        r = y - mean
        return float(-0.5 * np.sum(r * r) / self.sigma2
                     - 0.5 * y.size * np.log(2.0 * np.pi * self.sigma2))

    def log_pdf_change(self, y, mean, change) -> float:
        """log_pdf(y, mean + change) - log_pdf(y, mean), differenced per
        measurement: sum(change (2 (y - mean) - change)) / (2 sigma2)."""
        return float(np.sum(change * (2.0 * (y - mean) - change)) / (2.0 * self.sigma2))

    def score_weights(self, y, mean):
        return (y - mean) / self.sigma2

    def score_weights_change(self, y, mean, change):
        """score_weights(y, mean + change) - score_weights(y, mean): -change / sigma2."""
        return -change / self.sigma2

    def curvature(self, y, mean):
        return 1.0 / self.sigma2

    def fisher_weights(self, mean):
        """Fisher weight of every measurement: 1 / sigma2, whatever the mean
        (which may be None: the Gaussian Fisher matrix takes no object)."""
        return 1.0 / self.sigma2


@dataclass(frozen=True)
class PoissonNoise:
    background: float = 0.0  # photons, added to every rate

    def __post_init__(self):
        check_parameter("background", self.background, allow_zero=True)

    def draw(self, rng, mean, shape) -> np.ndarray:
        return rng.poisson(mean, size=shape).astype(float)

    def sampler(self, mean):
        """draw(rng, shape) around the fixed mean row: PoissonTables inversion,
        one rng.random double per count, unless its tables would exceed
        GRAM_BLOCK_BYTES (table_bytes gives 0); then rng.poisson, as draw."""
        if table_bytes(mean):
            return PoissonTables(mean).draw
        return lambda rng, shape: self.draw(rng, mean, shape)

    def draw_path(self, mean) -> dict:
        """How sampler(mean) draws, as a manifest records it."""
        nbytes = table_bytes(mean)
        return {"path": "tables" if nbytes else "rng.poisson", "table_bytes": nbytes}

    def log_pdf(self, y, mean) -> float:
        # imported here: only a Poisson log-likelihood without a reference
        # needs scipy.special, which loads SciPy's array-API layer (about
        # 0.15 s) on its first call; no command evaluates one
        from scipy.special import gammaln

        if np.any((mean == 0) & (y > 0)):
            return float("-inf")
        with np.errstate(divide="ignore", invalid="ignore"):
            ylogb = np.where(y > 0, y * np.log(mean), 0.0)
        return float(np.sum(ylogb - mean - gammaln(y + 1.0)))

    def log_pdf_change(self, y, mean, change) -> float:
        """log_pdf(y, mean + change) - log_pdf(y, mean), differenced per
        measurement: sum(y log1p(change / mean)) - sum(change), a zero count
        adding only -change. The means must be positive."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ylog = np.where(y > 0, y * np.log1p(change / mean), 0.0)
        return float(np.sum(ylog) - np.sum(change))

    def score_weights(self, y, mean):
        if np.all(mean > 0):
            # a zero count gives 0 / mean = 0, as _poisson_ratio does
            r = np.divide(y, mean)
            r -= 1.0
            return r
        return _poisson_ratio(mean, y) - 1.0

    def score_weights_change(self, y, mean, change):
        """score_weights(y, mean + change) - score_weights(y, mean), formed
        as -y change / ((mean + change) mean). The means must be positive."""
        return -y * change / ((mean + change) * mean)

    def curvature(self, y, mean):
        return _poisson_ratio(mean, y) / np.where(mean > 0, mean, 1.0)

    def fisher_weights(self, mean):
        """Fisher weight of each measurement, 1 / mean. DimensionError
        without a mean (the Poisson Fisher matrix depends on the object),
        SingularRateError at the first zero rate."""
        if mean is None:
            raise DimensionError("the Poisson Fisher matrix needs an object")
        if np.any(mean <= 0):
            raise SingularRateError(int(np.argmax(mean <= 0)))
        return 1.0 / mean


def _table_length(top: float) -> int:
    """Counts 0 .. n-1 that the tables hold for rates up to top. The Poisson
    tail P(X >= n) lies below 1e-23 for every rate up to top."""
    return math.ceil(top + 10.0 * math.sqrt(top) + 24.0)


def _check_mean(mean) -> None:
    if not np.all((mean >= 0) & (mean < np.inf)):
        raise ValueError("mean measurement must be finite and non-negative")


def table_bytes(mean) -> int:
    """Bytes of the PoissonTables of the mean row, or 0 when they would
    exceed GRAM_BLOCK_BYTES and PoissonNoise.sampler draws with rng.poisson.
    The choice depends on the mean alone. ValueError unless the mean is
    finite and non-negative."""
    mean = np.asarray(mean, dtype=float)
    _check_mean(mean)
    nbytes = mean.size * _table_length(float(np.max(mean))) * TABLE_ENTRY_BYTES
    return nbytes if nbytes <= GRAM_BLOCK_BYTES else 0


class PoissonTables:
    """Poisson counts around one fixed mean row by inversion of per-pixel
    CDF tables with a guide table (Chen & Asau, AIIE Trans. 6(2), 1974;
    Devroye, Non-Uniform Random Variate Generation, 1986, ch. III).

    Row i of cdf holds F_i(j) = P(X_i <= j) for j < n, with n the same for
    every pixel, built from the log-pmf j log(lam) - lam - log j! as a
    cumulative sum of logs and normalized to end at 1. Its last entry is
    +inf, so the tail beyond it (below 1e-23) counts as n - 1, and a pixel
    of rate 0 always draws 0. A count is the smallest j with u < F_i(j) for
    one uniform u. With G = 2n bins per pixel, bin g = floor(u * G) holds as
    its first guess (guide) the number of entries whose own bin lies below
    g; floor(fl(x * G)) rises with x, so the count is never below it, and is
    exactly it unless an entry shares u's bin (ambiguous). Only those draws
    step up through the table, on compacted indices.
    """

    def __init__(self, mean):
        lam = np.asarray(mean, dtype=float)
        k, n = lam.size, _table_length(float(np.max(lam)))
        self.n, self.bins = n, 2 * n
        G = self.bins
        with np.errstate(divide="ignore"):   # log 0 = -inf: no mass past j = 0
            log_lam = np.log(lam)
        cdf = np.empty((k, n))
        cdf[:, 0] = -lam
        np.subtract(log_lam[:, None], np.log(np.arange(1.0, n)), out=cdf[:, 1:])
        np.cumsum(cdf, axis=1, out=cdf)
        np.exp(cdf, out=cdf)
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        cdf[:, -1] = np.inf
        # each entry's bin, as draw computes a uniform's; +inf lands past the last
        entry_bin = np.minimum(cdf * G, G).astype(np.intp)
        entry_bin += np.arange(0, k * (G + 1), G + 1)[:, None]
        per_bin = np.bincount(entry_bin.ravel(), minlength=k * (G + 1)).reshape(k, G + 1)
        self.ambiguous = (per_bin[:, :G] > 0).ravel()
        guide = np.zeros((k, G))
        np.cumsum(per_bin[:, :G - 1], axis=1, out=guide[:, 1:])
        self.guide = guide.ravel()
        self.cdf = cdf.ravel()
        self.row_bins = np.arange(0, k * G, G)   # first bin of each pixel

    def draw(self, rng, shape) -> np.ndarray:
        """Counts of the given (rows, k) shape, as floats, from one
        rng.random call: one double per count, in row-major order, so draws
        split into row blocks are the draws of one call."""
        u = rng.random(shape)
        q = np.multiply(u, self.bins, out=np.empty(shape, np.intp), casting="unsafe")
        q += self.row_bins
        pos = np.flatnonzero(np.take(self.ambiguous, q, mode="clip"))
        flat = u.reshape(-1)
        u_pos, q_pos = flat[pos], q.reshape(-1)[pos]
        # mode="clip" writes into u without the buffered copy of mode="raise"
        np.take(self.guide, q, out=u, mode="clip")
        del q   # the steps below need only the compacted arrays
        t = q_pos // self.bins * self.n          # the pixel's first entry ...
        t += flat[pos].astype(np.intp)           # ... plus its first guess
        more = np.take(self.cdf, t, mode="clip") <= u_pos
        while np.any(more):
            pos, t, u_pos = pos[more], t[more], u_pos[more]
            t += 1
            flat[pos] += 1.0
            more = np.take(self.cdf, t, mode="clip") <= u_pos
        return u


def _poisson_ratio(b, y):
    """y / b with the 0/0 convention y=0 -> 0; raises on y>0 at zero rate.

    y may hold one measurement per row; the error names the measurement pixel.
    """
    zero = (b == 0) & (y > 0)
    if np.any(zero):
        raise SingularRateError(int(np.nonzero(zero)[-1][0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(y > 0, y / b, 0.0)


def _measurement(H: SystemMatrix, y) -> np.ndarray:
    """y as a float array; DimensionError unless it is one measurement (k,)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (H.k,):
        raise DimensionError(f"measurement shape {y.shape} != ({H.k},) of H rows")
    return y


def mean_measurement(model, H: SystemMatrix, v) -> np.ndarray:
    """The model's mean measurement H v + background at object v."""
    return forward(H, v) + model.background


def sample(model, b, seed) -> np.ndarray:
    """Draw a noisy measurement from the model around noiseless image b.

    seed is anything default_rng takes; a Generator is drawn from as it
    stands. b may be a batch with one measurement per row: its rows are
    drawn in order from the one stream, as successive calls would draw them.
    """
    mean = np.asarray(b, dtype=float) + model.background
    _check_mean(mean)
    return model.draw(np.random.default_rng(seed), mean, mean.shape)


def log_likelihood(model, H: SystemMatrix, v, y, reference=None) -> float:
    """ln p(y; v). Poisson returns -inf when a zero rate meets a nonzero count.

    Given a reference object, the log-likelihood ratio ln p(y; v) -
    ln p(y; reference) instead, differenced per measurement (the model's
    log_pdf_change) over the measurements whose mean moves, so it keeps its
    digits however large the log-likelihood itself is: a sum over k
    measurements of size k * background, or k/2 log(2 pi sigma2), would
    lose a small change to round-off. The reference's moved Poisson rates
    must be positive.
    """
    y = _measurement(H, y)
    if reference is None:
        return model.log_pdf(y, mean_measurement(model, H, v))
    _moved, *args = _moved_means(model, H, v, y, reference)
    return model.log_pdf_change(*args)


def score(model, H: SystemMatrix, v, y, reference=None) -> np.ndarray:
    """Gradient of the log-likelihood with respect to the object pixels.

    Given a reference object, score(v) - score(reference) instead, from the
    per-measurement change of the score weights (the model's
    score_weights_change), not from the difference of two scores.
    """
    y = _measurement(H, y)
    if reference is None:
        return adjoint(H, model.score_weights(y, mean_measurement(model, H, v)))
    moved, *args = _moved_means(model, H, v, y, reference)
    r = np.zeros(H.k)
    r[moved] = model.score_weights_change(*args)
    return adjoint(H, r)


def _moved_means(model, H: SystemMatrix, v, y, reference):
    """The measurements whose mean moves from object reference to v: their
    mask, and at them the counts y, the reference's mean measurement and
    the change H (v - reference) of the mean."""
    change = forward(H, np.asarray(v, dtype=float) - reference)
    moved = change != 0
    return moved, y[moved], mean_measurement(model, H, reference)[moved], change[moved]


def hessian_log_likelihood(model, H: SystemMatrix, v, y) -> np.ndarray:
    """Hessian of the log-likelihood; Gaussian is y-independent."""
    y = _measurement(H, y)
    return -weighted_gram(H, model.curvature(y, mean_measurement(model, H, v)))
