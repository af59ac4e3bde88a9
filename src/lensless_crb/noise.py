"""Noise samplers and the probabilistic layer.

Two measurement models over the noiseless image b = H v:

* Gaussian: y = b + n with n ~ N(0, sigma2 * I) (read-noise-limited).
* Poisson:  y_l ~ Poisson(b_l + background) independently (shot-noise-limited).

Each model holds its per-measurement math: the additive background of its
mean measurement, its draws, its log-density, its score weights r (score =
H^T r), its curvature weights w (Hessian = -H^T diag(w) H) and its
closed-form Fisher matrix. The functions below apply that math through H,
whatever the model.

The Poisson background floor keeps likelihood, score, and Fisher information
well defined where a sparse object's PSF copies never deposit photons;
background = 0 is allowed and raises explicit errors on zero rates.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import fisher as _fisher
from .errors import DimensionError, SingularRateError
from .forward_model import SystemMatrix, adjoint, forward, weighted_gram


@dataclass(frozen=True)
class GaussianNoise:
    sigma2: float  # per-pixel variance, photons^2
    background: ClassVar[float] = 0.0   # the mean measurement is b itself

    def __post_init__(self):
        _fisher.check_parameter("sigma2", self.sigma2)

    def draw(self, rng, mean, shape) -> np.ndarray:
        return mean + rng.normal(0.0, np.sqrt(self.sigma2), size=shape)

    def log_pdf(self, y, mean) -> float:
        r = y - mean
        return float(-0.5 * np.sum(r * r) / self.sigma2
                     - 0.5 * y.size * np.log(2.0 * np.pi * self.sigma2))

    def score_weights(self, y, mean):
        return (y - mean) / self.sigma2

    def curvature(self, y, mean):
        return 1.0 / self.sigma2

    def fisher(self, H: SystemMatrix, v) -> np.ndarray:
        """Closed-form Fisher matrix; the object v does not enter it."""
        return _fisher.fisher_gaussian(H, self.sigma2)


@dataclass(frozen=True)
class PoissonNoise:
    background: float = 0.0  # photons, added to every rate

    def __post_init__(self):
        _fisher.check_parameter("background", self.background, allow_zero=True)

    def draw(self, rng, mean, shape) -> np.ndarray:
        return rng.poisson(mean, size=shape).astype(float)

    def log_pdf(self, y, mean) -> float:
        # imported here: only a Poisson log-likelihood needs scipy.special
        from scipy.special import gammaln

        if np.any((mean == 0) & (y > 0)):
            return float("-inf")
        with np.errstate(divide="ignore", invalid="ignore"):
            ylogb = np.where(y > 0, y * np.log(mean), 0.0)
        return float(np.sum(ylogb - mean - gammaln(y + 1.0)))

    def score_weights(self, y, mean):
        return _poisson_ratio(mean, y) - 1.0

    def curvature(self, y, mean):
        return _poisson_ratio(mean, y) / np.where(mean > 0, mean, 1.0)

    def fisher(self, H: SystemMatrix, v) -> np.ndarray:
        """Closed-form Fisher matrix at object v."""
        return _fisher.fisher_poisson(H, v, self.background)


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


def _mean(model, H: SystemMatrix, v) -> np.ndarray:
    return forward(H, v) + model.background


def sample(model, b, seed) -> np.ndarray:
    """Draw a noisy measurement from the model around noiseless image b.

    seed is anything default_rng takes; a Generator is drawn from as it
    stands. b may be a batch with one measurement per row: its rows are
    drawn in order from the one stream, as successive calls would draw them.
    """
    mean = np.asarray(b, dtype=float) + model.background
    if not np.all((mean >= 0) & (mean < np.inf)):
        raise ValueError("mean measurement must be finite and non-negative")
    return model.draw(np.random.default_rng(seed), mean, mean.shape)


def log_likelihood(model, H: SystemMatrix, v, y) -> float:
    """ln p(y; v). Poisson returns -inf when a zero rate meets a nonzero count."""
    y = _measurement(H, y)
    return model.log_pdf(y, _mean(model, H, v))


def score(model, H: SystemMatrix, v, y) -> np.ndarray:
    """Gradient of the log-likelihood with respect to the object pixels."""
    y = _measurement(H, y)
    return adjoint(H, model.score_weights(y, _mean(model, H, v)))


def hessian_log_likelihood(model, H: SystemMatrix, v, y) -> np.ndarray:
    """Hessian of the log-likelihood; Gaussian is y-independent."""
    y = _measurement(H, y)
    return -weighted_gram(H, model.curvature(y, _mean(model, H, v)))
