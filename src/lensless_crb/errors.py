"""Exception types shared across the toolkit.

An error with constructor arguments of its own rebuilds itself from them
when unpickled (``__reduce__``), so it crosses a process boundary with its
type, attributes and message intact: a study case runs in a worker process.
"""


class DimensionError(ValueError):
    """Array shapes are incompatible with the requested operation."""


class PlacementError(RuntimeError):
    """Random spot placement exhausted its retry budget."""


class SingularRateError(ValueError):
    """A Poisson rate is zero where the likelihood requires it positive."""

    def __init__(self, pixel: int):
        self.pixel = pixel
        super().__init__(f"zero Poisson rate at measurement pixel {pixel}")

    def __reduce__(self):
        return type(self), (self.pixel,)


class FactorizationError(RuntimeError):
    """Symmetric positive-definite factorization failed even after regularization."""

    def __init__(self, epsilon: float, message: str):
        self.epsilon = epsilon
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.epsilon, self.args[0])


class TrialFailureError(RuntimeError):
    """More than 1% of a trial run's estimates were non-finite."""

    def __init__(self, n_failed: int, n_trials: int):
        self.n_failed = n_failed
        self.n_trials = n_trials
        super().__init__(f"{n_failed}/{n_trials} estimator failures")

    def __reduce__(self):
        return type(self), (self.n_failed, self.n_trials)


class GramUnderflowError(FloatingPointError):
    """H^T H underflowed to zero: the PSF is too faint for float64."""

    def __init__(self, psf_peak: float):
        self.psf_peak = psf_peak
        super().__init__(f"H^T H underflows to zero for a PSF of peak {psf_peak:.3g}; "
                         "scale the PSF up")

    def __reduce__(self):
        return type(self), (self.psf_peak,)


class ConfigError(ValueError):
    """Invalid experiment configuration."""
