"""Decoder-independent performance bounds for lensless imaging encoders.

Computes Fisher information matrices and Cramér-Rao bounds for convolutional
lensless imagers under Gaussian and Poisson noise, with Monte Carlo and
finite-difference oracles for every closed form, reference decoders to test
bound attainment, and a CLI for the encoder-multiplexing studies.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionError,
    FactorizationError,
    GramUnderflowError,
    PlacementError,
    SingularRateError,
    TrialFailureError,
)
from .estimators import (
    TrialReport,
    make_gls_solver,
    nnls_estimate,
    poisson_mle,
    run_trials,
)
from .fisher import (
    CrbMap,
    bound,
    crb_from_fisher,
    fisher_information,
    fisher_monte_carlo,
    fisher_poisson,
)
from .forward_model import (
    SystemMatrix,
    VectorizedObject,
    adjoint,
    build_system_matrix,
    forward,
    pad_psf,
    vectorize,
)
from .noise import (
    GaussianNoise,
    PoissonNoise,
    hessian_log_likelihood,
    log_likelihood,
    sample,
    score,
)
from .objects import DenseCells, ObjectSpec, SparseBeads, generate_object, sparsity
from .psf import (
    Diffuser,
    Lenslets,
    PsfSpec,
    Rml,
    generate_psf,
    multiplexing_index,
)

__all__ = [
    "ConfigError", "DimensionError", "FactorizationError", "GramUnderflowError",
    "PlacementError",
    "SingularRateError", "TrialFailureError",
    "TrialReport", "make_gls_solver", "nnls_estimate", "poisson_mle", "run_trials",
    "CrbMap", "bound", "crb_from_fisher",
    "fisher_information", "fisher_monte_carlo", "fisher_poisson",
    "SystemMatrix", "VectorizedObject", "adjoint", "build_system_matrix",
    "forward", "pad_psf", "vectorize",
    "GaussianNoise", "PoissonNoise", "hessian_log_likelihood", "log_likelihood",
    "sample", "score",
    "DenseCells", "ObjectSpec", "SparseBeads", "generate_object", "sparsity",
    "Diffuser", "Lenslets", "PsfSpec", "Rml", "generate_psf", "multiplexing_index",
]
