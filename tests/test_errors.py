import pickle

import pytest

from lensless_crb import (ConfigError, DimensionError, FactorizationError, GramUnderflowError,
                          PlacementError, SingularRateError, TrialFailureError)


@pytest.mark.parametrize("error, attrs", [
    (SingularRateError(7), {"pixel": 7}),
    (FactorizationError(1e-3, "Cholesky of A + eps*I failed"), {"epsilon": 1e-3}),
    (TrialFailureError(20, 1000), {"n_failed": 20, "n_trials": 1000}),
    (GramUnderflowError(1e-200), {"psf_peak": 1e-200}),
    (ConfigError("bad value for seed"), {}),
    (DimensionError("expected a 2-D grid"), {}),
    (PlacementError("no room for 15 spots"), {}),
])
def test_error_survives_pickling(error, attrs):
    # a study case runs in a worker process, whose error reaches the
    # command through pickle
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert vars(copy) == attrs
    assert str(copy) == str(error)
