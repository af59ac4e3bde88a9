"""Numerical oracles: central finite differences for gradients and Jacobians.

Used by the verify command (and the test suite) to cross-check analytic
scores and Hessians against derivative-free evaluations of the likelihood.
"""

import numpy as np

FD_STEP = 1e-5    # central-difference step, in the units of x


def fd_gradient(f, x) -> np.ndarray:
    """Central-difference gradient of a scalar function at x: the one row of
    the Jacobian of x -> [f(x)]."""
    return fd_jacobian(lambda y: np.array([f(y)]), x)[0]


def fd_jacobian(g, x) -> np.ndarray:
    """Central-difference Jacobian of a vector function at x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = FD_STEP
        cols.append((g(x + e) - g(x - e)) / (2.0 * FD_STEP))
    return np.stack(cols, axis=1)


def relative_error(approx, exact) -> float:
    """Frobenius-norm relative error of approx against exact."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    denom = np.linalg.norm(exact)
    if denom == 0:
        return float(np.linalg.norm(approx))
    return float(np.linalg.norm(approx - exact) / denom)
