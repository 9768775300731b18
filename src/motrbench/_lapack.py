"""numpy.linalg's LAPACK calls without numpy.linalg's per-call wrapper.

The per-play and per-iteration sites (trust_region's eigendecomposition
and Woodbury evaluation, the Riccati and game iterations in controllers)
factor small float64 matrices thousands of times a run, and at sizes up to
32 numpy.linalg's Python wrapper (array conversion, type resolution, the
result's cast) costs as much as LAPACK itself.  These functions call the
gufuncs numpy.linalg calls, with its float64 signature and under its error
state, so each gives numpy.linalg's array bit for bit, or raises its
LinAlgError, on what its sites hand them: square float64 arrays.  Set-up
code keeps np.linalg.

A failed factorization makes the gufunc fill its output with NaN and set
the invalid flag; the error state turns that flag into LinAlgError,
whatever error state the caller set.  cholesky_lo and solve1 have no error
state of their own: the Woodbury evaluation calls them in a block under
not_positive_definite(), np.linalg.cholesky's state, where each raises
that LinAlgError on failure (and so does an elementwise operation that
sets the invalid flag).
"""

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg import _umath_linalg

__all__ = ["eigh", "eigvalsh", "solve", "not_positive_definite", "cholesky_lo", "solve1"]


def _state(message):
    def fail(err, flag):
        raise LinAlgError(message)

    return dict(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


_NO_CONVERGENCE = _state("Eigenvalues did not converge")
_NOT_POSITIVE_DEFINITE = _state("Matrix is not positive definite")
_SINGULAR = _state("Singular matrix")


def eigh(a):
    """(w, v) of np.linalg.eigh(a): eigenvalues ascending, from the lower triangle."""
    with np.errstate(**_NO_CONVERGENCE):
        return _umath_linalg.eigh_lo(a, signature="d->dd")


def eigvalsh(a):
    """np.linalg.eigvalsh(a): eigenvalues ascending, from the lower triangle."""
    with np.errstate(**_NO_CONVERGENCE):
        return _umath_linalg.eigvalsh_lo(a, signature="d->d")


def solve(a, b):
    """np.linalg.solve(a, b) for a matrix b."""
    with np.errstate(**_SINGULAR):
        return _umath_linalg.solve(a, b, signature="dd->d")


def not_positive_definite():
    """np.linalg.cholesky's error state, for a block of cholesky_lo and solve1 calls."""
    return np.errstate(**_NOT_POSITIVE_DEFINITE)


def cholesky_lo(a):
    """np.linalg.cholesky(a), the lower-triangular factor, under the caller's error state."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


def solve1(a, b):
    """np.linalg.solve(a, b) for a vector b, under the caller's error state."""
    return _umath_linalg.solve1(a, b, signature="dd->d")
