"""motrbench._lapack gives numpy.linalg's bits, and numpy.linalg's outcome,
on the sizes its sites use.

The trust-region eigendecomposition and Woodbury evaluation and the
Riccati and game iterations call numpy's LAPACK gufuncs through _lapack,
without numpy.linalg's per-call wrapper.  runs.jsonl and both score tables
are pinned byte for byte, so each function must return exactly what
numpy.linalg returns: the same array, or a LinAlgError with the same
message.  The failing inputs are the ones a run can hand them (a matrix
that is not positive definite, a singular one, NaN or inf entries, and
finite entries whose products overflow), under each error state a caller
may have set, since the synthesis and solver tests run under
np.errstate(over="ignore", invalid="ignore").  The sizes are those of the
sites: eigh at the policy dimensions 12 and 64 (and 1 to 8), eigvalsh at
d_w, solve at d_u and d_x with a matrix right-hand side, and the Woodbury
capacitance matrix at r = 8, 16, 24 and 32 (cholesky_lo, and solve1 with
a vector, called in a not_positive_definite() block).
"""

import numpy as np
import pytest

from motrbench import _lapack

SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 64]
CALLER_STATES = [{}, {"all": "ignore"}, {"all": "raise"}, {"over": "ignore", "invalid": "ignore"}]
STATE_IDS = ["default", "ignore", "raise", "over-invalid-ignored"]


def outcome(f, *args):
    """('array', shapes, dtypes, bytes) of what f returns, or ('error', its type, its message)."""
    try:
        result = f(*args)
    except Exception as exc:  # any exception is an outcome to compare
        return "error", type(exc), str(exc)
    arrays = result if isinstance(result, tuple) else (result,)
    return "array", [a.shape for a in arrays], [a.dtype for a in arrays], b"".join(a.tobytes() for a in arrays)


def in_block(f):
    """f called in a not_positive_definite() block, as the Woodbury evaluation calls it."""

    def call(*args):
        with _lapack.not_positive_definite():
            return f(*args)

    return call


def pairs(n):
    """(name, ours, numpy.linalg's, args maker) for each function at size n:
    the args maker takes the square input a."""
    rhs = np.linspace(-1.0, 1.0, 2 * n * n).reshape(n, 2 * n)
    return [
        ("eigh", _lapack.eigh, lambda a: tuple(np.linalg.eigh(a)), lambda a: (a,)),
        ("eigvalsh", _lapack.eigvalsh, np.linalg.eigvalsh, lambda a: (a,)),
        ("solve", _lapack.solve, np.linalg.solve, lambda a: (a, rhs)),
        ("cholesky_lo", in_block(_lapack.cholesky_lo), np.linalg.cholesky, lambda a: (a,)),
        ("solve1", in_block(_lapack.solve1), np.linalg.solve, lambda a: (a, rhs[:, 0].copy())),
    ]


def test_each_function_matches_numpy_linalg_bit_for_bit():
    rng = np.random.default_rng(32)
    cases = 0
    for n in SIZES:
        for _ in range(5):
            M = rng.standard_normal((n, n))
            inputs = {"eigh": 0.5 * (M + M.T), "eigvalsh": 0.5 * (M + M.T), "solve": M,
                      "cholesky_lo": M.dot(M.T) + n * np.eye(n), "solve1": M.dot(M.T) + n * np.eye(n)}
            for name, ours, theirs, args in pairs(n):
                got, want = outcome(ours, *args(inputs[name])), outcome(theirs, *args(inputs[name]))
                assert got[0] == "array" and got == want, f"{name} n={n}"
                cases += 1
    assert cases == len(SIZES) * 5 * 5


def failing_inputs(n):
    """Square n x n inputs that numpy.linalg may refuse, by name."""
    inputs = {
        "negative definite": -np.eye(n),
        "indefinite": np.diag(np.linspace(-1.0, 1.0, n)) if n > 1 else -np.ones((1, 1)),
        "zero": np.zeros((n, n)),
        "singular": np.ones((n, n)),
        "large": np.full((n, n), 1e300) + 1e308 * np.eye(n),
    }
    # Finite entries whose products inside the factorization overflow.
    overflowing = np.eye(n)
    overflowing[0, 0] = 1e-300
    overflowing[0, -1] = overflowing[-1, 0] = 1e200
    inputs["overflowing"] = overflowing
    for bad in (np.nan, np.inf, -np.inf):
        A = np.eye(n)
        A[-1, 0] = A[0, -1] = bad
        inputs[f"{bad} entry"] = A
        diag = np.eye(n)
        diag[0, 0] = bad
        inputs[f"{bad} on the diagonal"] = diag
    return inputs


@pytest.mark.parametrize("state", CALLER_STATES, ids=STATE_IDS)
def test_each_function_fails_as_numpy_linalg_does(state):
    # In the block, solve1 raises cholesky's message where np.linalg.solve
    # raises "Singular matrix"; the Woodbury evaluation reads any
    # LinAlgError as an uncertified nu.
    seen = set()
    for n in SIZES:
        for label, a in failing_inputs(n).items():
            for name, ours, theirs, args in pairs(n):
                with np.errstate(**state):
                    got, want = outcome(ours, *args(a)), outcome(theirs, *args(a))
                if name == "solve1" and want[0] == "error":
                    want = "error", np.linalg.LinAlgError, "Matrix is not positive definite"
                assert got == want, f"{name} on {label} n={n}: {got[:3]} != {want[:3]}"
                seen.add(got[2] if got[0] == "error" else "array")
    # Every kind of failure shows, and so do the NaN arrays numpy.linalg
    # returns without an error (a NaN entry passes cholesky and solve).
    assert seen == {"array", "Matrix is not positive definite", "Singular matrix", "Eigenvalues did not converge"}
