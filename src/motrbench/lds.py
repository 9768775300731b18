"""Linear time-invariant plant: simulation primitives, stability diagnostics,
and random benchmark systems.

The plant is x_{t+1} = A x_t + B u_t + C w_t with quadratic stage cost
x'Qx + u'Ru.  LinearSystem and CostWeights check their matrices once, at
construction; every dimension is at least 1.  Stability diagnostics
summarize the geometric decay of A: spectral radius rho, decay margin
gamma = 1 - rho, and a certificate constant kappa with
||A^k|| <= kappa * rho^k for diagonalizable A.  uncontrollable is the one
rank test of (A, B).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearSystem",
    "CostWeights",
    "StabilityReport",
    "GenerationError",
    "step",
    "spectral_radius",
    "stage_cost",
    "analyze_stability",
    "uncontrollable",
    "random_system",
    "truncation_horizon",
]

# Eigenvector condition numbers above this are treated as "not diagonalizable
# in practice"; kappa then falls back to a direct sup_k ||A^k|| / rho^k estimate.
DIAGONALIZATION_COND_LIMIT = 1e8
_LYAPUNOV_POWERS = 200
# Draws random_system makes before it raises GenerationError.
SYSTEM_ATTEMPTS = 100


class GenerationError(RuntimeError):
    """random_system exhausted its resampling budget without passing the
    controllability check."""


def _check_declared(obj: dict, sizes: dict) -> None:
    for name, size in sizes.items():
        if type(obj[name]) is not int or obj[name] != size:
            raise ValueError(f"declared sizes: {name} is {obj[name]!r}, not the integer {size}")


@dataclass(frozen=True)
class LinearSystem:
    """Plant matrices (A, B, C) for x_{t+1} = A x + B u + C w."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
            raise ValueError(f"A must be square and non-empty, got shape {A.shape}")
        d_x = A.shape[0]
        B = np.array(self.B, dtype=float)
        C = np.array(self.C, dtype=float)
        for name, arr in (("B", B), ("C", C)):
            if arr.ndim != 2 or arr.shape[0] != d_x or arr.size == 0:
                raise ValueError(
                    f"{name} must have {d_x} rows and at least one column, got shape {arr.shape}"
                )
        for name, arr in (("A", A), ("B", B), ("C", C)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def d_x(self) -> int:
        return self.A.shape[0]

    @property
    def d_u(self) -> int:
        return self.B.shape[1]

    @property
    def d_w(self) -> int:
        return self.C.shape[1]

    def to_json(self) -> dict:
        return {
            "d_x": self.d_x,
            "d_u": self.d_u,
            "d_w": self.d_w,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LinearSystem":
        """The system of a to_json object: the constructor checks the
        matrices, and the declared d_x, d_u and d_w must be their sizes, as ints."""
        sys = cls(obj["A"], obj["B"], obj["C"])
        _check_declared(obj, {"d_x": sys.d_x, "d_u": sys.d_u, "d_w": sys.d_w})
        return sys


@dataclass(frozen=True)
class CostWeights:
    """Quadratic stage-cost weights: cost(x, u) = x'Qx + u'Ru.

    Q and R must be non-empty, symmetric and PSD.
    """

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        R = np.array(self.R, dtype=float)
        for name, M in (("Q", Q), ("R", R)):
            if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
                raise ValueError(f"{name} must be square and non-empty, got shape {M.shape}")
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} contains non-finite entries")
            if np.max(np.abs(M - M.T)) > 1e-10 * (1.0 + np.max(np.abs(M))):
                raise ValueError(f"{name} is not symmetric within tolerance")
            if np.linalg.eigvalsh(M).min() < -1e-10:
                raise ValueError(f"{name} is not positive semidefinite")
            M.setflags(write=False)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)

    @property
    def xi(self) -> float:
        """The larger of the spectral norms of Q and R, used by the
        truncation-horizon and coefficient-bound formulas."""
        return max(_spectral_norm(self.Q), _spectral_norm(self.R))

    @property
    def d_x(self) -> int:
        return self.Q.shape[0]

    @property
    def d_u(self) -> int:
        return self.R.shape[0]

    def to_json(self) -> dict:
        return {
            "d_x": self.d_x,
            "d_u": self.d_u,
            "Q": self.Q.tolist(),
            "R": self.R.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CostWeights":
        """The weights of a to_json object, checked as LinearSystem.from_json
        checks a system."""
        cw = cls(obj["Q"], obj["R"])
        _check_declared(obj, {"d_x": cw.d_x, "d_u": cw.d_u})
        return cw


@dataclass(frozen=True)
class StabilityReport:
    """Decay diagnostics for the state map A.

    gamma = max(0, 1 - spectral_radius).  kappa certifies the decay chain
    ||A^k x|| <= kappa * spectral_radius^k * ||x|| when is_strongly_stable.
    beta is the largest spectral norm among A, B, C.
    """

    spectral_radius: float
    gamma: float
    kappa: float
    beta: float
    is_strongly_stable: bool


def spectral_radius(A: np.ndarray) -> float:
    """Largest eigenvalue modulus of the square matrix A."""
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def _spectral_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2))


def step(sys: LinearSystem, x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One plant transition A x + B u + C w.

    Plain arithmetic on float vectors of shapes (d_x,), (d_u,), (d_w,); the
    episode harness checks the shapes of u and w where they enter.
    """
    # Products made once per round or per value-iteration step are written
    # a.dot(b): the same BLAS kernel and bits as a @ b at half the call cost
    # (no ufunc dispatch).  Stacked products, matmul's strided loop on
    # GPC's overlapping window view and set-up code keep @.
    return sys.A.dot(x) + sys.B.dot(u) + sys.C.dot(w)


def stage_cost(cw: CostWeights, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Quadratic stage costs x'Qx + u'Ru of float arrays x (..., d_x) and
    u (..., d_u): one cost for a pair of vectors, one per row for the
    stacked states and controls of a trajectory.

    The products are stacked matmuls, (x Q) x then (u R) u per row, which
    run the BLAS kernels of the per-vector x @ Q @ x and so give the same
    bits for every row; np.einsum or one gemm X @ Q would not.
    """
    xQx = (x[..., None, :] @ cw.Q) @ x[..., :, None]
    uRu = (u[..., None, :] @ cw.R) @ u[..., :, None]
    return (xQx + uRu)[..., 0, 0]


def analyze_stability(sys: LinearSystem) -> StabilityReport:
    """Spectral radius, decay margin, and the decay certificate for A.

    kappa is the eigenvector-matrix condition number when A diagonalizes
    with condition below DIAGONALIZATION_COND_LIMIT; otherwise the matrix is
    flagged not strongly stable and kappa falls back to the direct estimate
    sup_k ||A^k|| / rho^k over k <= 200.
    """
    A = sys.A
    beta = max(_spectral_norm(sys.A), _spectral_norm(sys.B), _spectral_norm(sys.C))
    eigvals, V = np.linalg.eig(A)
    rho = float(np.max(np.abs(eigvals)))
    gamma = min(1.0, max(0.0, 1.0 - rho))

    cond = np.inf
    try:
        cond = float(np.linalg.cond(V))
    except np.linalg.LinAlgError:
        pass
    diagonalizable = np.isfinite(cond) and cond < DIAGONALIZATION_COND_LIMIT

    if diagonalizable:
        kappa = max(1.0, cond)
    else:
        kappa = 1.0
        Ak = np.eye(sys.d_x)
        for k in range(1, _LYAPUNOV_POWERS + 1):
            Ak = Ak @ A
            nk = _spectral_norm(Ak)
            if nk == 0.0:
                break
            denom = rho**k if rho > 0.0 else 1.0
            kappa = max(kappa, nk / denom)

    return StabilityReport(
        spectral_radius=rho,
        gamma=gamma,
        kappa=float(kappa),
        beta=float(beta),
        is_strongly_stable=bool(diagonalizable and rho < 1.0),
    )


def uncontrollable(A: np.ndarray, B: np.ndarray, lam: complex) -> bool:
    """The PBH (Popov-Belevitch-Hautus) test: whether the eigenvalue lam of
    A is uncontrollable from B, rank [A - lam I, B] < d_x.  random_system
    asks it at every eigenvalue, solve_dare at those with |lam| >= 1."""
    d_x = A.shape[0]
    M = np.hstack([A - lam * np.eye(d_x), B])
    # [[Re M, -Im M], [Im M, Re M]] has twice the rank of M.  The real SVD
    # it takes spares the process loading complex LAPACK (0.5 MB of RSS).
    return bool(np.linalg.matrix_rank(np.block([[M.real, -M.imag], [M.imag, M.real]])) < 2 * d_x)


def random_system(d_x: int, d_u: int, d_w: int, seed: int, target_radius: float = 0.9) -> LinearSystem:
    """Random plant with standard-normal entries, A rescaled to the target
    spectral radius, resampled until (A, B) is controllable; GenerationError
    after SYSTEM_ATTEMPTS draws.

    Deterministic in seed.
    """
    if min(d_x, d_u, d_w) < 1:
        raise ValueError("dimensions must be >= 1")
    if not (target_radius > 0.0):
        raise ValueError("target_radius must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(SYSTEM_ATTEMPTS):
        A = rng.standard_normal((d_x, d_x))
        rho = spectral_radius(A)
        if rho < 1e-12:
            continue
        A *= target_radius / rho
        B = rng.standard_normal((d_x, d_u))
        C = rng.standard_normal((d_x, d_w))
        if not any(uncontrollable(A, B, lam) for lam in np.linalg.eigvals(A)):
            return LinearSystem(A, B, C)
    raise GenerationError(
        f"no controllable system after {SYSTEM_ATTEMPTS} attempts (seed={seed})"
    )


def truncation_horizon(kappa: float, gamma: float, xi: float, T: int) -> int:
    """History length ceil(log(kappa * xi * T) / gamma), floored at 1."""
    if not (kappa >= 1.0):
        raise ValueError("kappa must be >= 1")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if not (xi > 0.0):
        raise ValueError("xi must be positive")
    if T < 1:
        raise ValueError("T must be >= 1")
    H = math.ceil(math.log(kappa * xi * T) / gamma)
    return max(1, H)
