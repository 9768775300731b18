"""Linear time-invariant plant: simulation primitives, stability diagnostics,
and random benchmark systems.

The plant is x_{t+1} = A x_t + B u_t + C w_t with quadratic stage cost
x'Qx + u'Ru.  Stability diagnostics summarize the geometric decay of A:
spectral radius rho, decay margin gamma = 1 - rho, and a certificate
constant kappa with ||A^k|| <= kappa * rho^k for diagonalizable A.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearSystem",
    "CostWeights",
    "StabilityReport",
    "StabilityError",
    "GenerationError",
    "step",
    "spectral_radius",
    "stage_cost",
    "analyze_stability",
    "random_system",
    "truncation_horizon",
]

# Eigenvector condition numbers above this are treated as "not diagonalizable
# in practice"; kappa then falls back to a direct sup_k ||A^k|| / rho^k estimate.
DIAGONALIZATION_COND_LIMIT = 1e8
_LYAPUNOV_POWERS = 200


class StabilityError(RuntimeError):
    """Eigensolver failure during stability analysis."""


class GenerationError(RuntimeError):
    """random_system exhausted its resampling budget without passing the
    controllability check."""


def _as_float_array(value, shape, name):
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LinearSystem:
    """Plant matrices (A, B, C) for x_{t+1} = A x + B u + C w."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        d_x = A.shape[0]
        B = np.array(self.B, dtype=float)
        C = np.array(self.C, dtype=float)
        if B.ndim != 2 or B.shape[0] != d_x:
            raise ValueError(f"B must have {d_x} rows, got shape {B.shape}")
        if C.ndim != 2 or C.shape[0] != d_x:
            raise ValueError(f"C must have {d_x} rows, got shape {C.shape}")
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
        d_x, d_u, d_w = int(obj["d_x"]), int(obj["d_u"]), int(obj["d_w"])
        A = _as_float_array(obj["A"], (d_x, d_x), "A")
        B = _as_float_array(obj["B"], (d_x, d_u), "B")
        C = _as_float_array(obj["C"], (d_x, d_w), "C")
        return cls(A, B, C)

    def dumps(self) -> str:
        return json.dumps(self.to_json())


@dataclass(frozen=True)
class CostWeights:
    """Quadratic stage-cost weights: cost(x, u) = x'Qx + u'Ru.

    Q and R must be symmetric PSD.  xi is the larger of their spectral
    norms, used by the truncation-horizon and coefficient-bound formulas.
    """

    Q: np.ndarray
    R: np.ndarray
    xi: float = 0.0

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        R = np.array(self.R, dtype=float)
        for name, M in (("Q", Q), ("R", R)):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square, got shape {M.shape}")
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} contains non-finite entries")
            if np.max(np.abs(M - M.T)) > 1e-10 * (1.0 + np.max(np.abs(M))):
                raise ValueError(f"{name} is not symmetric within tolerance")
            if M.size and np.linalg.eigvalsh(M).min() < -1e-10:
                raise ValueError(f"{name} is not positive semidefinite")
            M.setflags(write=False)
        xi = max(_spectral_norm(Q), _spectral_norm(R))
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "xi", float(xi))

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
        d_x, d_u = int(obj["d_x"]), int(obj["d_u"])
        Q = _as_float_array(obj["Q"], (d_x, d_x), "Q")
        R = _as_float_array(obj["R"], (d_u, d_u), "R")
        return cls(Q, R)


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
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def step(sys: LinearSystem, x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One plant transition A x + B u + C w.

    Plain arithmetic on float vectors of shapes (d_x,), (d_u,), (d_w,); the
    episode harness checks the shapes of u and w where they enter.
    """
    return sys.A @ x + sys.B @ u + sys.C @ w


def stage_cost(cw: CostWeights, x: np.ndarray, u: np.ndarray) -> float:
    """Quadratic stage cost x'Qx + u'Ru of float vectors x (d_x,), u (d_u,)."""
    return float(x @ cw.Q @ x + u @ cw.R @ u)


def analyze_stability(sys: LinearSystem) -> StabilityReport:
    """Spectral radius, decay margin, and the decay certificate for A.

    kappa is the eigenvector-matrix condition number when A diagonalizes
    with condition below DIAGONALIZATION_COND_LIMIT; otherwise the matrix is
    flagged not strongly stable and kappa falls back to the direct estimate
    sup_k ||A^k|| / rho^k over k <= 200.
    """
    A = sys.A
    beta = max(_spectral_norm(sys.A), _spectral_norm(sys.B), _spectral_norm(sys.C))
    try:
        eigvals, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise StabilityError(f"eigendecomposition failed: {exc}") from exc
    rho = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
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


def controllability_rank(A: np.ndarray, B: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Rank of [B, AB, ..., A^{d_x-1}B] by singular values above rel_tol * s_max."""
    d_x = A.shape[0]
    blocks = []
    M = B
    for _ in range(d_x):
        blocks.append(M)
        M = A @ M
    ctrb = np.hstack(blocks)
    svals = np.linalg.svd(ctrb, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > rel_tol * svals[0]))


def random_system(
    d_x: int,
    d_u: int,
    d_w: int,
    seed: int,
    target_radius: float = 0.9,
    max_attempts: int = 100,
) -> LinearSystem:
    """Random plant with standard-normal entries, A rescaled to the target
    spectral radius, resampled until (A, B) passes the controllability check.

    Deterministic in seed.
    """
    if min(d_x, d_u, d_w) < 1:
        raise ValueError("dimensions must be >= 1")
    if not (target_radius > 0.0):
        raise ValueError("target_radius must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        A = rng.standard_normal((d_x, d_x))
        rho = spectral_radius(A)
        if rho < 1e-12:
            continue
        A *= target_radius / rho
        B = rng.standard_normal((d_x, d_u))
        C = rng.standard_normal((d_x, d_w))
        if controllability_rank(A, B) == d_x:
            return LinearSystem(A, B, C)
    raise GenerationError(
        f"no controllable system after {max_attempts} attempts (seed={seed})"
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
