"""Control-disturbance generator policies and the quadratic form of their
truncated-rollout cost.

A policy with history H maps the last H controls to a disturbance,
w_t = sum_i M[i] u_{t-i}.  Unrolling the plant H+1 steps from a zero
state under one repeated policy expresses the truncated-rollout state as
an affine function of the flattened policy, y = T vec(M) + b
(affine_state_map, the one unroll), so the truncated-rollout cost is an
explicit quadratic in vec(M), which is what the online learner consumes.

Conventions (pinned by the calibration tests against direct simulation):

* A control window is ordered most recent first.  For a target state y
  the window is (u_{tau-1}, ..., u_{tau-2H-1}); the unroll starts from
  zero H+1 steps back, and step j (0-based) applies control window[H-j]
  plus the disturbance M evaluated on the H controls preceding it:

      y = sum_{i=0}^{H} A^i B window[i]
          + sum_{k=0}^{H} sum_{m=1}^{H} A^k C M[m-1] window[k+m]

* The powers A^k B and A^k C (k = 0..H) depend only on the plant and H;
  plant_powers computes them once, after checking that the plant is
  strictly stable.

* A policy is stored as one (H, d_w, d_u) array and flattened column-major
  over the vertically stacked (H d_w, d_u) matrix:
  vec index = col*(H*d_w) + (block-1)*d_w + row.  CdgPolicy.vec and
  CdgPolicy.from_vec are the only conversions to these coordinates; the
  adaptive generators keep their policy in them.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lds import CostWeights, LinearSystem, spectral_radius

__all__ = [
    "CdgPolicy",
    "PlantPowers",
    "RolloutQuadratic",
    "InstabilityError",
    "project_ball",
    "project_frobenius",
    "plant_powers",
    "affine_state_map",
    "rollout_cost_quadratic",
]


class InstabilityError(RuntimeError):
    """The rollout quadratic requires a strictly stable state map."""


@dataclass(frozen=True)
class CdgPolicy:
    """Disturbance policy: blocks[i-1] multiplies the control i steps back.

    blocks is one read-only (H, d_w, d_u) array whose Frobenius norm must
    stay within frobenius_bound.  The constructor checks its input;
    from_vec and project_frobenius build from the program's own arrays
    without checking again.
    """

    blocks: np.ndarray
    frobenius_bound: float

    def __post_init__(self):
        blocks = np.array(self.blocks, dtype=float)
        if blocks.ndim != 3 or blocks.shape[0] < 1:
            raise ValueError(f"blocks must have shape (H, d_w, d_u) with H >= 1, got {blocks.shape}")
        if not np.all(np.isfinite(blocks)):
            raise ValueError("blocks must be finite")
        if not (self.frobenius_bound > 0.0):
            raise ValueError("frobenius_bound must be positive")
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "frobenius_bound", float(self.frobenius_bound))
        norm = self.frobenius_norm()
        if norm > self.frobenius_bound * (1.0 + 1e-9):
            raise ValueError(
                f"stacked Frobenius norm {norm:.6g} exceeds bound {self.frobenius_bound:.6g}"
            )

    @classmethod
    def _unchecked(cls, blocks: np.ndarray, frobenius_bound: float) -> "CdgPolicy":
        policy = object.__new__(cls)
        blocks.setflags(write=False)
        object.__setattr__(policy, "blocks", blocks)
        object.__setattr__(policy, "frobenius_bound", float(frobenius_bound))
        return policy

    @property
    def H(self) -> int:
        return self.blocks.shape[0]

    @property
    def d_w(self) -> int:
        return self.blocks.shape[1]

    @property
    def d_u(self) -> int:
        return self.blocks.shape[2]

    def frobenius_norm(self) -> float:
        flat = self.blocks.ravel()
        return math.sqrt(flat @ flat)

    def vec(self) -> np.ndarray:
        return self.blocks.reshape(-1, self.d_u).ravel(order="F")

    @classmethod
    def zeros(cls, H: int, d_w: int, d_u: int, frobenius_bound: float) -> "CdgPolicy":
        return cls(np.zeros((H, d_w, d_u)), frobenius_bound)

    @classmethod
    def from_vec(
        cls, v: np.ndarray, H: int, d_w: int, d_u: int, frobenius_bound: float
    ) -> "CdgPolicy":
        v = np.asarray(v, dtype=float)
        if v.shape != (H * d_w * d_u,):
            raise ValueError(f"vector must have length {H * d_w * d_u}")
        stacked = v.reshape((H * d_w, d_u), order="F")
        return cls._unchecked(np.array(stacked.reshape(H, d_w, d_u), order="C"), frobenius_bound)

    def disturbance(self, past_controls) -> np.ndarray:
        """sum_i blocks[i-1] @ past_controls[i-1], past controls most recent
        first; a history shorter than H sums the controls it has."""
        if len(past_controls) > self.H:
            raise ValueError(f"at most {self.H} past controls, got {len(past_controls)}")
        w = np.zeros(self.d_w)
        for b, u in zip(self.blocks, past_controls):
            w += b @ u
        return w


def project_ball(v: np.ndarray, bound: float) -> np.ndarray:
    """Radially project the vector v onto the Euclidean ball of radius
    bound; v itself when it lies within the ball up to rounding."""
    if not (bound > 0.0):
        raise ValueError("bound must be positive")
    norm = math.sqrt(v @ v)
    if norm <= bound * (1.0 + 1e-12):
        return v
    return v * (bound / norm)


def project_frobenius(policy: CdgPolicy, bound: float) -> CdgPolicy:
    """Radially project the blocks onto the Frobenius ball of radius bound."""
    blocks = project_ball(policy.blocks.ravel(), bound).reshape(policy.blocks.shape)
    return CdgPolicy._unchecked(blocks, bound)


@dataclass(frozen=True)
class PlantPowers:
    """A^k B and A^k C for k = 0..H of a strictly stable plant: all that
    the truncated unroll of horizon H needs from the plant."""

    H: int
    AkB: np.ndarray  # (H+1, d_x, d_u), AkB[k] = A^k B
    AkC: np.ndarray  # (H+1, d_x, d_w), AkC[k] = A^k C
    # (H+1, H), window_index[k, m-1] = k + m: the window entry that
    # A^k C M[m-1] multiplies.
    window_index: np.ndarray


def plant_powers(sys: LinearSystem, H: int) -> PlantPowers:
    """Powers of the plant for horizon H; raises InstabilityError unless
    the state map is strictly stable."""
    if H < 1:
        raise ValueError("H must be >= 1")
    rho = spectral_radius(sys.A)
    if rho >= 1.0:
        raise InstabilityError(f"state map has spectral radius {rho:.6g} >= 1")
    A = sys.A
    AkB = np.empty((H + 1, sys.d_x, sys.d_u))
    AkC = np.empty((H + 1, sys.d_x, sys.d_w))
    AkB[0] = sys.B
    AkC[0] = sys.C
    for k in range(1, H + 1):
        AkB[k] = A @ AkB[k - 1]
        AkC[k] = A @ AkC[k - 1]
    window_index = np.arange(1, H + 1)[None, :] + np.arange(H + 1)[:, None]
    return PlantPowers(H, AkB, AkC, window_index)


def affine_state_map(
    powers: PlantPowers, window: np.ndarray, bias_vec: Optional[np.ndarray] = None
):
    """(T, b) with truncated-rollout state y = T vec(M) + b for a stationary
    policy M, given the 2H+1 most-recent-first window of controls.

    bias_vec is any fixed state contribution (e.g. from per-step bias
    disturbances already aggregated by the caller); it is simply added to b.
    """
    H, AkB, AkC = powers.H, powers.AkB, powers.AkC
    _, d_x, d_u = AkB.shape
    d_w = AkC.shape[2]
    window = np.asarray(window, dtype=float)
    if window.shape != (2 * H + 1, d_u):
        raise ValueError(f"window must have shape ({2 * H + 1}, {d_u}), got {window.shape}")

    # Block m of the map collects sum_k A^k C weighted by window[m+k].
    w_slices = window[powers.window_index]  # (H+1, H, d_u)
    Tb = np.einsum("kxw,kml->xmwl", AkC, w_slices)  # (d_x, H, d_w, d_u)
    T = Tb.transpose(0, 3, 1, 2).reshape(d_x, d_u * H * d_w)

    b = np.einsum("kxu,ku->x", AkB, window[: H + 1])
    if bias_vec is not None:
        b = b + bias_vec
    return T, b


@dataclass(frozen=True)
class RolloutQuadratic:
    """Truncated-rollout cost as a quadratic in the flattened policy:
    g(M) = vec(M)' P vec(M) + p' vec(M) + const."""

    P: np.ndarray
    p: np.ndarray
    const: float

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def evaluate(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected flattened policy of length {self.n}")
        return float(v @ (self.P @ v + self.p)) + self.const

    def evaluate_policy(self, policy: CdgPolicy) -> float:
        return self.evaluate(policy.vec())


def rollout_cost_quadratic(
    powers: PlantPowers,
    cw: CostWeights,
    window: np.ndarray,
    u_now: np.ndarray,
    bias_vec: Optional[np.ndarray] = None,
) -> RolloutQuadratic:
    """Quadratic coefficients of the truncated-rollout cost.

    window holds the 2H+1 controls driving the rollout (most recent first,
    the current control excluded); u_now is the current control, entering
    only through the u'Ru constant.  bias_vec is the aggregated fixed
    disturbance contribution to the rollout state, folded into the affine
    and constant parts so the result stays a pure quadratic in the policy.
    """
    T, b = affine_state_map(powers, window, bias_vec)
    u_now = np.asarray(u_now, dtype=float)
    QT, Qb = cw.Q @ T, cw.Q @ b
    const = float(b @ Qb + u_now @ cw.R @ u_now)
    return RolloutQuadratic(P=T.T @ QT, p=2.0 * (T.T @ Qb), const=const)
