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

* A policy has one encoding: the learner's own array.  MOTR and OGA keep
  the vector vec(M), the column-major flatten of the vertically stacked
  (H d_w, d_u) matrix, vec index = col*(H*d_w) + (block-1)*d_w + row,
  which is the column order of the unroll's T; GPC keeps the row-major
  stacked (d_u, h d_x) matrix [N[0] | ... | N[h-1]].  The blocks M[i] are
  only ever read-only (H, ., .) views of these arrays (the learners'
  M and N properties).  CdgPolicy.vec and CdgPolicy.from_vec are the two
  conversions between blocks and vec(M), and project_frobenius is the one
  radial projection of either array.  Both keep their names, and from_vec
  its class, because the benchmark's tracer (perfbench/tracing.py) wraps
  motrbench.cdg.project_frobenius and motrbench.cdg.CdgPolicy.from_vec.
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
    "project_frobenius",
    "plant_powers",
    "affine_state_map",
    "rollout_cost_quadratic",
]


class InstabilityError(RuntimeError):
    """The rollout quadratic requires a strictly stable state map."""


class CdgPolicy:
    """The conversions between a policy's (H, d_w, d_u) blocks and vec(M)."""

    @staticmethod
    def vec(blocks: np.ndarray) -> np.ndarray:
        return blocks.reshape(-1, blocks.shape[2]).ravel(order="F")

    @classmethod
    def from_vec(cls, v: np.ndarray, H: int, d_w: int, d_u: int) -> np.ndarray:
        """The blocks of vec(M) as a read-only view of v (no copy)."""
        blocks = v.reshape((H * d_w, d_u), order="F").reshape(H, d_w, d_u)
        blocks.setflags(write=False)
        return blocks


def project_frobenius(M: np.ndarray, bound: float) -> np.ndarray:
    """Radially project the float array M onto the Frobenius ball of radius
    bound: M itself when it lies within the ball up to rounding.  Each
    radius is checked positive where it is built, not here."""
    flat = M.ravel()
    norm = math.sqrt(flat @ flat)
    if norm <= bound * (1.0 + 1e-12):
        return M
    return M * (bound / norm)


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

    def evaluate(self, v: np.ndarray) -> float:
        return float(v @ (self.P @ v + self.p)) + self.const


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
