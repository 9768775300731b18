"""Control-disturbance generator policies and the quadratic form of their
truncated-rollout cost.

A policy with history H maps the last H controls to a disturbance,
w_t = sum_i M[i] u_{t-i}.  Unrolling the plant H+1 steps from a zero
state under one repeated policy expresses the truncated-rollout state as
an affine function of the flattened policy, y = T vec(M) + b, so the
truncated-rollout cost is an explicit quadratic in vec(M), which is what
the online learner consumes.  The quadratic has one encoding, its Gram
matrix G = [T | b]' Q [T | b] with u'Ru added to its corner: the cost of
v = vec(M) is [v; 1]' G [v; 1].  T and b are linear in the recent
history, so the unroll is one linear map E of it (unroll_map), and both
affine_state_map and rollout_cost_quadratic start from one product h @ E.

Conventions (pinned by the calibration tests against direct simulation):

* A control window is ordered most recent first.  For a target state y
  the window is (u_{tau-1}, ..., u_{tau-2H-1}); the unroll starts from
  zero H+1 steps back, and step j (0-based) applies control window[H-j]
  plus the disturbance M evaluated on the H controls preceding it:

      y = sum_{i=0}^{H} A^i B window[i]
          + sum_{k=0}^{H} sum_{m=1}^{H} A^k C M[m-1] window[k+m]

* The powers A^k B and A^k C (k = 0..H) depend only on the plant and H;
  plant_powers builds them, after checking once that A is strictly
  stable.  unroll_map lays them out as E, once per plant and horizon.
  Given a state gain W, E also maps the last H+1 states to the
  bias sum_a A^a C W x_{t-1-a} they add to b: the residual bias of the
  MOTR/OGA generators, whose round keeps its controls and states in one
  history vector h and builds its round's G from one product h @ E.

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
    "UnrollMap",
    "InstabilityError",
    "project_frobenius",
    "plant_powers",
    "unroll_map",
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
    norm = math.sqrt(flat.dot(flat))
    if norm <= bound * (1.0 + 1e-12):
        return M
    return M * (bound / norm)


def plant_powers(A: np.ndarray, H: int, *inputs: np.ndarray) -> list:
    """For each input M, the (H+1, d_x, m) stack of A^k M for k = 0..H;
    raises InstabilityError unless A is strictly stable.  unroll_map asks
    it for A^k B and A^k C, GPC for (A - BK)^k and (A - BK)^k B."""
    if H < 1:
        raise ValueError("H must be >= 1")
    rho = spectral_radius(A)
    if rho >= 1.0:
        raise InstabilityError(f"state map has spectral radius {rho:.6g} >= 1")
    stacks = []
    for M in inputs:
        AkM = np.empty((H + 1, *M.shape))
        AkM[0] = M
        for k in range(1, H + 1):
            AkM[k] = A @ AkM[k - 1]
        stacks.append(AkM)
    return stacks


@dataclass(frozen=True)
class UnrollMap:
    """The truncated unroll of horizon H as one linear map E of the recent
    history h: (h @ E).reshape(d_x, n + 1) = [T | b], n = H d_w d_u.

    h is the 2H+1 most-recent-first controls flattened, followed, for a map
    built with a state gain W, by the H+1 most-recent-first states
    flattened."""

    H: int
    d_u: int
    d_x: int
    E: np.ndarray  # (len(h), d_x (n + 1))


def unroll_map(sys: LinearSystem, H: int, W: Optional[np.ndarray] = None) -> UnrollMap:
    """The unroll map of horizon H; raises InstabilityError unless the state
    map is strictly stable.

    W, a (d_w, d_x) state-feedback gain, adds the states to the history:
    their contribution sum_a A^a C W x_{t-1-a} (a = 0..H) to b.
    """
    AkB, AkC = plant_powers(sys.A, H, sys.B, sys.C)
    d_x, d_u, d_w = sys.d_x, sys.d_u, sys.d_w
    n, R = H * d_w * d_u, (2 * H + 1) * d_u
    E = np.zeros((R if W is None else R + (H + 1) * d_x, d_x, n + 1))
    # T[x, l H d_w + m d_w + w] = sum_a (A^a C)[x, w] window[a + m + 1, l].
    ET = np.zeros((2 * H + 1, d_u, d_x, d_u, H, d_w))
    for m in range(H):
        for l in range(d_u):
            ET[m + 1 : m + H + 2, l, :, l, m, :] = AkC
    E[:R, :, :n] = ET.reshape(R, d_x, n)
    # b = sum_k A^k B window[k] (+ sum_a A^a C W x_{t-1-a}).
    E[: (H + 1) * d_u, :, n] = AkB.transpose(0, 2, 1).reshape(-1, d_x)
    if W is not None:
        E[R:, :, n] = (AkC @ W).transpose(0, 2, 1).reshape(-1, d_x)
    return UnrollMap(H, d_u, d_x, E.reshape(E.shape[0], -1))


def affine_state_map(unroll: UnrollMap, window: np.ndarray, states: Optional[np.ndarray] = None):
    """(T, b) with truncated-rollout state y = T vec(M) + b for a stationary
    policy M, given the 2H+1 most-recent-first window of controls and, for
    a map built with a state gain, the H+1 most-recent-first states."""
    H, d_u, d_x = unroll.H, unroll.d_u, unroll.d_x
    history = np.asarray(window, dtype=float)
    if history.shape != (2 * H + 1, d_u):
        raise ValueError(f"window must have shape ({2 * H + 1}, {d_u}), got {history.shape}")
    history = history.ravel()
    if states is not None:
        states = np.asarray(states, dtype=float)
        if states.shape != (H + 1, d_x):
            raise ValueError(f"states must have shape ({H + 1}, {d_x}), got {states.shape}")
        history = np.concatenate([history, states.ravel()])
    if history.size != unroll.E.shape[0]:
        raise ValueError("the states are needed exactly when the map was built with a state gain")
    Tb = (history @ unroll.E).reshape(d_x, -1)
    return Tb[:, :-1], Tb[:, -1]


def rollout_cost_quadratic(
    unroll: UnrollMap,
    cw: CostWeights,
    history: np.ndarray,
    u_now: np.ndarray,
    q_root: Optional[np.ndarray] = None,
):
    """The truncated-rollout cost y'Qy + u'Ru as its Gram matrix G.

    history is the map's flat history vector (UnrollMap), which the
    generator round keeps and passes as it is; u_now is the current
    control, entering only through u'Ru, which is added to G's corner.
    With [T | b] from the one product h @ E, G = [T | b]' Q [T | b] (+ u'Ru
    in the corner) is (n+1, n+1), and the cost of the policy v = vec(M) is
    [v; 1]' G [v; 1] = v'Pv + 2 q'v + c for its blocks P = G[:-1, :-1] =
    T'QT, q = G[:-1, -1] = T'Qb and c = G[-1, -1] = b'Qb + u'Ru.

    q_root, a (k, d_x) matrix L' with L L' = Q, asks for the factor of P
    as well: the function then returns (G, F) with F = L'T, so P = F'F up
    to rounding, from the same product h @ E.
    """
    Tb = history.dot(unroll.E).reshape(unroll.d_x, -1)
    G = Tb.T.dot(cw.Q.dot(Tb))
    G[-1, -1] += u_now.dot(cw.R).dot(u_now)
    if q_root is None:
        return G
    return G, q_root.dot(Tb[:, :-1])
