"""Follow-the-perturbed-leader over quadratic rewards with memory.

Every quadratic here is, like the generators' rollout cost, a Gram matrix
G read through its blocks P = G[:-1, :-1], q = G[:-1, -1] and
c = G[-1, -1] as [z; 1]' G [z; 1] = z'Pz + 2q'z + c.  Each round t
reveals a memory reward: a (dH+1, dH+1) Gram matrix over the stacked last
H plays z, oldest first (slot 0 holds z_{t-H+1}, slot H-1 holds z_t).
Collapsing it onto a single repeated play gives a per-round (d+1, d+1)
Gram matrix G_t, and the learner keeps one running sum G of these
(OtrState).  The next play maximizes the sum, its quadratic part doubled,
minus a random linear perturbation with Exp(eta) coordinates, and the
regret audit maximizes the sum itself.  Both are ball-constrained
problems handled exactly by the trust-region solver.  At dimension
LOW_RANK_MIN_DIM and above, a round that comes with a factor of its P
block is solved on the leader's kept eigendecomposition instead of a new
one (OtrState).  play_sequence and regret_audit run the learner and the
audit over a whole reward sequence, which they check once on entry.
"""

import math
import numbers
from typing import Optional

import numpy as np

from .trust_region import TrustRegionProblem, objective, solve as tr_solve, symmetric_eig

__all__ = [
    "LOW_RANK_MIN_DIM",
    "OtrState",
    "collapse",
    "sample_perturbation",
    "default_perturbation_rate",
    "ball_point",
    "regret_audit",
    "play_sequence",
]


# The smallest dimension at which OtrState solves factored rounds on its
# kept eigendecomposition: below it one eigh costs less than the low-rank
# solves it saves (CHANGES.md has the measured crossover).
LOW_RANK_MIN_DIM = 32


def collapse(G: np.ndarray, H: int) -> np.ndarray:
    """The Gram matrix of playing one point z in every slot of the memory
    reward G, a (dH+1, dH+1) array: the H x H blocks of P summed, the H
    blocks of q summed, and c."""
    d = (len(G) - 1) // H
    C = np.empty((d + 1, d + 1))
    C[:-1, :-1] = G[:-1, :-1].reshape(H, d, H, d).sum(axis=(0, 2))
    C[:-1, -1] = C[-1, :-1] = G[:-1, -1].reshape(H, d).sum(axis=0)
    C[-1, -1] = G[-1, -1]
    return C


def sample_perturbation(eta: float, d: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. exponential coordinates with rate eta (mean 1/eta each)."""
    if not (eta > 0.0):
        raise ValueError("eta must be positive")
    return rng.exponential(scale=1.0 / eta, size=d)


def default_perturbation_rate(R: float, d: int, D: float, H: int, T: int) -> float:
    """Nominal rate R / (d^{3/2} D H^{3/2} sqrt(T)) for coefficient bound R."""
    return R / (d**1.5 * D * H**1.5 * math.sqrt(T))


def ball_point(rng: np.random.Generator, d: int, D: float) -> np.ndarray:
    """A uniform point of the d-dimensional ball of radius D: a normal
    direction scaled to the radius D U^(1/d) (the zero vector stays zero)."""
    v = rng.standard_normal(d)
    norm = float(np.linalg.norm(v))
    if norm > 0.0:
        v *= D * rng.random() ** (1.0 / d) / norm
    return v


class OtrState:
    """Running sum G of an episode's round Gram matrices, the reward
    [z; 1]' G [z; 1] = z'Pz + 2q'z + c, with the reward its plays achieved.
    Only the blocks P = G[:-1, :-1], q = G[:-1, -1] and c = G[-1, -1] are
    read, so a round's G need not be symmetric outside its P.

    update plays the perturbed leader on the sum over the Euclidean ball of
    radius D; hindsight maximizes the same sum without a perturbation, so
    the regret audit is exact up to the solver tolerance.  Each is one
    trust-region solve.  eta starts as None and is set by the caller once
    it is calibrated; only update draws a perturbation.  current_z is the
    uniform ball point drawn from rng at construction.

    The leader's quadratic part 2P and its last eigendecomposition
    S0 = V diag(lam) V' are kept.  A round that adds a nonzero P drops the
    quadratic part and, unless it comes with a factor, the decomposition:
    against a controller that leaves the adaptive generator's rewards at
    zero, one decomposition serves every play.  In low-rank mode
    (low_rank, which holds for d >= LOW_RANK_MIN_DIM), a round's factor F,
    with its P = F'F, adds the rows sqrt(2) F V to W, so that the leader's
    2P is V (diag(lam) + W'W) V', and update hands W to the trust-region
    solve (its low_rank) instead of decomposing 2P again.  Once W would
    pass d // 2 rows, the round drops the decomposition, and the next
    update decomposes 2P afresh and starts an empty W.  Below
    LOW_RANK_MIN_DIM factors are ignored and the plays are those of an
    unfactored state, bit for bit.
    """

    def __init__(self, d: int, D: float, seed: int):
        if d < 1:
            raise ValueError("d must be positive")
        if not (0.0 < D < math.inf):
            raise ValueError(f"D must be a positive number, got {D!r}")
        self.d = d
        self.D = float(D)
        self.eta: Optional[float] = None
        self.rng = np.random.default_rng(seed)
        self.G = np.zeros((d + 1, d + 1))
        self.achieved = 0.0
        self.rounds = 0
        self.current_z = ball_point(self.rng, d, self.D)
        self.low_rank = d >= LOW_RANK_MIN_DIM
        self._P2 = None  # the leader's 2P, or None once P has changed
        self._eig = None  # (lam, V) of the last decomposed 2P, or None
        self._W = np.empty((d // 2, d)) if self.low_rank else None
        self._rank = 0  # rows of _W in use

    def observe(self, G: np.ndarray, achieved: float = 0.0, factor: Optional[np.ndarray] = None) -> None:
        """Add one round's (d+1, d+1) Gram matrix and the value the plays
        got in that round (left at 0 where nothing audits the plays).
        factor, an (r, d) matrix F with G[:-1, :-1] = F'F up to rounding,
        lets a low-rank state keep its decomposition."""
        if self._eig is not None and G[:-1, :-1].any():
            self._P2 = None
            r = 0 if factor is None or not self.low_rank else len(factor)
            if 0 < r <= len(self._W) - self._rank:
                rows = self._W[self._rank : self._rank + r]
                np.matmul(factor, self._eig[1], out=rows)
                rows *= math.sqrt(2.0)
                self._rank += r
            else:
                self._eig = None
        self.G += G
        self.achieved += achieved
        self.rounds += 1

    def update(self) -> np.ndarray:
        """Draw a perturbation and return the perturbed leader's play."""
        if self.eta is None:
            raise ValueError("eta must be set before drawing a perturbation")
        sigma = sample_perturbation(self.eta, self.d, self.rng)
        # The leader's quadratic part is 2P, for symmetric P the Hessian
        # P + P' of the summed reward, while hindsight audits P itself: the
        # learner maximizes z'(2P)z + (2q - sigma)'z.  The benchmark's
        # numbers are made with this factor; the decision on it belongs to
        # ROADMAP item 1.
        G = self.G
        if self._P2 is None:
            self._P2 = 2.0 * G[:-1, :-1]
        if self._eig is None:
            self._eig = symmetric_eig(self._P2)
            self._rank = 0
        prob = TrustRegionProblem._unchecked(self._P2, 2.0 * G[:-1, -1] - sigma, self.D)
        W = self._W[: self._rank] if self._rank else None
        return tr_solve(prob, eig=self._eig, low_rank=W).z

    def hindsight(self):
        """(best fixed play's value on the sum, value achieved by the plays)."""
        G = self.G
        prob = TrustRegionProblem(G[:-1, :-1], 2.0 * G[:-1, -1], self.D)
        return objective(prob, tr_solve(prob).z) + float(G[-1, -1]), float(self.achieved)


def _memory_rewards(history, H):
    """history stacked as a (T, n+1, n+1) float array, and the play
    dimension d = n // H; ValueError unless H >= 1 is an integer dividing
    n >= 1 and every coefficient is finite."""
    if not (isinstance(H, numbers.Integral) and not isinstance(H, bool) and H >= 1):
        raise ValueError(f"H must be an integer >= 1, got {H!r}")
    try:
        G = np.asarray(history, dtype=float)
    except (TypeError, ValueError):
        G = None
    if G is None or G.ndim != 3 or G.shape[1] != G.shape[2] or G.shape[1] < 2:
        raise ValueError("history must stack to a (T, n+1, n+1) array of memory rewards")
    n = G.shape[1] - 1
    if n % H:
        raise ValueError(f"the reward size n = {n} must be a multiple of H = {H}")
    if not np.all(np.isfinite(G)):
        raise ValueError("coefficients must be finite")
    return G, n // H


def play_sequence(history, H: int, D: float, eta: float, seed: int):
    """Run the learner over a sequence of memory rewards with memory length
    H and return its plays.

    Rounds before the first complete window are warmup: the play is drawn
    uniformly from the ball and nothing is observed, mirroring the random
    initialization of the first H plays.  The first play is the state's
    construction draw; the learner's eta is set as the MOTR generator sets
    it.
    """
    if not len(history):
        return []
    G, d = _memory_rewards(history, H)
    state = OtrState(d, D, seed)
    state.eta = eta
    z = state.current_z
    plays = []
    for t, Gt in enumerate(G):
        plays.append(z)
        if t >= H - 1:
            state.observe(collapse(Gt, H))
            z = state.update()
        else:
            z = ball_point(state.rng, d, state.D)
    return plays


def regret_audit(history, plays, H: int, D: float):
    """(best fixed play in hindsight, value achieved by the plays) on a
    sequence of memory rewards with memory length H.

    Both sums run over the rounds with a complete window (t >= H-1,
    0-indexed), each round charged [z; 1]' G [z; 1] on its window z of H
    plays, oldest first; see OtrState.hindsight.
    """
    if len(history) != len(plays):
        raise ValueError("history and plays must have equal length")
    if not len(history):
        return 0.0, 0.0
    G, d = _memory_rewards(history, H)
    try:
        Z = np.asarray(plays, dtype=float)
    except (TypeError, ValueError):
        Z = None
    if Z is None or Z.shape != (len(G), d):
        raise ValueError(f"plays must be {len(G)} vectors of dimension {d}")
    audit = OtrState(d, D, seed=0)
    for t in range(H - 1, len(G)):
        z, Gt = Z[t - H + 1 : t + 1].ravel(), G[t]
        audit.observe(collapse(Gt, H), float(z @ Gt[:-1, :-1] @ z + (2.0 * Gt[:-1, -1]) @ z + Gt[-1, -1]))
    return audit.hindsight()
