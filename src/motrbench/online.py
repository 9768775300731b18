"""Follow-the-perturbed-leader over quadratic rewards with memory.

Each round t reveals a quadratic reward of the last H plays.  Collapsing
the reward onto a single repeated play gives a per-round quadratic g_t(z),
whose coefficients are accumulated; the next play maximizes the
accumulated quadratic minus a random linear perturbation with Exp(eta)
coordinates, a ball-constrained problem handled exactly by the
trust-region solver.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .trust_region import TrustRegionProblem, solve as tr_solve

__all__ = [
    "MemoryQuadratic",
    "CollapsedQuadratic",
    "OtrState",
    "RegretAccumulator",
    "collapse",
    "sample_perturbation",
    "default_perturbation_rate",
    "regret_audit",
    "play_sequence",
]


@dataclass(frozen=True)
class MemoryQuadratic:
    """Reward z'Pz + p'z + const over the stacked last-H plays.

    The stacking is oldest play first: slot 0 holds z_{t-H+1}, slot H-1
    holds z_t.
    """

    P: np.ndarray
    p: np.ndarray
    const: float
    d: int
    H: int

    def __post_init__(self):
        n = self.d * self.H
        P = np.array(self.P, dtype=float)
        p = np.array(self.p, dtype=float)
        if self.d < 1 or self.H < 1:
            raise ValueError("d and H must be positive")
        if P.shape != (n, n) or p.shape != (n,):
            raise ValueError(f"expected P ({n},{n}) and p ({n},), got {P.shape}, {p.shape}")
        if not (np.all(np.isfinite(P)) and np.all(np.isfinite(p)) and math.isfinite(self.const)):
            raise ValueError("coefficients must be finite")
        P.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "p", p)

    def value_stacked(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.d * self.H,):
            raise ValueError(f"stacked play must have shape ({self.d * self.H},)")
        return float(z @ self.P @ z + self.p @ z + self.const)

    def value(self, window) -> float:
        """Reward of a window of H plays, oldest first."""
        if len(window) != self.H:
            raise ValueError(f"window must contain {self.H} plays")
        return self.value_stacked(np.concatenate([np.asarray(z, dtype=float) for z in window]))


@dataclass(frozen=True)
class CollapsedQuadratic:
    """Single-play restriction of a memory quadratic: z'Cz + d'z + const.

    The constructor copies and checks its input; _unchecked wraps arrays
    the program built itself and does not modify afterwards.
    """

    Cmat: np.ndarray
    dvec: np.ndarray
    const: float

    def __post_init__(self):
        Cmat = np.array(self.Cmat, dtype=float)
        dvec = np.array(self.dvec, dtype=float)
        if Cmat.ndim != 2 or Cmat.shape[0] != Cmat.shape[1] or dvec.shape != (Cmat.shape[0],):
            raise ValueError("inconsistent collapsed-quadratic shapes")
        Cmat.setflags(write=False)
        dvec.setflags(write=False)
        object.__setattr__(self, "Cmat", Cmat)
        object.__setattr__(self, "dvec", dvec)

    @classmethod
    def _unchecked(cls, Cmat: np.ndarray, dvec: np.ndarray, const: float) -> "CollapsedQuadratic":
        g = object.__new__(cls)
        object.__setattr__(g, "Cmat", Cmat)
        object.__setattr__(g, "dvec", dvec)
        object.__setattr__(g, "const", const)
        return g

    def value(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(z @ self.Cmat @ z + self.dvec @ z + self.const)


def collapse(mq: MemoryQuadratic) -> CollapsedQuadratic:
    """Sum the H x H blocks of P and the H blocks of p: the quadratic of
    playing one point in every slot."""
    d, H = mq.d, mq.H
    Cmat = mq.P.reshape(H, d, H, d).sum(axis=(0, 2))
    dvec = mq.p.reshape(H, d).sum(axis=0)
    return CollapsedQuadratic(Cmat, dvec, mq.const)


def sample_perturbation(eta: float, d: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. exponential coordinates with rate eta (mean 1/eta each)."""
    if not (eta > 0.0):
        raise ValueError("eta must be positive")
    return rng.exponential(scale=1.0 / eta, size=d)


def default_perturbation_rate(R: float, d: int, D: float, H: int, T: int) -> float:
    """Nominal rate R / (d^{3/2} D H^{3/2} sqrt(T)) for coefficient bound R."""
    return R / (d**1.5 * D * H**1.5 * math.sqrt(T))


def _ball_point(rng: np.random.Generator, d: int, D: float) -> np.ndarray:
    v = rng.standard_normal(d)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return np.zeros(d)
    return D * rng.random() ** (1.0 / d) * v / norm


class OtrState:
    """Perturbed-leader maximization of the accumulated quadratic over the
    Euclidean ball of radius D, each play an exact trust-region solve."""

    def __init__(self, d: int, D: float, eta: float, eps: float, seed: int):
        if d < 1:
            raise ValueError("d must be positive")
        if not (eta > 0.0):
            raise ValueError("eta must be positive")
        if not (D > 0.0):
            raise ValueError("D must be positive")
        if not (eps > 0.0):
            raise ValueError("eps must be positive")
        self.d = d
        self.D = float(D)
        self.eta = float(eta)
        self.eps = float(eps)
        self.rng = np.random.default_rng(seed)
        self.S = np.zeros((d, d))
        self.s = np.zeros(d)
        self.const_sum = 0.0
        self.round = 0
        self.current_z = _ball_point(self.rng, d, self.D)

    def observe(self, g: CollapsedQuadratic) -> None:
        if g.Cmat.shape != (self.d, self.d):
            raise ValueError(f"collapsed quadratic has dimension {g.Cmat.shape[0]}, expected {self.d}")
        self.S += g.Cmat
        self.s += g.dvec
        self.const_sum += g.const
        self.round += 1

    def update(self, sigma: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw a perturbation (unless one is supplied) and replay the
        perturbed leader."""
        if sigma is None:
            sigma = sample_perturbation(self.eta, self.d, self.rng)
        else:
            sigma = np.asarray(sigma, dtype=float)
            if sigma.shape != (self.d,):
                raise ValueError(f"sigma must have shape ({self.d},)")
        prob = TrustRegionProblem._unchecked(self.S, self.s - sigma, self.D)
        self.current_z = tr_solve(prob, self.eps).z
        return self.current_z

    def randomize_play(self) -> np.ndarray:
        """Fresh uniform draw from the ball; used for the warmup plays."""
        self.current_z = _ball_point(self.rng, self.d, self.D)
        return self.current_z


class RegretAccumulator:
    """Running sums of per-round quadratic rewards z'Pz + p'z + const and of
    the reward the plays achieved; the hindsight term maximizes the summed
    quadratic over the ball, itself a trust-region instance, so the audit
    is exact up to the solver tolerance."""

    def __init__(self, d: int):
        self.P = np.zeros((d, d))
        self.p = np.zeros(d)
        self.const = 0.0
        self.achieved = 0.0
        self.rounds = 0

    def add(self, P: np.ndarray, p: np.ndarray, const: float, achieved: float) -> None:
        self.P += P
        self.p += p
        self.const += const
        self.achieved += achieved
        self.rounds += 1

    def result(self, D: float, eps: float):
        """(best fixed play in hindsight, value achieved by the plays)."""
        hindsight = tr_solve(TrustRegionProblem(self.P, self.p, D), eps).value + self.const
        return float(hindsight), float(self.achieved)


def play_sequence(history, D: float, eta: float, eps: float, seed: int):
    """Run the learner over a reward sequence and return its plays.

    history is a sequence of MemoryQuadratic with common (d, H).  Rounds
    before the first complete window are warmup: the play is drawn uniformly
    from the ball and nothing is observed, mirroring the random
    initialization of the first H plays.
    """
    if not history:
        return []
    d, H = history[0].d, history[0].H
    state = OtrState(d, D, eta, eps, seed)
    plays = []
    for t, mq in enumerate(history):
        if mq.d != d or mq.H != H:
            raise ValueError("history entries must share (d, H)")
        plays.append(state.current_z)
        if t >= H - 1:
            state.observe(collapse(mq))
            state.update()
        else:
            state.randomize_play()
    return plays


def regret_audit(history, plays, D: float, eps: float = 1e-9):
    """(best fixed play in hindsight, value achieved by the plays).

    Both sums run over the rounds with a complete window (t >= H-1,
    0-indexed); see RegretAccumulator.
    """
    if len(history) != len(plays):
        raise ValueError("history and plays must have equal length")
    if not history:
        return 0.0, 0.0
    d, H = history[0].d, history[0].H
    audit = RegretAccumulator(d)
    for t in range(H - 1, len(history)):
        mq = history[t]
        if mq.d != d or mq.H != H:
            raise ValueError("history entries must share (d, H)")
        g = collapse(mq)
        audit.add(g.Cmat, g.dvec, g.const, mq.value(plays[t - H + 1 : t + 1]))
    return audit.result(D, eps)
