"""Follow-the-perturbed-leader over quadratic rewards with memory.

Each round t reveals a quadratic reward of the last H plays.  Collapsing
the reward onto a single repeated play gives a per-round quadratic g_t(z),
whose coefficients are accumulated in one running sum (OtrState); the
next play maximizes the sum, its quadratic part doubled, minus a random
linear perturbation with Exp(eta) coordinates, and the regret audit
maximizes the sum itself.  Both are ball-constrained problems handled
exactly by the trust-region solver.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .trust_region import TrustRegionProblem, solve as tr_solve

__all__ = [
    "MemoryQuadratic",
    "OtrState",
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


def collapse(mq: MemoryQuadratic):
    """(C, c): the H x H blocks of P summed and the H blocks of p summed,
    the quadratic z'Cz + c'z + const of playing one point in every slot."""
    d, H = mq.d, mq.H
    return mq.P.reshape(H, d, H, d).sum(axis=(0, 2)), mq.p.reshape(H, d).sum(axis=0)


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
    """Running sum of an episode's round rewards z'Pz + p'z + const, with
    the reward its plays achieved.

    update plays the perturbed leader on the sum over the Euclidean ball of
    radius D; hindsight maximizes the same sum without a perturbation, so
    the regret audit is exact up to the solver tolerance.  Each is one
    trust-region solve.  eta may stay None until it is calibrated; only
    update draws a perturbation.
    """

    def __init__(self, d: int, D: float, eps: float, seed: int, eta: Optional[float] = None):
        if d < 1:
            raise ValueError("d must be positive")
        if eta is not None and not (eta > 0.0):
            raise ValueError("eta must be positive")
        if not (D > 0.0):
            raise ValueError("D must be positive")
        if not (eps > 0.0):
            raise ValueError("eps must be positive")
        self.d = d
        self.D = float(D)
        self.eta = eta
        self.eps = float(eps)
        self.rng = np.random.default_rng(seed)
        self.P = np.zeros((d, d))
        self.p = np.zeros(d)
        self.const = 0.0
        self.achieved = 0.0
        self.rounds = 0
        self.current_z = _ball_point(self.rng, d, self.D)

    def observe(self, P: np.ndarray, p: np.ndarray, const: float, achieved: float = 0.0) -> None:
        """Add one round's reward coefficients and the value the plays got
        in that round (left at 0 where nothing audits the plays)."""
        self.P += P
        self.p += p
        self.const += const
        self.achieved += achieved
        self.rounds += 1

    def update(self, sigma: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw a perturbation (unless one is supplied) and replay the
        perturbed leader."""
        if sigma is None:
            if self.eta is None:
                raise ValueError("eta must be set before drawing a perturbation")
            sigma = sample_perturbation(self.eta, self.d, self.rng)
        else:
            sigma = np.asarray(sigma, dtype=float)
            if sigma.shape != (self.d,):
                raise ValueError(f"sigma must have shape ({self.d},)")
        # The leader's quadratic part is 2 sum P, for symmetric P the Hessian
        # P + P' of the summed reward, while hindsight audits sum P itself:
        # the learner maximizes z'(2 sum P)z + (sum p - sigma)'z.  The
        # benchmark's numbers are made with this factor; ROADMAP item 4(a)
        # measures what dropping it would change.
        prob = TrustRegionProblem._unchecked(2.0 * self.P, self.p - sigma, self.D)
        self.current_z = tr_solve(prob, self.eps).z
        return self.current_z

    def randomize_play(self) -> np.ndarray:
        """Fresh uniform draw from the ball; used for the warmup plays."""
        self.current_z = _ball_point(self.rng, self.d, self.D)
        return self.current_z

    def hindsight(self):
        """(best fixed play's value on the sum, value achieved by the plays)."""
        best = tr_solve(TrustRegionProblem(self.P, self.p, self.D), self.eps).value + self.const
        return float(best), float(self.achieved)


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
    state = OtrState(d, D, eps, seed, eta)
    plays = []
    for t, mq in enumerate(history):
        if mq.d != d or mq.H != H:
            raise ValueError("history entries must share (d, H)")
        plays.append(state.current_z)
        if t >= H - 1:
            state.observe(*collapse(mq), mq.const)
            state.update()
        else:
            state.randomize_play()
    return plays


def regret_audit(history, plays, D: float, eps: float = 1e-9):
    """(best fixed play in hindsight, value achieved by the plays).

    Both sums run over the rounds with a complete window (t >= H-1,
    0-indexed); see OtrState.hindsight.
    """
    if len(history) != len(plays):
        raise ValueError("history and plays must have equal length")
    if not history:
        return 0.0, 0.0
    d, H = history[0].d, history[0].H
    audit = OtrState(d, D, eps, seed=0)
    for t in range(H - 1, len(history)):
        mq = history[t]
        if mq.d != d or mq.H != H:
            raise ValueError("history entries must share (d, H)")
        audit.observe(*collapse(mq), mq.const, mq.value(plays[t - H + 1 : t + 1]))
    return audit.hindsight()
