"""Disturbance generators behind a single round protocol.

Per round the harness calls emit(x_t) to get w_t, steps the plant with the
controller's u_t, then calls observe(u_t).  A generator therefore never
sees the current control before committing its disturbance; the base class
enforces that call order.  All generators except the Gaussian keep
||w_t|| <= W_max.

The adaptive generators (MOTR and OGA) act in residual coordinates: the
plant is recast with the game-optimal feedback as A - B K, the learned
policy reads residual controls r_t = K x_t + u_t, and the disturbance
bias is the game's equilibrium gain W x_t.  Against a controller playing
exactly u = -K x the residuals vanish and the equilibrium generator is
recovered; MOTR's learned component only spends its budget on deviations.

The sinusoid generator picks its one sinusoid offline, before the episode,
by open-loop cost; the search is linear in the phase (_sinusoid_scores).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cdg import CdgPolicy, InstabilityError, plant_powers, project_frobenius, rollout_cost_quadratic
from .controllers import HinfSolution
from .lds import CostWeights, LinearSystem, spectral_radius
from .online import OtrState, default_perturbation_rate

__all__ = [
    "GeneratorError",
    "TransformError",
    "DisturbanceGenerator",
    "MotrConfig",
    "AdaptiveCdgGenerator",
    "HinfGenerator",
    "GaussianGenerator",
    "RandomDirectionGenerator",
    "SinusoidGenerator",
    "scale_to_budget",
    "transform_residual",
    "sinusoid_generator",
]

GAUSSIAN_BUDGET_FACTOR = 1.05
# Sinusoid candidates scoring within this relative distance of the best
# are tied (see SinusoidGenerator).
TIE_REL_TOL = 1e-12


class GeneratorError(RuntimeError):
    """Failure inside a generator round; the message carries the round index."""


class TransformError(RuntimeError):
    """The residual-coordinate state map is not stable."""


def scale_to_budget(w: np.ndarray, W_max: float) -> np.ndarray:
    """Spend the whole budget in the direction of w: W_max * w / ||w||.

    The zero vector stays zero.  The state-feedback generators emit through
    this, so the shared budget does not vary across generators; a generator
    that merely clipped w = W x would spend almost nothing once the
    stabilized state decays, and every comparison against persistent noise
    would be vacuous.
    """
    if not (W_max > 0.0):
        raise ValueError("W_max must be positive")
    w = np.asarray(w, dtype=float)
    norm = math.sqrt(w @ w)
    if norm == 0.0:
        return np.zeros_like(w)
    return w * (W_max / norm)


class DisturbanceGenerator:
    """Base round protocol: emit(x) -> w, then observe(u)."""

    name = "generator"

    def __init__(self):
        self._awaiting_control = False
        self._round = 0

    def emit(self, x: np.ndarray) -> np.ndarray:
        if self._awaiting_control:
            raise GeneratorError(f"round {self._round}: emit called before observe")
        w = self._emit(np.asarray(x, dtype=float))
        self._awaiting_control = True
        return w

    def observe(self, u: np.ndarray) -> None:
        if not self._awaiting_control:
            raise GeneratorError(f"round {self._round}: observe called before emit")
        self._observe(np.asarray(u, dtype=float))
        self._awaiting_control = False
        self._round += 1

    def _emit(self, x):
        raise NotImplementedError

    def _observe(self, u):
        pass


class HinfGenerator(DisturbanceGenerator):
    """Full-budget disturbance along the equilibrium direction W x."""

    name = "hinf"

    def __init__(self, hinf: HinfSolution, W_max: float):
        super().__init__()
        self.W = hinf.W
        self.W_max = float(W_max)

    def _emit(self, x):
        return scale_to_budget(self.W @ x, self.W_max)


class GaussianGenerator(DisturbanceGenerator):
    """i.i.d. normal disturbances scaled so the mean norm is slightly above
    the shared budget (the one unclipped baseline)."""

    name = "gaussian"

    def __init__(self, d_w: int, W_max: float, seed: int):
        super().__init__()
        if not (W_max > 0.0):
            raise ValueError("W_max must be positive")
        self.d_w = d_w
        self.rng = np.random.default_rng(seed)
        mean_norm = math.sqrt(2.0) * math.gamma((d_w + 1) / 2.0) / math.gamma(d_w / 2.0)
        self.scale = GAUSSIAN_BUDGET_FACTOR * W_max / mean_norm

    def _emit(self, x):
        return self.scale * self.rng.standard_normal(self.d_w)


class RandomDirectionGenerator(DisturbanceGenerator):
    """Uniform random direction at full budget each round."""

    name = "random"

    def __init__(self, d_w: int, W_max: float, seed: int):
        super().__init__()
        if not (W_max > 0.0):
            raise ValueError("W_max must be positive")
        self.d_w = d_w
        self.W_max = float(W_max)
        self.rng = np.random.default_rng(seed)

    def _emit(self, x):
        v = self.rng.standard_normal(self.d_w)
        norm = float(np.linalg.norm(v))
        while norm == 0.0:
            v = self.rng.standard_normal(self.d_w)
            norm = float(np.linalg.norm(v))
        return self.W_max * v / norm


def _sinusoid_scores(sys, cw, W_max, T, directions, freqs, phases) -> np.ndarray:
    """Open-loop (u = 0, x_0 = 0) cost sum_{t<T} x_t'Q x_t of every sinusoid
    candidate w_t = W_max sin(omega t + phase) v, as an array indexed
    (direction, frequency, phase).

    The state is linear in the drive and sin(omega t + phase) v =
    cos(phase) sin(omega t) v + sin(phase) cos(omega t) v, so
    x_t = W_max X_t(omega) z with z = [cos(phase) v; sin(phase) v], where
    X_t(omega) is the state response to the sine and cosine drives through
    each disturbance channel.  The cost is W_max^2 z'G(omega)z with
    G(omega) = sum_t X_t' Q X_t, accumulated step by step: one simulation
    of 2 d_w columns per frequency scores every direction and phase.
    """
    d_x, d_w = sys.d_x, sys.d_w
    A, Q, C2 = sys.A, cw.Q, np.hstack([sys.C, sys.C])
    drive = np.outer(freqs, np.arange(T))  # omega t, as the emitted sine has it
    # (frequency, t, column): sin(omega t) for the first d_w columns of X,
    # cos(omega t) for the last d_w.
    gains = np.repeat(np.stack([np.sin(drive), np.cos(drive)], axis=2), d_w, axis=2)
    X = np.zeros((len(freqs), d_x, 2 * d_w))
    G = np.zeros((len(freqs), 2 * d_w, 2 * d_w))
    for t in range(T - 1):
        X = A @ X + C2 * gains[:, t, None, :]
        G += X.transpose(0, 2, 1) @ (Q @ X)
    Z = np.concatenate(
        [np.cos(phases)[None, :, None] * directions[:, None, :],
         np.sin(phases)[None, :, None] * directions[:, None, :]],
        axis=2,
    )  # (direction, phase, 2 d_w)
    return W_max**2 * np.einsum("dpa,fab,dpb->dfp", Z, G, Z)


class SinusoidGenerator(DisturbanceGenerator):
    """Sinusoid w_t = W_max sin(omega t + phase) v, with (omega, phase, v)
    chosen offline as the candidate maximizing open-loop (u = 0) cumulative
    cost over the horizon (_sinusoid_scores: one simulation per frequency
    scores the 640 default candidates).

    Phase and phase + pi negate the whole open-loop trajectory and so give
    the same cost in exact arithmetic; the default phase grid 2 pi k / 8,
    k = 0..3, therefore covers [0, pi) only.  Candidates are ordered
    direction-major, then frequency, then phase.  Scores within a relative
    TIE_REL_TOL of the best count as tied, and ties break to the first
    candidate in that order, so rounding does not decide between twins on
    a grid that holds both.
    """

    name = "sine"

    def __init__(
        self,
        sys: LinearSystem,
        cw: CostWeights,
        W_max: float,
        T: int,
        freqs: Optional[np.ndarray] = None,
        phases: Optional[np.ndarray] = None,
        n_random_directions: int = 8,
        seed: int = 0,
    ):
        super().__init__()
        if not (W_max > 0.0):
            raise ValueError("W_max must be positive")
        if freqs is None:
            freqs = np.linspace(0.0, np.pi, 16)
        if phases is None:
            phases = 2.0 * np.pi * np.arange(4) / 8.0
        freqs = np.asarray(freqs, dtype=float)
        phases = np.asarray(phases, dtype=float)
        if freqs.ndim != 1 or phases.ndim != 1 or freqs.size == 0 or phases.size == 0:
            raise ValueError("frequency and phase grids must be non-empty 1-D arrays")
        d_w = sys.d_w
        rng = np.random.default_rng(seed)
        dirs = [np.eye(d_w)[i] for i in range(d_w)]
        for _ in range(n_random_directions):
            v = rng.standard_normal(d_w)
            dirs.append(v / np.linalg.norm(v))
        dirs = np.array(dirs)
        J = _sinusoid_scores(sys, cw, W_max, T, dirs, freqs, phases).ravel()
        best = int(np.flatnonzero(J >= J.max() - TIE_REL_TOL * abs(J.max()))[0])
        d, f, p = np.unravel_index(best, (len(dirs), freqs.size, phases.size))
        self.W_max = float(W_max)
        self.omega = float(freqs[f])
        self.phase = float(phases[p])
        self.direction = dirs[d]
        self._t = 0

    def _emit(self, x):
        w = self.W_max * math.sin(self.omega * self._t + self.phase) * self.direction
        self._t += 1
        return w


def transform_residual(sys: LinearSystem, hinf: HinfSolution) -> LinearSystem:
    """Residual-coordinate plant (A - B K, B, C); raises TransformError if
    the transformed state map is not strictly stable."""
    Abar = sys.A - sys.B @ hinf.K
    rho = spectral_radius(Abar)
    if rho >= 1.0:
        raise TransformError(f"residual state map has spectral radius {rho:.6g} >= 1")
    return LinearSystem(Abar, sys.B, sys.C)


@dataclass
class MotrConfig:
    """Adaptive-generator configuration.

    eta and eps default at runtime: eps to 1/T, eta to the nominal
    perturbation rate computed from the largest coefficient of the
    quadratics observed during the warm-up rounds.
    """

    T: int
    H: int = 3
    D_M: float = 0.3
    eta: Optional[float] = None
    eps: Optional[float] = None
    W_max: float = 1.0
    residual_bias: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.T < 1 or self.H < 1:
            raise ValueError("T and H must be positive")
        if not (self.D_M > 0.0 and self.W_max > 0.0):
            raise ValueError("D_M and W_max must be positive")
        if self.eta is not None and not (self.eta > 0.0):
            raise ValueError("eta must be positive when given")
        if self.eps is not None and not (self.eps > 0.0):
            raise ValueError("eps must be positive when given")


class AdaptiveCdgGenerator(DisturbanceGenerator):
    """The MOTR and OGA generators.

    Both emit the budget-scaled w_t along sum_i M_t[i] r_{t-i} + bias(x_t)
    and rebuild the rollout-cost quadratic after observing each control;
    they differ only in how the policy is updated from it.  update is
    "motr" (perturbed-leader trust-region step on the running sum of the
    quadratics, OtrState) or "oga" (one projected gradient-ascent step at
    the current policy).
    """

    def __init__(
        self,
        sys: LinearSystem,
        cw: CostWeights,
        hinf: HinfSolution,
        cfg: MotrConfig,
        update: str = "motr",
        lr: Optional[float] = None,
    ):
        super().__init__()
        if update not in ("motr", "oga"):
            raise ValueError(f"unknown update rule {update!r}")
        self.name = update
        self.cfg = cfg
        self.cw = cw
        H = cfg.H
        if cfg.residual_bias:
            self.base = transform_residual(sys, hinf)
            self.K, self.Wb = hinf.K, hinf.W
        else:
            self.base = sys
            self.K, self.Wb = np.zeros((sys.d_u, sys.d_x)), None
        try:
            self._powers = plant_powers(self.base, H)
        except InstabilityError as exc:
            raise TransformError(
                f"without the residual transformation the plant must be open-loop stable: {exc}"
            ) from exc
        self.d_x, self.d_u, self.d_w = sys.d_x, sys.d_u, sys.d_w
        self.n = H * self.d_w * self.d_u
        self.eps = cfg.eps if cfg.eps is not None else 1.0 / cfg.T
        self.rng = np.random.default_rng(cfg.seed)
        # The episode's one running sum of the round quadratics: MOTR's
        # leader and the regret audit of both update rules.  Without a given
        # eta, MOTR calibrates it on the coefficient scale of the first
        # _warmup_rounds + 1 quadratics and only then starts to play.
        self._state = OtrState(self.n, cfg.D_M, self.eps, cfg.seed + 1, cfg.eta)
        self._coeff_max = 0.0
        self._warmup_rounds = min(2 * H + 1, max(1, cfg.T - 1))
        # Bias contribution (A^a C) W x_{t-a} of each unrolled step to the
        # rollout state.  The product is formed from A^a, not from the
        # plant's A^a C: that reassociation changes last bits, which GPC
        # episodes amplify to percent-level cost changes.
        self._bias_mats = None
        if self.Wb is not None:
            Ak, self._bias_mats = np.eye(self.d_x), []
            for _ in range(H + 1):
                self._bias_mats.append(Ak @ self.base.C @ self.Wb)
                Ak = self.base.A @ Ak
        self.lr = lr
        self.M = self._initial_policy()
        self._r_hist: list = []  # residual controls, most recent first
        self._x_hist: list = []  # states, most recent first
        self._pending_x: Optional[np.ndarray] = None

    def _initial_policy(self) -> CdgPolicy:
        v = self.rng.standard_normal(self.n)
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            v *= self.cfg.D_M * self.rng.random() ** (1.0 / self.n) / norm
        return CdgPolicy.from_vec(v, self.cfg.H, self.d_w, self.d_u, self.cfg.D_M)

    def _emit(self, x):
        w = self.M.disturbance(self._r_hist[: self.cfg.H])
        if self.Wb is not None:
            w += self.Wb @ x
        self._pending_x = x
        return scale_to_budget(w, self.cfg.W_max)

    def _bias_vec(self) -> Optional[np.ndarray]:
        if self._bias_mats is None:
            return None
        v = np.zeros(self.d_x)
        for mat, x in zip(self._bias_mats, self._x_hist):
            v += mat @ x
        return v

    def _observe(self, u):
        H = self.cfg.H
        x = self._pending_x
        r = self.K @ x + u
        window = np.zeros((2 * H + 1, self.d_u))
        for i, past in enumerate(self._r_hist[: 2 * H + 1]):
            window[i] = past
        try:
            rq = rollout_cost_quadratic(self._powers, self.cw, window, r, self._bias_vec())
            self._state.observe(rq.P, rq.p, rq.const, rq.evaluate(self.M.vec()))
            if self.name == "motr":
                v = self._motr_step(rq)
            else:
                step = (self.lr if self.lr is not None else 0.1 * self.cfg.D_M) / math.sqrt(
                    self._round + 1.0
                )
                v = self.M.vec()
                g = (rq.P + rq.P.T) @ v + rq.p
                gnorm = math.sqrt(g @ g)
                if gnorm > 0.0:
                    v = v + step * g / gnorm
            if v is not None:
                self.M = project_frobenius(
                    CdgPolicy.from_vec(v, H, self.d_w, self.d_u, np.inf), self.cfg.D_M
                )
        except (ValueError, RuntimeError) as exc:
            if isinstance(exc, GeneratorError):
                raise
            raise GeneratorError(f"round {self._round}: {exc}") from exc
        self._r_hist.insert(0, r)
        del self._r_hist[2 * H + 1 :]
        self._x_hist.insert(0, x)
        del self._x_hist[H + 2 :]

    def _motr_step(self, rq) -> Optional[np.ndarray]:
        """The learner's next play, or None while eta is being calibrated."""
        state = self._state
        if state.eta is None:
            self._coeff_max = max(
                self._coeff_max, float(np.max(np.abs(rq.P))), float(np.max(np.abs(rq.p)))
            )
            if self._round < self._warmup_rounds:
                return None
            state.eta = default_perturbation_rate(
                max(self._coeff_max, 1e-9), self.n, self.cfg.D_M, self.cfg.H, self.cfg.T
            )
        return state.update()

    def regret_pair(self):
        """(hindsight-best fixed policy value, achieved value) on the
        surrogate rewards; None before any round completed."""
        if self._state.rounds == 0:
            return None
        return self._state.hindsight()


def sinusoid_generator(
    sys: LinearSystem,
    cw: CostWeights,
    W_max: float,
    T: int,
    seed: int = 0,
    **grid,
) -> SinusoidGenerator:
    return SinusoidGenerator(sys, cw, W_max, T, seed=seed, **grid)
