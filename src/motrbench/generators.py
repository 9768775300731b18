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
Their policy is the learner's vector vec(M) (cdg's one policy encoding):
the emitted disturbance, the update and the projection onto the D_M ball
all work on that vector, and AdaptiveCdgGenerator.M is a read-only view
of it as (H, d_w, d_u) blocks.

The sinusoid generator picks its one sinusoid offline, before the episode,
by open-loop cost: per (frequency, phase) the best direction is the top
eigenvector of a d_w x d_w matrix built from _sinusoid_gram.
"""

import math
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


def _check_budget(W_max) -> float:
    """W_max as a float; ValueError unless it is positive."""
    if not (W_max > 0.0):
        raise ValueError("W_max must be positive")
    return float(W_max)


def scale_to_budget(w: np.ndarray, W_max: float) -> np.ndarray:
    """Spend the whole budget in the direction of w: W_max * w / ||w||.

    The zero vector stays zero.  The state-feedback generators emit through
    this, so the shared budget does not vary across generators; a generator
    that merely clipped w = W x would spend almost nothing once the
    stabilized state decays, and every comparison against persistent noise
    would be vacuous.
    """
    _check_budget(W_max)
    w = np.asarray(w, dtype=float)
    norm = math.sqrt(w @ w)
    if norm == 0.0:
        return np.zeros_like(w)
    return w * (W_max / norm)


class DisturbanceGenerator:
    """Base round protocol: emit(x) -> w, then observe(u), on the float
    vectors that the episode harness hands over (it converts at its
    boundary, so these do not)."""

    name = "generator"

    def __init__(self):
        self._awaiting_control = False
        self._round = 0

    def emit(self, x: np.ndarray) -> np.ndarray:
        if self._awaiting_control:
            raise GeneratorError(f"round {self._round}: emit called before observe")
        w = self._emit(x)
        self._awaiting_control = True
        return w

    def observe(self, u: np.ndarray) -> None:
        if not self._awaiting_control:
            raise GeneratorError(f"round {self._round}: observe called before emit")
        self._observe(u)
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
        self.W_max = _check_budget(W_max)

    def _emit(self, x):
        return scale_to_budget(self.W @ x, self.W_max)


class GaussianGenerator(DisturbanceGenerator):
    """i.i.d. normal disturbances scaled so the mean norm is slightly above
    the shared budget (the one unclipped baseline)."""

    name = "gaussian"

    def __init__(self, d_w: int, W_max: float, seed: int):
        super().__init__()
        W_max = _check_budget(W_max)
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
        self.d_w = d_w
        self.W_max = _check_budget(W_max)
        self.rng = np.random.default_rng(seed)

    def _emit(self, x):
        v = self.rng.standard_normal(self.d_w)
        norm = math.sqrt(v @ v)  # np.linalg.norm's arithmetic
        while norm == 0.0:
            v = self.rng.standard_normal(self.d_w)
            norm = math.sqrt(v @ v)
        return self.W_max * v / norm


def _sinusoid_gram(sys, cw, T, freqs) -> np.ndarray:
    """G(omega) for each frequency, as a (frequency, 2 d_w, 2 d_w) array:
    the open-loop (u = 0, x_0 = 0) cost sum_{t<T} x_t'Q x_t of the drive
    w_t = sin(omega t + phase) v is z'G(omega)z with
    z = [cos(phase) v; sin(phase) v].

    The state is linear in the drive and sin(omega t + phase) v =
    cos(phase) sin(omega t) v + sin(phase) cos(omega t) v, so
    x_t = X_t(omega) z, where X_t(omega) is the state response to the sine
    and cosine drives through each disturbance channel, and
    G(omega) = sum_t X_t' Q X_t is accumulated step by step: one
    simulation of 2 d_w columns per frequency.
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
    return G


class SinusoidGenerator(DisturbanceGenerator):
    """Sinusoid w_t = W_max sin(omega t + phase) v, with (omega, phase, v)
    chosen offline to maximize the open-loop (u = 0) cumulative cost over
    the horizon among every unit direction v and every (omega, phase) on
    the grids.

    With c = cos(phase), s = sin(phase) and the blocks G11, G12, G22 of the
    Gram matrix G(omega) (_sinusoid_gram), the cost of v is W_max^2 v'Mv
    for M = c^2 G11 + c s (G12 + G12') + s^2 G22, so the best v is a top
    eigenvector of M and scores W_max^2 lambda_max; one batched eigh
    solves the 64 default (omega, phase) candidates.  The eigenvector is
    column 0 of eigh(-M), so a degenerate top eigenspace (zero cost, say)
    gives e_1, and its sign makes its largest-magnitude entry (the first
    on a tie) positive: v and -v tie open loop but not from a nonzero x_0.

    Phase and phase + pi negate the whole open-loop trajectory and so give
    the same cost in exact arithmetic; the default phase grid 2 pi k / 8,
    k = 0..3, therefore covers [0, pi) only.  Candidates are ordered by
    frequency, then phase.  Scores within a relative TIE_REL_TOL of the
    best count as tied, and ties break to the first candidate in that
    order, so rounding does not decide between twins on a grid that holds
    both.
    """

    name = "sine"

    def __init__(
        self,
        sys: LinearSystem,
        cw: CostWeights,
        W_max: float,
        T: int,
        *,
        freqs: Optional[np.ndarray] = None,
        phases: Optional[np.ndarray] = None,
    ):
        super().__init__()
        W_max = _check_budget(W_max)
        if freqs is None:
            freqs = np.linspace(0.0, np.pi, 16)
        if phases is None:
            phases = 2.0 * np.pi * np.arange(4) / 8.0
        freqs = np.asarray(freqs, dtype=float)
        phases = np.asarray(phases, dtype=float)
        if freqs.ndim != 1 or phases.ndim != 1 or freqs.size == 0 or phases.size == 0:
            raise ValueError("frequency and phase grids must be non-empty 1-D arrays")
        d_w = sys.d_w
        G = _sinusoid_gram(sys, cw, T, freqs)[:, None]  # (frequency, 1, 2 d_w, 2 d_w)
        G12 = G[..., :d_w, d_w:]
        c, s = np.cos(phases)[:, None, None], np.sin(phases)[:, None, None]
        M = c * c * G[..., :d_w, :d_w] + c * s * (G12 + G12.swapaxes(-1, -2)) + s * s * G[..., d_w:, d_w:]
        neg_lam, V = np.linalg.eigh(-M)  # (frequency, phase, ...)
        J = -W_max**2 * neg_lam[..., 0].ravel()
        best = int(np.flatnonzero(J >= J.max() - TIE_REL_TOL * abs(J.max()))[0])
        f, p = np.unravel_index(best, (freqs.size, phases.size))
        v = V[f, p, :, 0]
        self.W_max = W_max
        self.score = float(J[best])  # the chosen sinusoid's open-loop cost
        self.omega = float(freqs[f])
        self.phase = float(phases[p])
        self.direction = v if v[np.argmax(np.abs(v))] > 0 else -v

    def _emit(self, x):
        return self.W_max * math.sin(self.omega * self._round + self.phase) * self.direction


def transform_residual(sys: LinearSystem, hinf: HinfSolution) -> LinearSystem:
    """Residual-coordinate plant (A - B K, B, C); raises TransformError if
    the transformed state map is not strictly stable."""
    Abar = sys.A - sys.B @ hinf.K
    rho = spectral_radius(Abar)
    if rho >= 1.0:
        raise TransformError(f"residual state map has spectral radius {rho:.6g} >= 1")
    return LinearSystem(Abar, sys.B, sys.C)


class AdaptiveCdgGenerator(DisturbanceGenerator):
    """The MOTR and OGA generators.

    Both emit the budget-scaled w_t along sum_i M_t[i] r_{t-i} + bias(x_t)
    and rebuild the rollout-cost quadratic after observing each control;
    they differ only in how the policy is updated from it.  update is
    "motr" (perturbed-leader trust-region step on the running sum of the
    quadratics, OtrState) or "oga" (one projected gradient-ascent step at
    the current policy).  The keyword arguments after update are the
    fields of a motr/oga spec, whose defaults and ranges bench.py holds.

    The policy is the learner's vector vec(M), so the round reads, updates
    and projects it without conversions.  A round rebinds the vector and
    never writes it in place, so a view M taken before a round keeps that
    round's policy.  The last 2H+1 residual controls and the last H+1
    states are kept in rolling windows, most recent first.
    """

    def __init__(
        self,
        sys: LinearSystem,
        cw: CostWeights,
        hinf: HinfSolution,
        *,
        update: str,
        T: int,
        H: int,
        D_M: float,
        W_max: float,
        residual_bias: bool,
        seed: int,
        eta: Optional[float] = None,
        lr: Optional[float] = None,
    ):
        super().__init__()
        if update not in ("motr", "oga"):
            raise ValueError(f"unknown update rule {update!r}")
        self.name = update
        self.cw = cw
        self.T, self.H, self.D_M, self.W_max = T, H, D_M, _check_budget(W_max)
        if residual_bias:
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
        # None derives the value: OGA's step scale lr = 0.1 D_M, and eta as
        # described below.
        self.lr = lr if lr is not None else 0.1 * D_M
        self.rng = np.random.default_rng(seed)
        # The episode's one running sum of the round quadratics: MOTR's
        # leader and the regret audit of both update rules.  Without a given
        # eta, MOTR calibrates it on the coefficient scale of the first
        # _warmup_rounds + 1 quadratics and only then starts to play.
        self._state = OtrState(self.n, D_M, seed + 1, eta)
        self._coeff_max = 0.0
        self._warmup_rounds = min(2 * H + 1, max(1, T - 1))
        # Bias contribution sum_a (A^a C) W x_{t-1-a} of the last H+1 states
        # to the rollout state, as one (d_x, (H+1) d_x) matrix.  Each block
        # is formed from A^a, not from the plant's A^a C: that reassociation
        # changes last bits, which GPC episodes amplify to percent-level cost
        # changes.
        self._bias_mat = None
        if self.Wb is not None:
            Ak, blocks = np.eye(self.d_x), []
            for _ in range(H + 1):
                blocks.append(Ak @ self.base.C @ self.Wb)
                Ak = self.base.A @ Ak
            self._bias_mat = np.hstack(blocks)
        self._v = self._initial_policy()
        self._r_win = np.zeros((2 * H + 1, self.d_u))  # residual controls
        self._x_win = np.zeros((H + 1, self.d_x))  # states
        self._pending_x: Optional[np.ndarray] = None

    @property
    def M(self) -> np.ndarray:
        """The current policy as a read-only (H, d_w, d_u) view of the vector."""
        return CdgPolicy.from_vec(self._v, self.H, self.d_w, self.d_u)

    def _initial_policy(self) -> np.ndarray:
        v = self.rng.standard_normal(self.n)
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            v *= self.D_M * self.rng.random() ** (1.0 / self.n) / norm
        return v

    def _emit(self, x):
        # sum_i M[i] r_{t-1-i}: the vector's index col*(H d_w) + i*d_w + row
        # is row col*H + i of the (d_u H, d_w) view, and the window's first
        # H rows flattened column-major are ordered the same way.
        w = self._r_win[: self.H].ravel(order="F") @ self._v.reshape(-1, self.d_w)
        if self.Wb is not None:
            w += self.Wb @ x
        self._pending_x = x
        return scale_to_budget(w, self.W_max)

    def _observe(self, u):
        x = self._pending_x
        r = self.K @ x + u
        bias = None if self._bias_mat is None else self._bias_mat @ self._x_win.ravel()
        v = self._v
        try:
            rq = rollout_cost_quadratic(self._powers, self.cw, self._r_win, r, bias)
            self._state.observe(rq.P, rq.p, rq.const, rq.evaluate(v))
            if self.name == "motr":
                v = self._motr_step(rq)
            else:
                # The gradient (P + P')v + p, with P = T'QT symmetric up to
                # rounding for the symmetric Q of a CostWeights.
                g = 2.0 * (rq.P @ v) + rq.p
                gnorm = math.sqrt(g @ g)
                if gnorm > 0.0:
                    v = v + (self.lr / math.sqrt(self._round + 1.0) / gnorm) * g
        except (ValueError, RuntimeError) as exc:
            if isinstance(exc, GeneratorError):
                raise
            raise GeneratorError(f"round {self._round}: {exc}") from exc
        if v is not None:
            self._v = project_frobenius(v, self.D_M)
        self._r_win[1:] = self._r_win[:-1]
        self._r_win[0] = r
        self._x_win[1:] = self._x_win[:-1]
        self._x_win[0] = x

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
                max(self._coeff_max, 1e-9), self.n, self.D_M, self.H, self.T
            )
        return state.update()

    def regret_pair(self):
        """(hindsight-best fixed policy value, achieved value) on the
        surrogate rewards; None before any round completed."""
        if self._state.rounds == 0:
            return None
        return self._state.hindsight()


def sinusoid_generator(sys: LinearSystem, cw: CostWeights, W_max: float, T: int, **grid) -> SinusoidGenerator:
    return SinusoidGenerator(sys, cw, W_max, T, **grid)
