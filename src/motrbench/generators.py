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
of it as (H, d_w, d_u) blocks.  Their history is one vector h, shifted in
place each round: the last 2H+1 residual controls, then the last H+1
states, most recent first.  The generator builds its unroll map E once
(cdg.unroll_map, with W as the state gain), and each round's rollout
cost is one Gram matrix G built from the one product h @ E, bias
included: the learner sums G, and the round reads its blocks
P = G[:-1, :-1] and q = G[:-1, -1] as views.

The sinusoid generator picks its one sinusoid offline, before the episode,
by open-loop cost: per (frequency, phase) the best direction is the top
eigenvector of a d_w x d_w matrix built from _sinusoid_gram.
"""

import math
import numbers
from typing import Optional

import numpy as np

from .cdg import CdgPolicy, project_frobenius, rollout_cost_quadratic, unroll_map
from .controllers import HinfSolution
from .lds import CostWeights, LinearSystem
from .online import OtrState, ball_point, default_perturbation_rate

__all__ = [
    "GeneratorError",
    "DisturbanceGenerator",
    "AdaptiveCdgGenerator",
    "HinfGenerator",
    "GaussianGenerator",
    "RandomDirectionGenerator",
    "SinusoidGenerator",
    "transform_residual",
    "sinusoid_generator",
]

GAUSSIAN_BUDGET_FACTOR = 1.05
# The noise generators draw their normals this many rounds' worth at a time.
NOISE_BLOCK = 64
# The sinusoid's frequency grid, 16 points on [0, pi], and its phase grid,
# 2 pi k / 8 for k = 0..3 (half the circle, see SinusoidGenerator).
SINE_FREQS = np.linspace(0.0, np.pi, 16)
SINE_FREQS.setflags(write=False)
SINE_PHASES = 2.0 * np.pi * np.arange(4) / 8.0
SINE_PHASES.setflags(write=False)
# OGA's step scale is OGA_LR_GAIN D_M.
OGA_LR_GAIN = 0.1


class GeneratorError(RuntimeError):
    """Failure inside a generator round; the message carries the round index."""


def _check_budget(W_max) -> float:
    """W_max as a float; ValueError unless it is positive and finite."""
    if not (0.0 < W_max < math.inf):
        raise ValueError(f"W_max must be a positive number, got {W_max!r}")
    return float(W_max)


def scale_to_budget(w: np.ndarray, W_max: float) -> np.ndarray:
    """Spend the whole budget in the direction of w: W_max * w / ||w||.

    The zero vector stays zero.  The state-feedback generators emit through
    this, so the shared budget does not vary across generators; a generator
    that merely clipped w = W x would spend almost nothing once the
    stabilized state decays, and every comparison against persistent noise
    would be vacuous.  Each generator checks W_max when it is built.
    """
    norm = math.sqrt(w.dot(w))
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
        return scale_to_budget(self.W.dot(x), self.W_max)


class _NoiseGenerator(DisturbanceGenerator):
    """Base of the two noise generators: d_w standard normals per draw from
    the seeded rng.  They are drawn on first need in blocks of NOISE_BLOCK
    rows, one row per draw, so rng runs up to one block ahead of the draws
    handed out.  Generator.standard_normal fills a block in order, so its
    rows are the numbers that one call per draw would give.  A refill
    allocates a new block: a row handed out is never overwritten."""

    def __init__(self, d_w: int, seed: int):
        super().__init__()
        if not (isinstance(d_w, numbers.Integral) and not isinstance(d_w, bool) and d_w >= 1):
            raise ValueError(f"d_w must be an integer >= 1, got {d_w!r}")
        self.d_w = int(d_w)
        self.rng = np.random.default_rng(seed)
        self._rows = np.empty((0, self.d_w))
        self._next = 0

    def _block(self, z: np.ndarray) -> np.ndarray:
        """The rows to hand out, from a block z of standard normals."""
        return z

    def _draw(self) -> np.ndarray:
        i = self._next
        if i == len(self._rows):
            self._rows = self._block(self.rng.standard_normal((NOISE_BLOCK, self.d_w)))
            i = 0
        self._next = i + 1
        return self._rows[i]


class GaussianGenerator(_NoiseGenerator):
    """i.i.d. normal disturbances scaled so the mean norm is slightly above
    the shared budget (the one unclipped baseline).  Each block of normals
    is scaled once, the same elementwise product as scaling each draw."""

    name = "gaussian"

    def __init__(self, d_w: int, W_max: float, seed: int):
        W_max = _check_budget(W_max)
        super().__init__(d_w, seed)
        d_w = self.d_w
        mean_norm = math.sqrt(2.0) * math.gamma((d_w + 1) / 2.0) / math.gamma(d_w / 2.0)
        self.scale = GAUSSIAN_BUDGET_FACTOR * W_max / mean_norm

    def _block(self, z):
        return self.scale * z

    def _emit(self, x):
        return self._draw()


class RandomDirectionGenerator(_NoiseGenerator):
    """Uniform random direction at full budget each round: the next draw
    of normals, scaled to norm W_max.  A draw of norm zero is skipped for
    the next one."""

    name = "random"

    def __init__(self, d_w: int, W_max: float, seed: int):
        self.W_max = _check_budget(W_max)
        super().__init__(d_w, seed)

    def _emit(self, x):
        v = self._draw()
        norm = math.sqrt(v.dot(v))  # np.linalg.norm's arithmetic
        while norm == 0.0:
            v = self._draw()
            norm = math.sqrt(v.dot(v))
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
    the horizon among every unit direction v, every frequency omega in
    SINE_FREQS and every phase in SINE_PHASES.

    With c = cos(phase), s = sin(phase) and the blocks G11, G12, G22 of the
    Gram matrix G(omega) (_sinusoid_gram), the cost of v is W_max^2 v'Mv
    for M = c^2 G11 + c s (G12 + G12') + s^2 G22, so the best v is a top
    eigenvector of M and scores W_max^2 lambda_max; one batched eigh
    solves the 64 (omega, phase) candidates.  The eigenvector is
    column 0 of eigh(-M), so a degenerate top eigenspace (zero cost, say)
    gives e_1, and its sign makes its largest-magnitude entry (the first
    on a tie) positive: v and -v tie open loop but not from a nonzero x_0.

    Phase and phase + pi negate the whole open-loop trajectory and so give
    the same cost in exact arithmetic; SINE_PHASES therefore covers
    [0, pi) only.  Candidates are ordered by frequency, then phase, and an
    equal best score goes to the first of them.
    """

    name = "sine"

    def __init__(self, sys: LinearSystem, cw: CostWeights, W_max: float, T: int):
        super().__init__()
        W_max = _check_budget(W_max)
        d_w = sys.d_w
        G = _sinusoid_gram(sys, cw, T, SINE_FREQS)[:, None]  # (frequency, 1, 2 d_w, 2 d_w)
        G12 = G[..., :d_w, d_w:]
        c, s = np.cos(SINE_PHASES)[:, None, None], np.sin(SINE_PHASES)[:, None, None]
        M = c * c * G[..., :d_w, :d_w] + c * s * (G12 + G12.swapaxes(-1, -2)) + s * s * G[..., d_w:, d_w:]
        neg_lam, V = np.linalg.eigh(-M)  # (frequency, phase, ...)
        J = -W_max**2 * neg_lam[..., 0].ravel()
        best = int(np.argmax(J))
        f, p = np.unravel_index(best, (SINE_FREQS.size, SINE_PHASES.size))
        v = V[f, p, :, 0]
        self.W_max = W_max
        self.score = float(J[best])  # the chosen sinusoid's open-loop cost
        self.omega = float(SINE_FREQS[f])
        self.phase = float(SINE_PHASES[p])
        self.direction = v if v[np.argmax(np.abs(v))] > 0 else -v

    def _emit(self, x):
        return self.W_max * math.sin(self.omega * self._round + self.phase) * self.direction


def transform_residual(sys: LinearSystem, hinf: HinfSolution) -> LinearSystem:
    """Residual-coordinate plant (A - B K, B, C).  Its stability is checked
    once, where cdg.unroll_map builds its powers (cdg.plant_powers raises
    InstabilityError)."""
    return LinearSystem(sys.A - sys.B @ hinf.K, sys.B, sys.C)


class AdaptiveCdgGenerator(DisturbanceGenerator):
    """The MOTR and OGA generators.

    Both emit the budget-scaled w_t along sum_i M_t[i] r_{t-i} + W x_t on
    the residual plant (transform_residual) and, after observing each
    control, build the round's rollout cost as its Gram matrix G
    (cdg.rollout_cost_quadratic); they differ only in how the policy is
    updated from it.  update is "motr" (perturbed-leader trust-region step
    on the running sum of the matrices, OtrState) or "oga" (one projected
    gradient-ascent step at the current policy).  H and D_M are the
    config's top-level fields of those names.  OGA's step scale is
    lr = OGA_LR_GAIN D_M; MOTR calibrates its perturbation rate eta on the
    coefficient scale of the first _warmup_rounds + 1 quadratics and only
    then starts to play.  A residual plant A - B K that is not strictly
    stable raises InstabilityError (cdg.unroll_map).  Every round of both
    rules hands OtrState.observe the factor L'T of its P = T'QT (Q = L L',
    Q's zero eigenvalues dropped, L' built once per episode), and the
    learner alone decides whether to use it (OtrState's low-rank mode).

    The policy is the learner's vector vec(M), so the round reads, updates
    and projects it without conversions.  A round rebinds the vector and
    never writes it in place, so a view M taken before a round keeps that
    round's policy.  The last 2H+1 residual controls and the last H+1
    states are kept in the one history vector of the unroll map, most
    recent first.
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
        seed: int,
    ):
        super().__init__()
        if update not in ("motr", "oga"):
            raise ValueError(f"unknown update rule {update!r}")
        self.name = update
        self.cw = cw
        self.T, self.H, self.D_M, self.W_max = T, H, D_M, _check_budget(W_max)
        self.K, self.W = hinf.K, hinf.W
        self._unroll = unroll_map(transform_residual(sys, hinf), H, self.W)
        self.d_x, self.d_u, self.d_w = sys.d_x, sys.d_u, sys.d_w
        self.n = H * self.d_w * self.d_u
        self.lr = OGA_LR_GAIN * D_M
        self.rng = np.random.default_rng(seed)
        # The episode's one running sum of the round Gram matrices: MOTR's
        # leader and the regret audit of both update rules.
        self._state = OtrState(self.n, D_M, seed + 1)
        lam, U = np.linalg.eigh(cw.Q)
        keep = lam > 0.0
        self._q_root = np.sqrt(lam[keep])[:, None] * U[:, keep].T
        self._coeff_max = 0.0
        self._warmup_rounds = min(2 * H + 1, max(1, T - 1))
        self._v = ball_point(self.rng, self.n, D_M)
        # The unroll map's history: the last 2H+1 residual controls, then
        # the last H+1 states, most recent first.
        self._R = (2 * H + 1) * self.d_u
        self._h = np.zeros(self._unroll.E.shape[0])
        self._r_win = self._h[: self._R].reshape(2 * H + 1, self.d_u)
        self._pending_x: Optional[np.ndarray] = None

    @property
    def M(self) -> np.ndarray:
        """The current policy as a read-only (H, d_w, d_u) view of the vector."""
        return CdgPolicy.from_vec(self._v, self.H, self.d_w, self.d_u)

    def _emit(self, x):
        # sum_i M[i] r_{t-1-i}: the vector's index col*(H d_w) + i*d_w + row
        # is row col*H + i of the (d_u H, d_w) view, and the window's first
        # H rows flattened column-major are ordered the same way.
        w = self._r_win[: self.H].ravel(order="F").dot(self._v.reshape(-1, self.d_w))
        w += self.W.dot(x)
        self._pending_x = x
        return scale_to_budget(w, self.W_max)

    def _observe(self, u):
        x = self._pending_x
        r = self.K.dot(x) + u
        v = self._v
        try:
            G, F = rollout_cost_quadratic(self._unroll, self.cw, self._h, r, self._q_root)
            P, q = G[:-1, :-1], G[:-1, -1]
            Pv = P.dot(v)
            self._state.observe(G, float(v.dot(Pv + 2.0 * q) + G[-1, -1]), F)
            if self.name == "motr":
                v = self._motr_step(P, q)
            else:
                # The gradient (P + P')v + 2q, with P = T'QT symmetric up to
                # rounding for the symmetric Q of a CostWeights.
                g = 2.0 * (Pv + q)
                gnorm = math.sqrt(g.dot(g))
                if gnorm > 0.0:
                    v = v + (self.lr / math.sqrt(self._round + 1.0) / gnorm) * g
        except (ValueError, RuntimeError) as exc:
            if isinstance(exc, GeneratorError):
                raise
            raise GeneratorError(f"round {self._round}: {exc}") from exc
        if v is not None:
            self._v = project_frobenius(v, self.D_M)
        h, R, d_u, d_x = self._h, self._R, self.d_u, self.d_x
        h[d_u:R] = h[: R - d_u]
        h[:d_u] = r
        h[R + d_x :] = h[R:-d_x]
        h[R : R + d_x] = x

    def _motr_step(self, P: np.ndarray, q: np.ndarray) -> Optional[np.ndarray]:
        """The learner's next play, or None while eta is being calibrated on
        the largest coefficient of P and of the linear term 2q."""
        state = self._state
        if state.eta is None:
            self._coeff_max = max(
                self._coeff_max, float(np.max(np.abs(P))), 2.0 * float(np.max(np.abs(q)))
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


def sinusoid_generator(sys: LinearSystem, cw: CostWeights, W_max: float, T: int) -> SinusoidGenerator:
    return SinusoidGenerator(sys, cw, W_max, T)
