"""Baseline controllers the disturbance generators attack.

A controller handle is any object with a ``name`` attribute and an
``act(x) -> u`` method; handles may keep internal memory and must evolve
deterministically.  Provided here:

* LQR: fixed-point iteration on the discrete algebraic Riccati equation
      P <- Q + A'PA - A'PB (R + B'PB)^{-1} B'PA,   K = (R + B'PB)^{-1} B'PA
* H-infinity: value iteration on the LQ dynamic game with disturbance
  penalty -gamma^2 ||w||^2, gains from the one-step saddle conditions, and
  a bisection on gamma down to the attenuation infimum.  The saddle also
  yields the disturber's equilibrium gain W (w = W x), used as the
  equilibrium disturbance generator elsewhere.
* GPC: disturbance-action controller u = -K x + sum_i N[i] w_hat_{t-i} on
  recovered disturbances, with N adapted by projected gradient steps on a
  truncated counterfactual cost.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cdg import InstabilityError, plant_powers, project_frobenius
from .lds import CostWeights, LinearSystem, spectral_radius, uncontrollable

__all__ = [
    "SynthesisError",
    "BracketingError",
    "HinfSolution",
    "LinearFeedback",
    "GpcController",
    "solve_dare",
    "solve_hinf_game",
    "hinf_bisection",
    "lqr_controller",
]


class SynthesisError(RuntimeError):
    """Controller synthesis failed (divergence, loss of stabilizability)."""


class BracketingError(SynthesisError):
    """The bisection bracket does not contain the feasibility boundary."""


# The value iterations stop once the largest entrywise change of P is
# below TOL (1 + max|P|), and give up after MAX_ITER steps.
DARE_TOL = 1e-12
DARE_MAX_ITER = 100_000
GAME_TOL = 1e-11
GAME_MAX_ITER = 5000
# max|P| past which the game's value iteration counts as blown up.
GAME_BLOWUP = 1e12
# hinf_bisection's gamma bracket starts at [GAMMA_LO, GAMMA_HI], moves down
# while its lower end is feasible, and is bisected until
# hi/lo <= 1 + GAMMA_REL_TOL; the solution is returned at GAMMA_SAFETY
# times the bisected infimum.
GAMMA_LO = 1e-3
GAMMA_HI = 1e6
GAMMA_REL_TOL = 1e-3
GAMMA_SAFETY = 1.01
# GpcController's policy length h, its step scale (round t's step moves N
# at most GPC_LR/sqrt(t)) and its projection radius GPC_BALL_GAIN ||K_base||_F.
GPC_H = 5
GPC_LR = 0.5
GPC_BALL_GAIN = 10.0


def solve_dare(sys: LinearSystem, cw: CostWeights):
    """Value matrix and gain of the infinite-horizon LQR.

    Returns (P, K) with the closed loop A - BK stable.  The iteration stops
    once the largest entrywise change is below DARE_TOL (1 + max|P|).
    Raises SynthesisError when an eigenvalue on or outside the unit circle
    is uncontrollable (the PBH test), on the first non-finite iterate, or
    without convergence in DARE_MAX_ITER steps.
    """
    if np.linalg.eigvalsh(cw.R).min() <= 0.0:
        raise ValueError("R must be positive definite")
    A, B, Q, R = sys.A, sys.B, cw.Q, cw.R
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - 1e-9 and uncontrollable(A, B, lam):
            raise SynthesisError(f"(A, B) not stabilizable: eigenvalue {lam:.4g} uncontrollable")
    P = Q.copy()
    for _ in range(DARE_MAX_ITER):
        G = R + B.T.dot(P).dot(B)
        K = np.linalg.solve(G, B.T.dot(P).dot(A))
        Pn = Q + A.T.dot(P).dot(A) - A.T.dot(P).dot(B).dot(K)
        Pn = 0.5 * (Pn + Pn.T)
        delta = float(np.abs(Pn - P).max())
        if not math.isfinite(delta):
            raise SynthesisError("Riccati iteration produced non-finite values")
        P = Pn
        if delta < DARE_TOL * (1.0 + float(np.abs(P).max())):
            break
    else:
        raise SynthesisError(f"Riccati iteration did not converge in {DARE_MAX_ITER} steps")
    K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    if spectral_radius(A - B @ K) >= 1.0:
        raise SynthesisError("LQR closed loop is not stable")
    return P, K


@dataclass(frozen=True)
class HinfSolution:
    """Saddle-point solution of the LQ disturbance game at level gamma_star:
    control gain K (u = -Kx), disturbance gain W (w = Wx), value matrix P."""

    P: np.ndarray
    K: np.ndarray
    W: np.ndarray
    gamma_star: float

    def to_json(self) -> dict:
        return {
            "P": self.P.tolist(),
            "K": self.K.tolist(),
            "W": self.W.tolist(),
            "gamma_star": self.gamma_star,
        }


def solve_hinf_game(sys: LinearSystem, cw: CostWeights, gamma: float) -> Optional[HinfSolution]:
    """Value iteration for the disturbance game at attenuation level gamma.

    Returns None when gamma is infeasible: the concavity certificate
    gamma^2 I - C'PC, tested on every iterate, loses positive
    definiteness; or the value iteration blows up past max|P| =
    GAME_BLOWUP, or has not converged (a change below
    GAME_TOL (1 + max|P|)) within GAME_MAX_ITER steps.  Raises
    SynthesisError only on numerical breakdown.
    """
    if not (gamma > 0.0):
        raise ValueError("gamma must be positive")
    if np.linalg.eigvalsh(cw.R).min() <= 0.0:
        raise ValueError("R must be positive definite")
    A, B, C, Q, R = sys.A, sys.B, sys.C, cw.Q, cw.R
    At, Bt, Ct = A.T, B.T, C.T
    g2I = gamma**2 * np.eye(sys.d_w)
    I = np.eye(sys.d_x)
    Mg = B @ np.linalg.solve(R, Bt) - (C @ Ct) / gamma**2
    P = Q.copy()
    converged = False
    for k in range(GAME_MAX_ITER + 1):
        if np.linalg.eigvalsh(g2I - Ct.dot(P).dot(C)).min() <= 0.0:
            return None
        if converged:
            break
        if k == GAME_MAX_ITER:
            return None
        try:
            Z = np.linalg.solve(I + Mg.dot(P), A)
        except np.linalg.LinAlgError:
            return None
        Pn = Q + At.dot(P).dot(Z)
        Pn = 0.5 * (Pn + Pn.T)
        big = float(np.abs(Pn).max())
        if not math.isfinite(big):
            raise SynthesisError("H-infinity value iteration produced non-finite values")
        if big > GAME_BLOWUP:
            return None
        converged = float(np.abs(Pn - P).max()) < GAME_TOL * (1.0 + big)
        P = Pn

    # Gains from the joint stationarity of the one-step saddle.
    G = np.block([
        [R + Bt @ P @ B, Bt @ P @ C],
        [Ct @ P @ B, Ct @ P @ C - g2I],
    ])
    rhs = np.vstack([Bt @ P @ A, Ct @ P @ A])
    try:
        sol = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(f"saddle system is singular: {exc}") from exc
    K, W = sol[: sys.d_u], -sol[sys.d_u :]
    if spectral_radius(A - B @ K + C @ W) >= 1.0:
        raise SynthesisError("game closed loop is not stable at the computed gains")
    return HinfSolution(P=P, K=K, W=W, gamma_star=float(gamma))


def hinf_bisection(sys: LinearSystem, cw: CostWeights) -> HinfSolution:
    """Smallest feasible attenuation level within GAMMA_REL_TOL, returned at
    the GAMMA_SAFETY factor above the bisected infimum.  The bracket starts
    at [GAMMA_LO, GAMMA_HI] and moves down by a factor 4 while its lower end
    is feasible; it is bisected once that end is infeasible.  Each level is
    tried by solve_hinf_game."""
    lo, hi = GAMMA_LO, GAMMA_HI
    if solve_hinf_game(sys, cw, hi) is None:
        raise BracketingError(f"gamma = GAMMA_HI = {hi:.4g} is infeasible")
    # A plant still feasible after 60 moves (GAMMA_LO / 4**60, about 1e-39),
    # as with C = 0, is one that disturbances cannot hurt: it is solved at
    # the last level tried.
    for _ in range(60):
        if solve_hinf_game(sys, cw, lo) is None:
            while hi / lo > 1.0 + GAMMA_REL_TOL:
                mid = float(np.sqrt(lo * hi))
                if solve_hinf_game(sys, cw, mid) is None:
                    lo = mid
                else:
                    hi = mid
            break
        lo, hi = lo / 4.0, lo
    sol = solve_hinf_game(sys, cw, hi * GAMMA_SAFETY)
    if sol is None:
        raise SynthesisError("safety-factored gamma unexpectedly infeasible")
    return sol


class LinearFeedback:
    """Stateless handle playing u = -K x on a float vector x."""

    def __init__(self, K: np.ndarray, name: str):
        self.K = np.array(K, dtype=float)
        self._neg_K = -self.K  # (-K) x: the same bits as -(K x), negated once
        self.name = name

    def act(self, x: np.ndarray) -> np.ndarray:
        return self._neg_K.dot(x)


def lqr_controller(sys: LinearSystem, cw: CostWeights) -> LinearFeedback:
    _, K = solve_dare(sys, cw)
    return LinearFeedback(K, "lqr")


class GpcController:
    """Gradient perturbation controller.

    Plays u = -K x + sum_i N[i] w_hat_{t-i} on disturbances recovered from
    the observed transitions (w_hat_s = x_{s+1} - A x_s - B u_s, which
    presumes knowledge of A and B).  After each recovered disturbance, N
    takes one projected gradient step on the counterfactual cost of a
    truncated rollout driven by the recent disturbances, evaluated at the
    state and control the current N would have produced.  GPC_LR scales
    the normalized step length GPC_LR/sqrt(t), so by the end of a T-round
    episode the step size is of order GPC_LR/sqrt(T).  N has h = GPC_H
    blocks and is projected onto the Frobenius ball of radius
    GPC_BALL_GAIN ||K_base||_F, which must be positive (K_base = 0 gives 0).

    The policy is one stacked (d_u, h d_x) matrix [N[0] | ... | N[h-1]]
    (cdg's one policy encoding), rebound by each update and never written
    in place, so a view N taken before a round keeps that round's policy.
    A round reads one flat buffer z: the h+2 policy sums ZS = S N' and
    then the last 2h+1 recovered disturbances, a window shifted in place.
    S, one read-only view of that window made once, has as row j the h
    disturbances (w_hat_{t-j}, ..., w_hat_{t-j-h+1}) flattened.  The
    counterfactual state and the gradient's left factor are linear in z,
    so two maps built once from the closed loop's powers (A-BK)^k and
    (A-BK)^k B (cdg.plant_powers, which checks that K_base stabilizes the
    plant) give them: y = Y z and c = L z (see _gradient).  They stand in
    for the unroll matrix of cdg.affine_state_map, which is never formed.

    Those maps are read-only, and copy.copy of a controller shares them:
    the copy starts at round 0 with buffers of its own, so one prototype
    that never plays serves many episodes.  The buffers and the views a
    round writes through (the window's shift, its newest slot, S[0] and
    the halves of the last [x; u]) are made once, by _new_round_state.
    """

    def __init__(self, sys: LinearSystem, cw: CostWeights, K_base: np.ndarray):
        K_base = np.array(K_base, dtype=float)
        h = GPC_H
        # Counterfactual plant: recovered disturbances drive the state
        # directly, the policy output enters through B.
        try:
            Ak, AkB = plant_powers(sys.A - sys.B @ K_base, h, np.eye(sys.d_x), sys.B)
        except InstabilityError as exc:
            raise ValueError(f"K_base must stabilize the plant: {exc}") from exc
        self.name = "gpc"
        self.sys = sys
        self.cw = cw
        self.K = K_base
        self._neg_K = -K_base
        self.h = h
        self.ball = GPC_BALL_GAIN * float(np.linalg.norm(K_base))
        if not (self.ball > 0.0):
            raise ValueError(f"the projection radius must be positive, got {self.ball}")
        d_x, d_u = sys.d_x, sys.d_u
        n_zs = (h + 2) * d_u
        self._new_round_state()
        # y = sum_k (A-BK)^k B ZS[k+1] + sum_k (A-BK)^k w_hat_{t-k}, k = 0..h.
        AkB = AkB.transpose(1, 0, 2).reshape(d_x, (h + 1) * d_u)
        self._Y = np.zeros((d_x, self._z.size))
        self._Y[:, d_u:n_zs] = AkB
        self._Y[:, n_zs : n_zs + (h + 1) * d_x] = Ak.transpose(1, 0, 2).reshape(d_x, -1)
        # v = ZS[0] - K y, and c = 2 [R v; ((A-BK)^k B)'(Q y - K'R v)].
        V = -K_base @ self._Y
        V[:, :d_u] += np.eye(d_u)
        RV = cw.R @ V
        self._L = 2.0 * np.vstack([RV, AkB.T @ (cw.Q @ self._Y - K_base.T @ RV)])
        self._AB = np.hstack([sys.A, sys.B])
        # Copies share these maps, so nothing may write to them.
        for shared in (self.K, self._neg_K, self._Y, self._L, self._AB):
            shared.setflags(write=False)

    def _new_round_state(self) -> None:
        """Round 0: zero buffers, zero policy, and the views a round writes
        through, each made here next to the buffer it views."""
        h, d_x, d_u = self.h, self.sys.d_x, self.sys.d_u
        n_zs = (h + 2) * d_u
        self._z = np.zeros(n_zs + (2 * h + 1) * d_x)
        self._ZS = self._z[:n_zs].reshape(h + 2, d_u)
        self._win = self._z[n_zs:].reshape(2 * h + 1, d_x)  # recovered disturbances, most recent first
        # The in-place shift win[1:] = win[:-1] and the newest slot win[0].
        self._win_older, self._win_newer = self._win[1:], self._win[:-1]
        self._w_hat = self._win[0]
        # Row j = 0..h+1 is window rows j..j+h-1, flattened.  It is a view,
        # so it follows the in-place shifts; self._win is never rebound.
        self._S = sliding_window_view(self._win.ravel(), h * d_x)[::d_x]
        self._S0 = self._S[0]
        self._xu = np.zeros(d_x + d_u)  # the last round's [x; u]
        self._x, self._u = self._xu[:d_x], self._xu[d_x:]
        self._Nst = np.zeros((d_u, h * d_x))  # [N[0] | ... | N[h-1]]
        self._t = 0

    def __copy__(self) -> "GpcController":
        """A controller at round 0 that shares this one's read-only maps
        (K, the Y and L maps, [A | B], the radius) and has round buffers of
        its own.  Copying a prototype that never played thus gives what a
        fresh build gives, without rebuilding the maps."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new._new_round_state()
        return new

    @property
    def N(self) -> np.ndarray:
        """The current policy as a read-only (h, d_u, d_x) view of the stacked matrix."""
        blocks = self._Nst.reshape(self.sys.d_u, self.h, self.sys.d_x).swapaxes(0, 1)
        blocks.setflags(write=False)
        return blocks

    def _gradient(self) -> np.ndarray:
        """The gradient in the stacked policy of the cost y'Qy + v'Rv, where
        v = sum_i N[i] w_hat_{t-i} - K y and

            y = sum_k (A-BK)^k B sum_i N[i] w_hat_{t-k-1-i}
                + sum_k (A-BK)^k w_hat_{t-k},   k = 0..h

        is the (h+1)-step rollout of the plant closed by K, driven from zero
        by the recent w_hat with the policy output entering through B
        (cdg.affine_state_map's y = Ty vec(N) + by).  Row j of ZS = S N' is
        the policy sum on the window from w_hat_{t-j}, so once ZS is written
        into z, y = Y z, and with g = Q y - K'R v the gradient is c'S for
        c = L z = 2 [R v; ((A-BK)^k B)' g for k = 0..h].
        """
        S = self._S
        np.matmul(S, self._Nst.T, out=self._ZS)
        return self._L.dot(self._z).reshape(self._ZS.shape).T @ S

    def _update(self) -> None:
        grad = self._gradient()
        flat = grad.ravel()
        gnorm = math.sqrt(flat.dot(flat))
        N = self._Nst
        if gnorm > 0.0:
            # Rate GPC_LR, but capped so one step never moves farther than
            # GPC_LR/sqrt(t): vanishing gradients get a plain gradient step
            # while badly conditioned rounds cannot fling N to the projection ball.
            rate = min(GPC_LR, GPC_LR / (math.sqrt(self._t + 1.0) * gnorm))
            N = N - rate * grad
        self._Nst = project_frobenius(N, self.ball)

    def act(self, x: np.ndarray) -> np.ndarray:
        if self._t:
            self._win_older[...] = self._win_newer
            np.subtract(x, self._AB.dot(self._xu), out=self._w_hat)
            self._update()
        u = self._neg_K.dot(x) + self._Nst.dot(self._S0)
        self._x[...] = x
        self._u[...] = u
        self._t += 1
        return u
