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
from .lds import CostWeights, LinearSystem, spectral_radius

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


def _check_stabilizable(A: np.ndarray, B: np.ndarray) -> None:
    # PBH test on the unstable eigenvalues.
    d_x = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - 1e-9:
            M = np.hstack([A - lam * np.eye(d_x), B])
            if np.linalg.matrix_rank(M) < d_x:
                raise SynthesisError(f"(A, B) not stabilizable: eigenvalue {lam:.4g} uncontrollable")


def solve_dare(sys: LinearSystem, cw: CostWeights, tol: float = 1e-12, max_iter: int = 100000):
    """Value matrix and gain of the infinite-horizon LQR.

    Returns (P, K) with the closed loop A - BK stable.  tol bounds the
    relative entrywise change between successive iterates.
    """
    if np.linalg.eigvalsh(cw.R).min() <= 0.0:
        raise ValueError("R must be positive definite")
    _check_stabilizable(sys.A, sys.B)
    A, B, Q, R = sys.A, sys.B, cw.Q, cw.R
    P = Q.copy()
    for _ in range(max_iter):
        G = R + B.T @ P @ B
        K = np.linalg.solve(G, B.T @ P @ A)
        Pn = Q + A.T @ P @ A - A.T @ P @ B @ K
        Pn = 0.5 * (Pn + Pn.T)
        delta = float(np.max(np.abs(Pn - P)))
        P = Pn
        if delta < tol * (1.0 + float(np.max(np.abs(P)))):
            break
    else:
        raise SynthesisError(f"Riccati iteration did not converge in {max_iter} steps")
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


def solve_hinf_game(
    sys: LinearSystem,
    cw: CostWeights,
    gamma: float,
    tol: float = 1e-11,
    max_iter: int = 20000,
) -> Optional[HinfSolution]:
    """Value iteration for the disturbance game at attenuation level gamma.

    Returns None when gamma is infeasible: the concavity certificate
    gamma^2 I - C'PC loses positive definiteness, or the value iteration
    blows up.  Raises SynthesisError only on numerical breakdown.
    """
    if not (gamma > 0.0):
        raise ValueError("gamma must be positive")
    if np.linalg.eigvalsh(cw.R).min() <= 0.0:
        raise ValueError("R must be positive definite")
    A, B, C, Q, R = sys.A, sys.B, sys.C, cw.Q, cw.R
    d_x, d_u = sys.d_x, sys.d_u
    I = np.eye(d_x)
    Mg = B @ np.linalg.solve(R, B.T) - (C @ C.T) / gamma**2
    P = Q.copy()
    converged = False
    for _ in range(max_iter):
        if np.linalg.eigvalsh(gamma**2 * np.eye(sys.d_w) - C.T @ P @ C).min() <= 0.0:
            return None
        try:
            Z = np.linalg.solve(I + Mg @ P, A)
        except np.linalg.LinAlgError:
            return None
        Pn = Q + A.T @ P @ Z
        Pn = 0.5 * (Pn + Pn.T)
        if not np.all(np.isfinite(Pn)):
            raise SynthesisError("H-infinity value iteration produced non-finite values")
        if float(np.max(np.abs(Pn))) > 1e12:
            return None
        delta = float(np.max(np.abs(Pn - P)))
        P = Pn
        if delta < tol * (1.0 + float(np.max(np.abs(P)))):
            converged = True
            break
    if not converged:
        return None
    if np.linalg.eigvalsh(gamma**2 * np.eye(sys.d_w) - C.T @ P @ C).min() <= 0.0:
        return None

    # Gains from the joint stationarity of the one-step saddle.
    G = np.block([
        [R + B.T @ P @ B, B.T @ P @ C],
        [C.T @ P @ B, C.T @ P @ C - gamma**2 * np.eye(sys.d_w)],
    ])
    rhs = np.vstack([B.T @ P @ A, C.T @ P @ A])
    try:
        sol = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(f"saddle system is singular: {exc}") from exc
    K = sol[:d_u]
    W = -sol[d_u:]
    if spectral_radius(A - B @ K + C @ W) >= 1.0:
        raise SynthesisError("game closed loop is not stable at the computed gains")
    return HinfSolution(P=P, K=K, W=W, gamma_star=float(gamma))


def hinf_bisection(
    sys: LinearSystem,
    cw: CostWeights,
    lo: float = 1e-3,
    hi: float = 1e6,
    rel_tol: float = 1e-3,
    safety: float = 1.01,
    max_iter: int = 5000,
) -> HinfSolution:
    """Smallest feasible attenuation level within rel_tol, returned at a 1.01
    safety factor above the bisected infimum."""
    if solve_hinf_game(sys, cw, hi, max_iter=max_iter) is None:
        raise BracketingError(f"gamma = {hi:.4g} is infeasible; enlarge the bracket")
    for _ in range(60):
        if solve_hinf_game(sys, cw, lo, max_iter=max_iter) is None:
            break
        lo /= 4.0
    else:
        # Feasible essentially down to zero: disturbances cannot hurt.
        sol = solve_hinf_game(sys, cw, lo * safety, max_iter=max_iter)
        if sol is None:
            raise SynthesisError("feasibility is not monotone near zero attenuation")
        return sol
    while hi / lo > 1.0 + rel_tol:
        mid = float(np.sqrt(lo * hi))
        if solve_hinf_game(sys, cw, mid, max_iter=max_iter) is None:
            lo = mid
        else:
            hi = mid
    sol = solve_hinf_game(sys, cw, hi * safety, max_iter=max_iter)
    if sol is None:
        raise SynthesisError("safety-factored gamma unexpectedly infeasible")
    return sol


class LinearFeedback:
    """Stateless handle playing u = -K x on a float vector x."""

    def __init__(self, K: np.ndarray, name: str):
        self.K = np.array(K, dtype=float)
        self._neg_K = -self.K  # -K @ x parses as (-K) @ x: the same bits, negated once
        self.name = name

    def act(self, x: np.ndarray) -> np.ndarray:
        return self._neg_K @ x


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
    state and control the current N would have produced.  lr scales the
    normalized step length lr/sqrt(t), so by the end of a T-round episode
    the step size is of order lr/sqrt(T); ball_radius None derives the
    projection radius 10 ||K_base||, and the radius must be positive.

    The policy is one stacked (d_u, h d_x) matrix [N[0] | ... | N[h-1]]
    (cdg's one policy encoding), rebound by each update and never written
    in place, so a view N taken before a round keeps that round's policy.
    The last 2h+1 recovered disturbances sit in a window shifted in
    place.  One read-only view S of that window, made once, has as row j
    the h disturbances (w_hat_{t-j}, ..., w_hat_{t-j-h+1}) flattened, so
    S N' holds every policy sum the round needs.  The counterfactual state
    and the gradient come from these sums and the stacked powers of the
    closed loop (see _state_and_gradient); the unroll matrix of
    cdg.affine_state_map is never formed.
    """

    def __init__(
        self,
        sys: LinearSystem,
        cw: CostWeights,
        K_base: np.ndarray,
        *,
        h: int,
        lr: float,
        ball_radius: Optional[float] = None,
    ):
        K_base = np.array(K_base, dtype=float)
        # Counterfactual plant: recovered disturbances drive the state
        # directly, the policy output enters through B.
        mirror = LinearSystem(sys.A - sys.B @ K_base, np.eye(sys.d_x), sys.B)
        try:
            powers = plant_powers(mirror, h)
        except InstabilityError as exc:
            raise ValueError(f"K_base must stabilize the plant: {exc}") from exc
        self.name = "gpc"
        self.sys = sys
        self.cw = cw
        self.K = K_base
        self._neg_K = -K_base
        self.h = h
        self.lr = float(lr)
        self.ball = float(ball_radius) if ball_radius is not None else 10.0 * float(
            np.linalg.norm(K_base)
        )
        if not (self.ball > 0.0):
            raise ValueError(f"the projection radius must be positive, got {self.ball}")
        d_x, d_u = sys.d_x, sys.d_u
        # [(A-BK)^0 B | ... | (A-BK)^h B] and [(A-BK)^0 | ... | (A-BK)^h].
        self._AkB = powers.AkC.transpose(1, 0, 2).reshape(d_x, (h + 1) * d_u)
        self._Ak = powers.AkB.transpose(1, 0, 2).reshape(d_x, (h + 1) * d_x)
        self._Nst = np.zeros((d_u, h * d_x))  # [N[0] | ... | N[h-1]]
        self._win = np.zeros((2 * h + 1, d_x))  # recovered disturbances, most recent first
        # Row j = 0..h+1 is window rows j..j+h-1, flattened.  It is a view,
        # so it follows the in-place shifts; self._win is never rebound.
        self._S = sliding_window_view(self._win.ravel(), h * d_x)[::d_x]
        self._prev = None
        self._t = 0

    @property
    def N(self) -> np.ndarray:
        """The current policy as a read-only (h, d_u, d_x) view of the stacked matrix."""
        blocks = self._Nst.reshape(self.sys.d_u, self.h, self.sys.d_x).swapaxes(0, 1)
        blocks.setflags(write=False)
        return blocks

    def _state_and_gradient(self):
        """Counterfactual state y and the gradient in the stacked policy of
        the cost y'Qy + v'Rv, where v = sum_i N[i] w_hat_{t-i} - K y and

            y = sum_k (A-BK)^k B sum_i N[i] w_hat_{t-k-1-i}
                + sum_k (A-BK)^k w_hat_{t-k},   k = 0..h

        is the (h+1)-step rollout of the plant closed by K, driven from zero
        by the recent w_hat with the policy output entering through B
        (cdg.affine_state_map's y = Ty vec(N) + by).  Row j of ZS = S N' is
        the policy sum on the window from w_hat_{t-j}, so y and v are
        products with its rows, and with g = Q y - K'R v the gradient is
        2 c'S for c = [R v; ((A-BK)^k B)' g for k = 0..h].
        """
        S = self._S
        ZS = S @ self._Nst.T  # (h+2, d_u)
        y = self._AkB @ ZS[1:].ravel() + self._Ak @ self._win[: self.h + 1].ravel()
        v = ZS[0] - self.K @ y
        Rv = self.cw.R @ v
        g = self.cw.Q @ y - self.K.T @ Rv
        c = np.empty_like(ZS)
        c[0] = Rv
        c[1:] = (g @ self._AkB).reshape(self.h + 1, -1)
        return y, 2.0 * (c.T @ S)

    def _update(self) -> None:
        _, grad = self._state_and_gradient()
        flat = grad.ravel()
        gnorm = math.sqrt(flat @ flat)
        N = self._Nst
        if gnorm > 0.0:
            # Rate lr, but capped so one step never moves farther than
            # lr/sqrt(t): vanishing gradients get a plain gradient step while
            # badly conditioned rounds cannot fling N to the projection ball.
            rate = min(self.lr, self.lr / (math.sqrt(self._t + 1.0) * gnorm))
            N = N - rate * grad
        self._Nst = project_frobenius(N, self.ball)

    def act(self, x: np.ndarray) -> np.ndarray:
        if self._prev is not None:
            xp, up = self._prev
            win = self._win
            win[1:] = win[:-1]
            win[0] = x - self.sys.A @ xp - self.sys.B @ up
            self._update()
        u = self._neg_K @ x + self._Nst @ self._S[0]
        self._prev = (x, u)
        self._t += 1
        return u
