"""Exact solver for ball-constrained quadratic maximization.

    maximize  z'Pz + p'z   subject to  ||z|| <= D

The objective may be indefinite; global solutions are still computable.
The boundary multiplier nu solves the secular equation ||z(nu)|| = D,
z(nu) = (nu I - S)^-1 p / 2 for S = (P + P')/2, by one safeguarded Newton
iteration (_secular) over one of two evaluations of z(nu): in the
eigenbasis of S, or, for a caller whose S grew by PSD low-rank terms since
its last decomposition, on that decomposition through the
Sherman-Morrison-Woodbury identity (solve's low_rank).  The hard and
near-hard cases (p nearly orthogonal to the top eigenspace) end in one
finish along a top eigenvector.  A slow but simple direction-sampling
oracle is provided for testing.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrustRegionProblem",
    "TrustRegionSolution",
    "TrustRegionError",
    "solve",
    "symmetric_eig",
    "brute_force",
    "objective",
]

HARD_CASE_REL_TOL = 1e-10
# Relative tolerance on ||z|| = D that ends the secular-equation iteration.
SECULAR_REL_TOL = 1e-13
_SECULAR_MAX_ITER = 200
_EPS = float(np.finfo(float).eps)


class TrustRegionError(RuntimeError):
    """Solver failure; carries the best iterate found so far (may be None)."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class TrustRegionProblem:
    """Quadratic coefficient P (not necessarily symmetric), linear term p,
    ball radius D > 0.

    The constructor copies and checks its input; _unchecked wraps arrays
    the program built itself (the learner's accumulators) as they are.
    """

    P: np.ndarray
    p: np.ndarray
    D: float

    def __post_init__(self):
        P = np.array(self.P, dtype=float)
        p = np.array(self.p, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"P must be square, got shape {P.shape}")
        if p.shape != (P.shape[0],):
            raise ValueError(f"p must have shape ({P.shape[0]},), got {p.shape}")
        if not (np.all(np.isfinite(P)) and np.all(np.isfinite(p))):
            raise ValueError("P and p must be finite")
        if not (self.D > 0.0 and np.isfinite(self.D)):
            raise ValueError("D must be positive and finite")
        P.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "D", float(self.D))

    @classmethod
    def _unchecked(cls, P: np.ndarray, p: np.ndarray, D: float) -> "TrustRegionProblem":
        prob = object.__new__(cls)
        object.__setattr__(prob, "P", P)
        object.__setattr__(prob, "p", p)
        object.__setattr__(prob, "D", D)
        return prob

    @property
    def dim(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True)
class TrustRegionSolution:
    """The maximiser z, its multiplier and how it was found; objective(prob,
    z) is its value, computed by the callers that read it."""

    z: np.ndarray
    multiplier: float
    on_boundary: bool
    hard_case: bool


def objective(prob: TrustRegionProblem, z: np.ndarray) -> float:
    z = np.asarray(z, dtype=float)
    return float(z @ prob.P @ z + prob.p @ z)


def _make_solution(prob, z, multiplier, hard_case):
    norm = math.sqrt(z @ z)
    if not math.isfinite(norm):
        # A non-finite P or p gets here (the learner's per-round problems
        # are not checked on construction), and so do finite entries whose
        # products overflow.
        raise TrustRegionError("non-finite solution: P or p is not finite, or the solve overflowed")
    D = prob.D
    # Snap near-boundary iterates exactly onto the sphere; keeps ||z|| <= D.
    if norm > D or abs(norm - D) <= 1e-9 * D:
        z = z * (D / norm)
        norm = D
    return TrustRegionSolution(
        z=z,
        multiplier=float(multiplier),
        on_boundary=abs(norm - D) <= 1e-7 * D,
        hard_case=hard_case,
    )


def symmetric_eig(P: np.ndarray):
    """(lam, V) = eigh((P + P')/2), eigenvalues ascending: the decomposition
    solve works in, for a caller that solves several problems with one P."""
    try:
        return np.linalg.eigh(0.5 * (P + P.T))
    except np.linalg.LinAlgError as exc:
        raise TrustRegionError(f"eigendecomposition failed: {exc}") from exc


def _secular(z_of, lo, hi, D):
    """The multiplier nu in (lo, hi] with ||z(nu)|| = D, given ||z(hi)|| <= D,
    by More & Sorensen's (1983) safeguarded Newton iteration on
    1/||z(nu)|| = 1/D.  z_of(nu) is (w, w'(nu I - S)^-1 w), both in solve's
    eigenbasis V, for w = V'z(nu); or None where nu is not certified above
    lambda_max(S), which raises lo to nu.  Returns (status, nu, w):
    "converged" once ||w|| is within SECULAR_REL_TOL D of D; "collapsed",
    with nu = hi, where the bracket is exhausted, the step stalls or hi is
    not certified (the hard and near-hard cases); "capped" after
    _SECULAR_MAX_ITER evaluations, with the last w and the nu after it.
    """
    stop = SECULAR_REL_TOL * D
    nu = hi
    for _ in range(_SECULAR_MAX_ITER):
        step = z_of(nu)
        if step is None:
            if nu == hi:
                return "collapsed", hi, None
            lo, nu = nu, 0.5 * (nu + hi)
            continue
        w, dnorm2 = step
        norm = math.sqrt(w @ w)
        if abs(norm - D) <= stop:
            return "converged", nu, w
        if norm > D:
            lo = nu
        else:
            hi = nu
        if hi - lo <= 64.0 * _EPS * max(1.0, abs(hi)):
            return "collapsed", hi, w
        nu_next = nu + (norm * norm / dnorm2) * ((norm - D) / D) if dnorm2 > 0.0 and norm > 0.0 else lo
        if not (lo < nu_next < hi):
            nu_next = 0.5 * (lo + hi)
        if nu_next == nu:
            return "collapsed", hi, w
        nu = nu_next
    return "capped", nu, w


def _top_finish(prob, lam, V, q, top, nu, sign, limit=math.inf):
    """The hard-case solution at multiplier nu: z(nu) off the top eigenspace
    (the mask top), scaled into the ball, plus the rest of the radius along
    the top eigenvector with the given sign; None if that part's norm >= limit."""
    D = prob.D
    w = np.zeros_like(q)
    w[~top] = q[~top] / (2.0 * (nu - lam[~top]))
    rest = math.sqrt(w @ w)
    if rest >= limit:
        return None
    if rest > D:  # and no radius is left for the top eigenvector
        w *= D / rest
    w[-1] = sign * math.sqrt(max(0.0, D * D - rest * rest))
    return _make_solution(prob, V @ w, nu, hard_case=True)


def solve(prob: TrustRegionProblem, *, eig=None, low_rank=None) -> TrustRegionSolution:
    """Globally maximize z'Pz + p'z over the ball of radius D.

    A boundary solution satisfies the KKT system 2 S z + p = 2 nu z with
    nu >= max(0, lambda_max(S)) for S = (P + P')/2, and ||z|| is within
    SECULAR_REL_TOL D of D.  eig, if given alone, is symmetric_eig(prob.P),
    which solve otherwise computes; the result is the same bit for bit.

    low_rank, given with eig = (lam, V) the decomposition of an earlier S0,
    is an (r, n) matrix W with S = V (diag(lam) + W'W) V' up to rounding:
    PSD terms of total rank r added since, in that eigenbasis.  The secular
    iteration then evaluates z(nu) on the r x r capacitance matrix
    C(nu) = I - W (nu I - diag(lam))^-1 W' (Sherman-Morrison-Woodbury),
    whose Cholesky factorization certifies nu > lambda_max(S).  Every exit
    but convergence decomposes prob.P (still the whole quadratic part)
    afresh and takes the eig-free path; convergence matches it to rounding.
    """
    D = prob.D
    p_norm = math.sqrt(prob.p @ prob.p)
    if low_rank is not None:
        lam, V = eig
        lam_max = float(lam[-1])
        if not (lam_max < 0.0 or p_norm == 0.0):
            W = low_rank
            half_q = 0.5 * (V.T @ prob.p)
            eye = np.eye(W.shape[0])

            def woodbury(nu):
                g = 1.0 / (nu - lam)
                Wg = W * g
                try:
                    # C(nu) is positive definite iff nu > lambda_max(S).
                    L = np.linalg.cholesky(eye - Wg @ W.T)
                except np.linalg.LinAlgError:
                    return None
                # (nu I - S)^-1 = G + G W' C^-1 W G = G + B'B for
                # G = (nu I - diag(lam))^-1, C = L L' and B = L^-1 W G.
                B = np.linalg.inv(L) @ Wg
                w = half_q * g + (B @ half_q) @ B
                e = B @ w
                return w, float(w @ (g * w) + e @ e)

            # ||W||_F^2 bounds lambda_max(W'W), so at hi ||z|| <= D.
            bound = lam_max + float(np.einsum("ij,ij->", W, W))
            hi = bound + p_norm / (2.0 * D) + 1e-12 * max(1.0, -float(lam[0]), bound)
            status, nu, w = _secular(woodbury, lam_max, hi, D)
            if status == "converged":
                return _make_solution(prob, V @ w, nu, hard_case=False)
        eig = None
    lam, V = symmetric_eig(prob.P) if eig is None else eig
    lam_max = float(lam[-1])
    q = V.T @ prob.p
    # lam is sorted, so max |lam| is at one of its ends.
    scale = max(1.0, -float(lam[0]), lam_max)
    top = lam >= lam_max - 1e-12 * scale

    # Interior stationary point 2 S z + p = 0, optimal iff S is negative
    # definite and the point lies inside the ball.
    if lam_max < -1e-14 * scale:
        z0 = V @ (q / (-2.0 * lam))
        if math.sqrt(z0 @ z0) <= D:
            return _make_solution(prob, z0, 0.0, hard_case=False)
        nu_lo = 0.0
    else:
        nu_lo = max(lam_max, 0.0)
        q_top = q[top]
        if p_norm == 0.0 or math.sqrt(q_top @ q_top) < HARD_CASE_REL_TOL * p_norm:
            # Hard case: if z(nu_lo) off the top eigenspace lies inside the
            # ball, spend the rest of the radius along a top eigenvector.
            sol = _top_finish(prob, lam, V, q, top, nu_lo, 1.0, limit=D * (1.0 - 1e-12))
            if sol is not None:
                return sol

    def eigenbasis(nu):
        gap = nu - lam
        w = q / (2.0 * gap)
        return w, float((w * w / gap).sum())

    status, nu, w = _secular(eigenbasis, nu_lo, nu_lo + p_norm / (2.0 * D) + 1e-12 * scale, D)
    if status == "collapsed":
        # Near-hard: ||z(nu)|| is hypersensitive only through the top
        # coordinates; keep the sign the vanishing one was heading toward.
        return _top_finish(prob, lam, V, q, top, nu, 1.0 if q[-1] >= 0.0 else -1.0)
    sol = _make_solution(prob, V @ w, nu, hard_case=False)
    if status == "capped":
        raise TrustRegionError("secular iteration did not converge", best=sol)
    return sol


def _sphere_directions(d: int, samples: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if d == 3:
        # Fibonacci sphere: deterministic, near-uniform covering.
        k = np.arange(samples, dtype=float)
        phi = np.pi * (3.0 - np.sqrt(5.0)) * k
        z = 1.0 - 2.0 * (k + 0.5) / samples
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(1234567)
    g = rng.standard_normal((samples, d))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


def brute_force(prob: TrustRegionProblem, samples: int = 20000) -> TrustRegionSolution:
    """Sampling oracle: best objective over quasi-uniform directions (with
    exact 1-D maximization over the radius along each ray) plus the interior
    stationary point.  Only for low dimensions; always a lower bound on the
    true maximum."""
    if prob.dim > 4:
        raise ValueError("brute_force supports dimension <= 4 only")
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    D = prob.D
    dirs = _sphere_directions(prob.dim, samples)
    quad = np.einsum("ni,ij,nj->n", dirs, prob.P, dirs)
    lin = dirs @ prob.p

    # Along the ray r*v with r in [0, D]: value(r) = quad r^2 + lin r.
    vals = np.maximum(quad * D * D + lin * D, 0.0)
    neg = quad < 0.0
    r_star = np.zeros_like(quad)
    r_star[neg] = np.clip(-lin[neg] / (2.0 * quad[neg]), 0.0, D)
    vals = np.maximum(vals, quad * r_star * r_star + lin * r_star)

    idx = int(np.argmax(vals))
    r_candidates = [0.0, D]
    if neg[idx]:
        r_candidates.append(float(r_star[idx]))
    r_best = max(r_candidates, key=lambda r: quad[idx] * r * r + lin[idx] * r)
    z_best = dirs[idx] * r_best
    val_best = float(quad[idx] * r_best * r_best + lin[idx] * r_best)

    S = 0.5 * (prob.P + prob.P.T)
    try:
        z0 = np.linalg.solve(S, -0.5 * prob.p)
        if np.linalg.norm(z0) <= D and objective(prob, z0) > val_best:
            z_best, val_best = z0, objective(prob, z0)
    except np.linalg.LinAlgError:
        pass

    norm = float(np.linalg.norm(z_best))
    return TrustRegionSolution(
        z=np.asarray(z_best, dtype=float),
        multiplier=0.0,
        on_boundary=abs(norm - D) <= 1e-7 * D,
        hard_case=False,
    )
