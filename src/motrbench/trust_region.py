"""Exact solver for ball-constrained quadratic maximization.

    maximize  z'Pz + p'z   subject to  ||z|| <= D

The objective may be indefinite; global solutions are still computable.
The solver symmetrizes P, eigendecomposes, and solves the secular equation
||z(nu)|| = D for the boundary multiplier with a safeguarded Newton
iteration, applying an explicit eigenvector correction in the hard case
(linear term orthogonal to the extreme eigenspace).  A caller whose
quadratic part grew by PSD low-rank terms since its last decomposition can
solve on that decomposition instead, through the Sherman-Morrison-Woodbury
identity (solve's low_rank).  A slow but simple direction-sampling oracle
is provided for testing.
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


def _newton_step(nu, norm, dnorm2, lo, hi, D):
    """The next multiplier: the Newton step for the reciprocal-norm form of
    the secular equation at nu, where ||z|| = norm and
    dnorm2 = z' (nu I - S)^-1 z, safeguarded by bisection on (lo, hi)."""
    if dnorm2 > 0.0 and norm > 0.0:
        nu_next = nu + (norm * norm / dnorm2) * ((norm - D) / D)
    else:
        nu_next = 0.5 * (lo + hi)
    if not (lo < nu_next < hi):
        nu_next = 0.5 * (lo + hi)
    return nu_next


def solve(prob: TrustRegionProblem, *, eig=None, low_rank=None) -> TrustRegionSolution:
    """Globally maximize z'Pz + p'z over the ball of radius D.

    The solution is accurate to near machine precision: the secular
    equation stops once ||z|| is within SECULAR_REL_TOL D of the radius.
    A boundary solution satisfies the KKT system 2 S z + p = 2 nu z with
    nu >= max(0, lambda_max(S)) for S = (P + P')/2.  eig, if given alone,
    is symmetric_eig(prob.P), which solve otherwise computes; the result
    is the same bit for bit.

    low_rank, given with eig = (lam, V) the decomposition of an earlier
    S0, is an (r, n) matrix W with S = V (diag(lam) + W'W) V' up to
    rounding: the kept decomposition plus PSD terms of total rank r, in
    its eigenbasis.  solve then runs the same safeguarded Newton iteration
    without decomposing S: z(nu) comes from the r x r capacitance matrix
    C(nu) = I - W (nu I - diag(lam))^-1 W' (Sherman-Morrison-Woodbury),
    and a Cholesky factorization of C certifies nu > lambda_max(S) at
    every iterate.  Where C cannot be certified at the top of the bracket,
    the bracket collapses (the hard and near-hard cases) or S0 has no
    nonnegative eigenvalue, solve decomposes prob.P afresh and takes the
    eig-free path, so the solution agrees with it to rounding, not bit
    for bit.  prob.P is still the whole quadratic part.
    """
    if low_rank is not None:
        sol = _solve_low_rank(prob, *eig, low_rank)
        if sol is not None:
            return sol
        eig = None
    D = prob.D
    lam, V = symmetric_eig(prob.P) if eig is None else eig
    lam_max = float(lam[-1])
    q = V.T @ prob.p
    # lam is sorted, so max |lam| is at one of its ends.
    scale = max(1.0, -float(lam[0]), lam_max)

    # Interior stationary point 2 S z + p = 0, optimal iff S is negative
    # definite and the point lies inside the ball.
    if lam_max < -1e-14 * scale:
        z0 = V @ (q / (-2.0 * lam))
        if math.sqrt(z0 @ z0) <= D:
            return _make_solution(prob, z0, 0.0, hard_case=False)
        nu_lo = 0.0
        singular_at_lo = False
    else:
        nu_lo = max(lam_max, 0.0)
        singular_at_lo = True

    p_norm = math.sqrt(prob.p @ prob.p)
    top = lam >= lam_max - 1e-12 * scale

    if singular_at_lo:
        q_top = q[top]
        if p_norm == 0.0 or math.sqrt(q_top @ q_top) < HARD_CASE_REL_TOL * p_norm:
            # Hard case: solve on the complement of the top eigenspace and
            # spend the remaining radius along a top eigenvector.
            z_e = np.zeros_like(q)
            z_e[~top] = q[~top] / (2.0 * (nu_lo - lam[~top]))
            base_norm = math.sqrt(z_e @ z_e)
            if base_norm < D * (1.0 - 1e-12):
                z_e[-1] = np.sqrt(max(0.0, D * D - base_norm * base_norm))
                return _make_solution(prob, V @ z_e, nu_lo, hard_case=True)

    # Secular equation: nu > nu_lo with ||z(nu)|| = D, z(nu)_i in the
    # eigenbasis being q_i / (2 (nu - lambda_i)).
    lo = nu_lo
    hi = nu_lo + p_norm / (2.0 * D) + 1e-12 * scale
    stop = SECULAR_REL_TOL * D
    nu = hi
    w = None
    near_hard = False
    for _ in range(_SECULAR_MAX_ITER):
        gap = nu - lam
        w = q / (2.0 * gap)
        norm = math.sqrt(w @ w)
        if abs(norm - D) <= stop:
            break
        if norm > D:
            lo = nu
        else:
            hi = nu
        if hi - lo <= 64.0 * _EPS * max(1.0, abs(hi)):
            # Bracket exhausted without meeting the norm tolerance: a
            # near-hard instance.  Finish with the eigenvector correction.
            near_hard = True
            break
        nu_next = _newton_step(nu, norm, float((w * w / gap).sum()), lo, hi, D)
        if nu_next == nu:
            near_hard = abs(norm - D) > stop
            break
        nu = nu_next
    else:
        raise TrustRegionError(
            "secular iteration did not converge",
            best=_make_solution(prob, V @ w, nu, hard_case=False),
        )

    if near_hard:
        # The norm is hypersensitive in nu only through the top-eigenspace
        # coordinates.  Evaluate the well-conditioned rest at the bracket,
        # then spend the remaining radius along the top eigenvector, keeping
        # the sign the vanishing coordinate was heading toward.
        nu = max(hi, nu)
        w = q / (2.0 * (nu - lam))
        sign = 1.0 if q[-1] >= 0.0 else -1.0
        w[top] = 0.0
        rest = math.sqrt(w @ w)
        if rest > D:
            w *= D / rest
            rest = D
        w[-1] = sign * np.sqrt(max(0.0, D * D - rest * rest))
        return _make_solution(prob, V @ w, nu, hard_case=True)

    return _make_solution(prob, V @ w, nu, hard_case=False)


def _solve_low_rank(prob, lam, V, W):
    """The boundary solution for S = V (diag(lam) + W'W) V' (solve's
    low_rank), or None where it must decompose prob.P afresh."""
    D = prob.D
    lam_max = float(lam[-1])
    p_norm = math.sqrt(prob.p @ prob.p)
    if lam_max < 0.0 or p_norm == 0.0:
        return None
    # ||W||_F^2 bounds lambda_max(W'W), so at hi ||z|| <= D as in solve.
    top = lam_max + float(np.einsum("ij,ij->", W, W))
    scale = max(1.0, -float(lam[0]), top)
    lo = lam_max
    hi = top + p_norm / (2.0 * D) + 1e-12 * scale
    half_q = 0.5 * (V.T @ prob.p)
    eye = np.eye(W.shape[0])
    stop = SECULAR_REL_TOL * D
    nu = hi
    for _ in range(_SECULAR_MAX_ITER):
        g = 1.0 / (nu - lam)
        Wg = W * g
        try:
            # C(nu) is positive definite iff nu > lambda_max(S).
            L = np.linalg.cholesky(eye - Wg @ W.T)
        except np.linalg.LinAlgError:
            if nu == hi:
                return None
            lo = nu
            nu = 0.5 * (lo + hi)
            continue
        # (nu I - S)^-1 = G + G W' C^-1 W G = G + B'B for
        # G = (nu I - diag(lam))^-1, C = L L' and B = L^-1 W G.
        B = np.linalg.inv(L) @ Wg
        w = half_q * g + (B @ half_q) @ B
        norm = math.sqrt(w @ w)
        if abs(norm - D) <= stop:
            return _make_solution(prob, V @ w, nu, hard_case=False)
        if norm > D:
            lo = nu
        else:
            hi = nu
        if hi - lo <= 64.0 * _EPS * max(1.0, abs(hi)):
            return None
        # w' (nu I - S)^-1 w by the same identity.
        e = B @ w
        nu_next = _newton_step(nu, norm, float(w @ (g * w) + e @ e), lo, hi, D)
        if nu_next == nu:
            return None
        nu = nu_next
    return None


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
