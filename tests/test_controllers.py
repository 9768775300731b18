import copy
import pickle

import numpy as np
import pytest

from motrbench import controllers
from motrbench.cdg import CdgPolicy, affine_state_map, unroll_map
from motrbench.controllers import (
    DARE_TOL,
    BracketingError,
    GpcController,
    LinearFeedback,
    hinf_bisection,
    lqr_controller,
    solve_dare,
    solve_hinf_game,
)
from motrbench.lds import CostWeights, LinearSystem, random_system, stage_cost, step, uncontrollable
from policy_oracle import policy_sum

CW2 = CostWeights(np.eye(2), np.eye(2))


def scalar_system(a, b=1.0, c=1.0):
    return LinearSystem(np.array([[a]]), np.array([[b]]), np.array([[c]]))


def episode_cost(sys, cw, controller, gen_w, T, x0):
    x = np.array(x0, dtype=float)
    total = 0.0
    for t in range(T):
        u = controller.act(x)
        w = gen_w(t, x)
        total += stage_cost(cw, x, u)
        x = step(sys, x, u, w)
    return total / T


def test_dare_scalar_closed_form():
    # p solves p^2 - 0.25 p - 1 = 0 for a=0.5, b=q=r=1.
    sys = scalar_system(0.5)
    cw = CostWeights(np.eye(1), np.eye(1))
    P, K = solve_dare(sys, cw)
    p_star = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
    assert P[0, 0] == pytest.approx(p_star, rel=1e-10)
    assert K[0, 0] == pytest.approx(0.5 * p_star / (1.0 + p_star), rel=1e-10)


def test_dare_no_dynamics():
    sys = LinearSystem(np.zeros((2, 2)), np.eye(2), np.eye(2))
    P, K = solve_dare(sys, CW2)
    assert np.allclose(P, np.eye(2))
    assert np.allclose(K, 0.0)


def test_dare_residual_and_stability():
    for seed in range(5):
        sys = random_system(4, 2, 2, seed=seed, target_radius=0.9)
        cw = CostWeights(np.eye(4), np.eye(2))
        P, K = solve_dare(sys, cw)
        G = cw.R + sys.B.T @ P @ sys.B
        resid = cw.Q + sys.A.T @ P @ sys.A - sys.A.T @ P @ sys.B @ np.linalg.solve(
            G, sys.B.T @ P @ sys.A
        ) - P
        assert np.max(np.abs(resid)) <= 10.0 * DARE_TOL * (1.0 + np.max(np.abs(P)))
        assert np.max(np.abs(np.linalg.eigvals(sys.A - sys.B @ K))) < 1.0


def test_dare_stabilizable_but_uncontrollable():
    # The stable mode 0.5 is uncontrollable, the unstable mode 1.5 is not:
    # the PBH test flags only the first, and the solver stabilizes the pair.
    A, B = np.diag([1.5, 0.5]), np.array([[1.0], [0.0]])
    assert not uncontrollable(A, B, 1.5)
    assert uncontrollable(A, B, 0.5)
    _, K = solve_dare(LinearSystem(A, B, np.eye(2)), CostWeights(np.eye(2), np.eye(1)))
    assert np.max(np.abs(np.linalg.eigvals(A - B @ K))) < 1.0


def test_dare_rejects_singular_r():
    sys = scalar_system(0.5)
    with pytest.raises(ValueError):
        solve_dare(sys, CostWeights(np.eye(1), np.zeros((1, 1))))


def test_hinf_game_lqr_limit():
    for seed in range(10):
        sys = random_system(4, 2, 2, seed=seed, target_radius=0.9)
        cw = CostWeights(np.eye(4), np.eye(2))
        _, K_lqr = solve_dare(sys, cw)
        sol = solve_hinf_game(sys, cw, 1e6)
        assert sol is not None
        assert np.max(np.abs(sol.K - K_lqr)) < 1e-6
        assert np.max(np.abs(sol.W)) < 1e-6


def test_hinf_game_infeasible_below_infimum():
    sys = random_system(4, 2, 2, seed=1, target_radius=0.9)
    cw = CostWeights(np.eye(4), np.eye(2))
    sol = hinf_bisection(sys, cw)
    assert solve_hinf_game(sys, cw, sol.gamma_star / 4.0) is None


def test_hinf_game_saddle_point(monkeypatch):
    monkeypatch.setattr(controllers, "GAMMA_REL_TOL", 1e-4)
    rng = np.random.default_rng(0)
    for seed in range(5):
        sys = random_system(3, 2, 2, seed=40 + seed, target_radius=0.8)
        cw = CostWeights(np.eye(3), np.eye(2))
        sol = hinf_bisection(sys, cw)
        g2 = sol.gamma_star**2

        def game_value(x, u, w):
            xn = sys.A @ x + sys.B @ u + sys.C @ w
            return float(x @ cw.Q @ x + u @ cw.R @ u - g2 * (w @ w) + xn @ sol.P @ xn)

        for _ in range(10):
            x = rng.standard_normal(3)
            u_star, w_star = -sol.K @ x, sol.W @ x
            base = game_value(x, u_star, w_star)
            du = 1e-3 * rng.standard_normal(2)
            dw = 1e-3 * rng.standard_normal(2)
            assert game_value(x, u_star + du, w_star) >= base - 1e-9
            assert game_value(x, u_star, w_star + dw) <= base + 1e-9


def test_hinf_value_matrix_fixed_point():
    # P must satisfy the closed-loop game Riccati identity.
    sys = random_system(4, 2, 2, seed=3, target_radius=0.9)
    cw = CostWeights(np.eye(4), np.eye(2))
    sol = hinf_bisection(sys, cw)
    Acl = sys.A - sys.B @ sol.K + sys.C @ sol.W
    rhs = (
        cw.Q
        + sol.K.T @ cw.R @ sol.K
        - sol.gamma_star**2 * sol.W.T @ sol.W
        + Acl.T @ sol.P @ Acl
    )
    assert np.max(np.abs(rhs - sol.P)) < 1e-6 * (1.0 + np.max(np.abs(sol.P)))


def test_hinf_bisection_scalar_matches_sweep(monkeypatch):
    monkeypatch.setattr(controllers, "GAMMA_REL_TOL", 1e-4)
    sys = scalar_system(0.5)
    cw = CostWeights(np.eye(1), np.eye(1))
    sol_a = hinf_bisection(sys, cw)
    sol_b = hinf_bisection(sys, cw)
    assert sol_a.gamma_star == sol_b.gamma_star
    infimum = sol_a.gamma_star / 1.01
    grid = np.linspace(0.5 * infimum, 1.5 * infimum, 81)
    feas = [solve_hinf_game(sys, cw, g) is not None for g in grid]
    flip = next(i for i, f in enumerate(feas) if f)
    assert flip > 0
    assert grid[flip - 1] <= infimum * (1.0 + 5e-4)
    assert infimum <= grid[flip] * (1.0 + 5e-4)


def test_hinf_bisection_monotone_in_disturbance_gain():
    sys = random_system(3, 2, 2, seed=11, target_radius=0.8)
    cw = CostWeights(np.eye(3), np.eye(2))
    g_full = hinf_bisection(sys, cw).gamma_star
    shrunk = LinearSystem(sys.A, sys.B, 0.5 * sys.C)
    g_half = hinf_bisection(shrunk, cw).gamma_star
    assert g_half <= g_full * (1.0 + 1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_hinf_bisection_scales_with_the_disturbance_matrix(monkeypatch, seed):
    # The game sees C only through C / gamma, so gamma*(eps C) = eps gamma*(C).
    # At eps = 1e-4 the infimum lies below GAMMA_LO: the bracket moves down,
    # and its bisection tries no level above GAMMA_LO.
    sys = random_system(4, 2, 2, seed=seed)
    cw = CostWeights(np.eye(4), np.eye(2))
    gamma = hinf_bisection(sys, cw).gamma_star
    tried = []
    solve = controllers.solve_hinf_game
    monkeypatch.setattr(controllers, "solve_hinf_game", lambda s, c, g: tried.append(g) or solve(s, c, g))
    shrunk = hinf_bisection(LinearSystem(sys.A, sys.B, 1e-4 * sys.C), cw).gamma_star
    ratio = shrunk / (1e-4 * gamma)
    assert 1.0 / (1.0 + controllers.GAMMA_REL_TOL) <= ratio <= 1.0 + controllers.GAMMA_REL_TOL
    assert tried[0] == controllers.GAMMA_HI and max(tried[1:-1]) <= controllers.GAMMA_LO


def test_hinf_bisection_without_disturbance_is_lqr():
    # C = 0: every level is feasible, the game is the LQR problem and the
    # disturber's gain is zero.
    sys = random_system(4, 2, 2, seed=3)
    cw = CostWeights(np.eye(4), np.eye(2))
    sol = hinf_bisection(LinearSystem(sys.A, sys.B, np.zeros((4, 2))), cw)
    _, K = solve_dare(sys, cw)
    np.testing.assert_allclose(sol.K, K, rtol=0.0, atol=1e-9)
    assert not sol.W.any()


def test_hinf_bisection_feasible_and_bracketing_error(monkeypatch):
    for seed in range(5):
        sys = random_system(4, 2, 2, seed=60 + seed, target_radius=0.9)
        cw = CostWeights(np.eye(4), np.eye(2))
        sol = hinf_bisection(sys, cw)
        assert solve_hinf_game(sys, cw, sol.gamma_star) is not None
    sys = random_system(4, 2, 2, seed=60, target_radius=0.9)
    monkeypatch.setattr(controllers, "GAMMA_HI", 1e-6)
    with pytest.raises(BracketingError):
        hinf_bisection(sys, CostWeights(np.eye(4), np.eye(2)))


def test_linear_feedback_handles():
    sys = random_system(3, 2, 2, seed=12, target_radius=0.9)
    cw = CostWeights(np.eye(3), np.eye(2))
    for handle in (lqr_controller(sys, cw), LinearFeedback(hinf_bisection(sys, cw).K, "hinf")):
        assert np.allclose(handle.act(np.zeros(3)), 0.0)
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(handle.act(x), handle.act(x))
        # Undisturbed closed loop contracts geometrically.
        Acl = sys.A - sys.B @ handle.K
        assert np.max(np.abs(np.linalg.eigvals(Acl))) < 1.0
        xk = x.copy()
        for _ in range(200):
            xk = Acl @ xk
        assert np.linalg.norm(xk) < 1e-3 * np.linalg.norm(x)


def test_stabilize_with_lqr_gain_yields_stable_report():
    from motrbench.lds import analyze_stability

    for seed in range(5):
        sys = random_system(4, 2, 2, seed=70 + seed, target_radius=1.4)
        cw = CostWeights(np.eye(4), np.eye(2))
        _, K = solve_dare(sys, cw)
        rep = analyze_stability(LinearSystem(sys.A - sys.B @ K, sys.B, sys.C))
        assert rep.spectral_radius < 1.0


def test_gpc_stays_at_base_policy_without_disturbances():
    sys = random_system(3, 2, 2, seed=13, target_radius=0.8)
    cw = CostWeights(np.eye(3), np.eye(2))
    _, K = solve_dare(sys, cw)
    gpc = GpcController(sys, cw, K)
    x = np.array([1.0, 0.0, -1.0])
    for _ in range(20):
        u = gpc.act(x)
        assert np.allclose(u, -K @ x, atol=1e-12)
        x = sys.A @ x + sys.B @ u  # w = 0
    # Recovered disturbances are float dust, so N stays at numerical zero.
    assert np.linalg.norm(gpc.N) < 1e-10


def test_gpc_beats_lqr_under_constant_disturbance():
    T = 500
    for seed in range(5):
        sys = random_system(4, 2, 2, seed=seed, target_radius=0.9)
        cw = CostWeights(np.eye(4), np.eye(2))
        _, K = solve_dare(sys, cw)
        wbar = np.random.default_rng(1000 + seed).standard_normal(2)
        wbar /= np.linalg.norm(wbar)
        gen = lambda t, x: wbar  # noqa: E731
        c_lqr = episode_cost(sys, cw, lqr_controller(sys, cw), gen, T, np.zeros(4))
        c_gpc = episode_cost(sys, cw, GpcController(sys, cw, K), gen, T, np.zeros(4))
        assert c_gpc <= c_lqr


def test_gpc_policy_norm_bounded_and_deterministic(monkeypatch):
    monkeypatch.setattr(controllers, "GPC_H", 4)
    sys = random_system(4, 2, 2, seed=14, target_radius=0.9)
    cw = CostWeights(np.eye(4), np.eye(2))
    _, K = solve_dare(sys, cw)
    rng = np.random.default_rng(2)
    ws = [rng.standard_normal(2) for _ in range(100)]

    def run():
        gpc = GpcController(sys, cw, K)
        x = np.zeros(4)
        outs = []
        for t in range(100):
            u = gpc.act(x)
            outs.append(u)
            x = step(sys, x, u, ws[t])
            assert np.linalg.norm(gpc.N) <= gpc.ball * (1.0 + 1e-9)
        return np.array(outs)

    a, b = run(), run()
    assert np.array_equal(a, b)


def stacked(blocks):
    """GPC's stored policy [N[0] | ... | N[h-1]] from (h, d_u, d_x) blocks."""
    return np.hstack(list(blocks))


def stacked_to_vec(G, h):
    """A stacked (d_u, h d_x) matrix in CdgPolicy's vec order."""
    return CdgPolicy.vec(np.stack(np.hsplit(G, h)))


def spd(d, seed):
    """A dense, non-diagonal symmetric positive definite d x d matrix."""
    G = np.random.default_rng(seed).standard_normal((d, d))
    return G @ G.T + 0.5 * np.eye(d)


def gpc_weights(kind, d_x, d_u):
    """Diagonal weights with distinct entries, or dense SPD ones, which
    also catch a misplaced Q, R or K'R factor in GPC's maps."""
    if kind == "diagonal":
        return CostWeights(np.diag([1.0, 2.0, 0.5, 3.0][:d_x]), np.diag([0.7, 1.5][:d_u]))
    return CostWeights(spd(d_x, 100 + d_x), spd(d_u, 200 + d_u))


def test_gpc_gradient_matches_finite_differences(monkeypatch):
    # The gradient _update steps along is that of the truncated
    # counterfactual cost y'Qy + v'Rv: y is the H+1-step rollout of the
    # plant closed by K, driven from zero by the recent w_hat with the policy
    # output entering through B, and v = sum_i N[i] w_hat_{t-i} - K y.
    sys = random_system(3, 2, 2, seed=21, target_radius=0.9)
    h = 3
    monkeypatch.setattr(controllers, "GPC_H", h)
    for weights in ("diagonal", "dense"):
        cw = gpc_weights(weights, 3, 2)
        _, K = solve_dare(sys, cw)
        gpc = GpcController(sys, cw, K)
        rng = np.random.default_rng(5)
        window = rng.standard_normal((2 * h + 1, 3))
        Abar = sys.A - sys.B @ K

        def cost(v):
            N = CdgPolicy.from_vec(v, h, 2, 3)
            y = np.zeros(3)
            for j in range(h + 1):
                a = h - j
                y = Abar @ y + window[a] + sys.B @ policy_sum(N, window[a + 1 : a + 1 + h])
            ctrl = policy_sum(N, window[:h]) - K @ y
            return y @ cw.Q @ y + ctrl @ cw.R @ ctrl

        m = rng.standard_normal(h * 2 * 3)
        gpc._win[:] = window
        gpc._Nst = stacked(CdgPolicy.from_vec(m, h, 2, 3))
        grad = stacked_to_vec(gpc._gradient(), h)
        step = 1e-5
        fd = np.array([
            (cost(m + step * e) - cost(m - step * e)) / (2.0 * step) for e in np.eye(m.size)
        ])
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8, err_msg=weights)


@pytest.mark.parametrize("h", [1, 3, 5])
def test_gpc_matrix_free_round_matches_the_unroll(h, monkeypatch):
    # GPC's state y = Y z and gradient, computed from its history buffer z
    # and two maps built once, without the unroll matrix, equal
    # cdg.affine_state_map's y = Ty vec(N) + by and the gradient
    # 2 Ty'(Q y - K'R v) + 2 vec((R v) w_hat') formed from it.
    d_x, d_u = 4, 2
    sys = random_system(d_x, d_u, 2, seed=30 + h, target_radius=0.9)
    monkeypatch.setattr(controllers, "GPC_H", h)
    for weights in ("diagonal", "dense"):
        cw = gpc_weights(weights, d_x, d_u)
        _, K = solve_dare(sys, cw)
        gpc = GpcController(sys, cw, K)
        unroll = unroll_map(LinearSystem(sys.A - sys.B @ K, np.eye(d_x), sys.B), h)
        rng = np.random.default_rng(h)
        for _ in range(5):
            window = rng.standard_normal((2 * h + 1, d_x))
            N = rng.standard_normal((h, d_u, d_x))
            gpc._win[:] = window
            gpc._Nst = stacked(N)
            G = gpc._gradient()
            y = gpc._Y @ gpc._z

            Ty, by = affine_state_map(unroll, window)
            y_ref = Ty @ CdgPolicy.vec(N) + by
            w_hat = window[:h]
            v = np.einsum("irc,ic->r", N, w_hat) - K @ y_ref
            Rv = cw.R @ v
            outer = Rv[None, :, None] * w_hat[:, None, :]
            grad_ref = 2.0 * (Ty.T @ (cw.Q @ y_ref - K.T @ Rv)) + 2.0 * CdgPolicy.vec(outer)

            np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-12 * np.abs(y_ref).max(), err_msg=weights)
            grad = stacked_to_vec(G, h)
            np.testing.assert_allclose(
                grad, grad_ref, rtol=0, atol=1e-12 * np.abs(grad_ref).max(), err_msg=weights
            )


def patch_gpc_constants(monkeypatch, h, K, radius):
    """Make GpcController build with h blocks and a projection radius of
    about radius for the base gain K."""
    monkeypatch.setattr(controllers, "GPC_H", h)
    monkeypatch.setattr(controllers, "GPC_BALL_GAIN", radius / np.linalg.norm(K))


def test_gpc_episode_plays_its_policy_within_the_ball(monkeypatch):
    # Every round of an episode plays u = -K x + sum_i N[i] w_hat_{t-i},
    # with w_hat recomputed from the recorded transitions and N read from
    # the controller after the round's update, and N stays in the ball.
    # N is a read-only view that the next update does not overwrite.
    sys = random_system(4, 2, 2, seed=15, target_radius=0.9)
    cw = CostWeights(np.eye(4), np.eye(2))
    _, K = solve_dare(sys, cw)
    patch_gpc_constants(monkeypatch, 3, K, 0.3)
    gpc = GpcController(sys, cw, K)
    rng = np.random.default_rng(8)
    x = np.zeros(4)
    w_hats, norms, moved = [], [], 0
    before = None
    for t in range(40):
        u = gpc.act(x)
        if before is not None:
            np.testing.assert_array_equal(*before)
            moved += not np.array_equal(gpc.N, before[1])
        N = gpc.N
        with pytest.raises(ValueError):
            N[0, 0, 0] = 1.0
        before = (N, N.copy())
        expected = -K @ x + policy_sum(N, w_hats)
        np.testing.assert_allclose(u, expected, rtol=0, atol=1e-12 * (1.0 + np.abs(expected).max()))
        norms.append(np.linalg.norm(N))
        assert norms[-1] <= gpc.ball * (1.0 + 1e-12)
        x_next = step(sys, x, u, rng.standard_normal(2))
        w_hats.insert(0, x_next - sys.A @ x - sys.B @ u)
        x = x_next
    assert max(norms) >= gpc.ball * (1.0 - 1e-12)  # the projection was active
    assert moved > 0


def gpc_play(gpc, sys, seed, T):
    """The controls of T closed-loop rounds driven by normal disturbances."""
    rng = np.random.default_rng(seed)
    x, us = rng.standard_normal(sys.d_x), []
    for _ in range(T):
        us.append(gpc.act(x))
        x = step(sys, x, us[-1], rng.standard_normal(sys.d_w))
    return us


def assert_same_play(us, ref):
    assert len(us) == len(ref)
    for u, r in zip(us, ref):
        assert u.tobytes() == r.tobytes()


def test_gpc_copy_of_a_prototype_plays_like_a_fresh_build(monkeypatch):
    sys = random_system(4, 2, 2, seed=21, target_radius=0.9)
    cw = CostWeights(np.eye(4), np.eye(2))
    _, K = solve_dare(sys, cw)
    patch_gpc_constants(monkeypatch, 3, K, 0.3)
    prototype = GpcController(sys, cw, K)
    fresh = GpcController(sys, cw, K)
    ref = gpc_play(fresh, sys, 7, 60)

    copy_ = copy.copy(prototype)
    assert copy_._Y is prototype._Y and copy_._L is prototype._L and copy_._AB is prototype._AB
    assert_same_play(gpc_play(copy_, sys, 7, 60), ref)
    assert copy_.N.tobytes() == fresh.N.tobytes()

    # Pickling, as a prototype travels to a worker process, keeps no view;
    # a copy of the unpickled prototype rebuilds its own.
    travelled = copy.copy(pickle.loads(pickle.dumps(prototype)))
    assert_same_play(gpc_play(travelled, sys, 7, 60), ref)

    # Two copies played round by round in turn do not disturb each other,
    # and the prototype stays at round 0.
    a, b = copy.copy(prototype), copy.copy(prototype)
    ref_b = gpc_play(GpcController(sys, cw, K), sys, 8, 60)
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(8)
    x_a, x_b = rng_a.standard_normal(4), rng_b.standard_normal(4)
    us_a, us_b = [], []
    for _ in range(60):
        us_a.append(a.act(x_a))
        us_b.append(b.act(x_b))
        x_a = step(sys, x_a, us_a[-1], rng_a.standard_normal(2))
        x_b = step(sys, x_b, us_b[-1], rng_b.standard_normal(2))
    assert_same_play(us_a, ref)
    assert_same_play(us_b, ref_b)
    assert not prototype.N.any() and not prototype._win.any() and prototype._t == 0
    assert not prototype._xu.any()


def test_gpc_requires_stabilizing_base():
    sys = scalar_system(1.5)
    cw = CostWeights(np.eye(1), np.eye(1))
    with pytest.raises(ValueError):
        GpcController(sys, cw, np.zeros((1, 1)))
    # Nor does it build with the projection radius GPC_BALL_GAIN ||K_base||
    # = 0 that K_base = 0 gives on a stable plant.
    sys = LinearSystem(np.diag([0.5, 0.3]), np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="radius"):
        GpcController(sys, CostWeights(np.eye(2), np.eye(2)), np.zeros((2, 2)))
