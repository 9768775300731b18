import numpy as np
import pytest

from motrbench.cdg import (
    CdgPolicy,
    InstabilityError,
    affine_state_map,
    plant_powers,
    project_frobenius,
    rollout_cost_quadratic,
)
from motrbench.lds import CostWeights, LinearSystem, analyze_stability, random_system, stage_cost
from policy_oracle import policy_sum


def random_policy(rng, H, d_w, d_u, bound=10.0, scale=0.5):
    blocks = np.array([scale * rng.standard_normal((d_w, d_u)) for _ in range(H)])
    return project_frobenius(blocks, bound)


def simulate_unroll(sys, x_past, policy, window):
    """Direct step-by-step simulation of the H+1-step unroll under one
    repeated policy.

    window holds the 2H+1 controls most recent first.  Step j (0-based)
    applies control window[H-j] and the disturbance of the policy evaluated
    on the H controls preceding it.
    """
    H = len(policy)
    x = np.array(x_past, dtype=float)
    for j in range(H + 1):
        a = H - j
        w = policy_sum(policy, window[a + 1 : a + H + 1])
        x = sys.A @ x + sys.B @ window[a] + sys.C @ w
    return x


def unrolled_state(sys, policy, window):
    """Truncated-rollout state y = T vec(M) + b from affine_state_map."""
    T, b = affine_state_map(plant_powers(sys, len(policy)), np.asarray(window, dtype=float))
    return T @ CdgPolicy.vec(policy) + b


def test_transfer_stack_pure_control_ladder():
    # Zero policy: the map's constant part is the control ladder A^i B.
    sys = LinearSystem(np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]))
    H = 2
    zero = np.zeros((H, 1, 1))
    ladder = [float(unrolled_state(sys, zero, np.eye(2 * H + 1)[i][:, None])[0]) for i in range(2 * H + 1)]
    assert ladder == pytest.approx([1.0, 0.5, 0.25, 0.0, 0.0])


def test_transfer_stack_single_block_position():
    sys = LinearSystem(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]))
    m = 0.7
    pol = np.array([[[m]]])
    response = [float(unrolled_state(sys, pol, np.eye(3)[i][:, None])[0]) for i in range(3)]
    assert response == pytest.approx([1.0, m, 0.0])


def test_transfer_stack_affine_in_blocks():
    rng = np.random.default_rng(0)
    sys = random_system(3, 2, 2, seed=1, target_radius=0.8)
    H = 2
    window = rng.standard_normal((2 * H + 1, 2))
    zero = np.zeros((H, 2, 2))
    p1 = random_policy(rng, H, 2, 2)
    p2 = random_policy(rng, H, 2, 2)
    p_sum = p1 + p2
    y0 = unrolled_state(sys, zero, window)
    lhs = unrolled_state(sys, p_sum, window) - y0
    rhs = (unrolled_state(sys, p1, window) - y0) + (unrolled_state(sys, p2, window) - y0)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_unrolled_state_calibration_against_simulation():
    # The anchor test of the module: any index convention failing this is
    # wrong by definition.
    rng = np.random.default_rng(42)
    for case in range(100):
        d_x, d_u, d_w = rng.integers(1, 5), rng.integers(1, 4), rng.integers(1, 4)
        H = int(rng.integers(1, 5))
        sys = random_system(int(d_x), int(d_u), int(d_w), seed=int(case), target_radius=0.85)
        policy = random_policy(rng, H, sys.d_w, sys.d_u)
        window = rng.standard_normal((2 * H + 1, sys.d_u))
        got = unrolled_state(sys, policy, window)
        ref = simulate_unroll(sys, np.zeros(sys.d_x), policy, window)
        denom = max(1.0, np.linalg.norm(ref))
        assert np.linalg.norm(got - ref) / denom < 1e-9


def test_unrolled_state_zero_inputs():
    sys = random_system(3, 2, 2, seed=5)
    rng = np.random.default_rng(1)
    out = unrolled_state(sys, random_policy(rng, 2, 2, 2), np.zeros((5, 2)))
    assert np.allclose(out, 0.0)


def test_unrolled_state_zero_policies_reduce_to_control_convolution():
    rng = np.random.default_rng(2)
    sys = random_system(3, 2, 2, seed=6, target_radius=0.7)
    H = 2
    zero = np.zeros((H, 2, 2))
    window = rng.standard_normal((2 * H + 1, 2))
    got = unrolled_state(sys, zero, window)
    ref = np.zeros(3)
    for i in range(H + 1):
        ref = ref + np.linalg.matrix_power(sys.A, i) @ sys.B @ window[i]
    assert np.allclose(got, ref, atol=1e-10)


def test_window_length_validated():
    sys = random_system(2, 1, 1, seed=7)
    powers = plant_powers(sys, 1)
    with pytest.raises(ValueError):
        affine_state_map(powers, np.zeros((4, 1)))
    with pytest.raises(ValueError):
        affine_state_map(powers, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        plant_powers(sys, 0)


def test_approx_state_equals_unrolled_with_zero_start():
    rng = np.random.default_rng(3)
    sys = random_system(3, 2, 2, seed=8, target_radius=0.8)
    H = 2
    policy = random_policy(rng, H, 2, 2)
    window = rng.standard_normal((2 * H + 1, 2))
    bias_vec = rng.standard_normal(3)
    T, b = affine_state_map(plant_powers(sys, H), window, bias_vec)
    ref = simulate_unroll(sys, np.zeros(3), policy, window)
    assert np.allclose(T @ CdgPolicy.vec(policy) + b, ref + bias_vec, atol=1e-10)


def test_approx_state_linear_in_each_control():
    rng = np.random.default_rng(4)
    sys = random_system(3, 2, 2, seed=9, target_radius=0.8)
    H = 1
    policy = random_policy(rng, H, 2, 2)
    base = rng.standard_normal((3, 2))
    for k in range(3):
        delta = rng.standard_normal(2)
        plus = base.copy()
        plus[k] += delta
        minus = base.copy()
        minus[k] -= delta
        lhs = unrolled_state(sys, policy, plus) + unrolled_state(sys, policy, minus)
        rhs = 2.0 * unrolled_state(sys, policy, base)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_approx_state_truncation_error_bound():
    # Stationary policy, bounded controls, H from the horizon formula:
    # the gap to the true state stays within kappa * C_x * exp(-gamma * H).
    from motrbench.lds import step, truncation_horizon

    rng = np.random.default_rng(5)
    T = 60
    for trial in range(20):
        sys = random_system(3, 2, 2, seed=200 + trial, target_radius=0.75)
        rep = analyze_stability(sys)
        assert rep.is_strongly_stable
        cw = CostWeights(np.eye(3), np.eye(2))
        H = truncation_horizon(rep.kappa, rep.gamma, cw.xi, T)
        D, C_u = 0.5, 0.5
        pol = random_policy(rng, H, 2, 2, bound=D)
        controls = [C_u * u / max(1.0, np.linalg.norm(u)) for u in rng.standard_normal((T, 2))]
        # True trajectory from x_0 = 0 under the stationary policy.
        xs = [np.zeros(3)]
        for t in range(T):
            past = [controls[t - i] if t - i >= 0 else np.zeros(2) for i in range(1, H + 1)]
            w = policy_sum(pol, past)
            xs.append(step(sys, xs[t], controls[t], w))
        C_x = 2.0 * rep.beta * H * D * C_u / rep.gamma
        bound = rep.kappa * C_x * np.exp(-rep.gamma * H)
        t = T  # compare at the last state
        window = [controls[t - 1 - i] if t - 1 - i >= 0 else np.zeros(2) for i in range(2 * H + 1)]
        y = unrolled_state(sys, pol, window)
        assert np.linalg.norm(xs[t] - y) <= bound * (1.0 + 1e-9)


def test_approx_cost_delegates_to_stage_cost():
    # The rollout quadratic is the stage cost at the truncated-rollout state.
    rng = np.random.default_rng(12)
    sys = random_system(3, 2, 2, seed=17, target_radius=0.8)
    cw = CostWeights(np.diag([2.0, 1.0, 0.5]), np.diag([1.0, 3.0]))
    H = 2
    window = rng.standard_normal((2 * H + 1, 2))
    u_now = rng.standard_normal(2)
    pol = random_policy(rng, H, 2, 2)
    rq = rollout_cost_quadratic(plant_powers(sys, H), cw, window, u_now)
    y = unrolled_state(sys, pol, window)
    assert rq.evaluate(CdgPolicy.vec(pol)) == pytest.approx(stage_cost(cw, y, u_now), rel=1e-12)


def rollout_cost(sys, cw, window, u_now, H, policy, bias_vec=None):
    """Independent oracle: cost of the H+1-step truncated rollout."""
    z = simulate_unroll(sys, np.zeros(sys.d_x), policy, window)
    if bias_vec is not None:
        z = z + bias_vec
    return float(z @ cw.Q @ z + u_now @ cw.R @ u_now)


def test_rollout_quadratic_zero_window():
    sys = random_system(3, 2, 2, seed=11, target_radius=0.8)
    cw = CostWeights(np.eye(3), np.diag([2.0, 1.0]))
    H = 2
    u_now = np.array([1.0, 2.0])
    rq = rollout_cost_quadratic(plant_powers(sys, H), cw, np.zeros((2 * H + 1, 2)), u_now)
    assert np.max(np.abs(rq.P)) == 0.0
    assert np.max(np.abs(rq.p)) == 0.0
    assert rq.const == pytest.approx(2.0 * 1.0 + 1.0 * 4.0)


def test_rollout_quadratic_master_oracle():
    # Closed-form coefficients must reproduce the direct truncated rollout.
    rng = np.random.default_rng(6)
    for trial in range(50):
        d_x, d_u, d_w = int(rng.integers(2, 5)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        H = int(rng.integers(1, 4))
        sys = random_system(d_x, d_u, d_w, seed=300 + trial, target_radius=0.8)
        Qroot = rng.standard_normal((d_x, d_x))
        cw = CostWeights(Qroot @ Qroot.T, np.eye(d_u))
        window = rng.standard_normal((2 * H + 1, d_u))
        u_now = rng.standard_normal(d_u)
        rq = rollout_cost_quadratic(plant_powers(sys, H), cw, window, u_now)
        pol = random_policy(rng, H, d_w, d_u)
        got = rq.evaluate(CdgPolicy.vec(pol))
        ref = rollout_cost(sys, cw, window, u_now, H, pol)
        assert got == pytest.approx(ref, rel=1e-8)


def test_rollout_quadratic_bias_folding():
    rng = np.random.default_rng(7)
    sys = random_system(3, 2, 2, seed=14, target_radius=0.8)
    cw = CostWeights(np.eye(3), np.eye(2))
    H = 2
    window = rng.standard_normal((2 * H + 1, 2))
    u_now = rng.standard_normal(2)
    bias_vec = rng.standard_normal(3)
    rq = rollout_cost_quadratic(plant_powers(sys, H), cw, window, u_now, bias_vec=bias_vec)
    for _ in range(5):
        pol = random_policy(rng, H, 2, 2)
        got = rq.evaluate(CdgPolicy.vec(pol))
        ref = rollout_cost(sys, cw, window, u_now, H, pol, bias_vec=bias_vec)
        assert got == pytest.approx(ref, rel=1e-9)


def test_rollout_quadratic_rejects_unstable_plant():
    # The stability check runs once, where the plant's powers are built.
    sys = LinearSystem(1.1 * np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(InstabilityError):
        plant_powers(sys, 1)


def test_hessian_gradient_match_finite_differences():
    rng = np.random.default_rng(8)
    sys = random_system(3, 2, 2, seed=15, target_radius=0.8)
    cw = CostWeights(np.eye(3), np.eye(2))
    H = 2
    window = rng.standard_normal((2 * H + 1, 2))
    u_now = rng.standard_normal(2)
    rq = rollout_cost_quadratic(plant_powers(sys, H), cw, window, u_now)
    # Hessian P + P' and gradient p at the zero policy, as the learner
    # accumulates them.
    hess, grad = rq.P + rq.P.T, rq.p
    assert np.allclose(hess, hess.T, atol=1e-12)
    n = rq.p.size
    h = 1e-4

    def g_of(v):
        pol = CdgPolicy.from_vec(v, H, 2, 2)
        return rollout_cost(sys, cw, window, u_now, H, pol)

    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        fd_grad = (g_of(e) - g_of(-e)) / (2.0 * h)
        assert fd_grad == pytest.approx(grad[k], rel=1e-4, abs=1e-7)
    for k in range(n):
        for l in range(k, n):
            ek, el = np.zeros(n), np.zeros(n)
            ek[k] = h
            el[l] = h
            fd = (g_of(ek + el) - g_of(ek - el) - g_of(-ek + el) + g_of(-ek - el)) / (4.0 * h * h)
            assert fd == pytest.approx(hess[k, l], rel=1e-4, abs=1e-6)


def test_symmetric_p_hessian_is_twice_p():
    rng = np.random.default_rng(9)
    sys = random_system(2, 1, 1, seed=16, target_radius=0.7)
    cw = CostWeights(np.eye(2), np.eye(1))
    H = 1
    window = rng.standard_normal((3, 1))
    rq = rollout_cost_quadratic(plant_powers(sys, H), cw, window, np.zeros(1))
    assert np.allclose(rq.P, rq.P.T, atol=1e-12)
    assert np.allclose(rq.P + rq.P.T, 2.0 * rq.P, atol=1e-12)


def test_project_frobenius():
    rng = np.random.default_rng(10)
    pol = rng.standard_normal((3, 2, 2))
    norm = np.linalg.norm(pol)
    assert project_frobenius(pol, norm + 1.0) is pol

    half = project_frobenius(pol, norm / 2.0)
    assert np.linalg.norm(half) == pytest.approx(norm / 2.0)
    assert np.allclose(half[0], pol[0] / 2.0)

    for seed in range(50):
        r = np.random.default_rng(seed)
        big = 5.0 * r.standard_normal((2, 2, 3))
        proj = project_frobenius(big, 1.0)
        assert np.linalg.norm(proj) == pytest.approx(1.0, abs=1e-10)
        again = project_frobenius(proj, 1.0)
        assert np.array_equal(proj, again)
    # Any shape: a vector, and GPC's stacked matrix, scale alike.
    v = 5.0 * rng.standard_normal(12)
    np.testing.assert_array_equal(project_frobenius(v.reshape(2, 6), 1.0).ravel(), project_frobenius(v, 1.0))


def test_policy_vec_round_trip():
    rng = np.random.default_rng(11)
    pol = random_policy(rng, 3, 2, 2)
    v = CdgPolicy.vec(pol)
    back = CdgPolicy.from_vec(v, 3, 2, 2)
    assert np.array_equal(back, pol)
    # from_vec is a read-only view of the vector, not a copy.
    assert np.shares_memory(back, v)
    with pytest.raises(ValueError):
        back[0, 0, 0] = 1.0
    # Column-major over the stacked (H d_w, d_u) matrix.
    for col in range(2):
        for block in range(3):
            for row in range(2):
                assert v[col * 6 + block * 2 + row] == pol[block, row, col]
