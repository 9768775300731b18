import json

import numpy as np
import pytest

from motrbench.lds import (
    CostWeights,
    LinearSystem,
    analyze_stability,
    random_system,
    stage_cost,
    step,
    truncation_horizon,
)


def naive_matvec(M, v):
    out = [0.0] * M.shape[0]
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            out[i] += M[i, j] * v[j]
    return np.array(out)


def test_step_identity_maps():
    sys = LinearSystem(np.eye(2), np.eye(2), np.eye(2))
    out = step(sys, np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(out, [1.0, 1.0])


def test_step_zero_maps():
    sys = LinearSystem(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    out = step(sys, np.array([3.0, -1.0]), np.array([2.0, 2.0]), np.array([5.0, 5.0]))
    assert np.allclose(out, 0.0)


def test_step_matches_naive_matvec():
    rng = np.random.default_rng(7)
    sys = LinearSystem(
        rng.standard_normal((4, 4)), rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    )
    x, u, w = rng.standard_normal(4), rng.standard_normal(2), rng.standard_normal(2)
    expected = naive_matvec(sys.A, x) + naive_matvec(sys.B, u) + naive_matvec(sys.C, w)
    assert np.max(np.abs(step(sys, x, u, w) - expected)) < 1e-12


def test_step_dimension_mismatch():
    sys = LinearSystem(np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        step(sys, np.zeros(3), np.zeros(2), np.zeros(2))


def test_step_linearity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        sys = LinearSystem(
            rng.standard_normal((3, 3)), rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        )
        x1, x2 = rng.standard_normal(3), rng.standard_normal(3)
        u1, u2 = rng.standard_normal(2), rng.standard_normal(2)
        w1, w2 = rng.standard_normal(2), rng.standard_normal(2)
        lhs = step(sys, x1 + x2, u1 + u2, w1 + w2)
        rhs = step(sys, x1, u1, w1) + step(sys, x2, u2, w2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_stage_cost_examples():
    cw = CostWeights(np.eye(2), np.eye(2))
    assert stage_cost(cw, np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(25.0)

    cw0 = CostWeights(np.zeros((2, 2)), np.zeros((2, 2)))
    assert stage_cost(cw0, np.array([9.0, -2.0]), np.array([1.0, 1.0])) == 0.0

    cwd = CostWeights(np.diag([2.0, 1.0]), np.diag([1.0]))
    assert stage_cost(cwd, np.array([1.0, 1.0]), np.array([2.0])) == pytest.approx(7.0)


def test_cost_weights_validation():
    with pytest.raises(ValueError):
        CostWeights(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError):
        CostWeights(np.diag([1.0, -0.5]), np.eye(2))
    cw = CostWeights(np.diag([3.0, 1.0]), np.diag([0.5, 0.5]))
    assert cw.xi == pytest.approx(3.0)
    # xi is derived from Q and R, never passed in.
    with pytest.raises(TypeError):
        CostWeights(np.diag([3.0, 1.0]), np.diag([0.5, 0.5]), 5.0)


def test_empty_matrices_rejected_at_construction():
    # Every dimension is at least 1, and the message names the empty matrix.
    one = np.eye(1)
    for kwargs, name in (
        ({"A": np.zeros((0, 0)), "B": np.zeros((0, 1)), "C": np.zeros((0, 1))}, "A"),
        ({"A": one, "B": [[]], "C": one}, "B"),
        ({"A": one, "B": one, "C": [[]]}, "C"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must"):
            LinearSystem(**kwargs)
    for Q, R, name in ((np.zeros((0, 0)), one, "Q"), (one, [[]], "R")):
        with pytest.raises(ValueError, match=f"^{name} must"):
            CostWeights(Q, R)


def test_analyze_stability_scaled_identity():
    sys = LinearSystem(0.5 * np.eye(2), np.eye(2), np.eye(2))
    rep = analyze_stability(sys)
    assert rep.spectral_radius == pytest.approx(0.5)
    assert rep.gamma == pytest.approx(0.5)
    assert rep.kappa == pytest.approx(1.0, abs=1e-9)
    assert rep.is_strongly_stable


def test_analyze_stability_nilpotent_not_strongly_stable():
    sys = LinearSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.eye(2))
    rep = analyze_stability(sys)
    assert not rep.is_strongly_stable
    assert rep.spectral_radius == pytest.approx(0.0)
    assert rep.kappa >= 1.0


def test_analyze_stability_random_stable_vs_norm_root_oracle():
    # ||A^k||^(1/k) -> rho; with k = 400 the conditioning factor is < 2%.
    for seed in range(5):
        sys = random_system(4, 2, 2, seed=seed, target_radius=0.8)
        rep = analyze_stability(sys)
        assert rep.spectral_radius < 1.0
        k = 400
        root = np.linalg.norm(np.linalg.matrix_power(sys.A, k), 2) ** (1.0 / k)
        assert rep.spectral_radius == pytest.approx(root, rel=0.05)


def test_strong_stability_decay_chain():
    rng = np.random.default_rng(21)
    for seed in range(10):
        sys = random_system(4, 2, 2, seed=100 + seed, target_radius=0.9)
        rep = analyze_stability(sys)
        assert rep.is_strongly_stable
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        Ak = np.eye(4)
        for k in range(1, 51):
            Ak = Ak @ sys.A
            bound = rep.kappa * rep.spectral_radius**k
            assert np.linalg.norm(Ak @ x) <= bound * (1.0 + 1e-8)


def test_random_system_deterministic():
    a = random_system(4, 2, 2, seed=5)
    b = random_system(4, 2, 2, seed=5)
    assert a.A.tobytes() == b.A.tobytes()
    assert a.B.tobytes() == b.B.tobytes()
    assert a.C.tobytes() == b.C.tobytes()


def test_random_system_target_radius():
    sys = random_system(4, 2, 2, seed=3, target_radius=0.9)
    rep = analyze_stability(sys)
    assert abs(rep.spectral_radius - 0.9) < 1e-8


def test_random_system_controllable_twenty_seeds():
    for seed in range(20):
        sys = random_system(4, 2, 2, seed=seed)
        blocks = [sys.B]
        for _ in range(3):
            blocks.append(sys.A @ blocks[-1])
        assert np.linalg.matrix_rank(np.hstack(blocks)) == 4


def test_truncation_horizon_values():
    assert truncation_horizon(2.0, 0.5, 1.0, 100) == 11
    assert truncation_horizon(1.0, 1.0, 1.0, 1) == 1
    # ceil(10 * ln 2000) = ceil(76.009...) = 77.
    assert truncation_horizon(5.0, 0.1, 2.0, 200) == 77
    with pytest.raises(ValueError):
        truncation_horizon(2.0, 0.0, 1.0, 100)
    with pytest.raises(ValueError):
        truncation_horizon(2.0, 1.5, 1.0, 100)


def test_system_json_round_trip():
    sys = random_system(4, 2, 2, seed=13)
    back = LinearSystem.from_json(json.loads(json.dumps(sys.to_json())))
    assert np.array_equal(back.A, sys.A)
    assert np.array_equal(back.B, sys.B)
    assert np.array_equal(back.C, sys.C)
    cw = CostWeights(np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(2))
    back_cw = CostWeights.from_json(cw.to_json())
    assert np.array_equal(back_cw.Q, cw.Q)
    assert back_cw.xi == cw.xi
    # The declared sizes must be the matrices' sizes.
    with pytest.raises(ValueError, match="declared sizes"):
        LinearSystem.from_json({**sys.to_json(), "d_u": 3})
    with pytest.raises(ValueError, match="declared sizes"):
        CostWeights.from_json({**cw.to_json(), "d_x": 2})
