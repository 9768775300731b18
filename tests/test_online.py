import numpy as np
import pytest

from motrbench.online import (
    MemoryQuadratic,
    OtrState,
    collapse,
    default_perturbation_rate,
    play_sequence,
    regret_audit,
    sample_perturbation,
)
from motrbench.trust_region import TrustRegionProblem, solve as tr_solve


def random_memory_quadratic(rng, d, H, R=1.0, const=0.0):
    n = d * H
    return MemoryQuadratic(rng.uniform(-R, R, (n, n)), rng.uniform(-R, R, n), const, d, H)


def test_collapse_single_slot_is_identity():
    rng = np.random.default_rng(0)
    mq = random_memory_quadratic(rng, 3, 1, const=2.5)
    C, c = collapse(mq)
    assert np.array_equal(C, mq.P)
    assert np.array_equal(c, mq.p)


def test_collapse_equal_blocks():
    B0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    P = np.block([[B0, B0], [B0, B0]])
    p = np.concatenate([np.array([1.0, -1.0])] * 2)
    mq = MemoryQuadratic(P, p, 0.0, 2, 2)
    C, c = collapse(mq)
    assert np.allclose(C, 4.0 * B0)
    assert np.allclose(c, [2.0, -2.0])


def test_collapse_matches_repeated_evaluation():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = rng.integers(1, 4)
        H = rng.integers(1, 5)
        mq = random_memory_quadratic(rng, d, H, const=float(rng.standard_normal()))
        C, c = collapse(mq)
        z = rng.standard_normal(d)
        direct = mq.value([z] * H)
        assert z @ C @ z + c @ z + mq.const == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_sample_perturbation_statistics():
    rng = np.random.default_rng(123)
    draws = sample_perturbation(2.0, 100000, rng)
    assert np.all(draws >= 0.0)
    assert abs(draws.mean() - 0.5) < 0.01


def test_sample_perturbation_deterministic_and_validated():
    a = sample_perturbation(1.5, 8, np.random.default_rng(9))
    b = sample_perturbation(1.5, 8, np.random.default_rng(9))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_perturbation(0.0, 3, np.random.default_rng(0))


def test_default_perturbation_rate():
    assert default_perturbation_rate(1.0, 1, 1.0, 1, 1) == pytest.approx(1.0)
    assert default_perturbation_rate(1.0, 4, 1.0, 1, 100) == pytest.approx(0.0125)
    one = default_perturbation_rate(2.0, 3, 0.5, 2, 400)
    two = default_perturbation_rate(2.0, 3, 0.5, 2, 800)
    assert one / two == pytest.approx(np.sqrt(2.0))


def test_observe_accumulates_and_cancels():
    state = OtrState(d=3, D=1.0, eta=1.0, eps=1e-6, seed=0)
    state.observe(np.zeros((3, 3)), np.zeros(3), 0.0, 0.0)
    assert np.all(state.P == 0.0) and np.all(state.p == 0.0)
    rng = np.random.default_rng(5)
    P, p = rng.standard_normal((3, 3)), rng.standard_normal(3)
    state.observe(P, p, 1.0, 0.5)
    state.observe(-P, -p, -1.0, -0.5)
    assert np.max(np.abs(state.P)) < 1e-12
    assert np.max(np.abs(state.p)) < 1e-12
    assert state.const == 0.0 and state.achieved == 0.0
    assert state.rounds == 3


def test_observe_matches_batch_sum():
    rng = np.random.default_rng(6)
    state = OtrState(d=4, D=1.0, eta=1.0, eps=1e-6, seed=0)
    quads = [
        (rng.standard_normal((4, 4)), rng.standard_normal(4), float(rng.standard_normal()))
        for _ in range(17)
    ]
    for P, p, const in quads:
        state.observe(P, p, const, 2.0 * const)
    assert np.allclose(state.P, np.sum([q[0] for q in quads], axis=0), atol=1e-12)
    assert np.allclose(state.p, np.sum([q[1] for q in quads], axis=0), atol=1e-12)
    assert state.const == pytest.approx(sum(q[2] for q in quads), abs=1e-12)
    assert state.achieved == pytest.approx(2.0 * state.const, abs=1e-12)


def test_update_linear_leader_with_tiny_perturbation():
    state = OtrState(d=3, D=2.0, eta=1e9, eps=1e-9, seed=1)
    state.observe(np.zeros((3, 3)), np.array([5.0, 0.0, 0.0]), 0.0)
    z = state.update()
    assert np.allclose(z, [2.0, 0.0, 0.0], atol=1e-6)


def test_update_degenerate_objective():
    state = OtrState(d=3, D=1.0, eta=1e9, eps=1e-9, seed=2)
    state.observe(np.zeros((3, 3)), np.zeros(3), 0.0)
    z = state.update()
    assert np.linalg.norm(z) <= 1.0 + 1e-9
    assert abs(z @ state.P @ z + state.p @ z) < 1e-6


def test_update_with_forced_perturbation_matches_direct_solve():
    # The leader's quadratic part is twice the summed one (OtrState.update).
    rng = np.random.default_rng(3)
    state = OtrState(d=4, D=1.5, eta=1.0, eps=1e-9, seed=3)
    for _ in range(5):
        state.observe(rng.standard_normal((4, 4)), rng.standard_normal(4), 0.0)
    sigma = np.abs(rng.standard_normal(4))
    z = state.update(sigma=sigma)
    ref = tr_solve(TrustRegionProblem(2.0 * state.P, state.p - sigma, 1.5), 1e-9)
    assert np.allclose(z, ref.z, atol=1e-9)


def test_update_needs_eta_unless_sigma_is_given():
    state = OtrState(d=2, D=1.0, eps=1e-9, seed=4)
    state.observe(np.eye(2), np.ones(2), 0.0)
    with pytest.raises(ValueError, match="eta"):
        state.update()
    state.update(sigma=np.zeros(2))
    state.eta = 2.0
    state.update()


def test_plays_bounded_and_deterministic():
    rng = np.random.default_rng(4)
    hist = [random_memory_quadratic(rng, 3, 2) for _ in range(40)]
    plays_a = play_sequence(hist, D=0.7, eta=0.5, eps=1e-6, seed=11)
    plays_b = play_sequence(hist, D=0.7, eta=0.5, eps=1e-6, seed=11)
    for za, zb in zip(plays_a, plays_b):
        assert np.array_equal(za, zb)
        assert np.linalg.norm(za) <= 0.7 * (1.0 + 1e-9)


def test_regret_audit_single_round_linear():
    p = np.array([3.0, 4.0])
    mq = MemoryQuadratic(np.zeros((2, 2)), p, 0.0, 2, 1)
    play = np.array([0.1, 0.0])
    hind, ach = regret_audit([mq], [play], D=2.0)
    assert hind == pytest.approx(2.0 * 5.0)
    assert ach == pytest.approx(mq.value([play]))


def test_regret_audit_fixed_point():
    # Playing the hindsight optimum of a constant sequence leaves regret at
    # the solver-tolerance level.
    rng = np.random.default_rng(12)
    mq = random_memory_quadratic(rng, 3, 2)
    T = 50
    hist = [mq] * T
    star = tr_solve(TrustRegionProblem(*collapse(mq), 1.0), 1e-12).z
    plays = [star] * T
    hind, ach = regret_audit(hist, plays, D=1.0)
    assert hind - ach <= 1e-6 * T


def test_regret_audit_length_mismatch():
    rng = np.random.default_rng(13)
    mq = random_memory_quadratic(rng, 2, 1)
    with pytest.raises(ValueError):
        regret_audit([mq, mq], [np.zeros(2)], D=1.0)


def test_empirical_regret_sublinear():
    # Small-scale version of the acceptance run: slope well below linear and
    # per-round regret decreasing along the horizon grid.
    d, H, D, R = 4, 3, 1.0, 1.0
    grid = [250, 500, 1000, 2000]
    means = []
    for T in grid:
        regs = []
        for s in range(3):
            rng = np.random.default_rng(1000 + s)
            n = d * H
            hist = [
                MemoryQuadratic(rng.uniform(-R, R, (n, n)), rng.uniform(-R, R, n), 0.0, d, H)
                for _ in range(T)
            ]
            eta = default_perturbation_rate(R, d, D, H, T)
            plays = play_sequence(hist, D, eta, 1.0 / T, seed=7000 + s)
            hind, ach = regret_audit(hist, plays, D)
            regs.append(hind - ach)
        means.append(np.mean(regs))
    slope = np.polyfit(np.log(grid), np.log(means), 1)[0]
    assert slope <= 0.75
    assert means[-1] / grid[-1] < means[0] / grid[0]


def test_gradient_sup_norm_bound():
    # For coefficient bound R and plays in the D-ball, the reward gradient
    # sup-norm stays within 2 (dH) R D + R.
    rng = np.random.default_rng(14)
    d, H, D, R = 3, 2, 1.5, 0.8
    n = d * H
    for _ in range(50):
        mq = random_memory_quadratic(rng, d, H, R=R)
        z = rng.standard_normal(n)
        z *= D / max(1.0, np.linalg.norm(z) / 1.0)
        z = z / np.linalg.norm(z) * D * rng.random()
        grad = (mq.P + mq.P.T) @ z + mq.p
        assert np.max(np.abs(grad)) <= 2.0 * n * R * D + R + 1e-9
