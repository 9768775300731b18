import numpy as np
import pytest

from motrbench import online
from motrbench.online import (
    OtrState,
    collapse,
    default_perturbation_rate,
    play_sequence,
    regret_audit,
    sample_perturbation,
)
from motrbench.trust_region import TrustRegionError, TrustRegionProblem, solve as tr_solve
from policy_oracle import memory_quadratic


def gram(P, q, c):
    """The Gram matrix [[P, q], [q', c]] of the reward z'Pz + 2q'z + c."""
    return np.block([[P, q[:, None]], [q[None, :], np.array([[c]])]])


def random_memory_quadratic(rng, d, H, R=1.0, const=0.0):
    n = d * H
    return memory_quadratic(rng.uniform(-R, R, (n, n)), rng.uniform(-R, R, n), const)


def window_value(G, window):
    """[z; 1]' G [z; 1] on the stacked window z of plays, oldest first."""
    z = np.concatenate(window)
    return float(z @ G[:-1, :-1] @ z + (2.0 * G[:-1, -1]) @ z + G[-1, -1])


def otr_state(d, D, seed, eta):
    """An OtrState with its eta set, as the MOTR generator sets it."""
    state = OtrState(d, D, seed)
    state.eta = eta
    return state


def test_collapse_single_slot_is_identity():
    rng = np.random.default_rng(0)
    mq = random_memory_quadratic(rng, 3, 1, const=2.5)
    G = collapse(mq, 1)
    assert np.array_equal(G, mq)
    assert G[-1, -1] == 2.5


def test_collapse_equal_blocks():
    B0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    P = np.block([[B0, B0], [B0, B0]])
    p = np.concatenate([np.array([1.0, -1.0])] * 2)
    mq = memory_quadratic(P, p, 0.0)
    G = collapse(mq, 2)
    assert np.allclose(G[:-1, :-1], 4.0 * B0)
    assert np.allclose(2.0 * G[:-1, -1], [2.0, -2.0])


def test_collapse_matches_repeated_evaluation():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = rng.integers(1, 4)
        H = rng.integers(1, 5)
        mq = random_memory_quadratic(rng, d, H, const=float(rng.standard_normal()))
        G = collapse(mq, H)
        z = rng.standard_normal(d)
        direct = window_value(mq, [z] * H)
        z1 = np.append(z, 1.0)
        assert z1 @ G @ z1 == pytest.approx(direct, rel=1e-10, abs=1e-10)


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
    state = otr_state(d=3, D=1.0, seed=0, eta=1.0)
    state.observe(np.zeros((4, 4)), 0.0)
    assert np.all(state.G == 0.0)
    rng = np.random.default_rng(5)
    P, q = rng.standard_normal((3, 3)), rng.standard_normal(3)
    state.observe(gram(P, q, 1.0), 0.5)
    state.observe(gram(-P, -q, -1.0), -0.5)
    assert np.max(np.abs(state.G[:-1])) < 1e-12
    assert state.G[-1, -1] == 0.0 and state.achieved == 0.0
    assert state.rounds == 3


def test_observe_matches_batch_sum():
    # The one sum G holds, bit for bit, the separately summed P, linear
    # terms p = 2q and constants: doubling is exact, so the learner's
    # 2 G[:-1, -1] is the sum of the rounds' 2q.
    rng = np.random.default_rng(6)
    state = otr_state(d=4, D=1.0, seed=0, eta=1.0)
    quads = [
        (rng.standard_normal((4, 4)), rng.standard_normal(4), float(rng.standard_normal()))
        for _ in range(17)
    ]
    P_sum, p_sum, const_sum = np.zeros((4, 4)), np.zeros(4), 0.0
    for P, q, const in quads:
        state.observe(gram(P, q, const), 2.0 * const)
        P_sum += P
        p_sum += 2.0 * q
        const_sum += const
    assert np.array_equal(state.G[:-1, :-1], P_sum)
    assert np.array_equal(2.0 * state.G[:-1, -1], p_sum)
    assert state.G[-1, -1] == const_sum
    assert state.achieved == pytest.approx(2.0 * const_sum, abs=1e-12)


def test_update_linear_leader_with_tiny_perturbation():
    state = otr_state(d=3, D=2.0, seed=1, eta=1e9)
    state.observe(gram(np.zeros((3, 3)), np.array([2.5, 0.0, 0.0]), 0.0))
    z = state.update()
    assert np.allclose(z, [2.0, 0.0, 0.0], atol=1e-6)


def test_update_degenerate_objective():
    state = otr_state(d=3, D=1.0, seed=2, eta=1e9)
    state.observe(np.zeros((4, 4)))
    z = state.update()
    assert np.linalg.norm(z) <= 1.0 + 1e-9
    assert abs(z @ state.G[:-1, :-1] @ z + 2.0 * state.G[:-1, -1] @ z) < 1e-6


def test_update_with_forced_perturbation_matches_direct_solve(monkeypatch):
    # The leader's quadratic part is twice the summed one (OtrState.update).
    rng = np.random.default_rng(3)
    state = otr_state(d=4, D=1.5, seed=3, eta=1.0)
    for _ in range(5):
        state.observe(gram(rng.standard_normal((4, 4)), rng.standard_normal(4), 0.0))
    sigma = np.abs(rng.standard_normal(4))
    monkeypatch.setattr(online, "sample_perturbation", lambda eta, d, rng: sigma)
    z = state.update()
    ref = tr_solve(TrustRegionProblem(2.0 * state.G[:-1, :-1], 2.0 * state.G[:-1, -1] - sigma, 1.5))
    assert np.allclose(z, ref.z, atol=1e-9)


def test_update_reuses_the_eigendecomposition_until_a_nonzero_round(monkeypatch):
    # Interleaved zero and nonzero rounds: every play is exactly the direct
    # solve of the doubled leader, and the leader's quadratic part is
    # decomposed again only after a round that changed it.
    rng = np.random.default_rng(5)
    d, D = 5, 0.7
    state = otr_state(d=d, D=D, seed=5, eta=1.0)
    P_sum, q_sum = np.zeros((d, d)), np.zeros(d)
    calls = []
    real_eigh = np.linalg.eigh
    for t, nonzero in enumerate([False, False, True, False, False, True, True, False]):
        P = rng.standard_normal((d, d)) if nonzero else np.zeros((d, d))
        q = rng.standard_normal(d)
        state.observe(gram(P, q, 0.0))
        P_sum += P
        q_sum += q
        sigma = np.abs(rng.standard_normal(d))
        monkeypatch.setattr(online, "sample_perturbation", lambda eta, d, rng: sigma)
        monkeypatch.setattr(np.linalg, "eigh", lambda S: calls.append(t) or real_eigh(S))
        z = state.update()
        monkeypatch.setattr(np.linalg, "eigh", real_eigh)
        direct = tr_solve(TrustRegionProblem(2.0 * P_sum, 2.0 * q_sum - sigma, D)).z
        assert np.array_equal(z, direct), f"round {t}"
    assert calls == [0, 2, 5, 6]


def factored_plays(d, k, factored, rounds=12, seed=9):
    """The plays of an OtrState fed rounds P = F'F for random (k, d)
    factors F, handed the factors or not, and its eigh count."""
    rng = np.random.default_rng(seed)
    state = otr_state(d=d, D=1.0, seed=seed, eta=1.0)
    plays, calls = [], []
    real_eigh = np.linalg.eigh
    np.linalg.eigh = lambda S: calls.append(1) or real_eigh(S)
    try:
        for _ in range(rounds):
            F = rng.standard_normal((k, d)) / np.sqrt(d)
            state.observe(gram(F.T @ F, rng.standard_normal(d), 0.0), 0.0, F if factored else None)
            plays.append(state.update().copy())
    finally:
        np.linalg.eigh = real_eigh
    return plays, len(calls)


def test_factored_rounds_play_the_same_points_at_n64():
    # Rank-8 rounds at n = 64: four of every five plays are solved on the
    # kept decomposition (rank 8 to 32 = n/2), and every play is the
    # unfactored state's to 1e-9.
    assert OtrState(64, 1.0, 0).low_rank
    plain, plain_eighs = factored_plays(64, 8, factored=False)
    low_rank, low_rank_eighs = factored_plays(64, 8, factored=True)
    assert plain_eighs == 12 and low_rank_eighs == 3
    for t, (a, b) in enumerate(zip(plain, low_rank)):
        assert np.linalg.norm(a - b) <= 1e-9, f"round {t}"


def test_factored_rounds_below_the_crossover_are_bit_identical():
    # n = 12 is below online.LOW_RANK_MIN_DIM: the factors are ignored.
    assert 12 < online.LOW_RANK_MIN_DIM and not OtrState(12, 1.0, 0).low_rank
    plain, _ = factored_plays(12, 4, factored=False)
    factored, _ = factored_plays(12, 4, factored=True)
    for t, (a, b) in enumerate(zip(plain, factored)):
        assert np.array_equal(a, b), f"round {t}"


def test_factors_handed_to_a_state_that_never_plays_change_nothing():
    # OGA's state gets a factor every round but never plays, so it keeps no
    # decomposition: its sum, achieved value and hindsight are those of a
    # state handed no factors, bit for bit, at n = 64 too.
    rng = np.random.default_rng(11)
    plain, factored = OtrState(64, 1.0, 3), OtrState(64, 1.0, 3)
    assert factored.low_rank
    for _ in range(20):
        F = rng.standard_normal((8, 64)) / 8.0
        G = gram(F.T @ F, rng.standard_normal(64), rng.standard_normal())
        achieved = float(rng.standard_normal())
        plain.observe(G, achieved)
        factored.observe(G, achieved, F)
    assert np.array_equal(plain.G, factored.G) and plain.achieved == factored.achieved
    assert plain.hindsight() == factored.hindsight()


@pytest.mark.parametrize("P, q", [
    (np.eye(2), np.array([1e308, 0.0])),
    (1e308 * np.eye(2), np.zeros(2)),
])
def test_hindsight_of_an_overflowed_sum_raises(P, q):
    # Two finite rounds whose sum overflows: hindsight solves the learner's
    # own sums unchecked, and the solver refuses the non-finite solution.
    state = OtrState(2, 1.0, 0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state.observe(gram(P, q, 0.0))
        state.observe(gram(P, q, 0.0))
        with pytest.raises(TrustRegionError, match="^non-finite solution"):
            state.hindsight()


def test_update_needs_eta():
    state = OtrState(d=2, D=1.0, seed=4)
    state.observe(gram(np.eye(2), np.ones(2), 0.0))
    with pytest.raises(ValueError, match="eta"):
        state.update()
    state.eta = 2.0
    state.update()


def test_plays_bounded_and_deterministic():
    rng = np.random.default_rng(4)
    hist = [random_memory_quadratic(rng, 3, 2) for _ in range(40)]
    plays_a = play_sequence(hist, H=2, D=0.7, eta=0.5, seed=11)
    plays_b = play_sequence(hist, H=2, D=0.7, eta=0.5, seed=11)
    for za, zb in zip(plays_a, plays_b):
        assert np.array_equal(za, zb)
        assert np.linalg.norm(za) <= 0.7 * (1.0 + 1e-9)


def test_regret_audit_single_round_linear():
    p = np.array([3.0, 4.0])
    mq = memory_quadratic(np.zeros((2, 2)), p, 0.0)
    play = np.array([0.1, 0.0])
    hind, ach = regret_audit([mq], [play], H=1, D=2.0)
    assert hind == pytest.approx(2.0 * 5.0)
    assert ach == pytest.approx(window_value(mq, [play]))


def test_regret_audit_fixed_point():
    # Playing the hindsight optimum of a constant sequence leaves regret at
    # the solver-tolerance level.
    rng = np.random.default_rng(12)
    mq = random_memory_quadratic(rng, 3, 2)
    T = 50
    hist = [mq] * T
    G = collapse(mq, 2)
    star = tr_solve(TrustRegionProblem(G[:-1, :-1], 2.0 * G[:-1, -1], 1.0)).z
    plays = [star] * T
    hind, ach = regret_audit(hist, plays, H=2, D=1.0)
    assert hind - ach <= 1e-6 * T


def test_regret_audit_length_mismatch():
    rng = np.random.default_rng(13)
    mq = random_memory_quadratic(rng, 2, 1)
    with pytest.raises(ValueError):
        regret_audit([mq, mq], [np.zeros(2)], H=1, D=1.0)


def test_an_empty_history_plays_nothing():
    assert play_sequence([], H=2, D=1.0, eta=1.0, seed=0) == []
    assert regret_audit([], [], H=2, D=1.0) == (0.0, 0.0)


def _entry_case(case):
    """(history, plays, H) of a sequence of d = 2, H = 2 memory rewards
    with the named defect."""
    rng = np.random.default_rng(15)
    hist = [random_memory_quadratic(rng, 2, 2) for _ in range(4)]
    plays, H = [np.zeros(2)] * 4, 2
    if case == "ragged history":
        hist[2] = random_memory_quadratic(rng, 2, 1)
    elif case == "non-finite coefficient":
        hist[3][1, 2] = np.inf
    elif case == "size not divided by H":
        H = 3
    elif case == "H = 0":
        H = 0
    else:
        plays[1] = np.zeros(3)
    return hist, plays, H


@pytest.mark.parametrize("case, message", [
    ("ragged history", "must stack"),
    ("non-finite coefficient", "finite"),
    ("size not divided by H", "multiple of H"),
    ("H = 0", "H must be"),
    ("play of the wrong dimension", "plays must be"),
])
def test_sequences_are_checked_on_entry(case, message):
    hist, plays, H = _entry_case(case)
    with pytest.raises(ValueError, match=message):
        regret_audit(hist, plays, H=H, D=1.0)
    if case != "play of the wrong dimension":  # plays are the audit's input only
        with pytest.raises(ValueError, match=message):
            play_sequence(hist, H=H, D=1.0, eta=1.0, seed=0)


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
                memory_quadratic(rng.uniform(-R, R, (n, n)), rng.uniform(-R, R, n), 0.0)
                for _ in range(T)
            ]
            eta = default_perturbation_rate(R, d, D, H, T)
            plays = play_sequence(hist, H, D, eta, seed=7000 + s)
            hind, ach = regret_audit(hist, plays, H, D)
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
        P, p = mq[:-1, :-1], 2.0 * mq[:-1, -1]
        grad = (P + P.T) @ z + p
        assert np.max(np.abs(grad)) <= 2.0 * n * R * D + R + 1e-9
