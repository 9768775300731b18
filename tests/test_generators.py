import math

import numpy as np
import pytest

from motrbench.bench import ExperimentConfig, stable_seed
from motrbench.cdg import CdgPolicy
from motrbench.controllers import hinf_bisection, lqr_controller
from motrbench.generators import (
    AdaptiveCdgGenerator,
    GaussianGenerator,
    GeneratorError,
    HinfGenerator,
    RandomDirectionGenerator,
    TransformError,
    _sinusoid_gram,
    scale_to_budget,
    sinusoid_generator,
    transform_residual,
)
from motrbench.lds import CostWeights, LinearSystem, analyze_stability, random_system, step
from motrbench.trust_region import TrustRegionProblem, solve as tr_solve
from policy_oracle import policy_sum


def make_setup(seed=0, radius=0.9):
    sys = random_system(4, 2, 2, seed=seed, target_radius=radius)
    cw = CostWeights(np.eye(4), np.eye(2))
    hinf = hinf_bisection(sys, cw)
    return sys, cw, hinf


def drive(sys, generator, controller_act, T, x0):
    x = np.array(x0, dtype=float)
    ws = []
    for _ in range(T):
        u = controller_act(x)
        w = generator.emit(x)
        ws.append(w)
        x = step(sys, x, u, w)
        generator.observe(u)
    return np.array(ws)


def test_scale_to_budget():
    w = np.array([0.3, 0.0])
    out = scale_to_budget(w, 2.0)
    assert np.allclose(out, [2.0, 0.0])
    assert np.allclose(scale_to_budget(np.zeros(2), 2.0), 0.0)


def test_transform_residual():
    sys, cw, hinf = make_setup()
    res = transform_residual(sys, hinf)
    assert np.allclose(res.A, sys.A - sys.B @ hinf.K)
    assert np.allclose(res.B, sys.B) and np.allclose(res.C, sys.C)
    for seed in range(20):
        s, c, h = make_setup(seed=100 + seed)
        rep = analyze_stability(transform_residual(s, h))
        assert rep.spectral_radius < 1.0

    scalar = LinearSystem(np.array([[1.5]]), np.array([[1.0]]), np.array([[1.0]]))

    class FakeSol:
        K = np.array([[1.0]])
        W = np.array([[0.0]])

    res = transform_residual(scalar, FakeSol())
    assert res.A[0, 0] == pytest.approx(0.5)

    class BadSol:
        K = np.array([[0.0]])
        W = np.array([[0.0]])

    with pytest.raises(TransformError):
        transform_residual(scalar, BadSol())


def test_hinf_generator_direction_and_budget():
    sys, cw, hinf = make_setup()
    gen = HinfGenerator(hinf, W_max=0.7)
    assert np.allclose(gen.emit(np.zeros(4)), 0.0)
    gen.observe(np.zeros(2))
    x = np.array([1.0, -0.5, 2.0, 0.3])
    w = gen.emit(x)
    assert np.linalg.norm(w) == pytest.approx(0.7)
    direction = hinf.W @ x
    cos = w @ direction / (np.linalg.norm(w) * np.linalg.norm(direction))
    assert cos == pytest.approx(1.0)


def test_every_generator_checks_its_budget_when_built():
    # A budget that is not positive fails at construction, not at the
    # first emit.
    sys, cw, hinf = make_setup()
    for W_max in (0.0, -1.0, float("nan")):
        builders = [
            lambda: HinfGenerator(hinf, W_max),
            lambda: GaussianGenerator(2, W_max, seed=0),
            lambda: RandomDirectionGenerator(2, W_max, seed=0),
            lambda: sinusoid_generator(sys, cw, W_max, T=10),
        ] + [
            lambda update=update: AdaptiveCdgGenerator(
                sys, cw, hinf, update=update, T=10, H=2, D_M=0.3, W_max=W_max, residual_bias=True, seed=0
            )
            for update in ("motr", "oga")
        ]
        for build in builders:
            with pytest.raises(ValueError, match="W_max must be positive"):
                build()


def test_gaussian_generator_norm_statistics():
    gen = GaussianGenerator(d_w=3, W_max=2.0, seed=0)
    norms = []
    for _ in range(100000):
        norms.append(np.linalg.norm(gen.emit(np.zeros(4))))
        gen.observe(np.zeros(2))
    assert np.mean(norms) == pytest.approx(1.05 * 2.0, rel=0.01)

    a = GaussianGenerator(3, 1.0, seed=5).emit(np.zeros(1))
    b = GaussianGenerator(3, 1.0, seed=5).emit(np.zeros(1))
    assert np.array_equal(a, b)


def test_random_direction_generator():
    gen = RandomDirectionGenerator(d_w=3, W_max=1.5, seed=2)
    for _ in range(50):
        w = gen.emit(np.zeros(2))
        gen.observe(np.zeros(2))
        assert np.linalg.norm(w) == pytest.approx(1.5)
    a = RandomDirectionGenerator(3, 1.0, seed=9).emit(np.zeros(1))
    b = RandomDirectionGenerator(3, 1.0, seed=9).emit(np.zeros(1))
    assert np.array_equal(a, b)


def test_sinusoid_tie_break_takes_first_candidate():
    sys = LinearSystem(np.zeros((2, 2)), np.eye(2), np.eye(2))
    cw = CostWeights(np.zeros((2, 2)), np.zeros((2, 2)))
    gen = sinusoid_generator(sys, cw, W_max=1.0, T=20)
    assert gen.omega == pytest.approx(0.0)
    assert gen.phase == pytest.approx(0.0)
    assert np.allclose(gen.direction, [1.0, 0.0])


def open_loop_scores(sys, cw, W_max, T, directions, freqs, phases):
    """Reference for the sine search: simulate every candidate
    w_t = W_max sin(omega t + phase) v open loop from zero and sum x'Qx over
    t < T, candidate by candidate."""
    cands = [(v, om, ph) for v in directions for om in freqs for ph in phases]
    vdir = np.array([c[0] for c in cands])
    omega = np.array([c[1] for c in cands])
    phase = np.array([c[2] for c in cands])
    X = np.zeros((len(cands), sys.d_x))
    J = np.zeros(len(cands))
    for t in range(T):
        J += np.einsum("ni,ij,nj->n", X, cw.Q, X)
        Wt = (W_max * np.sin(omega * t + phase))[:, None] * vdir
        X = X @ sys.A.T + Wt @ sys.C.T
    return J.reshape(len(directions), len(freqs), len(phases))


def gram_scores(sys, cw, W_max, T, directions, freqs, phases):
    """The same scores from the sine's Gram matrices, W_max^2 z'G(omega)z
    with z = [cos(phase) v; sin(phase) v], indexed (direction, frequency,
    phase)."""
    G = _sinusoid_gram(sys, cw, T, freqs)
    Z = np.concatenate(
        [np.cos(phases)[None, :, None] * directions[:, None, :],
         np.sin(phases)[None, :, None] * directions[:, None, :]],
        axis=2,
    )  # (direction, phase, 2 d_w)
    return W_max**2 * np.einsum("dpa,fab,dpb->dfp", Z, G, Z)


def test_sinusoid_scores_match_open_loop_simulation():
    freqs = np.linspace(0.0, np.pi, 16)
    phases = 2.0 * np.pi * np.arange(8) / 8.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        sys = random_system(4, 2, 3, seed=40 + seed)
        L = rng.standard_normal((4, 4))
        cw = CostWeights(L @ L.T, np.eye(2))
        dirs = np.vstack([np.eye(3), rng.standard_normal((5, 3))])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        J = gram_scores(sys, cw, 0.7, 200, dirs, freqs, phases)
        ref = open_loop_scores(sys, cw, 0.7, 200, dirs, freqs, phases)
        # Every candidate to rtol 1e-12.  The atol covers only omega = phase
        # = pi, whose drive sin(pi t + pi) is rounding noise of size 1e-16 t
        # in both computations (scores near 1e-25 of the largest).
        np.testing.assert_allclose(J, ref, rtol=1e-12, atol=1e-12 * ref.max())


def test_sinusoid_tie_between_phase_and_phase_plus_pi_takes_first():
    # phase and phase + pi negate the whole open-loop trajectory, so their
    # scores tie in exact arithmetic.  On this plant the best pair is
    # (pi / 2, 3 pi / 2) at omega = 0.6 pi, and the tie must go to pi / 2.
    # The default grid holds no twins, so the test passes the full circle.
    sys = random_system(4, 2, 2, seed=0)
    cw = CostWeights(np.eye(4), np.eye(2))
    phases = 2.0 * np.pi * np.arange(8) / 8.0
    gen = sinusoid_generator(sys, cw, W_max=1.0, T=200, phases=phases)
    assert gen.omega == pytest.approx(0.6 * np.pi)
    assert gen.phase == pytest.approx(0.5 * np.pi)
    dirs = gen.direction[None, :]
    J = gram_scores(sys, cw, 1.0, 200, dirs, np.array([gen.omega]), np.array([0.5, 1.5]) * np.pi)
    assert J[0, 0, 1] == pytest.approx(J[0, 0, 0], rel=1e-13)


def sampled_sine_directions(d_w, seed):
    """The directions a sampled sine search scores: the d_w axes plus 8
    random unit directions drawn from the seed."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((8, d_w))
    return np.vstack([np.eye(d_w), v / np.linalg.norm(v, axis=1)[:, None]])


def test_sinusoid_takes_the_exact_best_direction():
    # On every default system the chosen sinusoid scores at least as much as
    # every candidate of a sampled search over the same grids, with the
    # directions each of the default grid's sine episodes would draw.
    cfg = ExperimentConfig()
    freqs, phases = np.linspace(0.0, np.pi, 16), 2.0 * np.pi * np.arange(4) / 8.0
    for index in range(cfg.n_systems):
        seed = stable_seed(cfg.base_seed, "system", index)
        sys = random_system(cfg.d_x, cfg.d_u, cfg.d_w, seed=seed, target_radius=cfg.target_radius)
        cw = CostWeights(np.eye(cfg.d_x), np.eye(cfg.d_u))
        gen = sinusoid_generator(sys, cw, cfg.W_max, cfg.T)
        v = gen.direction
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
        assert v[np.argmax(np.abs(v))] > 0.0
        chosen = open_loop_scores(sys, cw, cfg.W_max, cfg.T, v[None, :], [gen.omega], [gen.phase])
        assert gen.score == pytest.approx(chosen[0, 0, 0], rel=1e-12, abs=0.0)
        dirs = np.vstack([
            sampled_sine_directions(cfg.d_w, stable_seed(cfg.base_seed, index, s, c["name"], "sine"))
            for s in range(cfg.n_seeds) for c in cfg.controllers
        ])
        sampled = gram_scores(sys, cw, cfg.W_max, cfg.T, dirs, freqs, phases)
        assert gen.score >= sampled.max() * (1.0 - 1e-12), f"system {index}"


def test_sinusoid_amplitude_bound():
    sys, cw, _ = make_setup(seed=3)
    gen = sinusoid_generator(sys, cw, W_max=0.8, T=50)
    for t in range(100):
        w = gen.emit(np.zeros(4))
        gen.observe(np.zeros(2))
        expected = 0.8 * abs(math.sin(gen.omega * t + gen.phase))
        assert np.linalg.norm(w) == pytest.approx(expected, abs=1e-12)
        assert np.linalg.norm(w) <= 0.8 + 1e-12


def test_sinusoid_finds_resonance():
    # Lightly damped rotation: open-loop response peaks at the rotation angle.
    theta = 0.9
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    sys = LinearSystem(0.97 * rot, np.eye(2), np.eye(2))
    cw = CostWeights(np.eye(2), np.eye(2))
    freqs = np.linspace(0.0, np.pi, 16)
    gen = sinusoid_generator(sys, cw, W_max=1.0, T=400)
    # Oracle: densely sweep frequencies with the steady-state amplification
    # of the resolvent and pick the best grid point.
    amps = [np.linalg.norm(np.linalg.inv(np.exp(1j * om) * np.eye(2) - sys.A)) for om in freqs]
    assert gen.omega == pytest.approx(freqs[int(np.argmax(amps))])
    assert abs(gen.omega - theta) <= (freqs[1] - freqs[0])


def test_generator_call_order_enforced():
    gen = RandomDirectionGenerator(2, 1.0, seed=0)
    gen.emit(np.zeros(2))
    with pytest.raises(GeneratorError):
        gen.emit(np.zeros(2))
    gen.observe(np.zeros(2))
    with pytest.raises(GeneratorError):
        gen.observe(np.zeros(2))


def test_motr_zero_residual_path_recovers_equilibrium():
    sys, cw, hinf = make_setup(seed=4)
    motr = AdaptiveCdgGenerator(
        sys, cw, hinf, update="motr", T=40, H=3, D_M=0.3, W_max=1.0, residual_bias=True, seed=7
    )
    ref = HinfGenerator(hinf, 1.0)
    x = np.random.default_rng(0).standard_normal(4)
    for _ in range(40):
        u = -hinf.K @ x  # equilibrium controller: residuals vanish
        wm = motr.emit(x)
        wr = ref.emit(x)
        assert np.allclose(wm, wr, atol=1e-12)
        x = step(sys, x, u, wm)
        motr.observe(u)
        ref.observe(u)


def test_motr_small_ball_limit_matches_equilibrium_generator():
    sys, cw, hinf = make_setup(seed=5)
    motr = AdaptiveCdgGenerator(
        sys, cw, hinf, update="motr", T=40, H=2, D_M=1e-8, W_max=1.0, residual_bias=True, seed=3
    )
    ref = HinfGenerator(hinf, 1.0)
    ctrl = lqr_controller(sys, cw)
    x = np.random.default_rng(1).standard_normal(4)
    for _ in range(40):
        u = ctrl.act(x)
        wm = motr.emit(x)
        wr = ref.emit(x)
        assert np.linalg.norm(wm - wr) < 1e-6
        x = step(sys, x, u, wm)
        motr.observe(u)
        ref.observe(u)


def test_motr_deterministic_and_budgeted():
    sys, cw, hinf = make_setup(seed=6)
    ctrl = lqr_controller(sys, cw)
    x0 = np.random.default_rng(2).standard_normal(4)

    def run():
        gen = AdaptiveCdgGenerator(
            sys, cw, hinf, update="motr", T=60, H=3, D_M=0.3, W_max=1.0, residual_bias=True, seed=11
        )
        ws = drive(sys, gen, ctrl.act, 60, x0)
        return ws, gen

    ws_a, gen_a = run()
    ws_b, _ = run()
    assert np.array_equal(ws_a, ws_b)
    assert np.all(np.linalg.norm(ws_a, axis=1) <= 1.0 * (1.0 + 1e-9))
    assert np.linalg.norm(gen_a.M) <= 0.3 * (1.0 + 1e-9)


def test_oga_generator_budgeted_and_in_ball():
    sys, cw, hinf = make_setup(seed=7)
    gen = AdaptiveCdgGenerator(
        sys, cw, hinf, update="oga", T=60, H=3, D_M=0.3, W_max=1.0, residual_bias=True, seed=13
    )
    ctrl = lqr_controller(sys, cw)
    x0 = np.random.default_rng(3).standard_normal(4)
    ws = drive(sys, gen, ctrl.act, 60, x0)
    assert np.all(np.linalg.norm(ws, axis=1) <= 1.0 * (1.0 + 1e-9))
    assert np.linalg.norm(gen.M) <= 0.3 * (1.0 + 1e-9)


def test_motr_oga_share_paths_when_frozen():
    # MOTR and OGA share everything but the update: with equal seeds they
    # start from the same policy, and against the equilibrium controller the
    # residuals vanish, so the learned part is frozen out and both emit the
    # equilibrium disturbances bit for bit.
    sys, cw, hinf = make_setup(seed=8)
    x0 = np.random.default_rng(4).standard_normal(4)
    outs, policies = [], []
    for update in ("motr", "oga"):
        gen = AdaptiveCdgGenerator(
            sys, cw, hinf, update=update, T=50, H=3, D_M=0.3, W_max=1.0, residual_bias=True, seed=17
        )
        assert gen.name == update
        policies.append(gen.M)
        outs.append(drive(sys, gen, lambda x: -hinf.K @ x, 50, x0))
    assert np.array_equal(policies[0], policies[1])
    assert np.array_equal(outs[0], outs[1])
    with pytest.raises(ValueError):
        AdaptiveCdgGenerator(
            sys, cw, hinf, update="none", T=5, H=3, D_M=0.3, W_max=1.0, residual_bias=True, seed=0
        )


@pytest.mark.parametrize("update", ["motr", "oga"])
@pytest.mark.parametrize("residual_bias", [True, False])
def test_round_emits_the_policy_of_the_recorded_residuals(update, residual_bias):
    # Every round emits W_max w/||w|| for w = sum_i M[i] r_{t-1-i} + W x_t,
    # recomputed here from the policy's blocks and the residuals
    # r = K x + u the test records, and every update leaves M in the D_M
    # ball.  M is a read-only view that the update does not overwrite.
    sys, cw, hinf = make_setup(seed=12, radius=0.8)
    H, D_M, W_max = 3, 0.3, 1.0
    gen = AdaptiveCdgGenerator(
        sys, cw, hinf, update=update, T=40, H=H, D_M=D_M, W_max=W_max, eta=1.0,
        residual_bias=residual_bias, seed=21,
    )
    ctrl = lqr_controller(sys, cw)
    rng = np.random.default_rng(9)
    K = hinf.K if residual_bias else np.zeros((2, 4))
    x, residuals, moved = rng.standard_normal(4), [], 0
    for _ in range(40):
        blocks = gen.M
        with pytest.raises(ValueError):
            blocks[0, 0, 0] = 1.0
        played = blocks.copy()
        w_hat = policy_sum(blocks, residuals[::-1])
        if residual_bias:
            w_hat = w_hat + hinf.W @ x
        u = ctrl.act(x) + 0.1 * rng.standard_normal(2)
        w = gen.emit(x)
        norm = np.linalg.norm(w_hat)  # 0 in the first round without the bias
        expected = W_max * w_hat / norm if norm > 0.0 else np.zeros(2)
        np.testing.assert_allclose(w, expected, rtol=0.0, atol=1e-12)
        gen.observe(u)
        np.testing.assert_array_equal(blocks, played)
        moved += not np.array_equal(gen.M, played)
        residuals.append(K @ x + u)
        x = step(sys, x, u, w)
        assert np.linalg.norm(gen.M) <= D_M * (1.0 + 1e-12)
    assert moved > 0


def test_motr_against_the_equilibrium_controller_decomposes_once(monkeypatch):
    # Against u = -K x every rollout quadratic is exactly zero, so the
    # leader's quadratic part never changes: one eigendecomposition serves
    # all of an episode's plays.
    sys, cw, hinf = make_setup(seed=4)
    gen = AdaptiveCdgGenerator(
        sys, cw, hinf, update="motr", T=40, H=3, D_M=0.3, W_max=1.0, eta=1.0, residual_bias=True, seed=7
    )
    calls = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda S: calls.append(S.shape) or real_eigh(S))
    x = np.random.default_rng(0).standard_normal(4)
    for _ in range(40):
        u = -hinf.K @ x
        x = step(sys, x, u, gen.emit(x))
        gen.observe(u)
    assert calls == [(gen.n, gen.n)]


def test_motr_regret_pair_hindsight_dominates():
    sys, cw, hinf = make_setup(seed=9)
    gen = AdaptiveCdgGenerator(
        sys, cw, hinf, update="motr", T=80, H=3, D_M=0.3, W_max=1.0, residual_bias=True, seed=19
    )
    ctrl = lqr_controller(sys, cw)
    x0 = np.random.default_rng(5).standard_normal(4)
    drive(sys, gen, ctrl.act, 80, x0)
    hind, ach = gen.regret_pair()
    # The hindsight-best fixed policy upper-bounds any played sequence's
    # surrogate total, within a slack of 1/T per round (1.0 over the 80).
    assert hind >= ach - 1.0 - 1e-6


def test_motr_plays_the_doubled_leader_of_the_audited_sums(monkeypatch):
    # Every MOTR play maximizes z'(2 sum P)z + (sum p - sigma)'z over the
    # D_M ball, where sum P and sum p add up the rollout quadratics of the
    # rounds so far, and the regret audit maximizes z'(sum P)z + (sum p)'z.
    import motrbench.generators as generators
    import motrbench.online as online

    sigma = np.linspace(0.01, 0.12, 12)
    monkeypatch.setattr(online, "sample_perturbation", lambda eta, d, rng: sigma)
    seen = []
    real_quadratic = generators.rollout_cost_quadratic

    def recording(*args):
        seen.append(real_quadratic(*args))
        return seen[-1]

    monkeypatch.setattr(generators, "rollout_cost_quadratic", recording)
    sys, cw, hinf = make_setup(seed=4)
    gen = AdaptiveCdgGenerator(
        sys, cw, hinf, update="motr", T=40, H=3, D_M=0.3, W_max=1.0, eta=1.0, residual_bias=True, seed=7
    )
    assert gen.n == sigma.size
    ctrl = lqr_controller(sys, cw)
    x = np.random.default_rng(8).standard_normal(4)
    achieved = 0.0
    for _ in range(25):
        u = ctrl.act(x)
        w = gen.emit(x)
        x = step(sys, x, u, w)
        played = CdgPolicy.vec(gen.M)
        gen.observe(u)
        achieved += seen[-1].evaluate(played)
        P, p = sum(q.P for q in seen), sum(q.p for q in seen)
        leader = tr_solve(TrustRegionProblem(2.0 * P, p - sigma, gen.D_M))
        np.testing.assert_allclose(CdgPolicy.vec(gen.M), leader.z, rtol=0.0, atol=1e-12)
    best = tr_solve(TrustRegionProblem(P, p, gen.D_M)).value
    hind, ach = gen.regret_pair()
    assert hind == pytest.approx(best + sum(q.const for q in seen), rel=1e-12)
    assert ach == pytest.approx(achieved, rel=1e-12)


def test_pure_mode_requires_stability_and_runs():
    sys = random_system(3, 2, 2, seed=10, target_radius=0.8)
    cw = CostWeights(np.eye(3), np.eye(2))
    hinf = hinf_bisection(sys, cw)
    gen = AdaptiveCdgGenerator(
        sys, cw, hinf, update="motr", T=30, H=2, D_M=0.2, W_max=1.0, residual_bias=False, seed=1
    )
    ctrl = lqr_controller(sys, cw)
    ws = drive(sys, gen, ctrl.act, 30, np.random.default_rng(6).standard_normal(3))
    assert np.all(np.linalg.norm(ws, axis=1) <= 1.0 + 1e-9)

    unstable = LinearSystem(1.2 * np.eye(2), np.eye(2), np.eye(2))
    cw2 = CostWeights(np.eye(2), np.eye(2))
    hinf2 = hinf_bisection(unstable, cw2)
    with pytest.raises(TransformError):
        AdaptiveCdgGenerator(
            unstable, cw2, hinf2, update="motr", T=10, H=1, D_M=0.3, W_max=1.0, residual_bias=False, seed=0
        )
