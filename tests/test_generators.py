import math

import numpy as np
import pytest

from motrbench import generators
from motrbench.bench import ExperimentConfig, stable_seed
from motrbench.cdg import CdgPolicy, InstabilityError
from motrbench.controllers import hinf_bisection, lqr_controller
from motrbench.generators import (
    AdaptiveCdgGenerator,
    GaussianGenerator,
    GeneratorError,
    HinfGenerator,
    NOISE_BLOCK,
    SINE_FREQS,
    SINE_PHASES,
    RandomDirectionGenerator,
    _sinusoid_gram,
    scale_to_budget,
    sinusoid_generator,
    transform_residual,
)
from motrbench.lds import CostWeights, LinearSystem, analyze_stability, random_system, step
from motrbench.online import OtrState
from motrbench.trust_region import TrustRegionProblem, objective, solve as tr_solve
from policy_oracle import gram_cost, policy_sum


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

    # A residual plant that is not strictly stable builds, and the
    # generator that would unroll it refuses it.
    class BadSol:
        K = np.array([[0.0]])
        W = np.array([[0.0]])

    assert transform_residual(scalar, BadSol()).A[0, 0] == 1.5
    for update in ("motr", "oga"):
        with pytest.raises(InstabilityError, match="spectral radius 1.5 >= 1"):
            AdaptiveCdgGenerator(
                scalar, CostWeights(np.eye(1), np.eye(1)), BadSol(), update=update,
                T=10, H=2, D_M=0.3, W_max=1.0, seed=0,
            )


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


def budget_builders(W_max, D_M=0.3):
    """Builders of the five generators (motr and oga the adaptive one) with
    budget W_max and learner radius D_M."""
    sys, cw, hinf = make_setup()
    return [
        lambda: HinfGenerator(hinf, W_max),
        lambda: GaussianGenerator(2, W_max, seed=0),
        lambda: RandomDirectionGenerator(2, W_max, seed=0),
        lambda: sinusoid_generator(sys, cw, W_max, T=10),
    ] + [
        lambda update=update: AdaptiveCdgGenerator(
            sys, cw, hinf, update=update, T=10, H=2, D_M=D_M, W_max=W_max, seed=0
        )
        for update in ("motr", "oga")
    ]


def test_every_generator_checks_its_budget_when_built():
    # A budget that is not positive fails at construction, not at the
    # first emit.
    for W_max in (0.0, -1.0, float("nan")):
        for build in budget_builders(W_max):
            with pytest.raises(ValueError, match="W_max must be a positive number"):
                build()


def test_a_budget_or_a_learner_radius_must_be_finite():
    # An infinite budget would emit [inf, -inf] and an infinite radius
    # would make the learner's first play infinite; the config refuses
    # both values, and so does each component.
    for build in budget_builders(math.inf):
        with pytest.raises(ValueError, match="W_max must be a positive number, got inf"):
            build()
    for build in budget_builders(0.5, D_M=math.inf)[4:]:
        with pytest.raises(ValueError, match="D must be a positive number, got inf"):
            build()
    with pytest.raises(ValueError, match="D must be a positive number, got inf"):
        OtrState(3, math.inf, 0)


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


def test_noise_generators_check_d_w_when_built():
    # An empty draw has norm 0, so a random direction with d_w = 0 would
    # resample forever at its first emit; both noise generators refuse a
    # d_w that is not an integer >= 1 when they are built.
    for d_w in (0, -1, 2.0, True, "2", None):
        for build in (GaussianGenerator, RandomDirectionGenerator):
            with pytest.raises(ValueError, match="d_w must be an integer >= 1"):
                build(d_w, 1.0, seed=0)


def emitted(gen, rounds):
    ws = []
    for _ in range(rounds):
        ws.append(gen.emit(np.zeros(1)))
        gen.observe(np.zeros(1))
    return ws


@pytest.mark.parametrize("seed", [0, 5, 9])
@pytest.mark.parametrize("d_w", [1, 2, 3])
def test_noise_generators_emit_the_per_round_stream(seed, d_w):
    # Normals drawn in blocks are those of one draw of d_w per round, bit
    # for bit, across block boundaries: every emitted w, and no row handed
    # out is overwritten by a later refill.
    rounds = 3 * NOISE_BLOCK + 7
    gauss = GaussianGenerator(d_w, 2.0, seed)
    rng = np.random.default_rng(seed)
    expected = [gauss.scale * rng.standard_normal(d_w) for _ in range(rounds)]
    ws = emitted(gauss, rounds)
    for w, e in zip(ws, expected):
        assert w.tobytes() == e.tobytes()

    ws = emitted(RandomDirectionGenerator(d_w, 1.5, seed), rounds)
    rng = np.random.default_rng(seed)
    for w in ws:
        z = rng.standard_normal(d_w)
        assert w.tobytes() == (1.5 * z / math.sqrt(z.dot(z))).tobytes()


class FlatStream:
    """An rng stand-in serving one fixed flat stream of numbers, shaped as asked."""

    def __init__(self, values):
        self.values, self.used = values, 0

    def standard_normal(self, size):
        n = int(np.prod(size))
        out = self.values[self.used : self.used + n].reshape(size)
        self.used += n
        return out


@pytest.mark.parametrize("d_w", [1, 2, 3])
def test_random_direction_resamples_a_zero_draw_from_the_next(d_w):
    values = np.concatenate([np.zeros(d_w), np.random.default_rng(d_w).standard_normal(999 * d_w)])
    gen = RandomDirectionGenerator(d_w, 2.0, seed=0)
    gen.rng = FlatStream(values)
    first, second = emitted(gen, 2)
    for w, z in ((first, values[d_w : 2 * d_w]), (second, values[2 * d_w : 3 * d_w])):
        assert w.tobytes() == (2.0 * z / math.sqrt(z.dot(z))).tobytes()


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
            sampled_sine_directions(cfg.d_w, stable_seed(cfg.base_seed, index, s, c, "sine"))
            for s in range(cfg.n_seeds) for c in cfg.controllers
        ])
        sampled = gram_scores(sys, cw, cfg.W_max, cfg.T, dirs, SINE_FREQS, SINE_PHASES)
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
    gen = sinusoid_generator(sys, cw, W_max=1.0, T=400)
    # Oracle: densely sweep frequencies with the steady-state amplification
    # of the resolvent and pick the best grid point.
    amps = [np.linalg.norm(np.linalg.inv(np.exp(1j * om) * np.eye(2) - sys.A)) for om in SINE_FREQS]
    assert gen.omega == pytest.approx(SINE_FREQS[int(np.argmax(amps))])
    assert abs(gen.omega - theta) <= (SINE_FREQS[1] - SINE_FREQS[0])


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
        sys, cw, hinf, update="motr", T=40, H=3, D_M=0.3, W_max=1.0, seed=7
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
        sys, cw, hinf, update="motr", T=40, H=2, D_M=1e-8, W_max=1.0, seed=3
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
            sys, cw, hinf, update="motr", T=60, H=3, D_M=0.3, W_max=1.0, seed=11
        )
        ws = drive(sys, gen, ctrl.act, 60, x0)
        return ws, gen

    ws_a, gen_a = run()
    ws_b, _ = run()
    assert np.array_equal(ws_a, ws_b)
    assert np.all(np.linalg.norm(ws_a, axis=1) <= 1.0 * (1.0 + 1e-9))
    assert np.linalg.norm(gen_a.M) <= 0.3 * (1.0 + 1e-9)


def test_adaptive_generator_names_the_round_that_failed(fail_fifth_rollout_quadratic):
    # A ValueError inside round 4's update comes out as a GeneratorError
    # that names the round and keeps the ValueError as its cause.
    sys, cw, hinf = make_setup(seed=6)
    ctrl = lqr_controller(sys, cw)
    gen = AdaptiveCdgGenerator(sys, cw, hinf, update="motr", T=60, H=3, D_M=0.3, W_max=1.0, seed=11)
    x = np.random.default_rng(2).standard_normal(4)
    for _ in range(4):
        u = ctrl.act(x)
        w = gen.emit(x)
        gen.observe(u)
        x = step(sys, x, u, w)
    gen.emit(x)
    with pytest.raises(GeneratorError, match="^round 4: rollout quadratic is not finite$") as failed:
        gen.observe(ctrl.act(x))
    assert isinstance(failed.value.__cause__, ValueError)


def test_oga_generator_budgeted_and_in_ball():
    sys, cw, hinf = make_setup(seed=7)
    gen = AdaptiveCdgGenerator(
        sys, cw, hinf, update="oga", T=60, H=3, D_M=0.3, W_max=1.0, seed=13
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
            sys, cw, hinf, update=update, T=50, H=3, D_M=0.3, W_max=1.0, seed=17
        )
        assert gen.name == update
        policies.append(gen.M)
        outs.append(drive(sys, gen, lambda x: -hinf.K @ x, 50, x0))
    assert np.array_equal(policies[0], policies[1])
    assert np.array_equal(outs[0], outs[1])
    with pytest.raises(ValueError):
        AdaptiveCdgGenerator(
            sys, cw, hinf, update="none", T=5, H=3, D_M=0.3, W_max=1.0, seed=0
        )


@pytest.mark.parametrize("update", ["motr", "oga"])
def test_round_emits_the_policy_of_the_recorded_residuals(update):
    # Every round emits W_max w/||w|| for w = sum_i M[i] r_{t-1-i} + W x_t,
    # recomputed here from the policy's blocks and the residuals
    # r = K x + u the test records, and every update leaves M in the D_M
    # ball.  M is a read-only view that the update does not overwrite.
    sys, cw, hinf = make_setup(seed=12, radius=0.8)
    H, D_M, W_max = 3, 0.3, 1.0
    gen = AdaptiveCdgGenerator(
        sys, cw, hinf, update=update, T=40, H=H, D_M=D_M, W_max=W_max, seed=21,
    )
    ctrl = lqr_controller(sys, cw)
    rng = np.random.default_rng(9)
    x, residuals, moved = rng.standard_normal(4), [], 0
    for _ in range(40):
        blocks = gen.M
        with pytest.raises(ValueError):
            blocks[0, 0, 0] = 1.0
        played = blocks.copy()
        w_hat = policy_sum(blocks, residuals[::-1]) + hinf.W @ x
        u = ctrl.act(x) + 0.1 * rng.standard_normal(2)
        w = gen.emit(x)
        expected = W_max * w_hat / np.linalg.norm(w_hat)
        np.testing.assert_allclose(w, expected, rtol=0.0, atol=1e-12)
        gen.observe(u)
        np.testing.assert_array_equal(blocks, played)
        moved += not np.array_equal(gen.M, played)
        residuals.append(hinf.K @ x + u)
        x = step(sys, x, u, w)
        assert np.linalg.norm(gen.M) <= D_M * (1.0 + 1e-12)
    assert moved > 0


def test_motr_against_the_equilibrium_controller_decomposes_once(monkeypatch):
    # Against u = -K x every rollout quadratic is exactly zero, so the
    # leader's quadratic part never changes: one eigendecomposition serves
    # all of an episode's plays.
    sys, cw, hinf = make_setup(seed=4)
    gen = AdaptiveCdgGenerator(
        sys, cw, hinf, update="motr", T=40, H=3, D_M=0.3, W_max=1.0, seed=7
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
        sys, cw, hinf, update="motr", T=80, H=3, D_M=0.3, W_max=1.0, seed=19
    )
    ctrl = lqr_controller(sys, cw)
    x0 = np.random.default_rng(5).standard_normal(4)
    drive(sys, gen, ctrl.act, 80, x0)
    hind, ach = gen.regret_pair()
    # The hindsight-best fixed policy upper-bounds any played sequence's
    # surrogate total, within a slack of 1/T per round (1.0 over the 80).
    assert hind >= ach - 1.0 - 1e-6


def test_motr_plays_the_doubled_leader_of_the_audited_sums(monkeypatch):
    # MOTR keeps its first play while it calibrates eta.  From round
    # _warmup_rounds on, every play maximizes z'(2 sum P)z + (sum p - sigma)'z
    # over the D_M ball, where sum P and sum p add up the blocks
    # P = G[:-1, :-1] and p = 2 G[:-1, -1] of the rounds' rollout costs G so
    # far, and the regret audit maximizes z'(sum P)z + (sum p)'z + sum G[-1, -1].
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
        sys, cw, hinf, update="motr", T=40, H=3, D_M=0.3, W_max=1.0, seed=7
    )
    assert gen.n == sigma.size and gen._warmup_rounds < 25
    first = CdgPolicy.vec(gen.M)
    ctrl = lqr_controller(sys, cw)
    x = np.random.default_rng(8).standard_normal(4)
    achieved = 0.0
    for t in range(25):
        u = ctrl.act(x)
        w = gen.emit(x)
        x = step(sys, x, u, w)
        played = CdgPolicy.vec(gen.M)
        gen.observe(u)
        achieved += gram_cost(seen[-1], played)
        P, p = sum(G[:-1, :-1] for G in seen), sum(2.0 * G[:-1, -1] for G in seen)
        if t < gen._warmup_rounds:
            np.testing.assert_array_equal(CdgPolicy.vec(gen.M), first)
            continue
        leader = tr_solve(TrustRegionProblem(2.0 * P, p - sigma, gen.D_M))
        np.testing.assert_allclose(CdgPolicy.vec(gen.M), leader.z, rtol=0.0, atol=1e-12)
    audit = TrustRegionProblem(P, p, gen.D_M)
    best = objective(audit, tr_solve(audit).z)
    hind, ach = gen.regret_pair()
    assert hind == pytest.approx(best + sum(G[-1, -1] for G in seen), rel=1e-12)
    assert ach == pytest.approx(achieved, rel=1e-12)

