"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  The benchmark-scale criteria share cached results through module
fixtures so the full grid is executed exactly twice (once serially for the
scores, once on two worker processes for the byte-identity rerun).
"""

import time

import numpy as np
import pytest

from motrbench.bench import ExperimentConfig, normalize_scores, run_grid, write_outputs
from motrbench.cdg import CdgPolicy, affine_state_map, project_frobenius, rollout_cost_quadratic, unroll_map
from motrbench.controllers import hinf_bisection, solve_dare, solve_hinf_game
from motrbench.generators import transform_residual
from motrbench.lds import (
    CostWeights,
    LinearSystem,
    analyze_stability,
    random_system,
    stage_cost,
    step,
    truncation_horizon,
)
from motrbench.online import default_perturbation_rate, play_sequence, regret_audit
from motrbench.trust_region import TrustRegionProblem, brute_force, objective, solve as tr_solve
from policy_oracle import gram_cost, memory_quadratic, policy_sum


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ----------------------------------------------------------------------
# Independent oracles, kept local to the acceptance module.

def oracle_unroll(sys, x_past, block_lists, window):
    """Step-by-step simulation of the H+1-step unroll; block_lists holds the
    per-step policy blocks, oldest step first."""
    H = len(block_lists[0])
    x = np.array(x_past, dtype=float)
    for j, blocks in enumerate(block_lists):
        a = H - j
        w = policy_sum(blocks, window[a + 1 : a + H + 1])
        x = sys.A @ x + sys.B @ window[a] + sys.C @ w
    return x


def oracle_rollout_cost(sys, cw, window, u_now, H, blocks):
    y = oracle_unroll(sys, np.zeros(sys.d_x), [blocks] * (H + 1), window)
    return float(y @ cw.Q @ y + u_now @ cw.R @ u_now)


# ----------------------------------------------------------------------
# Shared fixtures.

CRIT3_TRIALS = 50


@pytest.fixture(scope="module")
def crit3_runs():
    """Frozen (system, window, policy) triples in the identity-disturbance-map
    setting the coefficient-bound statement assumes."""
    rng = np.random.default_rng(0)
    runs = []
    for trial in range(CRIT3_TRIALS):
        base = random_system(4, 2, 4, seed=3000 + trial, target_radius=0.6)
        sys = LinearSystem(base.A, base.B, np.eye(4))
        cw = CostWeights(np.eye(4), np.eye(2))
        H = int(rng.integers(1, 6))
        window = rng.standard_normal((2 * H + 1, 2))
        u_now = rng.standard_normal(2)
        G = rollout_cost_quadratic(unroll_map(sys, H), cw, window.ravel(), u_now)
        pol = project_frobenius(np.array([rng.standard_normal((4, 2)) for _ in range(H)]), 1.0)
        runs.append((sys, cw, window, u_now, H, G, pol))
    return runs


@pytest.fixture(scope="module")
def benchmark_results(tmp_path_factory):
    config = ExperimentConfig()
    t0 = time.perf_counter()
    records, failures = run_grid(config, jobs=1)
    elapsed = time.perf_counter() - t0
    assert not failures, f"episodes failed: {failures[:3]}"
    out_dir = tmp_path_factory.mktemp("bench")
    runs_path = write_outputs(records, config, str(out_dir))
    return {
        "config": config,
        "records": records,
        "elapsed": elapsed,
        "runs_path": runs_path,
        "table": normalize_scores(records),
    }


# ----------------------------------------------------------------------
# Criteria.

def test_criterion_1_trust_region_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    radii = [0.5, 1.0, 2.0]
    worst_gap = -np.inf
    worst_kkt = 0.0
    for i in range(100):
        d = 2 + (i % 2)
        P = rng.uniform(-1.0, 1.0, size=(d, d))
        p = rng.uniform(-1.0, 1.0, size=d)
        prob = TrustRegionProblem(P, p, radii[i % 3])
        sol = tr_solve(prob)
        ref = brute_force(prob, samples=20000 if d == 2 else 60000)
        worst_gap = max(worst_gap, objective(prob, ref.z) - objective(prob, sol.z))
        S = 0.5 * (P + P.T)
        kkt = float(
            np.linalg.norm(2.0 * S @ sol.z + p - 2.0 * sol.multiplier * sol.z)
            / (1.0 + np.linalg.norm(p))
        )
        worst_kkt = max(worst_kkt, kkt)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-4 and worst_kkt <= 1e-6 and elapsed < 5.0
    report(
        1,
        ok,
        f"solver vs sampling oracle on 100 instances: worst gap {worst_gap:.2e} "
        f"(tol 1e-4), worst KKT residual {worst_kkt:.2e} (tol 1e-6), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_transfer_calibration():
    # Truncated-unroll calibration: affine_state_map's y = T vec(M) + b for
    # one policy repeated over the H+1 steps from a zero start.
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(100):
        d_x, d_u, d_w = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        H = int(rng.integers(1, 5))
        sys = random_system(d_x, d_u, d_w, seed=5000 + case, target_radius=0.85)
        pol = np.array([0.5 * rng.standard_normal((d_w, d_u)) for _ in range(H)])
        window = rng.standard_normal((2 * H + 1, d_u))
        T, b = affine_state_map(unroll_map(sys, H), window)
        got = T @ CdgPolicy.vec(pol) + b
        ref = oracle_unroll(sys, np.zeros(d_x), [pol] * (H + 1), window)
        worst = max(worst, float(np.linalg.norm(got - ref) / max(1.0, np.linalg.norm(ref))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(
        2,
        ok,
        f"truncated unroll vs direct simulation on 100 cases: worst relative "
        f"error {worst:.2e} (tol 1e-9), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_closed_form_oracle(crit3_runs):
    t0 = time.perf_counter()
    worst_eval = 0.0
    worst_fd = 0.0
    for sys, cw, window, u_now, H, G, pol in crit3_runs:
        got = gram_cost(G, CdgPolicy.vec(pol))
        ref = oracle_rollout_cost(sys, cw, window, u_now, H, pol)
        worst_eval = max(worst_eval, abs(got - ref) / max(1e-12, abs(ref)))

        # The Hessian P + P' and gradient p = 2q of the cost at the zero
        # policy, from G's blocks P = G[:-1, :-1] and q = G[:-1, -1].
        P, p = G[:-1, :-1], 2.0 * G[:-1, -1]
        n = p.size
        hess = P + P.T
        h = 1e-4

        def g_of(v):
            return oracle_rollout_cost(sys, cw, window, u_now, H, CdgPolicy.from_vec(v, H, 4, 2))

        scale_h = max(1.0, float(np.max(np.abs(hess))))
        scale_g = max(1.0, float(np.max(np.abs(p))))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            fd = (g_of(e) - g_of(-e)) / (2.0 * h)
            worst_fd = max(worst_fd, abs(fd - p[k]) / scale_g)
        for k in range(n):
            ek = np.zeros(n)
            ek[k] = h
            for l in range(k, n):
                el = np.zeros(n)
                el[l] = h
                fd = (g_of(ek + el) - g_of(ek - el) - g_of(-ek + el) + g_of(-ek - el)) / (
                    4.0 * h * h
                )
                worst_fd = max(worst_fd, abs(fd - hess[k, l]) / scale_h)
    elapsed = time.perf_counter() - t0
    ok = worst_eval <= 1e-8 and worst_fd <= 1e-4 and elapsed < 30.0
    report(
        3,
        ok,
        f"closed form vs rollout on {CRIT3_TRIALS} triples: worst eval error {worst_eval:.2e} "
        f"(tol 1e-8), worst finite-difference error {worst_fd:.2e} (tol 1e-4), "
        f"{elapsed:.2f}s (< 30s)",
    )


def test_criterion_4_approximation_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    T = 200
    D, C_u = 1.0, 1.0
    worst_ratio = 0.0
    for trial in range(20):
        sys = random_system(4, 2, 2, seed=4000 + trial, target_radius=0.8)
        rep = analyze_stability(sys)
        assert rep.is_strongly_stable
        cw = CostWeights(np.eye(4), np.eye(2))
        H = truncation_horizon(rep.kappa, rep.gamma, cw.xi, T)
        pol = project_frobenius(np.array([rng.standard_normal((2, 2)) for _ in range(H)]), D)
        controls = []
        for _ in range(T):
            u = rng.standard_normal(2)
            controls.append(C_u * u / np.linalg.norm(u))
        x = np.zeros(4)
        xs = [x]
        for t in range(T):
            past = [controls[t - i] if t - i >= 0 else np.zeros(2) for i in range(1, H + 1)]
            x = step(sys, x, controls[t], policy_sum(pol, past))
            xs.append(x)
        unroll = unroll_map(sys, H)
        C_x = 2.0 * rep.beta * H * D * C_u / rep.gamma
        bound = C_x / T
        for t in range(H + 2, T):
            window = [controls[t - 1 - i] if t - 1 - i >= 0 else np.zeros(2) for i in range(2 * H + 1)]
            T_y, b_y = affine_state_map(unroll, np.array(window))
            y = T_y @ CdgPolicy.vec(pol) + b_y
            gap = abs(stage_cost(cw, xs[t], controls[t]) - stage_cost(cw, y, controls[t]))
            worst_ratio = max(worst_ratio, gap / bound)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1.0 + 1e-6 and elapsed < 30.0
    report(
        4,
        ok,
        f"cost-approximation gap on 20 stationary runs: worst |c_t - f_t| at "
        f"{worst_ratio:.4f} of the C_x/T bound (must be <= 1), {elapsed:.2f}s (< 30s)",
    )


def test_criterion_5_coefficient_bounds(crit3_runs):
    worst_P = 0.0
    worst_p = 0.0
    for sys, cw, window, u_now, H, G, _ in crit3_runs:
        rep = analyze_stability(sys)
        C_u = float(np.max(np.linalg.norm(window, axis=1)))
        bound_P = cw.xi * C_u**2 * rep.kappa**2
        bound_p = bound_P * rep.beta
        worst_P = max(worst_P, float(np.max(np.abs(G[:-1, :-1]))) / bound_P)
        worst_p = max(worst_p, float(np.max(np.abs(2.0 * G[:-1, -1]))) / bound_p)
    ok = worst_P <= 1.0 and worst_p <= 1.0
    report(
        5,
        ok,
        f"coefficient bounds on the criterion-3 runs: max|P| at {worst_P:.3f} of "
        f"xi*C_u^2*kappa^2 and max|p| at {worst_p:.3f} of xi*C_u^2*kappa^2*beta (must be <= 1)",
    )


def test_criterion_6_otr_regret():
    t0 = time.perf_counter()
    d, H, D, R = 4, 3, 1.0, 1.0
    n = d * H
    grid = [250, 500, 1000, 2000, 4000]
    means = []
    for T in grid:
        regs = []
        for s in range(10):
            rng = np.random.default_rng(1000 + s)
            hist = [
                memory_quadratic(rng.uniform(-R, R, (n, n)), rng.uniform(-R, R, n), 0.0, d, H)
                for _ in range(T)
            ]
            eta = default_perturbation_rate(R, d, D, H, T)
            plays = play_sequence(hist, D, eta, seed=7000 + s)
            hind, ach = regret_audit(hist, plays, D)
            regs.append(hind - ach)
        means.append(float(np.mean(regs)))
    slope = float(np.polyfit(np.log(grid), np.log(means), 1)[0])
    per_round = [m / T for m, T in zip(means, grid)]
    monotone = all(b < a for a, b in zip(per_round, per_round[1:]))
    elapsed = time.perf_counter() - t0
    ok = slope <= 0.65 and monotone and elapsed < 300.0
    report(
        6,
        ok,
        f"OTR regret over T={grid}: log-log slope {slope:.3f} (<= 0.65), regret/T "
        f"{['%.4f' % p for p in per_round]} monotone={monotone}, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_7_hinf_sanity():
    t0 = time.perf_counter()
    worst_gain_gap = 0.0
    all_ok = True
    for seed in range(10):
        sys = random_system(4, 2, 2, seed=seed, target_radius=0.9)
        cw = CostWeights(np.eye(4), np.eye(2))
        _, K_lqr = solve_dare(sys, cw)
        big = solve_hinf_game(sys, cw, 1e6)
        worst_gain_gap = max(worst_gain_gap, float(np.max(np.abs(big.K - K_lqr))))
        sol = hinf_bisection(sys, cw)
        feasible = solve_hinf_game(sys, cw, sol.gamma_star) is not None
        game_stable = (
            float(np.max(np.abs(np.linalg.eigvals(sys.A - sys.B @ sol.K + sys.C @ sol.W)))) < 1.0
        )
        residual_stable = analyze_stability(transform_residual(sys, sol)).spectral_radius < 1.0
        all_ok = all_ok and feasible and game_stable and residual_stable
    elapsed = time.perf_counter() - t0
    ok = worst_gain_gap <= 1e-6 and all_ok and elapsed < 60.0
    report(
        7,
        ok,
        f"game at gamma=1e6 matches the Riccati gain to {worst_gain_gap:.2e} (tol 1e-6); "
        f"bisected gamma* feasible and stable on 10 systems: {all_ok}; {elapsed:.1f}s (< 60s)",
    )


def test_criterion_8_benchmark_table(benchmark_results):
    table = benchmark_results["table"]
    elapsed = benchmark_results["elapsed"]
    r = table.ratio
    a_ok = r["hinf"]["motr"][0] >= 0.95 * r["hinf"]["hinf"][0]
    b_ratios = {}
    b_ok = True
    for ctrl in ("lqr", "gpc"):
        for g in ("random", "sine", "gaussian"):
            ratio = r[ctrl]["motr"][0] / r[ctrl][g][0]
            b_ratios[f"{ctrl}/{g}"] = round(ratio, 2)
            b_ok = b_ok and ratio >= 1.2
    top = max(v[0] for v in r["hinf"].values())
    c_ok = r["hinf"]["hinf"][0] >= 0.95 * top
    ok = a_ok and b_ok and c_ok and elapsed < 1200.0
    report(
        8,
        ok,
        f"benchmark table ({table.n_systems} systems x {table.n_seeds} seeds, T=200): "
        f"(a) motr vs hinf-ctrl {r['hinf']['motr'][0]:.3f} >= 0.95*{r['hinf']['hinf'][0]:.3f}: {a_ok}; "
        f"(b) motr/baseline ratios {b_ratios} all >= 1.2: {b_ok}; "
        f"(c) hinf top-or-tied vs hinf-ctrl: {c_ok}; "
        f"runtime {elapsed:.0f}s (< 1200s)",
    )


def test_criterion_9_determinism(benchmark_results, tmp_path):
    # The rerun goes through the process pool, so one byte comparison with
    # the serial run checks both rerun determinism and --jobs invariance.
    config = benchmark_results["config"]
    records2, failures2 = run_grid(config, jobs=2)
    assert not failures2
    path2 = write_outputs(records2, config, str(tmp_path / "rerun"))
    bytes_a = open(benchmark_results["runs_path"], "rb").read()
    bytes_b = open(path2, "rb").read()
    grid_ok = bytes_a == bytes_b

    # The solver and learner suites are deterministic under fixed seeds too.
    rng = np.random.default_rng(1)
    prob = TrustRegionProblem(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3), 1.0)
    solver_ok = tr_solve(prob).z.tobytes() == tr_solve(prob).z.tobytes()

    def one_otr():
        r = np.random.default_rng(2024)
        hist = [
            memory_quadratic(r.uniform(-1, 1, (12, 12)), r.uniform(-1, 1, 12), 0.0, 4, 3)
            for _ in range(250)
        ]
        plays = play_sequence(hist, 1.0, 0.01, seed=9)
        return regret_audit(hist, plays, 1.0)

    otr_ok = one_otr() == one_otr()
    ok = grid_ok and solver_ok and otr_ok
    report(
        9,
        ok,
        f"rerun determinism: benchmark JSONL of a jobs=2 rerun byte-identical={grid_ok}, solver "
        f"byte-identical={solver_ok}, learner audit identical={otr_ok}",
    )
