import numpy as np
import pytest

from motrbench.trust_region import (
    TrustRegionProblem,
    brute_force,
    objective,
    solve,
)


def random_problem(rng, d, D):
    P = rng.uniform(-1.0, 1.0, size=(d, d))
    p = rng.uniform(-1.0, 1.0, size=d)
    return TrustRegionProblem(P, p, D)


def kkt_residual(prob, sol):
    S = 0.5 * (prob.P + prob.P.T)
    return np.linalg.norm(2.0 * S @ sol.z + prob.p - 2.0 * sol.multiplier * sol.z)


def test_solve_linear_objective():
    prob = TrustRegionProblem(np.zeros((2, 2)), np.array([1.0, 0.0]), 2.0)
    sol = solve(prob)
    assert np.allclose(sol.z, [2.0, 0.0], atol=1e-9)
    assert sol.value == pytest.approx(2.0)
    assert sol.on_boundary


def test_solve_hard_case_zero_linear_term():
    prob = TrustRegionProblem(np.diag([1.0, -1.0]), np.zeros(2), 1.0)
    sol = solve(prob)
    assert sol.hard_case
    assert sol.on_boundary
    assert sol.value == pytest.approx(1.0)
    assert abs(abs(sol.z[0]) - 1.0) < 1e-9 and abs(sol.z[1]) < 1e-9
    assert sol.multiplier == pytest.approx(1.0)


def test_solve_hard_case_orthogonal_linear_term():
    # p lives entirely off the top eigenspace.
    prob = TrustRegionProblem(np.diag([2.0, -1.0]), np.array([0.0, 0.5]), 1.0)
    sol = solve(prob)
    assert sol.hard_case
    assert sol.on_boundary
    assert kkt_residual(prob, sol) < 1e-6 * (1.0 + np.linalg.norm(prob.p))
    ref = brute_force(prob, samples=200000)
    assert sol.value >= ref.value - 1e-6


def test_solve_near_hard_case():
    prob = TrustRegionProblem(np.diag([2.0, -1.0]), np.array([1e-9, 0.5]), 1.0)
    sol = solve(prob)
    assert sol.on_boundary
    assert kkt_residual(prob, sol) < 1e-6 * (1.0 + np.linalg.norm(prob.p))
    ref = brute_force(prob, samples=200000)
    assert sol.value >= ref.value - 1e-6


def test_solve_interior():
    prob = TrustRegionProblem(np.diag([-1.0, -2.0]), np.array([0.2, 0.0]), 5.0)
    sol = solve(prob)
    # 2Sz + p = 0 -> z = (0.1, 0).
    assert np.allclose(sol.z, [0.1, 0.0], atol=1e-12)
    assert not sol.on_boundary
    assert sol.multiplier == 0.0
    assert kkt_residual(prob, sol) < 1e-10


def test_solve_all_zero():
    prob = TrustRegionProblem(np.zeros((3, 3)), np.zeros(3), 1.5)
    sol = solve(prob)
    assert sol.value == pytest.approx(0.0)
    assert np.linalg.norm(sol.z) <= 1.5 * (1 + 1e-9)


def test_solve_scalar_dimension():
    prob = TrustRegionProblem(np.array([[2.0]]), np.array([-0.5]), 1.0)
    sol = solve(prob)
    # max over [-1,1] of 2z^2 - 0.5z is at z = -1: value 2.5.
    assert sol.value == pytest.approx(2.5)
    assert sol.z[0] == pytest.approx(-1.0)


def test_brute_force_linear_matches():
    prob = TrustRegionProblem(np.zeros((2, 2)), np.array([1.0, 0.0]), 2.0)
    ref = brute_force(prob, samples=5000)
    assert ref.value == pytest.approx(2.0, abs=1e-3)


def test_brute_force_interior_matches_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        Droot = rng.uniform(0.5, 1.5, size=(3, 3))
        S = -(Droot @ Droot.T) - 0.5 * np.eye(3)  # negative definite
        p = 0.05 * rng.standard_normal(3)
        prob = TrustRegionProblem(S, p, 2.0)
        z0 = np.linalg.solve(-2.0 * S, p)
        assert np.linalg.norm(z0) < 2.0
        ref = brute_force(prob, samples=2000)
        assert ref.value == pytest.approx(objective(prob, z0), rel=1e-12, abs=1e-12)


def test_brute_force_argument_errors():
    prob5 = TrustRegionProblem(np.eye(5), np.zeros(5), 1.0)
    with pytest.raises(ValueError):
        brute_force(prob5, samples=2000)
    prob2 = TrustRegionProblem(np.eye(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        brute_force(prob2, samples=10)


def test_random_suite_against_sampling_oracle():
    rng = np.random.default_rng(42)
    radii = [0.5, 1.0, 2.0]
    for i in range(100):
        d = 2 + (i % 2)
        prob = random_problem(rng, d, radii[i % 3])
        sol = solve(prob, eps=1e-9)
        samples = 100000 if d == 2 else 1000000
        ref = brute_force(prob, samples=samples)
        assert abs(sol.value - ref.value) < 1e-4
        assert sol.value >= ref.value - 1e-9
        assert np.linalg.norm(sol.z) <= prob.D * (1.0 + 1e-9)
        assert abs(sol.value - objective(prob, sol.z)) <= 1e-9 * (1.0 + abs(sol.value))
        if sol.on_boundary:
            S = 0.5 * (prob.P + prob.P.T)
            assert kkt_residual(prob, sol) <= 1e-6 * (1.0 + np.linalg.norm(prob.p))
            assert sol.multiplier >= np.linalg.eigvalsh(S)[-1] - 1e-8
            assert sol.multiplier >= -1e-12


def test_scale_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        prob = random_problem(rng, 3, 1.0)
        sol = solve(prob)
        c = 7.5
        scaled = TrustRegionProblem(c * prob.P, c * prob.p, prob.D)
        sol_c = solve(scaled)
        assert sol_c.value == pytest.approx(c * sol.value, rel=1e-6, abs=1e-9)
        # The scaled argmax is optimal for the original problem too.
        assert objective(prob, sol_c.z) >= sol.value - 1e-6 * (1.0 + abs(sol.value))


def test_monotone_in_radius():
    rng = np.random.default_rng(8)
    for _ in range(10):
        P = rng.uniform(-1.0, 1.0, size=(3, 3))
        p = rng.uniform(-1.0, 1.0, size=3)
        values = [solve(TrustRegionProblem(P, p, D)).value for D in (0.25, 0.5, 1.0, 2.0, 4.0)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-10


def test_problem_validation():
    with pytest.raises(ValueError):
        TrustRegionProblem(np.eye(2), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        TrustRegionProblem(np.eye(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        TrustRegionProblem(np.full((2, 2), np.nan), np.zeros(2), 1.0)


def certification_instances(n, seed):
    """Seeded (name, problem) pairs of the kinds the pipeline can produce at
    dimension n: near-hard, rank-deficient and badly scaled."""
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.sort(rng.uniform(-1.0, 1.0, n))
    lam[-1] = 1.5
    # p almost orthogonal to the top eigenvector, radius past the
    # hard-case threshold.
    p = V[:, :-1] @ (0.1 * rng.standard_normal(n - 1)) + 1e-11 * V[:, -1]
    yield "near-hard", TrustRegionProblem(V @ np.diag(lam) @ V.T, p, 5.0)
    G = rng.standard_normal((n, n // 3))
    skew = rng.standard_normal((n, n))
    yield "rank-deficient PSD", TrustRegionProblem(G @ G.T + skew - skew.T, rng.standard_normal(n), 1.0)
    yield "rank-deficient NSD", TrustRegionProblem(-G @ G.T, 1e-3 * (G @ rng.standard_normal(n // 3)), 2.0)
    s = np.logspace(-3.0, 3.0, n)  # entries from 1e-6 to 1e6
    R = rng.uniform(-1.0, 1.0, (n, n))
    yield "badly scaled", TrustRegionProblem(s[:, None] * R * s[None, :], s * rng.standard_normal(n), 1.0)
    yield "badly scaled, small radius", TrustRegionProblem(
        -(s[:, None] * np.eye(n) * s[None, :]), s * rng.standard_normal(n), 1e-3
    )


@pytest.mark.parametrize("n", [12, 64])
def test_solver_certified_at_pipeline_sizes(perfbench, n):
    # The certificate the benchmark applies to every solve of a traced run:
    # ||z|| <= D, nu >= max(0, lambda_max(S)), and a KKT residual of
    # 2 S z + p = 2 nu z at most 1e-9 (||S|| D + ||p||).
    import checks

    for seed in range(5):
        for name, prob in certification_instances(n, seed):
            sol = solve(prob)
            problem, residual = checks.certificate(prob.P, prob.p, prob.D, sol.z, sol.multiplier)
            assert problem is None, f"n={n} seed={seed} {name}: {problem}"
            assert residual <= 1e-9


def test_secular_failure_raises_with_best_iterate(monkeypatch):
    import motrbench.trust_region as tr

    prob = TrustRegionProblem(np.diag([1.0, -2.0, 0.5]), np.array([1.0, 0.3, -0.7]), 1.0)
    monkeypatch.setattr(tr, "_SECULAR_MAX_ITER", 1)
    with pytest.raises(tr.TrustRegionError, match="did not converge") as info:
        solve(prob)
    assert info.value.best is not None
    assert np.linalg.norm(info.value.best.z) <= prob.D * (1.0 + 1e-12)


def test_non_finite_coefficients_raise_instead_of_returning_nan():
    # The learner builds its per-round problems without the constructor's
    # finiteness check; a NaN that eigh passes through must not become a
    # silent NaN play.
    import motrbench.trust_region as tr

    for bad in (np.nan, np.inf):
        P = np.eye(3)
        P[0, 1] = bad
        with pytest.raises(tr.TrustRegionError):
            solve(TrustRegionProblem._unchecked(P, np.ones(3), 1.0))
