import numpy as np
import pytest

from motrbench.trust_region import (
    TrustRegionProblem,
    brute_force,
    objective,
    solve,
    symmetric_eig,
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
    assert objective(prob, sol.z) == pytest.approx(2.0)
    assert sol.on_boundary


def test_solve_hard_case_zero_linear_term():
    prob = TrustRegionProblem(np.diag([1.0, -1.0]), np.zeros(2), 1.0)
    sol = solve(prob)
    assert sol.hard_case
    assert sol.on_boundary
    assert objective(prob, sol.z) == pytest.approx(1.0)
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
    assert objective(prob, sol.z) >= objective(prob, ref.z) - 1e-6


def test_solve_near_hard_case():
    prob = TrustRegionProblem(np.diag([2.0, -1.0]), np.array([1e-9, 0.5]), 1.0)
    sol = solve(prob)
    assert sol.on_boundary
    assert kkt_residual(prob, sol) < 1e-6 * (1.0 + np.linalg.norm(prob.p))
    ref = brute_force(prob, samples=200000)
    assert objective(prob, sol.z) >= objective(prob, ref.z) - 1e-6


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
    assert objective(prob, sol.z) == pytest.approx(0.0)
    assert np.linalg.norm(sol.z) <= 1.5 * (1 + 1e-9)


def test_solve_scalar_dimension():
    prob = TrustRegionProblem(np.array([[2.0]]), np.array([-0.5]), 1.0)
    sol = solve(prob)
    # max over [-1,1] of 2z^2 - 0.5z is at z = -1: value 2.5.
    assert objective(prob, sol.z) == pytest.approx(2.5)
    assert sol.z[0] == pytest.approx(-1.0)


def test_brute_force_linear_matches():
    prob = TrustRegionProblem(np.zeros((2, 2)), np.array([1.0, 0.0]), 2.0)
    ref = brute_force(prob, samples=5000)
    assert objective(prob, ref.z) == pytest.approx(2.0, abs=1e-3)


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
        assert objective(prob, ref.z) == pytest.approx(objective(prob, z0), rel=1e-12, abs=1e-12)


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
        sol = solve(prob)
        samples = 100000 if d == 2 else 1000000
        ref = brute_force(prob, samples=samples)
        value, ref_value = objective(prob, sol.z), objective(prob, ref.z)
        assert abs(value - ref_value) < 1e-4
        assert value >= ref_value - 1e-9
        assert np.linalg.norm(sol.z) <= prob.D * (1.0 + 1e-9)
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
        value = objective(prob, sol.z)
        assert objective(scaled, sol_c.z) == pytest.approx(c * value, rel=1e-6, abs=1e-9)
        # The scaled argmax is optimal for the original problem too.
        assert objective(prob, sol_c.z) >= value - 1e-6 * (1.0 + abs(value))


def test_monotone_in_radius():
    rng = np.random.default_rng(8)
    for _ in range(10):
        P = rng.uniform(-1.0, 1.0, size=(3, 3))
        p = rng.uniform(-1.0, 1.0, size=3)
        probs = [TrustRegionProblem(P, p, D) for D in (0.25, 0.5, 1.0, 2.0, 4.0)]
        values = [objective(prob, solve(prob).z) for prob in probs]
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
    best = info.value.best
    assert best is not None
    assert np.linalg.norm(best.z) <= prob.D * (1.0 + 1e-12)
    # The best iterate is z(nu) with the multiplier nu it was evaluated at,
    # so it satisfies the stationarity part of the KKT system.
    S = 0.5 * (prob.P + prob.P.T)
    kkt = np.linalg.norm(2.0 * S @ best.z + prob.p - 2.0 * best.multiplier * best.z)
    assert kkt <= 1e-12 * (np.linalg.norm(S, 2) * prob.D + np.linalg.norm(prob.p))


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
        # A non-finite p: an infinite one can leave the hard-case finish's
        # z finite, but not its multiplier.
        for P in (np.eye(3), -np.eye(3)):
            with np.errstate(invalid="ignore", divide="ignore"):
                with pytest.raises(tr.TrustRegionError, match="^non-finite solution"):
                    solve(TrustRegionProblem._unchecked(P, np.array([bad, 0.0, 0.0]), 1.0))
    # Finite entries whose products overflow.
    prob = TrustRegionProblem(1e308 * np.eye(2), np.array([1e308, 0.0]), 1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(tr.TrustRegionError, match="^non-finite solution"):
            solve(prob)


def same_solution(a, b):
    return (
        np.array_equal(a.z, b.z)
        and a.multiplier == b.multiplier
        and a.on_boundary == b.on_boundary
        and a.hard_case == b.hard_case
    )


@pytest.mark.parametrize("n", [3, 12, 64])
def test_solve_with_given_eigendecomposition_is_bit_identical(n):
    # A caller that keeps the eigendecomposition of P (OtrState) gets what
    # solve computes itself, bit for bit.
    for seed in range(3):
        random = ("random", random_problem(np.random.default_rng(seed), n, 1.0))
        for name, prob in [random, *certification_instances(n, seed)]:
            eig = np.linalg.eigh(0.5 * (prob.P + prob.P.T))
            assert same_solution(solve(prob, eig=eig), solve(prob)), f"{name} seed={seed}"


def test_solve_with_given_eigendecomposition_hard_case():
    # p orthogonal to the top eigenvector and the complement's solution
    # inside the ball: the hard case, which spends the rest of the radius
    # along the top eigenvector.
    prob = TrustRegionProblem(np.diag([-1.0, 0.0, 2.0]), np.array([1.0, 1.0, 0.0]), 10.0)
    reference = solve(prob)
    assert reference.hard_case
    assert same_solution(solve(prob, eig=symmetric_eig(prob.P)), reference)
    assert same_solution(solve(prob, eig=np.linalg.eigh(0.5 * (prob.P + prob.P.T))), reference)


def low_rank_instance(rng, n, r):
    """(problem, eig of S0, W) for S = S0 + F'F, S0 random PSD of rank n/2
    and F an (r, n) factor: solve's low_rank input W = F V."""
    A = rng.standard_normal((n, n // 2)) / np.sqrt(n)
    S0 = A @ A.T
    F = rng.standard_normal((r, n)) / np.sqrt(n)
    lam, V = symmetric_eig(S0)
    prob = TrustRegionProblem(S0 + F.T @ F, rng.standard_normal(n), 1.0)
    return prob, (lam, V), F @ V


def counting_decompositions(monkeypatch):
    """A list that gets one entry per symmetric_eig call inside solve."""
    import motrbench.trust_region as tr

    calls = []
    real = tr.symmetric_eig
    monkeypatch.setattr(tr, "symmetric_eig", lambda P: calls.append(P) or real(P))
    return calls


@pytest.mark.parametrize("r", [8, 16, 32])
def test_low_rank_solve_matches_a_fresh_decomposition(perfbench, monkeypatch, r):
    # On the kept decomposition of S0 plus the rows W, solve decomposes
    # nothing and agrees with the solve that decomposes S0 + W'W itself, to
    # 1e-10 relative in z and in the multiplier, and passes the More-Sorensen
    # certificate the benchmark applies.
    import checks

    n = 64
    for seed in range(3):
        prob, eig, W = low_rank_instance(np.random.default_rng(seed), n, r)
        fresh = solve(prob)
        calls = counting_decompositions(monkeypatch)
        sol = solve(prob, eig=eig, low_rank=W)
        monkeypatch.undo()
        assert calls == [], f"seed={seed}: the low-rank solve fell back"
        assert not sol.hard_case and sol.on_boundary
        assert np.linalg.norm(sol.z - fresh.z) <= 1e-10 * np.linalg.norm(fresh.z)
        assert abs(sol.multiplier - fresh.multiplier) <= 1e-10 * abs(fresh.multiplier)
        problem, residual = checks.certificate(prob.P, prob.p, prob.D, sol.z, sol.multiplier)
        assert problem is None, f"seed={seed}: {problem}"
        assert residual <= 1e-12


def test_low_rank_solve_falls_back_in_the_hard_case(monkeypatch):
    # p orthogonal to the top eigenvector of S = S0 + W'W, with the
    # complement's solution inside the ball: the low-rank iteration cannot
    # certify a multiplier above lambda_max(S), so solve decomposes prob.P
    # afresh and returns the eig-free path's solution, bit for bit.
    n = 64
    prob, eig, W = low_rank_instance(np.random.default_rng(7), n, 16)
    lam_S, U = symmetric_eig(prob.P)
    p = U[:, :-1] @ (1e-3 * np.random.default_rng(8).standard_normal(n - 1))
    prob = TrustRegionProblem(prob.P, p, 10.0)
    reference = solve(prob)
    assert reference.hard_case
    calls = counting_decompositions(monkeypatch)
    sol = solve(prob, eig=eig, low_rank=W)
    assert len(calls) == 1
    assert same_solution(sol, reference)


def counting_choleskys(monkeypatch):
    """A list that gets True or False per Cholesky factorization inside
    solve: whether it certified its nu."""
    outcomes = []
    real = np.linalg.cholesky

    def cholesky(C):
        try:
            L = real(C)
        except np.linalg.LinAlgError:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return L

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    return outcomes


def wide_low_rank_instance(seed, r, D=10.0):
    """low_rank_instance with a radius of 10: nu then lies near lambda_max(S),
    where the Woodbury iteration's first Newton steps can leave the region
    its Cholesky factorization certifies."""
    prob, eig, W = low_rank_instance(np.random.default_rng(seed), 64, r)
    return TrustRegionProblem(prob.P, prob.p, D), eig, W


def test_low_rank_solve_converges_after_an_uncertified_iterate(perfbench, monkeypatch):
    # A Newton step below lambda_max(S) fails the Cholesky factorization,
    # which raises the bracket's lower end to that nu and bisects; the
    # iteration then converges without decomposing prob.P.
    import checks

    for seed in range(3):
        prob, eig, W = wide_low_rank_instance(seed, 16)
        fresh = solve(prob)
        calls = counting_decompositions(monkeypatch)
        choleskys = counting_choleskys(monkeypatch)
        sol = solve(prob, eig=eig, low_rank=W)
        monkeypatch.undo()
        assert calls == [], f"seed={seed}: the low-rank solve fell back"
        assert choleskys[0] and not all(choleskys), f"seed={seed}: no uncertified iterate"
        assert not sol.hard_case and sol.on_boundary
        assert np.linalg.norm(sol.z - fresh.z) <= 1e-10 * np.linalg.norm(fresh.z)
        assert abs(sol.multiplier - fresh.multiplier) <= 1e-10 * abs(fresh.multiplier)
        problem, residual = checks.certificate(prob.P, prob.p, prob.D, sol.z, sol.multiplier)
        assert problem is None, f"seed={seed}: {problem}"
        assert residual <= 1e-12


def test_low_rank_solve_falls_back_on_an_exhausted_bracket(monkeypatch):
    # A near-hard instance: the bracket closes on lambda_max(S) before ||z||
    # meets the radius.  The Woodbury iteration, certified at the top of its
    # bracket, gives up there; solve decomposes prob.P once and returns the
    # eig-free path's near-hard solution, bit for bit.
    prob, eig, W = wide_low_rank_instance(12, 16)
    reference = solve(prob)
    assert reference.hard_case
    calls = counting_decompositions(monkeypatch)
    choleskys = counting_choleskys(monkeypatch)
    sol = solve(prob, eig=eig, low_rank=W)
    assert choleskys[0], "the top of the bracket was not certified"
    assert len(calls) == 1
    assert same_solution(sol, reference)


def test_low_rank_solve_at_the_iteration_cap(monkeypatch):
    # The Woodbury iteration starts higher than the eig-free one and takes
    # more steps.  With a cap that the eig-free iteration meets and the
    # Woodbury one does not, solve falls back and returns the eig-free
    # solution bit for bit; with a cap neither meets, it raises the
    # eig-free path's error with its best iterate.
    import motrbench.trust_region as tr

    prob, eig, W = wide_low_rank_instance(0, 16)

    def converges(cap):
        monkeypatch.setattr(tr, "_SECULAR_MAX_ITER", cap)
        try:
            solve(prob)
        except tr.TrustRegionError:
            return False
        return True

    cap = next(cap for cap in range(1, tr._SECULAR_MAX_ITER) if converges(cap))
    monkeypatch.setattr(tr, "_SECULAR_MAX_ITER", cap)
    reference = solve(prob)
    calls = counting_decompositions(monkeypatch)
    assert same_solution(solve(prob, eig=eig, low_rank=W), reference)
    assert len(calls) == 1

    monkeypatch.setattr(tr, "_SECULAR_MAX_ITER", 1)
    with pytest.raises(tr.TrustRegionError, match="did not converge") as info:
        solve(prob, eig=eig, low_rank=W)
    assert len(calls) == 2
    assert np.linalg.norm(info.value.best.z) <= prob.D * (1.0 + 1e-12)
