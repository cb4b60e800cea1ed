import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from amrb import (
    LcpProblem,
    NumericalBreakdownError,
    SchemeConfig,
    SolverDivergenceError,
    Trajectory,
    Tridiagonal,
    assemble_operators,
    build_mesh,
    obstacle_data,
    sample_training_set,
    solve_lcp,
    solve_trajectory,
    theta_step,
    trajectory_residuals,
    write_trajectory_csv,
)
from amrb.fem import ObstacleData
from amrb.textio import fmt
from amrb.truth import LcpStep
import amrb.truth as truth_mod

from conftest import dense


def lcp_by_enumeration(S, rhs, obstacle, tol=1e-11):
    """Exhaustive active-set oracle: try every subset, return the feasible one."""
    S = np.asarray(S, dtype=float)
    n = rhs.size
    for mask in range(2 ** n):
        active = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        u = np.empty(n)
        u[active] = obstacle[active]
        ix = np.flatnonzero(~active)
        if ix.size:
            shifted = rhs - S @ np.where(active, obstacle, 0.0)
            try:
                u[ix] = np.linalg.solve(S[np.ix_(ix, ix)], shifted[ix])
            except np.linalg.LinAlgError:
                continue
        lam = S @ u - rhs
        lam[~active] = 0.0
        if lam[active].min(initial=0.0) >= -tol and (u - obstacle)[ix].min(initial=0.0) >= -tol:
            return u, lam
    return None


def random_spd_lcp(rng, n):
    A = rng.normal(size=(n, n))
    S = A.T @ A + n * np.eye(n)
    return LcpProblem(S=S, rhs=rng.normal(size=n) * n, obstacle=rng.normal(size=n))


# ---------------------------------------------------------------------------
# configuration and problem types


def test_scheme_config():
    cfg = SchemeConfig(T=1.0, L=20, theta=0.5)
    assert abs(cfg.delta_t * cfg.L - cfg.T) <= 1e-14
    for bad in [dict(T=0.0, L=20, theta=0.5), dict(T=1.0, L=0, theta=0.5),
                dict(T=1.0, L=20, theta=1.5), dict(T=1.0, L=20, theta=-0.1)]:
        with pytest.raises(ValueError):
            SchemeConfig(**bad)


def test_lcp_problem_validation():
    with pytest.raises(ValueError):
        LcpProblem(S=np.array([[1.0, 0.0], [0.0, -1.0]]), rhs=np.zeros(2),
                   obstacle=np.zeros(2))
    with pytest.raises(ValueError):
        LcpProblem(S=np.eye(3), rhs=np.zeros(2), obstacle=np.zeros(3))
    for shape in ((3, 4), (4, 3)):
        with pytest.raises(ValueError, match="inconsistent LCP dimensions"):
            LcpProblem(S=np.eye(*shape), rhs=np.zeros(3), obstacle=np.zeros(3))


def test_lcp_problem_rejects_non_finite_inputs():
    banded = Tridiagonal(np.full(2, -1.0), np.full(3, 4.0), np.full(2, -1.0))
    for S in (np.eye(3) * 4.0, banded):
        with pytest.raises(ValueError, match="must be finite"):
            LcpProblem(S=S, rhs=np.array([1.0, np.nan, 0.0]), obstacle=np.zeros(3))
        with pytest.raises(ValueError, match="must be finite"):
            LcpProblem(S=S, rhs=np.zeros(3), obstacle=np.array([0.0, -np.inf, 0.0]))
    with pytest.raises(ValueError, match="must be finite"):
        LcpProblem(S=np.array([[1.0, np.inf], [0.0, 1.0]]), rhs=np.zeros(2), obstacle=np.zeros(2))
    with pytest.raises(ValueError, match="must be finite"):
        LcpProblem(S=Tridiagonal(np.array([np.nan]), np.ones(2), np.zeros(1)),
                   rhs=np.zeros(2), obstacle=np.zeros(2))


def test_lcp_step_checks_vectors_only():
    # the trajectory checks the matrix once; each step still checks its vectors
    S = np.array([[1.0, 0.0], [0.0, -1.0]])
    LcpStep(S=S, rhs=np.zeros(2), obstacle=np.zeros(2))
    with pytest.raises(ValueError, match="must be finite"):
        LcpStep(S=np.eye(2), rhs=np.array([np.inf, 0.0]), obstacle=np.zeros(2))
    with pytest.raises(ValueError, match="inconsistent LCP dimensions"):
        LcpStep(S=np.eye(2), rhs=np.zeros(3), obstacle=np.zeros(2))


def test_trajectory_checks_its_matrix_once(default_ops, default_scheme, mu0, monkeypatch):
    calls = []
    check = truth_mod.check_lcp_matrix
    monkeypatch.setattr(truth_mod, "check_lcp_matrix", lambda S: calls.append(1) or check(S))
    traj = solve_trajectory(mu0, default_ops, obstacle_data(default_ops.mesh, mu0.K),
                            default_scheme)
    assert len(calls) == 1
    assert traj.pdas_iterations.size == default_scheme.L


# ---------------------------------------------------------------------------
# LCP solver


def test_solve_lcp_singular_subsystem_breaks_down():
    # both paths hit the singular 2x2 block [[1, 1], [1, 1]] from the empty set
    for S in (np.ones((2, 2)), Tridiagonal(np.ones(1), np.ones(2), np.ones(1))):
        with pytest.raises(NumericalBreakdownError):
            solve_lcp(LcpProblem(S=S, rhs=np.array([1.0, 2.0]), obstacle=np.full(2, -10.0)))


def test_solve_lcp_unconstrained():
    rng = np.random.default_rng(0)
    problem = random_spd_lcp(rng, 8)
    free = LcpProblem(S=problem.S, rhs=problem.rhs, obstacle=np.full(8, -1e6))
    u, lam, _ = solve_lcp(free)
    assert np.allclose(u, np.linalg.solve(problem.S, problem.rhs))
    assert np.all(lam == 0.0)


def test_solve_lcp_fully_active():
    rng = np.random.default_rng(1)
    n = 7
    A = rng.normal(size=(n, n))
    S = A.T @ A + n * np.eye(n)
    obstacle = rng.normal(size=n)
    rhs = S @ obstacle - 1.0
    u, lam, _ = solve_lcp(LcpProblem(S=S, rhs=rhs, obstacle=obstacle))
    assert np.allclose(u, obstacle)
    assert np.allclose(lam, 1.0)


def test_solve_lcp_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(20):
        problem = random_spd_lcp(rng, 10)
        u, lam, _ = solve_lcp(problem)
        ref = lcp_by_enumeration(problem.S, problem.rhs, problem.obstacle)
        assert ref is not None
        u_ref, lam_ref = ref
        assert np.abs(u - u_ref).max() <= 1e-12 * (1 + np.abs(u_ref).max())
        assert np.abs(lam - lam_ref).max() <= 1e-12 * (1 + np.abs(lam_ref).max())
        assert np.array_equal(lam > 1e-10, lam_ref > 1e-10)


def test_solve_lcp_banded_equals_dense():
    rng = np.random.default_rng(3)
    n = 60
    main = 4.0 + rng.random(n)
    lower = -rng.random(n - 1)
    upper = -rng.random(n - 1)
    S = Tridiagonal(lower, main, upper)
    dense = np.diag(main) + np.diag(lower, -1) + np.diag(upper, 1)
    obstacle = rng.normal(size=n)
    # a random right-hand side, and one built from a known solution whose
    # contact set is scattered rather than a prefix
    contact = rng.random(n) < 0.4
    assert not np.array_equal(contact, np.arange(n) < contact.sum())
    u_star = obstacle + np.where(contact, 0.0, rng.random(n) + 0.1)
    lam_star = np.where(contact, rng.random(n) + 0.1, 0.0)
    for rhs in (rng.normal(size=n) * 5, S @ u_star - lam_star):
        u1, lam1, _ = solve_lcp(LcpProblem(S=S, rhs=rhs, obstacle=obstacle))
        u2, lam2, _ = solve_lcp(LcpProblem(S=dense, rhs=rhs, obstacle=obstacle))
        # a wrong prefix guess is corrected by the iteration
        u3, lam3, _ = solve_lcp(LcpProblem(S=S, rhs=rhs, obstacle=obstacle,
                                           start=np.arange(n) < n // 2))
        for u, lam in ((u1, lam1), (u3, lam3)):
            assert np.abs(u - u2).max() <= 1e-11 * (1 + np.abs(u2).max())
            assert np.abs(lam - lam2).max() <= 1e-11 * (1 + np.abs(lam2).max())
    assert np.abs(u2 - u_star).max() <= 1e-11 * (1 + np.abs(u_star).max())
    assert np.abs(lam2 - lam_star).max() <= 1e-11 * (1 + np.abs(lam_star).max())


def test_solve_lcp_dense_from_any_start():
    # the solution is unique for positive definite S, so every start ends
    # there.  The S of criterion 2 (A'A + nI) are generally not M-matrices;
    # half of them get a skew part, as the reduced Schur complements have.
    rng = np.random.default_rng(9)
    for k in range(40):
        n = int(rng.integers(4, 13))
        problem = random_spd_lcp(rng, n)
        if k % 2:
            B = rng.normal(size=(n, n))
            problem = dataclasses.replace(problem, S=problem.S + B - B.T)
        u_ref, lam_ref, _ = solve_lcp(problem)
        for _ in range(5):
            start = rng.random(n) < rng.random()
            u, lam, _ = solve_lcp(dataclasses.replace(problem, start=start))
            assert np.abs(u - u_ref).max() <= 1e-12 * (1 + np.abs(u_ref).max())
            assert np.abs(lam - lam_ref).max() <= 1e-12 * (1 + np.abs(lam_ref).max())


def test_tridiagonal_matches_sparse_product(default_ops):
    # a CSR product sums each row as lower, diagonal, upper and returns a
    # C-ordered array; the bands must do both, whatever the input layout
    import scipy.sparse as sp

    rng = np.random.default_rng(8)
    H = default_ops.dim
    block = rng.normal(size=(H, 7))
    inputs = (rng.normal(size=H), block, np.asfortranarray(block))
    for bands in (default_ops.a1, default_ops.a2, default_ops.gram):
        csr = sp.diags([bands.lower, bands.diag, bands.upper], [-1, 0, 1], format="csr")
        for x in inputs:
            y = bands @ x
            assert y.flags.c_contiguous
            assert np.array_equal(y, csr @ x)


def test_solve_lcp_iteration_budget():
    rng = np.random.default_rng(4)
    problem = random_spd_lcp(rng, 12)
    with pytest.raises(SolverDivergenceError) as err:
        solve_lcp(problem, max_iter=1)
    assert "min_gap" in err.value.info


def test_solve_lcp_complementarity_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        problem = random_spd_lcp(rng, 9)
        u, lam, _ = solve_lcp(problem)
        gap = u - problem.obstacle
        assert np.all((lam == 0.0) | (gap == 0.0))
        assert gap.min() >= 0.0
        assert lam.min() >= 0.0


# ---------------------------------------------------------------------------
# theta stepping


def test_theta_step_stationary_limit(default_ops, mu0):
    # enormous time step: the scheme degenerates to the stationary problem
    cfg = SchemeConfig(T=1e12, L=1, theta=1.0)
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    u, lam, _ = theta_step(obstacle.psi_tilde, mu0, default_ops, obstacle, cfg)
    a_mu = default_ops.a_matrix(mu0)
    f_mu = default_ops.f_vector(mu0)
    resid = a_mu @ u - lam - f_mu
    assert np.abs(resid).max() <= 1e-8 * (1 + np.abs(f_mu).max())


def test_theta_step_degenerate_identity(default_ops):
    # sigma = r = q = 0 with a zero load: the mass step keeps feasible states
    mu = SimpleNamespace(K=0.0, r=0.0, q=0.0, sigma=0.0)
    cfg = SchemeConfig(T=1.0, L=10, theta=0.5)
    H = default_ops.dim
    low = np.full(H, -1e3)
    obstacle = ObstacleData(psi=np.zeros(H), p0=np.zeros(H), psi_tilde=low)
    rng = np.random.default_rng(6)
    u_prev = rng.normal(size=H)
    u, lam, _ = theta_step(u_prev, mu, default_ops, obstacle, cfg)
    assert np.abs(u - u_prev).max() <= 1e-12 * (1 + np.abs(u_prev).max())
    assert np.all(lam == 0.0)


def test_theta_step_invariants_at_mu0(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    u, lam, iters = theta_step(obstacle.psi_tilde, mu0, default_ops, obstacle, default_scheme)
    assert (u - obstacle.psi_tilde).min() >= -1e-9
    assert lam.min() >= -1e-12
    scale = 1.0 + np.abs(u).max() * np.abs(lam).max()
    assert abs(lam @ (u - obstacle.psi_tilde)) <= 1e-9 * scale
    assert iters >= 1


def test_theta_step_empty_active_set_is_linear(default_ops, default_scheme, mu0):
    H = default_ops.dim
    obstacle = ObstacleData(psi=np.zeros(H), p0=np.zeros(H), psi_tilde=np.full(H, -1e9))
    rng = np.random.default_rng(7)
    u_prev = rng.normal(size=H) * 10
    u, lam, _ = theta_step(u_prev, mu0, default_ops, obstacle, default_scheme)
    # independent dense unconstrained step
    a_mu = dense(default_ops.a_matrix(mu0))
    m_dt = dense(default_ops.mass) / default_scheme.delta_t
    expected = np.linalg.solve(
        m_dt + default_scheme.theta * a_mu,
        (m_dt - (1 - default_scheme.theta) * a_mu) @ u_prev + default_ops.f_vector(mu0))
    assert np.all(lam == 0.0)
    assert np.abs(u - expected).max() <= 1e-12 * (1 + np.abs(expected).max())


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_initial_state(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    traj = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    assert np.array_equal(traj.states[0], obstacle.psi_tilde)
    assert traj.states.shape == (default_scheme.L + 1, default_ops.dim)
    assert traj.multipliers.shape == (default_scheme.L, default_ops.dim)


def test_trajectory_price_dominates_payoff(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    traj = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    price = traj.states + obstacle.p0
    assert (price - obstacle.psi).min() >= -1e-9


def test_trajectory_residual_contract(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    traj = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    res = trajectory_residuals(traj, default_ops, obstacle)
    assert res["min_state_gap"] >= -1e-9
    assert res["min_multiplier"] >= -1e-12
    assert res["max_complementarity"] <= 1e-9
    assert res["max_linear_residual"] <= 1e-10


def test_american_dominates_european(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    traj = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    # independent dense unconstrained marching
    a_mu = dense(default_ops.a_matrix(mu0))
    m_dt = dense(default_ops.mass) / default_scheme.delta_t
    smat = m_dt + default_scheme.theta * a_mu
    rhsm = m_dt - (1 - default_scheme.theta) * a_mu
    f_mu = default_ops.f_vector(mu0)
    u = obstacle.psi_tilde.copy()
    for n in range(default_scheme.L):
        u = np.linalg.solve(smat, rhsm @ u + f_mu)
        assert (traj.states[n + 1] - u).min() >= -1e-8


def test_trajectory_fine_mesh_contract(default_scheme, mu0):
    # an empty start needs about one solve per contact node moved, which
    # overran max_iter=100 at step 1 on this mesh
    ops = assemble_operators(build_mesh(9999, 300.0))
    obstacle = obstacle_data(ops.mesh, mu0.K)
    traj = solve_trajectory(mu0, ops, obstacle, default_scheme)
    res = trajectory_residuals(traj, ops, obstacle)
    assert res["min_state_gap"] >= -1e-9
    assert res["min_multiplier"] >= -1e-12
    assert res["max_complementarity"] <= 1e-9
    assert res["max_linear_residual"] <= 1e-10
    assert traj.pdas_iterations.max() <= 2


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_predicted_start_is_exact(default_box, theta, monkeypatch):
    ops = assemble_operators(build_mesh(999, 300.0))
    scheme = SchemeConfig(T=1.0, L=20, theta=theta)
    params = sample_training_set(default_box, 3, np.random.SeedSequence([12, 1]))
    predicted = []
    for mu in params:
        predicted.append(solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), scheme))
    monkeypatch.setattr(truth_mod.StepOperators, "predict_contact",
                        lambda self, rhs, obstacle: None)
    for mu, fast in zip(params, predicted):
        slow = solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), scheme)
        assert np.array_equal(fast.states, slow.states)
        assert np.array_equal(fast.multipliers, slow.multipliers)
        if theta > 0.0:
            assert fast.pdas_iterations.max() == 1
            assert slow.pdas_iterations.max() > 1
    if theta == 0.0:
        # mass/dt has positive off-diagonals, so the sweep guesses wrong
        assert max(t.pdas_iterations.max() for t in predicted) > 1


def test_trajectory_determinism(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    t1 = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    t2 = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.multipliers, t2.multipliers)


def test_trajectory_error_annotation(default_ops, default_scheme, mu0, monkeypatch):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)

    def boom(problem, penalty=1.0, max_iter=100):
        raise SolverDivergenceError("forced failure", min_gap=0.0)

    monkeypatch.setattr(truth_mod, "solve_lcp", boom)
    with pytest.raises(SolverDivergenceError) as err:
        solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    assert "time step 1" in str(err.value)
    assert err.value.info["step"] == 1


# ---------------------------------------------------------------------------
# CSV export


def test_trajectory_csv(tmp_path, default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    traj = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj, default_ops.mesh)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,t,s,u,lambda,price"
    assert len(lines) - 1 == (default_scheme.L + 1) * default_ops.dim
    first = lines[1].split(",")
    assert first[4] == "nan"  # no multiplier at the initial time
    # 17-significant-digit cells round-trip exactly
    u_cell = float(lines[1].split(",")[3])
    assert u_cell == traj.states[0, 0]
    # rerun is byte-identical
    path2 = tmp_path / "traj2.csv"
    write_trajectory_csv(path2, traj, default_ops.mesh)
    assert path.read_bytes() == path2.read_bytes()


def test_trajectory_csv_source_column(tmp_path, default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    traj = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj, default_ops.mesh, source="truth")
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",source")
    assert lines[1].endswith(",truth")


def test_trajectory_csv_matches_cellwise_rendering(tmp_path, mu0):
    # the per-step blocks render as the cell-by-cell fmt loop does, -0.0,
    # nan and the infinities included
    assert [fmt(x) for x in (-0.0, np.nan, np.inf, -np.inf, 0.1)] == [
        "0", "nan", "inf", "-inf", "0.10000000000000001"]
    mesh = build_mesh(3, 300.0)
    states = np.array([[0.5, -0.0, 1e-300], [np.inf, -np.inf, np.nan]])
    multipliers = np.array([[-0.0, 2.5, 1.0 / 3.0]])
    config = SchemeConfig(T=0.3, L=1, theta=0.5)
    traj = Trajectory(mu=mu0, states=states, multipliers=multipliers, config=config,
                      pdas_iterations=np.ones(1, dtype=int))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj, mesh, source="truth")
    s = mesh.interior_nodes
    lift = mu0.K * (1.0 - s / mesh.s_f)
    expected = ["step,t,s,u,lambda,price,source"]
    for n in range(2):
        for j in range(3):
            lam = multipliers[n - 1, j] if n else float("nan")
            row = [n, n * config.delta_t, s[j], states[n, j], lam, states[n, j] + lift[j], "truth"]
            expected.append(",".join(fmt(cell) for cell in row))
    assert path.read_text() == "\n".join(expected) + "\n"
