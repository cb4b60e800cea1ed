import dataclasses
import itertools
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from amrb import (
    AmrbError,
    NumericalBreakdownError,
    ParameterBox,
    ParameterVector,
    SchemeConfig,
    SolverDivergenceError,
    Tridiagonal,
    assemble_operators,
    build_mesh,
    generate_snapshots,
    obstacle_data,
    sample_training_set,
    solve_lcp,
    solve_trajectory,
    theta_step,
    trajectory_residuals,
)
from amrb.fem import band_product
from amrb.truth import check_lcp_matrix, load_vector, step_pair
from amrb.cli import train_stream
import amrb.truth as truth_mod

from conftest import dense, dense_step_pair


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
    """(S, rhs, obstacle) of a random problem with S = A'A + nI."""
    A = rng.normal(size=(n, n))
    return A.T @ A + n * np.eye(n), rng.normal(size=n) * n, rng.normal(size=n)


# ---------------------------------------------------------------------------
# configuration and problem types


def test_scheme_config():
    cfg = SchemeConfig(T=1.0, L=20, theta=0.5)
    assert abs(cfg.delta_t * cfg.L - cfg.T) <= 1e-14
    for bad in [dict(T=0.0, L=20, theta=0.5), dict(T=1.0, L=0, theta=0.5),
                dict(T=1.0, L=20, theta=1.5), dict(T=1.0, L=20, theta=-0.1),
                dict(T=1.0, L=20, theta=0.0), dict(T=1.0, L=20, theta=0.49),
                dict(T=np.nan, L=20, theta=0.5), dict(T=np.inf, L=20, theta=0.5),
                dict(T=5e-324, L=2, theta=0.5)]:
        with pytest.raises(ValueError):
            SchemeConfig(**bad)


def test_lcp_problem_validation():
    # the matrix is checked once by check_lcp_matrix, the right-hand side by
    # every solve_lcp call
    with pytest.raises(ValueError):
        check_lcp_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        solve_lcp(check_lcp_matrix(np.eye(3)), np.zeros(2), np.zeros(3))
    # the zero obstacle None gives no shape to check rhs against; a
    # misshaped rhs still fails, in the product with S, and UL factors
    # need the obstacle they were formed with
    banded = Tridiagonal(np.full(2, -1.0), np.full(3, 4.0), np.full(2, -1.0))
    for S in (np.eye(3), banded):
        with pytest.raises(ValueError):
            solve_lcp(check_lcp_matrix(S), np.ones(2), None)
    with pytest.raises(ValueError, match="need the obstacle"):
        solve_lcp(banded, np.ones(3), None, ul=())
    for shape in ((3, 4), (4, 3)):
        with pytest.raises(ValueError, match="inconsistent LCP dimensions"):
            check_lcp_matrix(np.eye(*shape))


def test_lcp_problem_rejects_non_finite_inputs():
    banded = Tridiagonal(np.full(2, -1.0), np.full(3, 4.0), np.full(2, -1.0))
    for S in (np.eye(3) * 4.0, banded):
        with pytest.raises(NumericalBreakdownError, match="must be finite"):
            solve_lcp(check_lcp_matrix(S), np.array([1.0, np.nan, 0.0]), np.zeros(3))
    with pytest.raises(ValueError, match="must be finite"):
        check_lcp_matrix(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="must be finite"):
        check_lcp_matrix(Tridiagonal(np.array([np.nan]), np.ones(2), np.zeros(1)))


def test_lcp_step_checks_vectors_only():
    # the trajectory checks the matrix once; each step still checks its rhs,
    # and a non-finite one is a blown-up state, not bad input
    S = np.array([[1.0, 0.0], [0.0, -1.0]])
    solve_lcp(S, np.zeros(2), np.zeros(2))
    with pytest.raises(NumericalBreakdownError, match="must be finite"):
        solve_lcp(np.eye(2), np.array([np.inf, 0.0]), np.zeros(2))
    with pytest.raises(ValueError, match="inconsistent LCP dimensions"):
        solve_lcp(np.eye(2), np.zeros(3), np.zeros(2))


def test_solve_lcp_integer_starts(default_ops, default_scheme, mu0):
    # a numpy integer is a prefix length as an int is; an integer without
    # the UL factors or outside [0, H], and a bool, are refused by name
    psi = obstacle_data(default_ops.mesh, mu0.K).psi_tilde
    step = truth_mod.step_operators(mu0, default_ops, default_scheme, psi)
    rhs = step.rhs(psi).copy()
    swept = step.sweep(rhs).copy()
    ul = (swept, step.lower_factor, step.s_psi, step.s_psi_left)
    H = default_ops.dim
    k = step.predict_contact(swept)
    for j in (k, k + 3, 0, H):
        by_int = solve_lcp(step.S, rhs, psi, j, ul)
        by_numpy = solve_lcp(step.S, rhs, psi, np.int64(j), ul)
        assert by_numpy[0].tobytes() == by_int[0].tobytes()
        assert by_numpy[1].tobytes() == by_int[1].tobytes()
        assert by_numpy[2] == by_int[2]
    for start, given in ((k, None), (np.int32(k), None), (-1, ul), (H + 1, ul),
                         (np.int64(H + 1), ul)):
        with pytest.raises(ValueError, match="integer prefix length 0 <= k <= 99"):
            solve_lcp(step.S, rhs, psi, start, given)
    for start in (True, False, np.True_):
        with pytest.raises(TypeError, match="integer prefix length 0 <= k <= 99"):
            solve_lcp(step.S, rhs, psi, start, ul)


def test_trajectory_checks_its_matrix_once(default_ops, default_scheme, mu0, monkeypatch):
    # each step passes its arrays straight to solve_lcp; the matrix is
    # checked once per trajectory, not once per step
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
            solve_lcp(check_lcp_matrix(S), np.array([1.0, 2.0]), np.full(2, -10.0))


def test_solve_lcp_unconstrained():
    rng = np.random.default_rng(0)
    S, rhs, _ = random_spd_lcp(rng, 8)
    u, lam, _ = solve_lcp(check_lcp_matrix(S), rhs, np.full(8, -1e6))
    assert np.allclose(u, np.linalg.solve(S, rhs))
    assert np.all(lam == 0.0)


def test_solve_lcp_fully_active():
    rng = np.random.default_rng(1)
    n = 7
    A = rng.normal(size=(n, n))
    S = A.T @ A + n * np.eye(n)
    obstacle = rng.normal(size=n)
    rhs = S @ obstacle - 1.0
    u, lam, _ = solve_lcp(check_lcp_matrix(S), rhs, obstacle)
    assert np.allclose(u, obstacle)
    assert np.allclose(lam, 1.0)


def test_solve_lcp_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(20):
        S, rhs, obstacle = random_spd_lcp(rng, 10)
        u, lam, _ = solve_lcp(check_lcp_matrix(S), rhs, obstacle)
        ref = lcp_by_enumeration(S, rhs, obstacle)
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
        u1, lam1, _ = solve_lcp(check_lcp_matrix(S), rhs, obstacle)
        u2, lam2, _ = solve_lcp(check_lcp_matrix(dense), rhs, obstacle)
        # a wrong prefix guess is corrected by the iteration
        u3, lam3, _ = solve_lcp(check_lcp_matrix(S), rhs, obstacle, np.arange(n) < n // 2)
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
        S, rhs, obstacle = random_spd_lcp(rng, n)
        if k % 2:
            B = rng.normal(size=(n, n))
            S = S + B - B.T
        S = check_lcp_matrix(S)
        u_ref, lam_ref, _ = solve_lcp(S, rhs, obstacle)
        starts = [rng.random(n) < rng.random() for _ in range(5)]
        for start in starts:
            u, lam, _ = solve_lcp(S, rhs, obstacle, start)
            assert np.abs(u - u_ref).max() <= 1e-12 * (1 + np.abs(u_ref).max())
            assert np.abs(lam - lam_ref).max() <= 1e-12 * (1 + np.abs(lam_ref).max())
        # the obstacle None is the zero obstacle, bit for bit and solve for
        # solve, on dense and tridiagonal matrices alike
        banded = Tridiagonal(rng.uniform(-1, 1, n - 1), 2.0 + rng.random(n),
                             rng.uniform(-1, 1, n - 1))
        for matrix in (S, check_lcp_matrix(banded)):
            for start in (None, *starts):
                u0, lam0, solves0 = solve_lcp(matrix, rhs, np.zeros(n), start)
                u, lam, solves = solve_lcp(matrix, rhs, None, start)
                assert (u.tobytes(), lam.tobytes(), solves) == (u0.tobytes(), lam0.tobytes(),
                                                                solves0)


def test_solve_lcp_degenerate_node_from_any_start():
    # node 5 sits on the obstacle with a zero multiplier, so its computed gap
    # and multiplier are both rounding noise; the tie threshold sets it
    # inactive, and every start ends at the same bytes
    rng = np.random.default_rng(10)
    n = 12
    starts = (None, np.arange(n) < 5, np.arange(n) < 6, np.ones(n, dtype=bool))
    for _ in range(200):
        lower, main, upper = -rng.random(n - 1), 3.0 + rng.random(n), -rng.random(n - 1)
        for S in (Tridiagonal(lower, main, upper), dense(Tridiagonal(lower, main, upper))):
            obstacle = rng.normal(size=n) * 10
            u_star = obstacle + np.where(np.arange(n) < 6, 0.0, rng.random(n) + 0.1)
            lam_star = np.where(np.arange(n) < 5, rng.random(n) + 0.1, 0.0)
            rhs = S @ u_star - lam_star
            results = set()
            for start in starts:
                u, lam, _ = solve_lcp(check_lcp_matrix(S), rhs, obstacle, start)
                assert lam[5] == 0.0
                results.add((u.tobytes(), lam.tobytes()))
            assert len(results) == 1


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


def test_solve_lcp_iteration_budget(monkeypatch):
    rng = np.random.default_rng(4)
    S, rhs, obstacle = random_spd_lcp(rng, 12)
    monkeypatch.setattr(truth_mod, "MAX_ITER", 1)
    with pytest.raises(SolverDivergenceError) as err:
        solve_lcp(check_lcp_matrix(S), rhs, obstacle)
    assert "min_gap" in err.value.info


def test_solve_lcp_complementarity_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        S, rhs, obstacle = random_spd_lcp(rng, 9)
        u, lam, _ = solve_lcp(check_lcp_matrix(S), rhs, obstacle)
        gap = u - obstacle
        assert np.all((lam == 0.0) | (gap == 0.0))
        assert gap.min() >= 0.0
        assert lam.min() >= 0.0


# ---------------------------------------------------------------------------
# theta stepping


def test_theta_step_stationary_limit(default_ops, mu0):
    # enormous time step: the scheme degenerates to the stationary problem
    cfg = SchemeConfig(T=1e12, L=1, theta=1.0)
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    step = truth_mod.step_operators(mu0, default_ops, cfg, obstacle.psi_tilde)
    u, lam, _ = theta_step(obstacle.psi_tilde, step, np.empty((2, default_ops.dim)))
    S, explicit = dense_step_pair(mu0, cfg, default_ops)
    a_mu = S - explicit  # at theta = 1, a(mu) up to the rounding of mass/dt = 1e-12 mass
    f_mu = load_vector(mu0, default_ops.f1, default_ops.f2)
    resid = a_mu @ u - lam - f_mu
    assert np.abs(resid).max() <= 1e-8 * (1 + np.abs(f_mu).max())


def test_theta_step_degenerate_identity(default_ops):
    # sigma = r = q = 0 with a zero load: the mass step keeps feasible states
    mu = SimpleNamespace(K=0.0, r=0.0, q=0.0, sigma=0.0)
    cfg = SchemeConfig(T=1.0, L=10, theta=0.5)
    H = default_ops.dim
    rng = np.random.default_rng(6)
    u_prev = rng.normal(size=H)
    u, lam, _ = theta_step(u_prev, truth_mod.step_operators(mu, default_ops, cfg,
                                                            np.full(H, -1e3)),
                           np.empty((2, H)))
    assert np.abs(u - u_prev).max() <= 1e-12 * (1 + np.abs(u_prev).max())
    assert np.all(lam == 0.0)


def test_theta_step_invariants_at_mu0(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    step = truth_mod.step_operators(mu0, default_ops, default_scheme, obstacle.psi_tilde)
    u, lam, iters = theta_step(obstacle.psi_tilde, step, np.empty((2, default_ops.dim)))
    assert (u - obstacle.psi_tilde).min() >= -1e-9
    assert lam.min() >= -1e-12
    scale = 1.0 + np.abs(u).max() * np.abs(lam).max()
    assert abs(lam @ (u - obstacle.psi_tilde)) <= 1e-9 * scale
    assert iters >= 1


def test_theta_step_empty_active_set_is_linear(default_ops, default_scheme, mu0):
    H = default_ops.dim
    rng = np.random.default_rng(7)
    u_prev = rng.normal(size=H) * 10
    u, lam, _ = theta_step(u_prev, truth_mod.step_operators(mu0, default_ops, default_scheme,
                                                            np.full(H, -1e9)),
                           np.empty((2, H)))
    # independent dense unconstrained step
    smat, rhsm = dense_step_pair(mu0, default_scheme, default_ops)
    expected = np.linalg.solve(smat, rhsm @ u_prev + load_vector(mu0, default_ops.f1,
                                                                  default_ops.f2))
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
    assert (price - (obstacle.psi_tilde + obstacle.p0)).min() >= -1e-9


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
    smat, rhsm = dense_step_pair(mu0, default_scheme, default_ops)
    f_mu = load_vector(mu0, default_ops.f1, default_ops.f2)
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


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_predicted_start_is_exact(default_box, theta, monkeypatch):
    # at H=999 and on truth_fine's mesh, H=3999, every step of these draws
    # settles in the one solve that certifies its prediction
    scheme = SchemeConfig(T=1.0, L=20, theta=theta)
    params = sample_training_set(default_box, 3, np.random.SeedSequence([12, 1]))
    for H in (999, 3999):
        ops = assemble_operators(build_mesh(H, 300.0))
        predicted = []
        for mu in params:
            predicted.append(solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), scheme))
        with monkeypatch.context() as patch:
            patch.setattr(truth_mod.StepOperators, "predict_contact", lambda self, swept: None)
            for mu, fast in zip(params, predicted):
                slow = solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), scheme)
                assert np.array_equal(fast.states, slow.states)
                assert np.array_equal(fast.multipliers, slow.multipliers)
                assert fast.pdas_iterations.max() == 1, H
                assert slow.pdas_iterations.max() > 1


def ul_pivots_by_loop(S):
    """Reference UL elimination from the last node up, one node at a time."""
    pivots = np.empty(S.diag.size)
    pivots[-1] = S.diag[-1]
    for i in range(S.diag.size - 2, -1, -1):
        pivots[i] = S.diag[i] - S.upper[i] * S.lower[i] / pivots[i + 1]
    return pivots


def test_ul_factor_matches_elimination_loop(default_ops, default_scheme, mu0):
    # gttrf on the reversed bands eliminates in the loop's order but rounds
    # d - (l / p) * u where the loop rounds d - (u * l) / p
    step = truth_mod.step_operators(mu0, default_ops, default_scheme,
                                    obstacle_data(default_ops.mesh, mu0.K).psi_tilde)
    rng = np.random.default_rng(11)
    n = 50
    cases = [step.S, Tridiagonal(-rng.random(n - 1), 2.0 + rng.random(n), -rng.random(n - 1))]
    for S in cases:
        upper_factor, lower_factor = truth_mod.ul_factor(S)
        pivots = lower_factor[0]
        reference = ul_pivots_by_loop(S)
        assert np.abs(pivots / reference - 1.0).max() <= 64 * np.finfo(float).eps
        assert np.array_equal(upper_factor[0, 1:], S.upper / pivots[1:])
        assert np.all(upper_factor[1] == 1.0) and upper_factor.flags.f_contiguous
        assert np.array_equal(lower_factor[1, :-1], S.lower / pivots[1:])
        assert lower_factor.flags.f_contiguous
    assert np.array_equal(step.lower_factor, truth_mod.ul_factor(step.S)[1])


def test_ul_factor_row_interchange_predicts_empty_prefix(default_ops, default_scheme, mu0):
    # |upper| above the next pivot makes gttrf swap rows, so its factors are
    # no UL pivots; the predictor then guesses the empty prefix
    S = Tridiagonal(np.full(4, -5.0), np.full(5, 4.0), np.full(4, 5.0))  # S + S' = 8 I
    assert truth_mod.ul_factor(S) == (None, None)
    singular = Tridiagonal(np.array([1.0, 0.0]), np.ones(3), np.array([1.0, 0.0]))
    assert truth_mod.ul_factor(singular) == (None, None)
    two_nodes = Tridiagonal(-np.ones(1), np.full(2, 4.0), -np.ones(1))
    assert truth_mod.ul_factor(two_nodes) == (None, None)

    rng = np.random.default_rng(12)
    rhs, obstacle = rng.normal(size=5), rng.normal(size=5)
    step = dataclasses.replace(truth_mod.step_operators(mu0, default_ops, default_scheme,
                                                        np.zeros(default_ops.dim)),
                               S=S, psi=obstacle, upper_factor=None, lower_factor=None,
                               threshold=None)
    start = step.predict_contact(rhs)
    assert start is None
    u, lam, _ = solve_lcp(S, rhs, obstacle, start)
    ref = lcp_by_enumeration(dense(S), rhs, obstacle)
    assert ref is not None
    assert np.abs(u - ref[0]).max() <= 1e-12 * (1 + np.abs(ref[0]).max())
    assert np.abs(lam - ref[1]).max() <= 1e-12 * (1 + np.abs(ref[1]).max())


def test_ul_factor_non_positive_pivot_predicts_empty_prefix(default_ops, default_scheme, mu0,
                                                            monkeypatch):
    # gttrf eliminates this matrix without a row interchange, to the UL
    # pivots [1.5, -1, 1]; a pivot that is not positive gives no UL pivots,
    # so that every threshold of the predictor is formed with positive ones
    S = Tridiagonal(np.array([1.0, 2.0]), np.ones(3), np.array([0.5, 1.0]))
    assert ul_pivots_by_loop(S).tolist() == [1.5, -1.0, 1.0]
    assert truth_mod.ul_factor(S) == (None, None)
    monkeypatch.setattr(truth_mod, "step_bands", lambda mu, ops, config: (S, S))
    obstacle = np.array([1.0, 0.5, 0.0])
    step = truth_mod.step_operators(mu0, default_ops, default_scheme, obstacle)
    assert step.lower_factor is None and step.threshold is None
    rhs = np.array([2.0, -1.0, 0.5])
    assert step.sweep(rhs) is None and step.predict_contact(None) is None


def predicted_prefixes(mu, ops, scheme):
    """Per step of the trajectory at ``mu``: its step operators, the step's
    rhs and sweep, the predicted prefix length, and the trajectory itself."""
    obstacle = obstacle_data(ops.mesh, mu.K)
    traj = solve_trajectory(mu, ops, obstacle, scheme)
    step = truth_mod.step_operators(mu, ops, scheme, obstacle.psi_tilde)
    for n in range(scheme.L):
        rhs = step.rhs(traj.states[n])
        swept = step.sweep(rhs)
        k = step.predict_contact(swept)
        assert type(k) is int
        yield step, rhs, swept, k, traj, n


@pytest.mark.parametrize("H", [99, 999, 3999])
def test_ul_prefix_solve_is_backward_stable(default_box, H):
    # the UL solve on the trajectory's factors and gtsv on a fresh copy of
    # the same subsystem S[k:, k:] u = rhs[k:] - lower[k-1] * obstacle[k-1] e_k
    # both leave residuals of a few eps * |S| |u| + |b|; their solutions
    # differ by rounding that grows with H, so they are not compared entry
    # by entry
    eps = np.finfo(float).eps
    ops = assemble_operators(build_mesh(H, 300.0))
    params = sample_training_set(default_box, 3, np.random.SeedSequence([14, H]))
    worst = 0.0
    for theta, mu in itertools.product((0.5, 1.0), params):
        psi = obstacle_data(ops.mesh, mu.K).psi_tilde
        for step, rhs, swept, k, _, _ in predicted_prefixes(
                mu, ops, SchemeConfig(T=1.0, L=20, theta=theta)):
            S = step.S
            assert 0 < k < H
            sub = Tridiagonal(*(band.astype(np.longdouble)
                                for band in (S.lower[k:], S.diag[k:], S.upper[k:])))
            b = rhs[k:].astype(np.longdouble)
            b[0] -= np.longdouble(S.lower[k - 1]) * np.longdouble(psi[k - 1])
            ul_u, _ = truth_mod._solve_prefix(S, rhs, psi, k, swept, step.lower_factor,
                                              step.s_psi, step.s_psi_left, np.empty(H),
                                              np.empty(H))
            gtsv_u, _ = truth_mod._solve_pinned(S, rhs, psi, True, truth_mod._solve_banded, None,
                                                np.empty(H), np.empty(H), np.arange(H) < k)
            for u in (ul_u, gtsv_u):
                assert np.array_equal(u[:k], psi[:k])
                x = u[k:].astype(np.longdouble)
                residual = np.abs(sub @ x - b).max()
                scale = (Tridiagonal(*(np.abs(band) for band in sub)) @ np.abs(x) + np.abs(b)).max()
                worst = max(worst, float(residual / (eps * scale)))
    assert worst <= 4.0, worst


@pytest.mark.parametrize("H,theta", itertools.product((99, 999), (0.5, 1.0)))
def test_wrong_prefix_starts_reach_the_predicted_bytes(default_box, H, theta):
    # an iterate depends on (rhs, active set) only, so every start that the
    # iteration corrects ends on the bytes of the predicted start, whether
    # the start is a mask or a prefix length.  From the all-active start at
    # H=999 one step per theta releases its spurious contact nodes about one
    # per update and overruns max_iter, as it does with gtsv solves alone: a
    # known defect of the full-set update on fine meshes, not of the UL path
    ops = assemble_operators(build_mesh(H, 300.0))
    scheme = SchemeConfig(T=1.0, L=20, theta=theta)
    nodes = np.arange(H)
    corrected, diverged = 0, Counter()  # divergences by the start's form
    for mu in sample_training_set(default_box, 2, np.random.SeedSequence([15, 1])):
        psi = obstacle_data(ops.mesh, mu.K).psi_tilde
        for step, rhs, swept, k, traj, n in predicted_prefixes(mu, ops, scheme):
            wrong = [min(max(j, 0), H) for j in (k - 5, k - 1, k + 1, k + 5, 0, H)]
            starts = [None] + [nodes < j for j in wrong] + wrong
            for start in starts:
                try:
                    u, lam, solves = solve_lcp(step.S, rhs, psi, start,
                                               (swept, step.lower_factor, step.s_psi,
                                                step.s_psi_left))
                except SolverDivergenceError:
                    all_active = start.all() if isinstance(start, np.ndarray) else start == H
                    assert H > 99 and all_active
                    diverged[type(start)] += 1
                    continue
                assert np.array_equal(u, traj.states[n + 1])
                assert np.array_equal(lam, traj.multipliers[n])
                corrected += solves > 1
    assert corrected >= 2 * 2 * scheme.L * 5 - sum(diverged.values())
    assert diverged[np.ndarray] <= 1 and diverged[int] == diverged[np.ndarray]


def nine_pass_prefix(step, swept):
    """The predictor as first written, in nine passes over the nodes: the
    prefix [0, k) before the first node whose forward-sweep value, with the
    node before it pinned, exceeds the obstacle."""
    pinned = swept.copy()
    pinned[1:] -= step.S.lower * step.psi[:-1]
    above = pinned / step.lower_factor[0] > step.psi
    k = int(np.argmax(above)) if above.any() else above.size
    return np.arange(above.size) < k


def stock_box_steps(default_box, H):
    """``predicted_prefixes`` over three stock-box draws at both theta and
    the horizons T = 0.25 and 1."""
    ops = assemble_operators(build_mesh(H, 300.0))
    for T, theta, mu in itertools.product(
            (0.25, 1.0), (0.5, 1.0),
            sample_training_set(default_box, 3, np.random.SeedSequence([16, H]))):
        yield from predicted_prefixes(mu, ops, SchemeConfig(T=T, L=20, theta=theta))


@pytest.mark.parametrize("H", [99, 999, 3999])
def test_prefix_solve_and_predictor_match_their_references(default_box, H):
    # the prefix multipliers come from S psi, formed once per trajectory, and
    # one re-summed row.  One comparison against the trajectory's threshold
    # psi * pivots + coupling finds the prefix of the nine-pass predictor,
    # which divides by the (positive) pivots, at every step; at T=0.25 and
    # H=3999 some steps take up to about 40 solves, so steps whose
    # prediction fails certification are covered too
    most = 0
    for step, rhs, swept, k, traj, n in stock_box_steps(default_box, H):
        assert (step.lower_factor[0] > 0.0).all()
        assert np.array_equal(np.arange(H) < k, nine_pass_prefix(step, swept))
        most = max(most, traj.pdas_iterations[n])
        for j in sorted({0, 1, k, H - 1, H}):
            u, lam = truth_mod._solve_prefix(step.S, rhs, step.psi, j, swept, step.lower_factor,
                                             step.s_psi, step.s_psi_left, np.empty(H),
                                             np.empty(H))
            assert (step.S @ u - rhs)[:j].tobytes() == lam[:j].tobytes()
            assert not lam[j:].any()
    assert most > 1 or H < 3999


@pytest.mark.parametrize("H", [99, 999, 3999])
def test_step_rhs_is_one_band_product(default_box, H):
    # mass/dt - (1 - theta) a(mu) is formed once; at theta = 1 the product
    # 0 * a(mu) is exact, so the rhs keeps the bytes of mass/dt u + f
    eps, wide = np.finfo(float).eps, np.longdouble
    ops = assemble_operators(build_mesh(H, 300.0))
    for _, rhs, _, _, traj, n in stock_box_steps(default_box, H):
        cfg, u, mu = traj.config, traj.states[n], traj.mu
        f_mu = load_vector(mu, ops.f1, ops.f2)
        if cfg.theta == 1.0:
            m_dt = Tridiagonal(*(b * (1.0 / cfg.delta_t) for b in ops.mass))
            assert rhs.tobytes() == (m_dt @ u + f_mu).tobytes()
            continue
        # the step pair of the affine terms in long double, whose product
        # sums into long double too; at theta = 1/2, S - E = a(mu) and
        # (S + E) / 2 = mass/dt
        S, E = (Tridiagonal(*bands) for bands in zip(*(
            step_pair(mu, cfg, *(band.astype(wide) for band in terms))
            for terms in zip(ops.mass, ops.a1, ops.a2))))
        exact = band_product(E, u.astype(wide), *np.empty((2, H), wide))
        exact += load_vector(mu, ops.f1.astype(wide), ops.f2.astype(wide))
        m_dt = Tridiagonal(*(abs(s + e) / 2 for s, e in zip(S, E)))
        a_mu = Tridiagonal(*(abs(s - e) for s, e in zip(S, E)))
        scale = m_dt @ np.abs(u) + a_mu @ np.abs(u) / 2 + np.abs(f_mu)
        assert (np.abs(rhs - exact) <= 2 * eps * scale).all()


def test_non_finite_obstacle_is_a_breakdown(default_ops, default_scheme, mu0):
    # the trajectory checks its obstacle once, as each step checks its rhs
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    psi = obstacle.psi_tilde.copy()
    psi[3] = np.nan
    with pytest.raises(NumericalBreakdownError, match="obstacle must be finite"):
        solve_trajectory(mu0, default_ops, dataclasses.replace(obstacle, psi_tilde=psi),
                         default_scheme)


def test_blown_up_state_is_a_breakdown(default_ops, default_scheme, mu0, monkeypatch):
    # solve_lcp checks each step's rhs: an infinite load blows up the first
    # step's right-hand side, which is a breakdown (exit 4), not bad input
    step_operators = truth_mod.step_operators
    monkeypatch.setattr(truth_mod, "step_operators", lambda *args: dataclasses.replace(
        step_operators(*args), f_mu=np.full(default_ops.dim, np.inf)))
    with pytest.raises(NumericalBreakdownError, match="must be finite") as err:
        solve_trajectory(mu0, default_ops, obstacle_data(default_ops.mesh, mu0.K),
                         default_scheme)
    assert err.value.info["step"] == 1


def test_fine_mesh_probe_returns_or_diverges(default_box, default_scheme):
    # the stock-box draws of the benchmark's H=9999 probe, drawn as it draws
    # them; the probe catches SolverDivergenceError only, so any other
    # exception from these trajectories would end a benchmark run
    ops = assemble_operators(build_mesh(9999, 300.0))
    lo, hi = default_box.bounds()
    for seed in range(5):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        for _ in range(6):
            mu = ParameterVector(*(float(x) for x in lo + (hi - lo) * rng.random(4)))
            try:
                solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), default_scheme)
            except SolverDivergenceError:
                pass


def test_row_interchanges_take_gtsv(default_ops, default_scheme, mu0, monkeypatch):
    # prefix sets go to the UL factors and never to gtsv; where the UL
    # elimination needs row interchanges there are no factors, and every
    # iterate goes to gtsv and still meets the contract
    calls = []
    gtsv = truth_mod.dgtsv
    monkeypatch.setattr(truth_mod, "dgtsv", lambda *args: calls.append(1) or gtsv(*args))
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    assert calls == []

    mu = SimpleNamespace(K=100.0, r=2.0, q=0.0, sigma=0.1)  # convection-dominated a(mu)
    step = truth_mod.step_operators(mu, default_ops, default_scheme, obstacle.psi_tilde)
    assert step.upper_factor is None and step.lower_factor is None
    assert step.sweep(np.ones(default_ops.dim)) is None
    traj = solve_trajectory(mu, default_ops, obstacle, default_scheme)
    assert len(calls) >= traj.pdas_iterations.sum() > default_scheme.L
    res = trajectory_residuals(traj, default_ops, obstacle)
    assert res["min_state_gap"] >= -1e-9
    assert res["min_multiplier"] >= -1e-12
    assert res["max_complementarity"] <= 1e-9
    assert res["max_linear_residual"] <= 1e-10


def test_trajectory_sweep_contract(default_box):
    # accepted inputs across meshes, horizons and step counts; T=0.25 and
    # H=999 with L=100 hold degenerate free-boundary nodes, on which an
    # update without the tie threshold cycles
    params = sample_training_set(default_box, 3, train_stream(0))
    for H in (99, 999):
        ops = assemble_operators(build_mesh(H, 300.0))
        for T, L, theta in itertools.product((0.25, 1.0), (20, 100), (0.5, 1.0)):
            scheme = SchemeConfig(T=T, L=L, theta=theta)
            for mu in params:
                obstacle = obstacle_data(ops.mesh, mu.K)
                traj = solve_trajectory(mu, ops, obstacle, scheme)
                res = trajectory_residuals(traj, ops, obstacle)
                case = (H, T, L, theta, mu)
                assert res["min_state_gap"] >= -1e-9, case
                assert res["min_multiplier"] >= -1e-12, case
                assert res["max_complementarity"] <= 1e-9, case
                assert res["max_linear_residual"] <= 1e-10, case


def test_trajectory_determinism(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    t1 = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    t2 = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.multipliers, t2.multipliers)


def test_trajectory_error_annotation(default_ops, default_scheme, mu0, monkeypatch):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)

    def boom(S, rhs, obstacle, start=None, ul=None, out=None):
        raise SolverDivergenceError("forced failure", min_gap=0.0)

    monkeypatch.setattr(truth_mod, "solve_lcp", boom)
    with pytest.raises(SolverDivergenceError) as err:
        solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    assert "time step 1" in str(err.value)
    assert err.value.info["step"] == 1


def test_trajectory_is_one_block(default_ops, default_scheme, mu0):
    # states and multipliers are the two row ranges of one C-ordered block
    traj = solve_trajectory(mu0, default_ops, obstacle_data(default_ops.mesh, mu0.K),
                            default_scheme)
    L, H = default_scheme.L, default_ops.dim
    block = traj.states.base
    assert block is not None and traj.multipliers.base is block
    assert block.shape == (2 * L + 1, H) and block.flags.c_contiguous
    assert traj.states.flags.c_contiguous and traj.multipliers.flags.c_contiguous
    assert np.shares_memory(block[L + 1:], traj.multipliers)


def test_step_loop_allocates_only_a_few_vectors(default_box, monkeypatch):
    # the step loop writes into the trajectory's block and the workspace of
    # its step operators; what it allocates on top is the active-set
    # update's temporaries, a few H-vectors at most
    import tracemalloc

    H = 3999
    ops = assemble_operators(build_mesh(H, 300.0))
    scheme = SchemeConfig(T=1.0, L=20, theta=0.5)
    mu = sample_training_set(default_box, 1, np.random.SeedSequence([17, H]))[0]
    obstacle = obstacle_data(ops.mesh, mu.K)
    at_loop = []
    step_operators = truth_mod.step_operators

    def then_mark(*args):
        step = step_operators(*args)
        tracemalloc.reset_peak()
        at_loop.append(tracemalloc.get_traced_memory()[0])
        return step

    monkeypatch.setattr(truth_mod, "step_operators", then_mark)
    tracemalloc.start()
    try:
        solve_trajectory(mu, ops, obstacle, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - at_loop[-1] <= 3 * H * 8, (peak - at_loop[-1]) / (H * 8)


def test_workspace_carries_no_state(default_box):
    # trajectories A, B, A back to back give the bytes of each solved first
    ops = assemble_operators(build_mesh(999, 300.0))
    scheme = SchemeConfig(T=0.25, L=20, theta=0.5)
    a, b = sample_training_set(default_box, 2, np.random.SeedSequence([18, 1]))

    def solve(mu):
        return solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), scheme)

    runs = [solve(mu) for mu in (a, b, a)]
    fresh = {a: runs[0], b: solve(b)}
    for mu, traj in zip((a, b, a), runs):
        assert traj.states.tobytes() == fresh[mu].states.tobytes()
        assert traj.multipliers.tobytes() == fresh[mu].multipliers.tobytes()
        assert np.array_equal(traj.pdas_iterations, fresh[mu].pdas_iterations)


def assert_rows_are_fresh_solves(traj, step):
    """Each step's rows and solve count equal a fresh solve from the step's
    own start on the checked matrix, and, for a prefix length k, one from
    the mask of [0, k) too; returns the solve counts."""
    counts = []
    for n in range(traj.config.L):
        rhs = step.rhs(traj.states[n]).copy()
        swept = step.sweep(rhs)
        start = step.predict_contact(swept)
        ul = None if swept is None else (swept.copy(), step.lower_factor, step.s_psi,
                                         step.s_psi_left)
        starts = [start]
        if ul is not None:  # the int start certifies in two partial passes, the mask fully
            assert type(start) is int
            starts.append(np.arange(rhs.size) < start)
        for start in starts:
            u, lam, solves = solve_lcp(check_lcp_matrix(step.S), rhs, step.psi, start, ul)
            assert u.tobytes() == traj.states[n + 1].tobytes(), n
            assert lam.tobytes() == traj.multipliers[n].tobytes(), n
            assert solves == traj.pdas_iterations[n], n
        counts.append(solves)
    return counts


@pytest.mark.parametrize("H", [99, 999, 3999])
def test_step_rows_equal_fresh_solves(default_box, H):
    ops = assemble_operators(build_mesh(H, 300.0))
    params = sample_training_set(default_box, 2, np.random.SeedSequence([19, H]))
    counts = []
    for T, theta, mu in itertools.product((0.25, 1.0), (0.5, 1.0), params):
        scheme = SchemeConfig(T=T, L=20, theta=theta)
        psi = obstacle_data(ops.mesh, mu.K).psi_tilde
        traj = solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), scheme)
        counts += assert_rows_are_fresh_solves(traj, truth_mod.step_operators(mu, ops, scheme, psi))
    # the prediction is exact on these draws below H=3999; at H=3999 the
    # T=0.25 steps take up to 40 solves, so failed certifications are covered
    assert max(counts) > 1 or H < 3999


def test_prefix_length_start_decides_ties_as_its_mask(default_ops, default_scheme, mu0):
    # right-hand sides whose prefix iterate puts the last pinned multiplier
    # and the first free gap within a few tie thresholds of zero: the int
    # start's two partial passes certify exactly where the mask's full update
    # reproduces its set, and both end on the same bytes and solve count
    psi = obstacle_data(default_ops.mesh, mu0.K).psi_tilde
    step = truth_mod.step_operators(mu0, default_ops, default_scheme, psi)
    traj = solve_trajectory(mu0, default_ops, obstacle_data(default_ops.mesh, mu0.K),
                            default_scheme)
    counts = set()
    for n in (0, 9, 19):
        k = int(np.count_nonzero(traj.states[n + 1] == psi))
        tol = truth_mod.TIE_TOL * np.abs(step.S @ traj.states[n + 1] - traj.multipliers[n]).max()
        for lam_ties, gap_ties in itertools.product((0.0, 0.25, 1.5), (-0.25, 0.25, 1.5)):
            u, lam = traj.states[n + 1].copy(), traj.multipliers[n].copy()
            lam[k - 1], u[k] = lam_ties * tol, psi[k] - gap_ties * tol
            rhs = step.S @ u - lam
            ul = (step.sweep(rhs).copy(), step.lower_factor, step.s_psi, step.s_psi_left)
            by_int = solve_lcp(step.S, rhs, psi, k, ul)
            by_mask = solve_lcp(step.S, rhs, psi, np.arange(default_ops.dim) < k, ul)
            assert by_int[0].tobytes() == by_mask[0].tobytes()
            assert by_int[1].tobytes() == by_mask[1].tobytes()
            assert by_int[2] == by_mask[2]
            counts.add(by_int[2])
    assert counts == {1, 2, 3}


def test_step_rows_equal_fresh_solves_without_ul_pivots(default_ops, default_scheme):
    mu = SimpleNamespace(K=100.0, r=2.0, q=0.0, sigma=0.1)  # convection-dominated a(mu)
    psi = obstacle_data(default_ops.mesh, mu.K).psi_tilde
    step = truth_mod.step_operators(mu, default_ops, default_scheme, psi)
    assert step.lower_factor is None
    traj = solve_trajectory(mu, default_ops, obstacle_data(default_ops.mesh, mu.K),
                            default_scheme)
    assert max(assert_rows_are_fresh_solves(traj, step)) > 1


def cycling_problem():
    """A tridiagonal non-P matrix, (rhs, obstacle) and a start from which the
    full-set update revisits a set, so that the iteration finishes with
    least-index toggles."""
    rng = np.random.default_rng(1092)
    n = int(rng.integers(3, 7))
    banded = Tridiagonal(rng.uniform(-2, 2, n - 1), 1.0 + rng.random(n),
                         rng.uniform(-2, 2, n - 1))
    rhs, obstacle = rng.normal(size=n), rng.normal(size=n)
    return banded, rhs, obstacle, rng.random(n) < 0.5


def spy_on_pinned_solves(monkeypatch):
    """Record each pinned solve's active set, and whether the update from
    its iterate revisits an earlier set, in two lists."""
    solved, revisited = [], []
    solve_pinned = truth_mod._solve_pinned

    def spy(S, rhs, obstacle, shift, solve_inactive, ul, u, lam, active):
        u, lam = solve_pinned(S, rhs, obstacle, shift, solve_inactive, ul, u, lam, active)
        solved.append(active.tobytes())
        update = ((lam + (obstacle - u)) > truth_mod.TIE_TOL * np.abs(rhs).max()).tobytes()
        revisited.append(update != solved[-1] and update in solved)
        return u, lam

    monkeypatch.setattr(truth_mod, "_solve_pinned", spy)
    return solved, revisited


def test_least_index_run_into_rows_equals_fresh_solve(monkeypatch):
    # the cycling problem finishes with least-index toggles; as a dense
    # matrix the same problem takes the gesv solves
    banded, rhs, obstacle, start = cycling_problem()
    n = rhs.size
    solved, revisited = spy_on_pinned_solves(monkeypatch)
    for S in (banded, dense(banded)):
        solved.clear()
        revisited.clear()
        rows = np.full((3, n), np.nan)
        u, lam, solves = solve_lcp(S, rhs, obstacle, start, out=(rows[1], rows[2]))
        assert any(revisited)
        ref_u, ref_lam, ref_solves = solve_lcp(check_lcp_matrix(S), rhs, obstacle, start)
        assert np.shares_memory(u, rows[1]) and np.shares_memory(lam, rows[2])
        assert (rows[1].tobytes(), rows[2].tobytes(), solves) == (
            ref_u.tobytes(), ref_lam.tobytes(), ref_solves)
        assert np.isnan(rows[0]).all()


def test_update_vector_on_every_exit(monkeypatch):
    # a third out vector receives the returned iterate's update vector, bit
    # for bit, whichever way the iteration stops: on the first solve, after
    # full-set updates, or after least-index toggles; above tol it is the
    # returned active set, and with the obstacle None it is lam - u
    banded, rhs, obstacle, cycling_start = cycling_problem()
    n = rhs.size
    tol = truth_mod.TIE_TOL * np.abs(rhs).max()
    solved, revisited = spy_on_pinned_solves(monkeypatch)
    for S in (banded, dense(banded)):
        solve_lcp(S, rhs, obstacle, cycling_start)
        solution_set = np.frombuffer(solved[-1], dtype=bool)
        exits = set()
        for start in (cycling_start, None, solution_set, np.ones(n, dtype=bool)):
            solved.clear()
            revisited.clear()
            rows = np.full((3, n), np.nan)
            u, lam, solves = solve_lcp(S, rhs, obstacle, start, out=rows)
            exits.add("least-index" if any(revisited) else "first" if solves == 1 else "iterated")
            assert rows[2].tobytes() == (lam + (obstacle - u)).tobytes()
            assert (rows[2] > tol).tobytes() == solved[-1]
            u0, lam0, _ = solve_lcp(S, rhs - S @ obstacle, None, start, out=rows)
            assert np.array_equal(rows[2], lam0 - u0)
        assert exits == {"first", "iterated", "least-index"}


def test_update_vector_after_a_certified_prefix(default_ops, default_scheme, mu0):
    # a prefix start certified in two partial passes forms no update vector;
    # a third out vector still receives it, and a mask start of the same
    # prefix ends on the same bytes
    H = default_ops.dim
    certified = 0
    for step, rhs, swept, k, traj, n in predicted_prefixes(mu0, default_ops, default_scheme):
        ul = (swept, step.lower_factor, step.s_psi, step.s_psi_left)
        by_int, by_mask = np.full((2, 3, H), np.nan)
        solves = solve_lcp(step.S, rhs, step.psi, k, ul, out=by_int)[2]
        solve_lcp(step.S, rhs, step.psi, np.arange(H) < k, ul, out=by_mask)
        assert by_int[2].tobytes() == (by_int[1] + (step.psi - by_int[0])).tobytes()
        assert by_int.tobytes() == by_mask.tobytes()
        certified += solves == 1
    assert certified > 0


# ---------------------------------------------------------------------------
# the group march


def single_marches(params, ops, scheme):
    return [solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), scheme) for mu in params]


def assert_same_bits(group, single):
    assert len(group) == len(single)
    for g, s in zip(group, single):
        assert g.mu == s.mu and g.config == s.config
        for name in ("states", "multipliers", "pdas_iterations"):
            a, b = getattr(g, name), getattr(s, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("H", [99, 999])
def test_stock_training_sets_march_to_the_single_bits(default_box, default_scheme, H):
    ops = assemble_operators(build_mesh(H, 300.0))
    for seed in (0, 1):
        params = sample_training_set(default_box, 16, train_stream(seed))
        group = truth_mod.march_group(params, ops, default_scheme)
        assert_same_bits(group, single_marches(params, ops, default_scheme))
        assert_same_bits(generate_snapshots(params, ops, default_scheme), group)
        for traj in group:  # views of the group's one block
            assert traj.states.flags.c_contiguous and traj.multipliers.flags.c_contiguous
            assert traj.states.base is traj.multipliers.base is group[0].states.base


@pytest.mark.parametrize("H, L", [(3, 20), (999, 100)])
def test_group_member_off_its_prediction_is_solved_again(default_box, H, L):
    # on these grids the predicted prefix of some draws fails the first
    # update at some steps, and ``solve_lcp`` iterates from it
    ops = assemble_operators(build_mesh(H, 300.0))
    scheme = SchemeConfig(T=1.0, L=L, theta=0.5)
    params = sample_training_set(default_box, 4, train_stream(2))
    single = single_marches(params, ops, scheme)
    assert max(traj.pdas_iterations.max() for traj in single) > 1
    assert_same_bits(truth_mod.march_group(params, ops, scheme), single)


def test_group_of_one(default_ops, default_scheme, mu0):
    single = single_marches([mu0], default_ops, default_scheme)
    assert_same_bits(truth_mod.march_group([mu0], default_ops, default_scheme), single)
    assert_same_bits(truth_mod.solve_trajectories([mu0], default_ops, default_scheme, "run"),
                     single)
    assert truth_mod.solve_trajectories([], default_ops, default_scheme, "run") == []


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_group_across_a_wide_box(default_ops, theta):
    # strikes from 25 to 175: the members' obstacles, predicted prefixes
    # and contact nodes differ widely
    box = ParameterBox(K0=100.0, r0=0.05, q0=0.0015, sigma0=0.5, eps=1.5)
    params = sample_training_set(box, 12, train_stream(5))
    strikes = [mu.K for mu in params]
    assert max(strikes) - min(strikes) > 100.0
    scheme = SchemeConfig(T=1.0, L=20, theta=theta)
    assert_same_bits(truth_mod.march_group(params, default_ops, scheme),
                     single_marches(params, default_ops, scheme))


def snapshot_error_one_at_a_time(params, ops, scheme):
    """The error of the first failing member, as a member-by-member
    snapshot loop raises it."""
    for mu in params:
        try:
            solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), scheme)
        except AmrbError as err:
            return type(err)(f"snapshot run failed at mu={mu}: {err}", **err.info)
    raise AssertionError("no member failed")


def assert_fails_as_one_at_a_time(params, ops, scheme):
    expected = snapshot_error_one_at_a_time(params, ops, scheme)
    assert truth_mod.march_group(params, ops, scheme) is None
    with pytest.raises(type(expected)) as caught:
        generate_snapshots(params, ops, scheme)
    assert str(caught.value) == str(expected)
    assert caught.value.info == expected.info
    return caught.value


def test_group_member_that_raises_at_set_up(default_ops, default_scheme, default_box):
    params = sample_training_set(default_box, 4, train_stream(0))
    params.insert(2, ParameterVector(K=100.0, r=1e308, q=0.0015, sigma=0.5))  # overflows
    with np.errstate(over="ignore", invalid="ignore"):
        err = assert_fails_as_one_at_a_time(params, default_ops, default_scheme)
    assert type(err).__name__ == "AssemblyError"


def test_group_member_that_raises_mid_march(default_box, monkeypatch):
    # the draw that needs 7 solves at a step fails under a budget of 2,
    # after the members before it have marched
    ops = assemble_operators(build_mesh(999, 300.0))
    scheme = SchemeConfig(T=1.0, L=100, theta=0.5)
    first, second, *rest = sample_training_set(default_box, 4, train_stream(2))
    monkeypatch.setattr(truth_mod, "MAX_ITER", 2)
    err = assert_fails_as_one_at_a_time([second, *rest, first], ops, scheme)
    assert isinstance(err, SolverDivergenceError) and err.info["step"] > 1


def test_group_member_without_ul_pivots_marches_alone(default_ops, default_scheme, mu0):
    convective = SimpleNamespace(K=100.0, r=2.0, q=0.0, sigma=0.1)  # no UL pivots
    params = [mu0, convective]
    assert truth_mod.march_group(params, default_ops, default_scheme) is None
    assert_same_bits(truth_mod.solve_trajectories(params, default_ops, default_scheme, "run"),
                     single_marches(params, default_ops, default_scheme))


def test_group_runs_up_to_its_mesh_size(default_box, default_scheme, monkeypatch):
    sizes = []
    march = truth_mod.march_group
    monkeypatch.setattr(truth_mod, "march_group",
                        lambda params, ops, config: sizes.append(ops.dim) or
                        march(params, ops, config))
    params = sample_training_set(default_box, 3, train_stream(0))
    for H in (truth_mod.GROUP_MAX_NODES, truth_mod.GROUP_MAX_NODES + 1):
        ops = assemble_operators(build_mesh(H, 300.0))
        assert_same_bits(truth_mod.solve_trajectories(params, ops, default_scheme, "run"),
                         single_marches(params, ops, default_scheme))
    assert sizes == [truth_mod.GROUP_MAX_NODES]


def test_one_member_set_takes_the_single_march(default_box, default_scheme, monkeypatch):
    # a group of one marches slower than ``solve_trajectory`` on every mesh
    # measured (H = 99, 999 and 3999)
    groups = []
    march = truth_mod.march_group
    monkeypatch.setattr(truth_mod, "march_group",
                        lambda params, ops, config: groups.append(len(params)) or
                        march(params, ops, config))
    params = sample_training_set(default_box, 1, train_stream(0))
    for H in (99, truth_mod.GROUP_MAX_NODES):
        ops = assemble_operators(build_mesh(H, 300.0))
        assert_same_bits(truth_mod.solve_trajectories(params, ops, default_scheme, "run"),
                         single_marches(params, ops, default_scheme))
    assert groups == []


def test_both_marches_share_one_prediction(default_box, default_ops, default_scheme,
                                           monkeypatch):
    # the Brennan-Schwartz prediction has one site: a single march calls it
    # once per step, a group once per time level for all its members
    shapes = []
    predict = truth_mod.first_leaving_node
    monkeypatch.setattr(truth_mod, "first_leaving_node",
                        lambda swept, *args: shapes.append(swept.shape) or predict(swept, *args))
    params = sample_training_set(default_box, 3, train_stream(0))
    H, L = default_ops.dim, default_scheme.L
    single = single_marches(params, default_ops, default_scheme)
    assert shapes == [(H,)] * (3 * L)
    shapes.clear()
    assert_same_bits(truth_mod.march_group(params, default_ops, default_scheme), single)
    assert shapes == [(3, H)] * L


@pytest.mark.parametrize("H, L", [(99, 20), (999, 100)])
def test_group_predicts_each_members_single_prefix(default_box, H, L, monkeypatch):
    # the group's prediction at each time level is, member by member, the
    # prefix length that the member's own march predicts at that step; at
    # H=999, L=100 some of those predictions fail their certification
    predicted = []
    predict = truth_mod.first_leaving_node
    monkeypatch.setattr(truth_mod, "first_leaving_node",
                        lambda *args: predicted.append(predict(*args)) or predicted[-1])
    ops = assemble_operators(build_mesh(H, 300.0))
    scheme = SchemeConfig(T=1.0, L=L, theta=0.5)
    params = sample_training_set(default_box, 4, train_stream(2))
    single = []
    for mu in params:
        predicted.clear()
        single.append((solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), scheme),
                       [int(k) for k in predicted]))
    predicted.clear()
    group = truth_mod.march_group(params, ops, scheme)
    assert np.array(predicted).shape == (L, len(params))
    for m, (traj, ks) in enumerate(single):
        assert [int(k) for k in np.array(predicted)[:, m]] == ks
        assert group[m].states.tobytes() == traj.states.tobytes()
    assert max(traj.pdas_iterations.max() for traj, _ in single) > 1 or H < 999


def test_tracer_bindings_fire_once_per_step(default_ops, default_scheme, mu0, monkeypatch):
    # a tracer patches theta_step and solve_lcp in amrb.truth and reads the
    # solve count off result[2]
    calls = {"theta_step": [], "solve_lcp": []}
    for name in calls:
        original = getattr(truth_mod, name)

        def wrapped(*args, _original=original, _name=name, **kwargs):
            result = _original(*args, **kwargs)
            calls[_name].append(result)
            return result

        monkeypatch.setattr(truth_mod, name, wrapped)
    traj = solve_trajectory(mu0, default_ops, obstacle_data(default_ops.mesh, mu0.K),
                            default_scheme)
    for results in calls.values():
        assert len(results) == default_scheme.L
        assert all(type(r) is tuple and len(r) == 3 for r in results)
        assert [r[2] for r in results] == traj.pdas_iterations.tolist()
    for n, (u, lam, _) in enumerate(calls["theta_step"]):
        assert np.shares_memory(u, traj.states[n + 1])
        assert np.shares_memory(lam, traj.multipliers[n])


def residuals_by_step(traj, ops, obstacle):
    """``trajectory_residuals`` as first written, one step at a time."""
    S, explicit = truth_mod.step_bands(traj.mu, ops, traj.config)
    f_mu = load_vector(traj.mu, ops.f1, ops.f2)
    min_gap, min_multiplier, max_comp, max_lin = np.inf, np.inf, 0.0, 0.0
    for n in range(traj.config.L):
        u, lam = traj.states[n + 1], traj.multipliers[n]
        rhs = explicit @ traj.states[n]
        rhs += f_mu
        residual = S @ u - lam - rhs
        max_lin = max(max_lin, float(np.abs(residual).max()) / max(1.0, float(np.abs(rhs).max())))
        gap = u - obstacle.psi_tilde
        min_gap = min(min_gap, float(gap.min()))
        min_multiplier = min(min_multiplier, float(lam.min()))
        comp_scale = 1.0 + float(np.abs(u).max()) * float(np.abs(lam).max())
        max_comp = max(max_comp, abs(float(lam @ gap)) / comp_scale)
    return {"min_state_gap": min_gap, "min_multiplier": min_multiplier,
            "max_complementarity": max_comp, "max_linear_residual": max_lin}


@pytest.mark.parametrize("H", [99, 999])
def test_residuals_in_whole_trajectory_passes(default_box, H):
    ops = assemble_operators(build_mesh(H, 300.0))
    params = sample_training_set(default_box, 2, np.random.SeedSequence([20, H]))
    for T, L, theta, mu in itertools.product((0.25, 1.0), (20, 100), (0.5, 1.0), params):
        obstacle = obstacle_data(ops.mesh, mu.K)
        traj = solve_trajectory(mu, ops, obstacle, SchemeConfig(T=T, L=L, theta=theta))
        fast = trajectory_residuals(traj, ops, obstacle)
        slow = residuals_by_step(traj, ops, obstacle)
        assert {k: v.hex() for k, v in fast.items()} == {k: v.hex() for k, v in slow.items()}

