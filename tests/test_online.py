import dataclasses

import numpy as np
import pytest

from amrb import (
    NumericalBreakdownError,
    ParameterVector,
    build_reduced_model_from_store,
    err_linf,
    error_metrics,
    obstacle_data,
    online_setup,
    reconstruct,
    reconstruct_states,
    reduced_trajectory,
    solve_trajectory,
)
from amrb.truth import load_vector, step_bands, step_pair
from amrb.online import _cone_step, reduced_residuals

from conftest import empty_diagnostics, energy_product, reduced_blocks

EXTRAPOLATED_MU = ParameterVector(K=106.882366, r=0.048470, q=0.007679, sigma=0.418561)


def alpha_by_enumeration(schur, q, g_n, tol=1e-10):
    """Mixed-system oracle: exhaustively search cone-coefficient active sets.

    Consumes the same Schur data as the solver under test; the independent
    part is the combinatorial search replacing the active-set iteration.
    """
    nw = schur.shape[0]
    for mask in range(2 ** nw):
        free = np.array([(mask >> i) & 1 for i in range(nw)], dtype=bool)
        alpha = np.zeros(nw)
        ix = np.flatnonzero(free)
        if ix.size:
            try:
                alpha[ix] = np.linalg.solve(schur[np.ix_(ix, ix)], (g_n - q)[ix])
            except np.linalg.LinAlgError:
                continue
        slack = schur @ alpha + q - g_n
        if alpha.min(initial=0.0) >= -tol and slack[~free].min(initial=0.0) >= -tol:
            return alpha
    return None


# ---------------------------------------------------------------------------
# online setup


def test_online_setup_affine_arithmetic(small_model):
    # sigma = r = q = 1 leaves a_n = a1_n + mass_n and f_n = K (f1_n - f2_n)
    mu = ParameterVector(K=50.0, r=1.0, q=1.0, sigma=1.0)
    data = online_setup(small_model, mu)
    a_n = small_model.a1_n + small_model.mass_n
    mass_dt = small_model.mass_n / small_model.config.delta_t
    s_n = mass_dt + 0.5 * a_n
    step_load = np.linalg.solve(s_n, 50.0 * small_model.f1_n - 50.0 * small_model.f2_n)
    step_map = np.linalg.solve(s_n, mass_dt - 0.5 * a_n)
    assert np.allclose(data.step_load, step_load, rtol=1e-12, atol=1e-12)
    assert np.allclose(data.step_map, step_map, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_reduced_step_pair_is_the_projected_truth_step(model_8_8, test_params10, theta):
    # one theta-step for both layers: step_pair on the reduced blocks is the
    # Galerkin projection of the truth's step bands, and load_vector on the
    # reduced loads the projection of the truth load
    model, mu = model_8_8, test_params10[0]
    ops, psi = model.ops, model.psi_matrix
    cfg = dataclasses.replace(model.config, theta=theta)
    reduced = step_pair(mu, cfg, model.mass_n, model.a1_n, model.a2_n)
    for truth_op, reduced_op in zip(step_bands(mu, ops, cfg), reduced, strict=True):
        projected = psi.T @ (truth_op @ psi)
        assert np.abs(reduced_op - projected).max() <= 1e-12 * np.abs(projected).max()
    projected = psi.T @ load_vector(mu, ops.f1, ops.f2)
    reduced_load = load_vector(mu, model.f1_n, model.f2_n)
    assert np.abs(reduced_load - projected).max() <= 1e-12 * np.abs(projected).max()


def test_online_setup_cone_loads_match_store(small_model, small_store):
    mu = small_store[0].mu
    data = online_setup(small_model, mu)
    expected = small_model.xi_matrix.T @ obstacle_data(small_model.ops.mesh, mu.K).psi_tilde
    assert np.allclose(data.g_n, expected, rtol=0, atol=1e-12)


def test_online_setup_step_maps(small_model, small_store):
    # a step is u -> step_map u + step_load + sinv_b alpha, with the cone
    # right-hand side cone_load - cone_map u
    mu = small_store[0].mu
    data = online_setup(small_model, mu)
    blocks = reduced_blocks(small_model, mu)
    b_n = small_model.b_n
    step_map = np.linalg.solve(blocks.s_n, blocks.rhs_n)
    step_load = np.linalg.solve(blocks.s_n, blocks.f_n)
    expected = {"step_map": step_map, "step_load": step_load,
                "cone_map": b_n.T @ step_map,
                "cone_load": data.g_n - b_n.T @ step_load,
                "sinv_b": np.linalg.solve(blocks.s_n, b_n)}
    for name, value in expected.items():
        got = getattr(data, name)
        assert got.shape == value.shape
        assert np.abs(got - value).max() <= 1e-12 * (1 + np.abs(value).max()), name


def projection_residual(model, ops, mu, u0):
    """Normal-equation residual of the energy projection, through the raw Gram."""
    psi = model.psi_matrix
    rhs = psi.T @ (ops.gram @ obstacle_data(ops.mesh, mu.K).psi_tilde)
    return (psi.T @ (ops.gram @ psi)) @ u0 - rhs, rhs


def test_online_setup_initial_projection_residual(small_model, small_setup, small_store):
    _, ops, _, _ = small_setup
    mu = small_store[1].mu
    data = online_setup(small_model, mu)
    resid, rhs = projection_residual(small_model, ops, mu, data.u0)
    assert np.abs(resid).max() <= 1e-10 * (1 + np.abs(rhs).max())


def test_online_setup_initial_projection_residual_large_basis(model_16_16, default_ops,
                                                              test_params10):
    # the enriched basis is large here; the stored orthonormality must still
    # hold the projection residual to the contract level
    for mu in test_params10[:3]:
        data = online_setup(model_16_16, mu)
        resid, rhs = projection_residual(model_16_16, default_ops, mu, data.u0)
        assert np.abs(resid).max() <= 1e-10 * (1 + np.abs(rhs).max())


def test_online_setup_initial_projection_is_optimal(small_model, small_setup, small_store,
                                                    model_16_16, default_ops, test_params10):
    _, small_ops, _, _ = small_setup
    cases = [(small_model, small_ops, small_store[2].mu)]
    cases += [(model_16_16, default_ops, mu) for mu in test_params10[:3]]
    for model, ops, mu in cases:
        data = online_setup(model, mu)
        psi_tilde = obstacle_data(ops.mesh, mu.K).psi_tilde
        best = energy_product(ops, psi_tilde - model.psi_matrix @ data.u0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            candidate = data.u0 + rng.normal(size=model.nv) * rng.random()
            other = energy_product(ops, psi_tilde - model.psi_matrix @ candidate)
            assert best <= other * (1 + 1e-12)


def test_online_setup_rejects_bad_mu(small_model):
    bad = dataclasses.replace  # silence lint; construct namespaces directly
    from types import SimpleNamespace
    with pytest.raises(ValueError):
        online_setup(small_model, SimpleNamespace(K=-1.0, r=0.0, q=0.0, sigma=0.5))


# ---------------------------------------------------------------------------
# reduced stepping


def test_reduced_step_unconstrained(small_model, small_store):
    mu = small_store[0].mu
    data = online_setup(small_model, mu)
    free = dataclasses.replace(data, cone_load=np.full(small_model.nw, -1e6))
    rng = np.random.default_rng(1)
    u_prev = rng.normal(size=small_model.nv)
    u, alpha, _, _ = _cone_step(u_prev, free, None, np.zeros(small_model.nw),
                                np.empty((2, small_model.nw)))
    assert np.all(alpha == 0.0)
    # independent check through the raw matrices
    blocks = reduced_blocks(small_model, mu)
    expected = np.linalg.solve(blocks.s_n, blocks.rhs_n @ u_prev + blocks.f_n)
    assert np.abs(u - expected).max() <= 1e-9 * (1 + np.abs(expected).max())


def test_reduced_step_scalar_cone_closed_form(small_store, small_setup):
    _, ops, _, _ = small_setup
    model, _ = build_reduced_model_from_store(small_store, 3, 1, ops)
    mu = small_store[0].mu
    data = online_setup(model, mu)
    blocks = reduced_blocks(model, mu)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u_prev = rng.normal(size=model.nv) * 10
        u, alpha, _, _ = _cone_step(u_prev, data, None, np.zeros(model.nw),
                                    np.empty((2, model.nw)))
        base = np.linalg.solve(blocks.s_n, blocks.rhs_n @ u_prev + blocks.f_n)
        q = float((model.b_n.T @ base).item())
        m = float((model.b_n.T @ np.linalg.solve(blocks.s_n, model.b_n)).item())
        closed = max(0.0, (float(data.g_n[0]) - q) / m)
        assert alpha[0] == pytest.approx(closed, rel=1e-10, abs=1e-12)


def test_reduced_step_matches_enumeration(model_8_8, store16):
    from scipy.linalg import lu_solve

    mu = store16[3].mu
    data = online_setup(model_8_8, mu)
    blocks = reduced_blocks(model_8_8, mu)
    rng = np.random.default_rng(3)
    rt = reduced_trajectory(model_8_8, mu)
    for k in range(20):
        # random states near the trajectory keep the problem realistic
        u_prev = rt.states[k % rt.states.shape[0]] + rng.normal(size=model_8_8.nv)
        u, alpha, _, _ = _cone_step(u_prev, data, None, np.zeros(model_8_8.nw),
                                    np.empty((2, model_8_8.nw)))
        base = lu_solve(blocks.s_lu, blocks.rhs_n @ u_prev + blocks.f_n)
        q = model_8_8.b_n.T @ base
        alpha_ref = alpha_by_enumeration(data.schur, q, data.g_n)
        assert alpha_ref is not None
        assert np.abs(alpha - alpha_ref).max() <= 1e-11 * (1 + np.abs(alpha_ref).max())
        u_ref = base + data.sinv_b @ alpha_ref
        assert np.abs(u - u_ref).max() <= 1e-9 * (1 + np.abs(u_ref).max())


# ---------------------------------------------------------------------------
# reduced trajectories


def test_reduced_trajectory_contract(small_model, small_store):
    mu = small_store[0].mu
    rt = reduced_trajectory(small_model, mu)
    data = online_setup(small_model, mu)
    assert np.array_equal(rt.states[0], data.u0)
    assert rt.cone_coeffs.min() >= -1e-12
    res = reduced_residuals(rt, data, small_model)
    assert res["min_cone_gap"] >= -1e-9
    assert res["max_complementarity"] <= 1e-9


def test_reduced_trajectory_solves_cones_into_its_rows(model_8_8, test_params10, monkeypatch):
    # every step's cone problem is solved into its row of cone_coeffs, and
    # its multipliers into one vector that the trajectory reuses
    import amrb.online as online_mod

    solved = []
    solve = online_mod.solve_lcp

    def spy(*args, **kwargs):
        alpha, lam, solves = solve(*args, **kwargs)
        solved.append((alpha, lam, alpha.copy()))
        return alpha, lam, solves

    monkeypatch.setattr(online_mod, "solve_lcp", spy)
    rt = reduced_trajectory(model_8_8, test_params10[0])
    assert len(solved) == model_8_8.config.L
    for row, (alpha, lam, value) in zip(rt.cone_coeffs, solved):
        assert alpha.ctypes.data == row.ctypes.data and alpha.shape == row.shape
        assert lam.ctypes.data == solved[0][1].ctypes.data
        assert np.array_equal(row, value)


def test_reduced_trajectory_checks_schur_once(model_8_8, test_params10, monkeypatch):
    # each step passes its arrays straight to solve_lcp; the Schur complement
    # is checked once per parameter, not once per step
    import amrb.online as online_mod

    calls = []
    check = online_mod.check_lcp_matrix
    monkeypatch.setattr(online_mod, "check_lcp_matrix", lambda S: calls.append(1) or check(S))
    rt = reduced_trajectory(model_8_8, test_params10[0])
    assert len(calls) == 1
    assert rt.lcp_solves.sum() > 0


def test_blown_up_reduced_state_is_a_breakdown(model_8_8, test_params10, monkeypatch):
    # an infinite step load blows up the state after step 1; solve_lcp then
    # finds step 2's cone right-hand side non-finite, a breakdown (exit 4)
    import amrb.online as online_mod

    setup = online_mod.online_setup
    monkeypatch.setattr(online_mod, "online_setup", lambda model, mu: dataclasses.replace(
        setup(model, mu), step_load=np.full(model.nv, np.inf)))
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalBreakdownError, match="must be finite") as err:
        reduced_trajectory(model_8_8, test_params10[0])
    assert err.value.info["step"] == 2


def test_reduced_feasibility_stock_models(model_8_8, model_16_16, test_params10):
    for model in (model_8_8, model_16_16):
        for mu in test_params10[:3]:
            rt = reduced_trajectory(model, mu)
            data = online_setup(model, mu)
            res = reduced_residuals(rt, data, model)
            assert rt.cone_coeffs.min() >= -1e-12
            assert res["min_cone_gap"] >= -1e-9
            assert res["max_complementarity"] <= 1e-9


def test_reduced_residuals_match_per_step_loop(model_8_8, model_16_16, test_params10):
    # reduced_residuals is array expressions over the steps; the per-step
    # loop it replaced is the reference, up to the rounding of b_n' u, whose
    # error is at most NV machine epsilons of |b_n|' |u| per entry
    eps = np.finfo(float).eps
    for model in (model_8_8, model_16_16):
        for mu in test_params10[:3]:
            rt = reduced_trajectory(model, mu)
            data = online_setup(model, mu)
            min_alpha = min_gap = np.inf
            max_comp = 0.0
            for alpha, u in zip(rt.cone_coeffs, rt.states[1:]):
                slack = model.b_n.T @ u - data.g_n
                min_alpha = min(min_alpha, float(alpha.min()))
                min_gap = min(min_gap, float(slack.min()))
                scale = 1.0 + float(np.abs(slack).max()) * float(np.abs(alpha).max())
                max_comp = max(max_comp, abs(float(alpha @ slack)) / scale)
            gap_tol = 4 * model.nv * eps * float(
                (np.abs(rt.states[1:]) @ np.abs(model.b_n) + np.abs(data.g_n)).max())
            comp_tol = 4 * model.nw * float(np.abs(rt.cone_coeffs).max()) * gap_tol
            res = reduced_residuals(rt, data, model)
            assert res["min_cone_coeff"] == min_alpha
            assert abs(res["min_cone_gap"] - min_gap) <= gap_tol
            assert abs(res["max_complementarity"] - max_comp) <= comp_tol + 4 * eps * max_comp
    # an empty cone has no coefficient and no gap, as the loop left them
    import amrb.offline as off
    model = off.assemble_reduced(model_8_8.psi_matrix, np.zeros((model_8_8.ops.dim, 0)),
                                 model_8_8.ops, model_8_8.config, nv_tilde=model_8_8.nv_tilde,
                                 diagnostics=empty_diagnostics())
    mu = test_params10[0]
    res = reduced_residuals(reduced_trajectory(model, mu), online_setup(model, mu), model)
    assert res == {"min_cone_coeff": np.inf, "min_cone_gap": np.inf, "max_complementarity": 0.0}


def test_warm_start_is_exact(model_8_8, model_16_16, test_params10):
    # each step of reduced_trajectory starts from the previous cone active
    # set; a march that starts every step from the empty set must agree
    for model in (model_8_8, model_16_16):
        solves = []
        for mu in test_params10:
            rt = reduced_trajectory(model, mu)
            data = online_setup(model, mu)
            states = [data.u0]
            alphas = []
            for _ in range(model.config.L):
                u, alpha, _, _ = _cone_step(states[-1], data, None, np.zeros(model.nw),
                                            np.empty((2, model.nw)))
                states.append(u)
                alphas.append(alpha)
            assert np.array_equal(rt.states, np.array(states))
            assert np.array_equal(rt.cone_coeffs, np.array(alphas))
            assert rt.lcp_solves.shape == (model.config.L,)
            solves.append(rt.lcp_solves)
        if model is model_8_8:
            # a cold start needs about 5.7 solves per step here
            assert np.mean(solves) <= 2.5


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_identity_basis(small_store, small_setup):
    mesh, ops, scheme, _ = small_setup
    import amrb.offline as off
    from conftest import identity_operator_set
    # the identity basis is energy-orthonormal when the energy Gram is the identity
    model = off.assemble_reduced(np.eye(ops.dim), np.zeros((ops.dim, 0)),
                                 identity_operator_set(ops.dim), scheme, nv_tilde=ops.dim,
                                 diagnostics=empty_diagnostics())
    truth = small_store[0]
    rt_like = dataclasses.replace  # direct container
    from amrb.online import ReducedTrajectory
    rt = ReducedTrajectory(mu=truth.mu, states=truth.states,
                           cone_coeffs=np.zeros((scheme.L, 0)),
                           lcp_solves=np.zeros(scheme.L, dtype=int))
    assert np.array_equal(reconstruct_states(model, rt), truth.states)
    price = reconstruct(model, rt, truth.mu.K, mesh)
    lift = truth.mu.K * (1 - mesh.interior_nodes / mesh.s_f)
    assert np.allclose(price, truth.states + lift)


def test_reconstruct_near_origin_carries_strike(model_16_16, default_mesh, test_params10):
    mu = test_params10[0]
    rt = reduced_trajectory(model_16_16, mu)
    price = reconstruct(model_16_16, rt, mu.K, default_mesh)
    gap = mu.K - price[:, 0]
    assert np.all(np.abs(gap) <= 2 * (default_mesh.nodes[1] - default_mesh.nodes[0]))


def test_reconstruct_price_floor_in_box(model_16_16, default_mesh, test_params10):
    # feasibility is enforced only against the reduced cone, so the nodal
    # payoff floor holds up to a small method-intrinsic violation
    for mu in test_params10:
        rt = reduced_trajectory(model_16_16, mu)
        price = reconstruct(model_16_16, rt, mu.K, default_mesh)
        payoff = np.maximum(mu.K - default_mesh.interior_nodes, 0.0)
        assert (price - payoff).min() >= -5e-2


def test_reconstruct_price_floor_extrapolated(model_16_16, default_mesh):
    # strike 1.9 outside the training box: extrapolation is allowed and the
    # floor degrades; bound frozen from the reference pipeline run (-0.146)
    rt = reduced_trajectory(model_16_16, EXTRAPOLATED_MU)
    price = reconstruct(model_16_16, rt, EXTRAPOLATED_MU.K, default_mesh)
    payoff = np.maximum(EXTRAPOLATED_MU.K - default_mesh.interior_nodes, 0.0)
    assert (price - payoff).min() >= -0.25


# ---------------------------------------------------------------------------
# error metrics


def test_error_metrics_zero(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    truth = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    assert error_metrics(truth, truth.states, default_ops) == 0.0


def test_error_metrics_constant_perturbation(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    truth = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    rng = np.random.default_rng(4)
    e = rng.normal(size=default_ops.dim)
    e /= energy_product(default_ops, e)
    err = error_metrics(truth, truth.states + e, default_ops)
    assert err == pytest.approx(np.sqrt(21.0 / 20.0), rel=1e-12)


def test_error_metrics_shape_mismatch(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    truth = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    with pytest.raises(ValueError):
        error_metrics(truth, truth.states[:, :-1], default_ops)


def _test_truths(small_setup):
    mesh, ops, scheme, box = small_setup
    from amrb import sample_training_set
    return [solve_trajectory(mu, ops, obstacle_data(mesh, mu.K), scheme)
            for mu in sample_training_set(box, 3, 99)]


def test_err_linf_is_max(small_model, small_setup):
    ops = small_setup[1]
    truths = _test_truths(small_setup)
    errors = err_linf(small_model, truths)
    assert errors.shape == (3,)
    each = []
    for truth in truths:
        rt = reduced_trajectory(small_model, truth.mu)
        each.append(error_metrics(truth, reconstruct_states(small_model, rt), ops))
    assert errors.tolist() == each
    assert errors.max() == max(each)


def test_err_linf_rejects_other_time_grid(small_model, small_setup):
    mesh, ops, scheme, _ = small_setup
    mu = ParameterVector(K=100.0, r=0.05, q=0.0015, sigma=0.5)
    other = dataclasses.replace(scheme, T=0.5)
    truth = solve_trajectory(mu, ops, obstacle_data(mesh, mu.K), other)
    with pytest.raises(ValueError, match="time grid"):
        err_linf(small_model, [truth])

