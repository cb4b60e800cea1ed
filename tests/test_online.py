import dataclasses

import numpy as np
import pytest

from amrb import (
    ParameterVector,
    build_reduced_model_from_store,
    err_linf,
    error_metrics,
    obstacle_data,
    online_setup,
    reconstruct,
    reconstruct_states,
    reduced_step,
    reduced_trajectory,
    solve_trajectory,
)
from amrb.online import (
    lifted_obstacle,
    reduced_residuals,
    write_comparison_csv,
    write_error_report_csv,
    write_reduced_trajectory_csv,
)

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
    mu = ParameterVector(K=50.0, r=1.0, q=1.0, sigma=1.0)
    data = online_setup(small_model, mu)
    assert np.allclose(data.a_n, small_model.a1_n + small_model.mass_n, rtol=0, atol=1e-14)
    expected_f = 50.0 * small_model.f1_n - 50.0 * small_model.f2_n
    assert np.allclose(data.f_n, expected_f)


def test_online_setup_cone_loads_match_store(small_model, small_store):
    mu = small_store.params[0]
    data = online_setup(small_model, mu)
    obstacle = small_store.obstacles[0]
    expected = small_model.xi_matrix.T @ obstacle.psi_tilde
    assert np.allclose(data.g_n, expected, rtol=0, atol=1e-12)
    assert np.allclose(lifted_obstacle(small_model, mu.K), obstacle.psi_tilde)


def projection_residual(model, ops, mu, u0):
    """Normal-equation residual of the energy projection, through the raw Gram."""
    psi = model.psi_matrix
    rhs = psi.T @ (ops.gram @ lifted_obstacle(model, mu.K))
    return (psi.T @ (ops.gram @ psi)) @ u0 - rhs, rhs


def test_online_setup_initial_projection_residual(small_model, small_setup, small_store):
    _, ops, _, _ = small_setup
    mu = small_store.params[1]
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
    cases = [(small_model, small_ops, small_store.params[2])]
    cases += [(model_16_16, default_ops, mu) for mu in test_params10[:3]]
    for model, ops, mu in cases:
        data = online_setup(model, mu)
        psi_tilde = lifted_obstacle(model, mu.K)
        best = ops.v_norm(psi_tilde - model.psi_matrix @ data.u0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            candidate = data.u0 + rng.normal(size=model.nv) * rng.random()
            other = ops.v_norm(psi_tilde - model.psi_matrix @ candidate)
            assert best <= other * (1 + 1e-12)


def test_online_setup_rejects_bad_mu(small_model):
    bad = dataclasses.replace  # silence lint; construct namespaces directly
    from types import SimpleNamespace
    with pytest.raises(ValueError):
        online_setup(small_model, SimpleNamespace(K=-1.0, r=0.0, q=0.0, sigma=0.5))


# ---------------------------------------------------------------------------
# reduced stepping


def test_reduced_step_unconstrained(small_model, small_store):
    mu = small_store.params[0]
    data = online_setup(small_model, mu)
    free = dataclasses.replace(data, g_n=np.full(small_model.nw, -1e6))
    rng = np.random.default_rng(1)
    u_prev = rng.normal(size=small_model.nv)
    u, alpha = reduced_step(u_prev, free)
    assert np.all(alpha == 0.0)
    # independent check through the raw matrices
    mass_dt = small_model.mass_n / small_model.config.delta_t
    rhs = (mass_dt - 0.5 * data.a_n) @ u_prev + data.f_n
    expected = np.linalg.solve(data.s_n, rhs)
    assert np.abs(u - expected).max() <= 1e-9 * (1 + np.abs(expected).max())
    with pytest.raises(ValueError):
        reduced_step(np.full(small_model.nv, np.nan), free)


def test_reduced_step_scalar_cone_closed_form(small_store, small_setup):
    _, ops, _, _ = small_setup
    model, _ = build_reduced_model_from_store(small_store, 3, 1, ops)
    mu = small_store.params[0]
    data = online_setup(model, mu)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u_prev = rng.normal(size=model.nv) * 10
        u, alpha = reduced_step(u_prev, data)
        mass_dt = model.mass_n / model.config.delta_t
        rhs = (mass_dt - 0.5 * data.a_n) @ u_prev + data.f_n
        base = np.linalg.solve(data.s_n, rhs)
        q = float((model.b_n.T @ base).item())
        m = float((model.b_n.T @ np.linalg.solve(data.s_n, model.b_n)).item())
        closed = max(0.0, (float(data.g_n[0]) - q) / m)
        assert alpha[0] == pytest.approx(closed, rel=1e-10, abs=1e-12)


def test_reduced_step_matches_enumeration(model_8_8, store16):
    from scipy.linalg import lu_solve

    mu = store16.params[3]
    data = online_setup(model_8_8, mu)
    rng = np.random.default_rng(3)
    rt = reduced_trajectory(model_8_8, mu)
    for k in range(20):
        # random states near the trajectory keep the problem realistic
        u_prev = rt.states[k % rt.states.shape[0]] + rng.normal(size=model_8_8.nv)
        u, alpha = reduced_step(u_prev, data)
        base = lu_solve(data.s_lu, data.rhs_n @ u_prev + data.f_n)
        q = data.b_n.T @ base
        alpha_ref = alpha_by_enumeration(data.schur, q, data.g_n)
        assert alpha_ref is not None
        assert np.abs(alpha - alpha_ref).max() <= 1e-11 * (1 + np.abs(alpha_ref).max())
        u_ref = base + data.sinv_b @ alpha_ref
        assert np.abs(u - u_ref).max() <= 1e-9 * (1 + np.abs(u_ref).max())


# ---------------------------------------------------------------------------
# reduced trajectories


def test_reduced_trajectory_contract(small_model, small_store):
    mu = small_store.params[0]
    rt = reduced_trajectory(small_model, mu)
    data = online_setup(small_model, mu)
    assert np.array_equal(rt.states[0], data.u0)
    assert rt.cone_coeffs.min() >= -1e-12
    res = reduced_residuals(rt, data, small_model)
    assert res["min_cone_gap"] >= -1e-9
    assert res["max_complementarity"] <= 1e-9


def test_reduced_trajectory_checks_schur_once(model_8_8, test_params10, monkeypatch):
    import amrb.online as online_mod

    calls = []
    check = online_mod.check_lcp_matrix
    monkeypatch.setattr(online_mod, "check_lcp_matrix", lambda S: calls.append(1) or check(S))
    rt = reduced_trajectory(model_8_8, test_params10[0])
    assert len(calls) == 1
    assert rt.lcp_solves.sum() > 0


def test_reduced_feasibility_stock_models(model_8_8, model_16_16, test_params10):
    for model in (model_8_8, model_16_16):
        for mu in test_params10[:3]:
            rt = reduced_trajectory(model, mu)
            data = online_setup(model, mu)
            res = reduced_residuals(rt, data, model)
            assert rt.cone_coeffs.min() >= -1e-12
            assert res["min_cone_gap"] >= -1e-9
            assert res["max_complementarity"] <= 1e-9


def test_warm_start_is_exact(model_8_8, model_16_16, test_params10):
    # each step of reduced_trajectory starts from the previous cone active
    # set; a march that starts every step from the empty set must agree
    from amrb.online import _cold_step

    for model in (model_8_8, model_16_16):
        solves = []
        for mu in test_params10:
            rt = reduced_trajectory(model, mu)
            data = online_setup(model, mu)
            states = [data.u0]
            alphas = []
            for _ in range(model.config.L):
                u, alpha = _cold_step(states[-1], data)
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
                                 identity_operator_set(ops.dim), scheme, nv_tilde=ops.dim)
    truth = small_store.trajectories[0]
    rt_like = dataclasses.replace  # direct container
    from amrb.online import ReducedTrajectory
    rt = ReducedTrajectory(mu=truth.mu, states=truth.states,
                           cone_coeffs=np.zeros((scheme.L, 0)))
    assert np.array_equal(reconstruct_states(model, rt), truth.states)
    price = reconstruct(model, rt, truth.mu.K, mesh)
    lift = truth.mu.K * (1 - mesh.interior_nodes / mesh.s_f)
    assert np.allclose(price, truth.states + lift)


def test_reconstruct_near_origin_carries_strike(model_16_16, default_mesh, test_params10):
    mu = test_params10[0]
    rt = reduced_trajectory(model_16_16, mu)
    price = reconstruct(model_16_16, rt, mu.K, default_mesh)
    gap = mu.K - price[:, 0]
    assert np.all(np.abs(gap) <= 2 * default_mesh.delta_s)


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
    e /= default_ops.v_norm(e)
    err = error_metrics(truth, truth.states + e, default_ops)
    assert err == pytest.approx(np.sqrt(21.0 / 20.0), rel=1e-12)


def test_error_metrics_shape_mismatch(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    truth = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    with pytest.raises(ValueError):
        error_metrics(truth, truth.states[:, :-1], default_ops)


def test_err_linf_is_max(small_model, small_setup):
    _, ops, scheme, box = small_setup
    from amrb import sample_training_set
    test_set = sample_training_set(box, 3, 99)
    report = err_linf(small_model, test_set, ops, scheme, box=box)
    assert report.err_linf == pytest.approx(report.err_values.max())
    assert report.in_box == (True, True, True)
    assert report.nv == small_model.nv


def test_error_report_csv(tmp_path, small_model, small_setup):
    _, ops, scheme, box = small_setup
    from amrb import sample_training_set
    test_set = sample_training_set(box, 3, 99)
    report = err_linf(small_model, test_set, ops, scheme, box=box)
    path = tmp_path / "errors.csv"
    write_error_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "K,r,q,sigma,err_N"
    assert len(lines) == 1 + 3 + 1
    assert lines[-1].startswith("ERR_LINF,,,,")
    assert float(lines[-1].split(",")[-1]) == report.err_linf


def test_trajectory_csvs(tmp_path, small_model, small_store, small_setup):
    mesh, ops, scheme, _ = small_setup
    mu = small_store.params[0]
    rt = reduced_trajectory(small_model, mu)
    reduced_path = tmp_path / "reduced.csv"
    write_reduced_trajectory_csv(reduced_path, small_model, rt, mesh)
    lines = reduced_path.read_text().splitlines()
    assert lines[0] == "step,t,s,u,lambda,price,source"
    assert len(lines) - 1 == (scheme.L + 1) * mesh.H
    assert lines[1].endswith(",reduced")

    truth = small_store.trajectories[0]
    cmp_path = tmp_path / "cmp.csv"
    write_comparison_csv(cmp_path, small_model, truth, rt, mesh)
    lines = cmp_path.read_text().splitlines()
    assert len(lines) - 1 == 2 * (scheme.L + 1) * mesh.H
    sources = {line.rsplit(",", 1)[-1] for line in lines[1:]}
    assert sources == {"truth", "reduced"}
