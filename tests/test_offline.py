import json

import numpy as np
import pytest

from amrb import (
    BasisSaturationError,
    ConeSaturationError,
    DegenerateInputError,
    InfSupFailureError,
    ModelCorruptionError,
    ModelLoadError,
    ModelVersionError,
    ParameterBox,
    ParameterVector,
    SchemeConfig,
    SnapshotStore,
    Trajectory,
    angle_greedy,
    angle_to_subspace,
    assemble_reduced,
    build_reduced_model_from_store,
    enrich_with_supremizers,
    generate_snapshots,
    load_model,
    pod1,
    pod_greedy,
    sample_training_set,
    save_model,
    verify_model,
    w_inner,
    w_norm,
)
from amrb.offline import write_greedy_csvs

from conftest import dense, identity_operator_set


# ---------------------------------------------------------------------------
# training set sampling


def test_sample_degenerate_box():
    box = ParameterBox(K0=100.0, r0=0.05, q0=0.0015, sigma0=0.5, eps=0.0)
    params = sample_training_set(box, 5, 0)
    for mu in params:
        assert (mu.K, mu.r, mu.q, mu.sigma) == (100.0, 0.05, 0.0015, 0.5)


def test_sample_inside_default_box(default_box):
    for seed in (0, 1, 17):
        for mu in sample_training_set(default_box, 50, seed):
            assert 95.0 <= mu.K <= 105.0
            assert 0.0475 <= mu.r <= 0.0525
            assert 0.001425 <= mu.q <= 0.001575
            assert 0.475 <= mu.sigma <= 0.525


def test_sample_deterministic(default_box):
    a = sample_training_set(default_box, 8, 123)
    b = sample_training_set(default_box, 8, 123)
    assert a == b
    ss = np.random.SeedSequence([123, 0])
    c = sample_training_set(default_box, 8, ss)
    d = sample_training_set(default_box, 8, np.random.SeedSequence([123, 0]))
    assert c == d


def test_sample_requires_positive_count(default_box):
    with pytest.raises(ValueError):
        sample_training_set(default_box, 0, 0)


# ---------------------------------------------------------------------------
# snapshot generation


def test_snapshot_counts(small_setup):
    mesh, ops, scheme, box = small_setup
    params = sample_training_set(box, 1, 5)
    store = generate_snapshots(params, ops, scheme)
    assert store.n_params == 1
    assert store.primal_matrix().shape == (ops.dim, scheme.L + 1)
    lam, labels = store.multiplier_matrix()
    assert lam.shape == (ops.dim, scheme.L)
    assert labels[0] == (1, 0)
    assert labels[-1] == (scheme.L, 0)


def test_snapshot_initial_states_exact(small_store):
    for traj, obstacle in zip(small_store.trajectories, small_store.obstacles):
        assert np.array_equal(traj.states[0], obstacle.psi_tilde)


def test_snapshot_counts_stock_configuration(store16):
    assert store16.primal_matrix().shape == (99, 16 * 21)
    lam, labels = store16.multiplier_matrix()
    assert lam.shape == (99, 16 * 20)
    assert len(labels) == 320


def test_snapshot_store_rejects_duplicates(small_store):
    params = (small_store.params[0], small_store.params[0])
    with pytest.raises(ValueError):
        SnapshotStore(params=params,
                      trajectories=small_store.trajectories[:2],
                      obstacles=small_store.obstacles[:2],
                      mesh=small_store.mesh, config=small_store.config)


# ---------------------------------------------------------------------------
# POD


def test_pod1_single_vector(default_ops):
    rng = np.random.default_rng(0)
    v = rng.normal(size=default_ops.dim)
    mode = pod1([v], default_ops)
    expected = v / default_ops.v_norm(v)
    if expected[np.argmax(np.abs(expected))] < 0:
        expected = -expected
    assert np.allclose(mode, expected, atol=1e-12)


def test_pod1_dominant_direction(default_ops):
    rng = np.random.default_rng(1)
    a = rng.normal(size=default_ops.dim)
    a /= default_ops.v_norm(a)
    b = rng.normal(size=default_ops.dim)
    b -= a * default_ops.v_inner(a, b)
    b /= default_ops.v_norm(b)
    mode = pod1([2.0 * a, 1.0 * b], default_ops)
    assert abs(abs(default_ops.v_inner(mode, a)) - 1.0) <= 1e-10


def test_pod1_energy_matches_eigensolver():
    ops = assemble_small()
    rng = np.random.default_rng(2)
    vectors = [rng.normal(size=ops.dim) for _ in range(20)]
    mode = pod1(vectors, ops)
    energy = sum(ops.v_inner(v, mode) ** 2 for v in vectors)
    gram = np.array([[ops.v_inner(v, w) for w in vectors] for v in vectors])
    top = np.linalg.eigvalsh(gram)[-1]
    assert energy == pytest.approx(top, rel=1e-10)


def assemble_small():
    from amrb import assemble_operators, build_mesh
    return assemble_operators(build_mesh(30, 10.0))


def test_pod1_degenerate(default_ops):
    with pytest.raises(DegenerateInputError):
        pod1([np.zeros(default_ops.dim)], default_ops)


# ---------------------------------------------------------------------------
# POD-greedy


def _constant_store(ops, scheme, value=2.0):
    H = ops.dim
    mu = ParameterVector(K=100.0, r=0.05, q=0.0015, sigma=0.5)
    states = np.tile(np.linspace(1.0, value, H), (scheme.L + 1, 1))
    traj = Trajectory(mu=mu, states=states,
                      multipliers=np.zeros((scheme.L, H)), config=scheme,
                      pdas_iterations=np.ones(scheme.L, dtype=int))
    from amrb import obstacle_data
    return SnapshotStore(params=(mu,), trajectories=(traj,),
                         obstacles=(obstacle_data(ops.mesh, mu.K),),
                         mesh=ops.mesh, config=scheme)


def test_pod_greedy_saturates_on_constant_trajectory(default_ops, default_scheme):
    store = _constant_store(default_ops, default_scheme)
    vectors, eps, selected = pod_greedy(store, 1, default_ops)
    assert vectors.shape[1] == 1
    assert eps[0] <= 1e-8
    with pytest.raises(BasisSaturationError) as err:
        pod_greedy(store, 2, default_ops)
    assert err.value.achieved == 1
    assert err.value.info["vectors"].shape[1] == 1


def test_pod_greedy_small_run(small_store, small_setup):
    _, ops, _, _ = small_setup
    vectors, eps, selected = pod_greedy(small_store, 6, ops)
    assert vectors.shape == (ops.dim, 6)
    gram = vectors.T @ (ops.gram @ vectors)
    assert np.abs(gram - np.eye(6)).max() <= 1e-10
    assert np.all(np.diff(eps) <= 1e-12 * (1 + eps[:-1]))
    assert selected[0] == 0
    assert all(0 <= i < small_store.n_params for i in selected)


# ---------------------------------------------------------------------------
# angles


def test_angle_identity_ops_basics():
    ops = identity_operator_set(6)
    e1 = np.eye(6)[0]
    e2 = np.eye(6)[1]
    assert angle_to_subspace(e2, [], ops) == pytest.approx(np.pi / 2)
    assert angle_to_subspace(e2, [e1], ops) == pytest.approx(np.pi / 2, abs=1e-10)
    assert angle_to_subspace(e1, [e1], ops) <= 1e-7
    mixed = (e1 + e2) / np.sqrt(2)
    assert angle_to_subspace(mixed, [e1], ops) == pytest.approx(np.pi / 4, rel=1e-10)


def test_angle_member_of_span(default_ops):
    rng = np.random.default_rng(3)
    basis = [rng.normal(size=default_ops.dim) for _ in range(4)]
    member = 0.3 * basis[0] - 1.7 * basis[2]
    assert angle_to_subspace(member, basis, default_ops) <= 1e-7


def test_angle_zero_input(default_ops):
    with pytest.raises(DegenerateInputError):
        angle_to_subspace(np.zeros(default_ops.dim), [], default_ops)


def test_angle_against_gram_schmidt_oracle(default_ops):
    # orthonormalize the basis in the dual inner product, project, compare
    rng = np.random.default_rng(4)
    basis = [rng.normal(size=default_ops.dim) for _ in range(5)]
    lam = rng.normal(size=default_ops.dim)
    ortho = []
    for b in basis:
        v = b.copy()
        for q in ortho:
            v = v - q * w_inner(q, v, default_ops)
        ortho.append(v / w_norm(v, default_ops))
    proj_sq = sum(w_inner(q, lam, default_ops) ** 2 for q in ortho)
    cos_oracle = np.sqrt(proj_sq) / w_norm(lam, default_ops)
    angle = angle_to_subspace(lam, basis, default_ops)
    assert np.cos(angle) == pytest.approx(cos_oracle, rel=1e-10)


# ---------------------------------------------------------------------------
# angle-greedy


def _parallel_multiplier_store(ops, scheme):
    H = ops.dim
    mu = ParameterVector(K=100.0, r=0.05, q=0.0015, sigma=0.5)
    base = np.abs(np.sin(np.arange(1, H + 1)))
    multipliers = np.array([(n + 1) * base for n in range(scheme.L)])
    traj = Trajectory(mu=mu, states=np.zeros((scheme.L + 1, H)) + 1.0,
                      multipliers=multipliers, config=scheme,
                      pdas_iterations=np.ones(scheme.L, dtype=int))
    from amrb import obstacle_data
    return SnapshotStore(params=(mu,), trajectories=(traj,),
                         obstacles=(obstacle_data(ops.mesh, mu.K),),
                         mesh=ops.mesh, config=scheme)


def test_angle_greedy_parallel_snapshots(default_ops, default_scheme):
    store = _parallel_multiplier_store(default_ops, default_scheme)
    xi, eps, selected = angle_greedy(store, 1, default_ops)
    assert xi.shape[1] == 1
    assert selected == [(1, 0)]
    with pytest.raises(ConeSaturationError) as err:
        angle_greedy(store, 2, default_ops)
    assert err.value.achieved == 1
    assert err.value.info["xi"].shape[1] == 1


def test_angle_greedy_small_run(small_store, small_setup):
    _, ops, _, _ = small_setup
    xi, eps, selected = angle_greedy(small_store, 5, ops)
    assert xi.shape[1] == 5
    assert len(selected) == 5
    assert eps[0] <= np.pi / 2 + 1e-12
    assert np.all(np.diff(eps) <= 1e-12 + 1e-10 * eps[:-1])
    for gen in xi.T:
        assert gen.min() >= -1e-14
        assert w_norm(gen, ops) == pytest.approx(1.0, abs=1e-10)


def test_angle_greedy_all_zero_multipliers(default_ops, default_scheme):
    store = _constant_store(default_ops, default_scheme)
    with pytest.raises(ConeSaturationError) as err:
        angle_greedy(store, 1, default_ops)
    assert err.value.achieved == 0


# ---------------------------------------------------------------------------
# enrichment and reduced assembly


def test_enrich_empty_cone(default_ops):
    rng = np.random.default_rng(5)
    pod = rng.normal(size=(default_ops.dim, 3))
    psi, dropped = enrich_with_supremizers(pod, np.zeros((default_ops.dim, 0)), default_ops)
    assert np.array_equal(psi, pod)
    assert dropped == []


def test_enrich_supremizer_residual(small_store, small_setup):
    _, ops, _, _ = small_setup
    vectors, _, _ = pod_greedy(small_store, 4, ops)
    xi, _, _ = angle_greedy(small_store, 3, ops)
    psi, dropped = enrich_with_supremizers(vectors, xi, ops)
    assert psi.shape[1] == 7 and dropped == []
    assert np.array_equal(psi[:, :4], vectors)
    assert np.abs(psi.T @ (ops.gram @ psi) - np.eye(7)).max() <= 1e-10
    for j in range(xi.shape[1]):
        # each supremizer lift lies in the span of the enriched basis
        lift = ops.x_solve(xi[:, j])
        resid = lift - psi @ (psi.T @ (ops.gram @ lift))
        assert ops.v_norm(resid) <= 1e-10 * ops.v_norm(lift)


def test_enrich_drops_dependent_lift(small_store, small_setup):
    _, ops, _, _ = small_setup
    vectors, _, _ = pod_greedy(small_store, 3, ops)
    xi, _, _ = angle_greedy(small_store, 2, ops)
    dup = np.hstack([xi, xi[:, -1:]])
    psi, dropped = enrich_with_supremizers(vectors, dup, ops)
    assert dropped == [2]
    assert psi.shape[1] == 3 + 2


def test_assemble_reduced_identity_basis():
    from amrb import assemble_operators, build_mesh
    ops = assemble_operators(build_mesh(6, 12.0))
    # a full basis orthonormal in the energy product: psi = L^{-T}, gram = L L'
    chol = np.linalg.cholesky(dense(ops.gram))
    psi = np.linalg.inv(chol).T
    inv = chol.T  # psi^{-1}
    xi = np.eye(6)[:, :2]
    cfg = SchemeConfig(T=1.0, L=4, theta=0.5)
    model = assemble_reduced(psi, xi, ops, cfg, nv_tilde=6)
    # mapped back to nodal coordinates, the reduced blocks are the full ones
    assert np.allclose(inv.T @ model.mass_n @ inv, dense(ops.mass))
    assert np.allclose(inv.T @ model.a1_n @ inv, dense(ops.a1))
    assert np.allclose(inv.T @ model.a2_n @ inv, dense(ops.a2))
    assert np.allclose(inv.T @ model.f1_n, ops.f1)
    assert np.allclose(inv.T @ model.b_n, xi)
    np.linalg.cholesky(model.mass_n)  # SPD


def test_assemble_reduced_coupling_two_ways(small_store, small_setup):
    _, ops, _, _ = small_setup
    vectors, _, _ = pod_greedy(small_store, 4, ops)
    xi, _, _ = angle_greedy(small_store, 3, ops)
    psi, _ = enrich_with_supremizers(vectors, xi, ops)
    cfg = small_store.config
    model = assemble_reduced(psi, xi, ops, cfg, nv_tilde=4)
    for i in range(model.nv):
        for j in range(model.nw):
            direct = float(xi[:, j] @ psi[:, i])
            lift = ops.x_solve(xi[:, j])
            via_riesz = ops.v_inner(lift, psi[:, i])
            assert model.b_n[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-12)
            assert direct == pytest.approx(via_riesz, rel=1e-10, abs=1e-10)


def test_assemble_reduced_rank_failure(small_store, small_setup):
    _, ops, _, _ = small_setup
    vectors, _, _ = pod_greedy(small_store, 3, ops)
    gen = np.abs(np.random.default_rng(6).normal(size=ops.dim))
    xi = np.column_stack([gen, gen])
    with pytest.raises(InfSupFailureError):
        assemble_reduced(vectors, xi, ops, small_store.config, nv_tilde=3)


# ---------------------------------------------------------------------------
# model pipeline, serialization


def test_build_reduced_model_invariants(small_model, small_setup):
    _, ops, _, _ = small_setup
    assert small_model.nv == small_model.nv_tilde + small_model.nw
    verify_model(small_model, ops)
    diag = small_model.diagnostics
    assert len(diag.eps_u) == small_model.nv_tilde
    assert len(diag.eps_lambda) == small_model.nw
    assert len(diag.selected_params_u) == small_model.nv_tilde
    assert len(diag.selected_pairs_lambda) == small_model.nw


def test_save_load_roundtrip(tmp_path, small_model):
    p1 = tmp_path / "model.json"
    p2 = tmp_path / "model2.json"
    save_model(small_model, p1)
    loaded = load_model(p1)
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(loaded.psi_matrix, small_model.psi_matrix)
    assert np.array_equal(loaded.b_n, small_model.b_n)
    assert loaded.config == small_model.config


def test_load_rejects_wrong_version(tmp_path, small_model):
    path = tmp_path / "model.json"
    save_model(small_model, path)
    doc = json.loads(path.read_text())
    for version in (99, 1):
        doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError):
            load_model(path)


def test_load_rejects_corrupted_coupling(tmp_path, small_model):
    path = tmp_path / "model.json"
    save_model(small_model, path)
    doc = json.loads(path.read_text())
    nv, nw = small_model.nv, small_model.nw
    doc["B_N"] = [[0.0] * nw for _ in range(nv)]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelLoadError):
        load_model(path)
    # a rescaled basis column breaks energy orthonormality
    save_model(small_model, path)
    doc = json.loads(path.read_text())
    for row in doc["psi_matrix"]:
        row[0] *= 1.0 + 1e-6
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelLoadError, match="energy-orthonormal"):
        load_model(path)


def test_load_rejects_malformed(tmp_path, small_model):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(ModelLoadError):
        load_model(path)
    save_model(small_model, path)
    doc = json.loads(path.read_text())
    del doc["Mass_N"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelLoadError):
        load_model(path)
    save_model(small_model, path)
    doc = json.loads(path.read_text())
    doc["f1_N"] = doc["f1_N"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelLoadError):
        load_model(path)
    for key, value in (("B_N", []), ("diagnostics", [1]),
                       ("diagnostics", {"eps_u": [[1.0, 0.5]]})):
        save_model(small_model, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError):
            load_model(path)


def test_verify_model_detects_tampering(small_model, small_setup):
    _, ops, _, _ = small_setup
    import dataclasses
    bad = dataclasses.replace(small_model, mass_n=small_model.mass_n + 1e-6)
    with pytest.raises(ModelCorruptionError):
        verify_model(bad, ops)
    # a rescaled basis with every block recomputed from it: only the
    # energy orthonormality of psi is violated
    psi = small_model.psi_matrix * (1.0 + 1e-6)
    bad = dataclasses.replace(
        small_model, psi_matrix=psi, gram_psi=ops.gram @ psi,
        mass_n=psi.T @ (ops.mass @ psi), a1_n=psi.T @ (ops.a1 @ psi),
        a2_n=psi.T @ (ops.a2 @ psi), f1_n=psi.T @ ops.f1, f2_n=psi.T @ ops.f2,
        b_n=psi.T @ small_model.xi_matrix)
    with pytest.raises(ModelCorruptionError, match="energy-orthonormal"):
        verify_model(bad, ops)


def test_greedy_csvs(tmp_path, small_model):
    pod_path = tmp_path / "pod.csv"
    angle_path = tmp_path / "angle.csv"
    write_greedy_csvs(small_model.diagnostics, pod_path, angle_path)
    pod_lines = pod_path.read_text().splitlines()
    assert pod_lines[0] == "iteration,eps_u,K,r,q,sigma"
    assert len(pod_lines) - 1 == small_model.nv_tilde
    eps = [float(line.split(",")[1]) for line in pod_lines[1:]]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(eps, eps[1:]))
    angle_lines = angle_path.read_text().splitlines()
    assert angle_lines[0] == "iteration,eps_lambda,n,K,r,q,sigma"
    assert len(angle_lines) - 1 == small_model.nw


def test_saturation_degrades_gracefully(default_ops, default_scheme):
    store = _parallel_multiplier_store(default_ops, default_scheme)
    model, warnings = build_reduced_model_from_store(store, 1, 4, default_ops)
    assert model.nw == 1
    assert any("saturated" in w for w in warnings)


def test_rank_floor_trims_cone(default_ops, default_scheme):
    # the third multiplier snapshot sits at an angle of about 1.5e-10 to the
    # span of the first two: above the greedy's angle floor, so it is
    # selected, but its coupling column puts smin/smax(B_N) near 7e-11,
    # below the rank floor; the pipeline must trim it and proceed
    H = default_ops.dim
    s = default_ops.mesh.interior_nodes
    a = np.exp(-s / 50.0)
    b = np.exp(-((s - 100.0) / 30.0) ** 2)
    c = np.exp(-((s - 200.0) / 30.0) ** 2)
    lam = np.tile(a, (default_scheme.L, 1))
    lam[1] = b
    lam[2] = a + 4e-10 * c
    mu = ParameterVector(K=100.0, r=0.05, q=0.0015, sigma=0.5)
    traj = Trajectory(mu=mu, states=np.ones((default_scheme.L + 1, H)),
                      multipliers=lam, config=default_scheme,
                      pdas_iterations=np.ones(default_scheme.L, dtype=int))
    from amrb import obstacle_data
    store = SnapshotStore(params=(mu,), trajectories=(traj,),
                          obstacles=(obstacle_data(default_ops.mesh, mu.K),),
                          mesh=default_ops.mesh, config=default_scheme)
    _, eps, _ = angle_greedy(store, 3, default_ops)
    assert 1e-10 < eps[1] < 3e-10
    model, warnings = build_reduced_model_from_store(store, 1, 3, default_ops)
    assert model.nw == 2
    assert warnings == ["dropped cone generator 2: coupling rank floor"]
    assert len(model.diagnostics.eps_lambda) == model.nw
    assert model.diagnostics.selected_pairs_lambda == ((1, 0), (2, 0))
    verify_model(model, default_ops)


def test_seed13_keeps_full_cone(default_ops, default_scheme, default_box):
    # with the plain union of POD modes and lifts, seed 13's 16th generator
    # fell below the rank floor (smin/smax 6.7e-11); in the orthonormal
    # basis the same cone keeps smin/smax near 8e-6 and all 16 generators
    from amrb import sample_training_set
    from amrb.cli import test_stream, train_stream
    from amrb.online import online_setup, reduced_residuals, reduced_trajectory

    params = sample_training_set(default_box, 16, train_stream(13))
    store = generate_snapshots(params, default_ops, default_scheme)
    model, warnings = build_reduced_model_from_store(store, 16, 16, default_ops)
    assert model.nw == 16 and model.nv == 32
    assert not any("rank floor" in w for w in warnings)
    verify_model(model, default_ops)
    for mu in sample_training_set(default_box, 10, test_stream(13)):
        rt = reduced_trajectory(model, mu)
        res = reduced_residuals(rt, online_setup(model, mu), model)
        assert rt.cone_coeffs.min() >= -1e-12
        assert res["min_cone_gap"] >= -1e-9
        assert res["max_complementarity"] <= 1e-9
