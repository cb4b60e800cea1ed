import dataclasses
import json

import numpy as np
import pytest

from amrb import (
    DegenerateInputError,
    InfSupFailureError,
    ModelCorruptionError,
    ModelLoadError,
    ModelVersionError,
    ParameterBox,
    ParameterVector,
    ReducedModel,
    SchemeConfig,
    SnapshotStore,
    Trajectory,
    angle_greedy,
    assemble_operators,
    assemble_reduced,
    build_mesh,
    build_reduced_model_from_store,
    enrich_with_supremizers,
    generate_snapshots,
    load_model,
    obstacle_data,
    pod_greedy,
    sample_training_set,
    save_model,
    solve_trajectory,
    verify_model,
)
from amrb.offline import (
    NORM_FLOOR,
    RANK_FLOOR,
    _dominant_mode,
    truncated_model,
    write_greedy_csvs,
)

from conftest import dense, empty_diagnostics, identity_operator_set


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


def test_sampled_parameters_hold_plain_floats(default_box):
    # a numpy row's entries are np.float64, whose repr reached error messages
    # and the JSON error line as "K=np.float64(101.36...)"
    for mu in sample_training_set(default_box, 3, 5):
        assert all(type(v) is float for v in (mu.K, mu.r, mu.q, mu.sigma))
        assert "np.float64" not in repr(mu)


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


def test_snapshot_initial_states_exact(small_store, small_setup):
    for mu, traj in zip(small_store.params, small_store.trajectories):
        assert np.array_equal(traj.states[0], obstacle_data(small_setup[0], mu.K).psi_tilde)


def test_snapshot_counts_stock_configuration(store16):
    assert store16.primal_matrix().shape == (99, 16 * 21)
    lam, labels = store16.multiplier_matrix()
    assert lam.shape == (99, 16 * 20)
    assert len(labels) == 320


def test_snapshot_store_rejects_duplicates(small_store, small_setup):
    # the parameters and the time grid are the trajectories' own
    trajs = small_store.trajectories
    assert small_store.params == tuple(traj.mu for traj in trajs)
    assert small_store.config == trajs[0].config
    mesh, ops, scheme, _ = small_setup
    mu = ParameterVector(K=101.0, r=0.05, q=0.0015, sigma=0.5)
    other_grid = solve_trajectory(mu, ops, obstacle_data(mesh, mu.K),
                                  dataclasses.replace(scheme, T=0.5))
    wide_ops = assemble_operators(build_mesh(ops.dim + 1, mesh.s_f))
    other_width = solve_trajectory(mu, wide_ops, obstacle_data(wide_ops.mesh, mu.K), scheme)
    for bad, reason in (((trajs[0], trajs[0]), "distinct"), ((trajs[0], other_grid), "grid"),
                        ((trajs[0], other_width), "mesh"), ((), "empty")):
        with pytest.raises(ValueError, match=reason):
            SnapshotStore(bad)


# ---------------------------------------------------------------------------
# POD


def test_pod1_single_vector(default_ops):
    rng = np.random.default_rng(0)
    v = rng.normal(size=default_ops.dim)
    mode = _dominant_mode(default_ops.whiten(v[:, None]), default_ops)[1]
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
    mode = _dominant_mode(default_ops.whiten(np.column_stack([2.0 * a, 1.0 * b])),
                          default_ops)[1]
    assert abs(abs(default_ops.v_inner(mode, a)) - 1.0) <= 1e-10


def test_pod1_energy_matches_eigensolver():
    ops = assemble_small()
    rng = np.random.default_rng(2)
    vectors = [rng.normal(size=ops.dim) for _ in range(20)]
    mode = _dominant_mode(ops.whiten(np.column_stack(vectors)), ops)[1]
    energy = sum(ops.v_inner(v, mode) ** 2 for v in vectors)
    gram = np.array([[ops.v_inner(v, w) for w in vectors] for v in vectors])
    top = np.linalg.eigvalsh(gram)[-1]
    assert energy == pytest.approx(top, rel=1e-10)


def assemble_small():
    from amrb import assemble_operators, build_mesh
    return assemble_operators(build_mesh(30, 10.0))


def test_pod1_degenerate(default_ops):
    with pytest.raises(DegenerateInputError):
        _dominant_mode(default_ops.whiten(np.zeros((default_ops.dim, 1))), default_ops)


# ---------------------------------------------------------------------------
# POD-greedy


def _constant_store(ops, scheme, value=2.0):
    H = ops.dim
    mu = ParameterVector(K=100.0, r=0.05, q=0.0015, sigma=0.5)
    states = np.tile(np.linspace(1.0, value, H), (scheme.L + 1, 1))
    traj = Trajectory(mu=mu, states=states,
                      multipliers=np.zeros((scheme.L, H)), config=scheme,
                      pdas_iterations=np.ones(scheme.L, dtype=int))
    return SnapshotStore((traj,))


def test_pod_greedy_saturates_on_constant_trajectory(default_ops, default_scheme):
    store = _constant_store(default_ops, default_scheme)
    vectors, eps, selected = pod_greedy(store, 1, default_ops)
    assert vectors.shape[1] == 1
    assert eps[0] <= 1e-8
    # a budget beyond the one reachable direction returns that run unchanged
    short = pod_greedy(store, 2, default_ops)
    assert np.array_equal(short[0], vectors)
    assert np.array_equal(short[1], eps)
    assert short[2] == selected == [0]


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


def _multiplier_store(ops, lams):
    """One-parameter store whose multiplier snapshots are the rows of lams."""
    lams = np.asarray(lams, dtype=float)
    scheme = SchemeConfig(T=1.0, L=lams.shape[0], theta=0.5)
    mu = ParameterVector(K=100.0, r=0.05, q=0.0015, sigma=0.5)
    traj = Trajectory(mu=mu, states=np.ones((scheme.L + 1, ops.dim)), multipliers=lams,
                      config=scheme, pdas_iterations=np.ones(scheme.L, dtype=int))
    return SnapshotStore((traj,))


def test_angle_identity_ops_basics():
    # with identity operators the greedy's angles are Euclidean ones
    ops = identity_operator_set(6)
    e1, e2 = np.eye(6)[:2]
    _, eps, _ = angle_greedy(_multiplier_store(ops, [e1, e2]), 2, ops)
    assert eps[0] == pytest.approx(np.pi / 2)
    _, eps, _ = angle_greedy(_multiplier_store(ops, [e1, (e1 + e2) / np.sqrt(2)]), 2, ops)
    assert eps[0] == pytest.approx(np.pi / 4, rel=1e-10)
    xi, eps, _ = angle_greedy(_multiplier_store(ops, [e1, 3.0 * e1]), 2, ops)
    assert xi.shape[1] == 1 and eps[0] <= 1e-7


def test_angle_member_of_span(default_ops):
    # a snapshot in the span of the others adds no generator
    rng = np.random.default_rng(3)
    basis = rng.normal(size=(4, default_ops.dim))
    member = 0.3 * basis[0] - 1.7 * basis[2]
    xi, eps, _ = angle_greedy(_multiplier_store(default_ops, [*basis, member]), 5, default_ops)
    assert xi.shape[1] == 4
    assert eps[-1] <= 1e-7


def test_angle_zero_input(default_ops):
    # snapshots of zero dual norm neither start the cone nor join it
    rng = np.random.default_rng(5)
    zero = np.zeros(default_ops.dim)
    lams = [zero, zero, rng.normal(size=default_ops.dim), zero, rng.normal(size=default_ops.dim)]
    xi, eps, selected = angle_greedy(_multiplier_store(default_ops, lams), 4, default_ops)
    assert selected == [(3, 0), (5, 0)]
    assert xi.shape[1] == 2 and np.isfinite(eps).all()


def test_angle_against_gram_schmidt_oracle(small_store, small_setup):
    # orthonormalize the generators in the dual inner product: the recorded
    # eps_lambda[k] is the largest angle between a snapshot of positive dual
    # norm and the span of the first k + 1 generators
    _, ops, _, _ = small_setup
    xi, eps, _ = angle_greedy(small_store, 5, ops)
    assert xi.shape[1] == 5
    dual = np.linalg.inv(dense(ops.gram))  # eta' dual zeta is the dual inner product
    lams = [lam for lam in small_store.multiplier_matrix()[0].T
            if np.sqrt(lam @ dual @ lam) > NORM_FLOOR]
    ortho = []
    for k in range(xi.shape[1]):
        v = xi[:, k].copy()
        for _ in range(2):
            for q in ortho:
                v = v - q * (q @ dual @ v)
        ortho.append(v / np.sqrt(v @ dual @ v))
        cos_oracle = min(np.sqrt(sum((q @ dual @ lam) ** 2 for q in ortho))
                         / np.sqrt(lam @ dual @ lam) for lam in lams)
        assert np.cos(eps[k]) == pytest.approx(cos_oracle, rel=1e-10, abs=1e-12)


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
    return SnapshotStore((traj,))


def test_angle_greedy_parallel_snapshots(default_ops, default_scheme):
    store = _parallel_multiplier_store(default_ops, default_scheme)
    xi, eps, selected = angle_greedy(store, 1, default_ops)
    assert xi.shape[1] == 1
    assert selected == [(1, 0)]
    # every further snapshot is parallel: a larger budget returns the same cone
    short = angle_greedy(store, 2, default_ops)
    assert np.array_equal(short[0], xi)
    assert np.array_equal(short[1], eps)
    assert short[2] == selected


def test_angle_greedy_small_run(small_store, small_setup):
    _, ops, _, _ = small_setup
    xi, eps, selected = angle_greedy(small_store, 5, ops)
    assert xi.shape[1] == 5
    assert len(selected) == 5
    assert eps[0] <= np.pi / 2 + 1e-12
    assert np.all(np.diff(eps) <= 1e-12 + 1e-10 * eps[:-1])
    for gen in xi.T:
        assert gen.min() >= -1e-14
        assert np.linalg.norm(ops.whiten_dual(gen)) == pytest.approx(1.0, abs=1e-10)


def test_angle_greedy_all_zero_multipliers(default_ops, default_scheme):
    store = _constant_store(default_ops, default_scheme)
    xi, eps, selected = angle_greedy(store, 1, default_ops)
    assert xi.shape == (default_ops.dim, 0)
    assert eps.shape == (0,)
    assert selected == []


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
        lift = np.linalg.solve(dense(ops.gram), xi[:, j])
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
    model = assemble_reduced(psi, xi, ops, cfg, nv_tilde=6, diagnostics=empty_diagnostics())
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
    model = assemble_reduced(psi, xi, ops, cfg, nv_tilde=4, diagnostics=empty_diagnostics())
    for i in range(model.nv):
        for j in range(model.nw):
            direct = float(xi[:, j] @ psi[:, i])
            lift = np.linalg.solve(dense(ops.gram), xi[:, j])
            via_riesz = ops.v_inner(lift, psi[:, i])
            assert model.b_n[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-12)
            assert direct == pytest.approx(via_riesz, rel=1e-10, abs=1e-10)


def test_assemble_reduced_rank_failure(small_store, small_setup):
    _, ops, _, _ = small_setup
    vectors, _, _ = pod_greedy(small_store, 3, ops)
    gen = np.abs(np.random.default_rng(6).normal(size=ops.dim))
    xi = np.column_stack([gen, gen])
    with pytest.raises(InfSupFailureError):
        assemble_reduced(vectors, xi, ops, small_store.config, nv_tilde=3,
                         diagnostics=empty_diagnostics())


# ---------------------------------------------------------------------------
# model pipeline, serialization


def test_build_reduced_model_invariants(small_model, small_setup):
    _, ops, _, _ = small_setup
    assert small_model.nv == small_model.nv_tilde + small_model.nw
    verify_model(small_model)
    diag = small_model.diagnostics
    assert len(diag.eps_u) == small_model.nv_tilde
    assert len(diag.eps_lambda) == small_model.nw
    assert len(diag.selected_params_u) == small_model.nv_tilde
    assert len(diag.selected_pairs_lambda) == small_model.nw


DERIVED = ("mass_n", "a1_n", "a2_n", "f1_n", "f2_n", "b_n", "gram_psi")


def test_save_load_roundtrip(tmp_path, small_model, model_8_8, default_scheme, default_box):
    # the file holds only the bases; load derives every block through
    # assemble_reduced, bit for bit as the build did: the stock (8,8) model
    # at H=99 and a seed-3 (16,16) model at H=999, whose f1_n, f2_n and b_n
    # round differently when projected from a C-ordered psi
    from amrb import assemble_operators, build_mesh
    from amrb.cli import train_stream

    ops = assemble_operators(build_mesh(999, 300.0))
    store = generate_snapshots(sample_training_set(default_box, 16, train_stream(3)),
                               ops, default_scheme)
    wide, _ = build_reduced_model_from_store(store, 16, 16, ops)
    for name, model in (("small", small_model), ("stock", model_8_8), ("wide", wide)):
        p1 = tmp_path / f"{name}.json"
        p2 = tmp_path / f"{name}2.json"
        save_model(model, p1)
        loaded = load_model(p1)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(loaded.psi_matrix, model.psi_matrix)
        assert np.array_equal(loaded.xi_matrix, model.xi_matrix)
        for field in DERIVED:
            assert np.array_equal(getattr(loaded, field), getattr(model, field)), (name, field)
        assert loaded.config == model.config
        assert loaded.nv_tilde == model.nv_tilde


def test_loaded_operators_give_the_truth(tmp_path, small_model, small_store, small_setup):
    # the operators a loaded model keeps solve the truth bit for bit as
    # freshly assembled ones do
    mesh, ops, scheme, _ = small_setup
    path = tmp_path / "model.json"
    save_model(small_model, path)
    loaded = load_model(path).ops
    assert loaded is not ops
    mu = small_store.params[1]
    fresh = solve_trajectory(mu, ops, obstacle_data(mesh, mu.K), scheme)
    again = solve_trajectory(mu, loaded, obstacle_data(loaded.mesh, mu.K), scheme)
    assert fresh.states.tobytes() == again.states.tobytes()
    assert fresh.multipliers.tobytes() == again.multipliers.tobytes()


def test_model_file_holds_only_bases(tmp_path, small_model):
    path = tmp_path / "model.json"
    save_model(small_model, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["schema_version", "mesh", "time", "NV_tilde", "psi_matrix",
                         "xi_matrix", "diagnostics"]
    assert doc["schema_version"] == 3


def test_load_rejects_wrong_version(tmp_path, small_model):
    path = tmp_path / "model.json"
    save_model(small_model, path)
    doc = json.loads(path.read_text())
    for version in (99, 2, 1):
        doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError):
            load_model(path)


def test_load_rejects_corrupted_coupling(tmp_path, small_model):
    # zeroed cone generators leave the derived coupling psi' xi rank deficient
    path = tmp_path / "model.json"
    save_model(small_model, path)
    doc = json.loads(path.read_text())
    for row in doc["xi_matrix"]:
        row[-1] = 0.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelLoadError, match="full column rank"):
        load_model(path)
    # a rescaled basis column breaks energy orthonormality
    save_model(small_model, path)
    doc = json.loads(path.read_text())
    for row in doc["psi_matrix"]:
        row[0] *= 1.0 + 1e-6
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelLoadError, match="energy-orthonormal"):
        load_model(path)


def test_load_rejects_wide_coupling(tmp_path, small_model):
    # fewer basis columns than cone generators: b_n is wide, its singular
    # values are all nonzero, and it still lacks full column rank
    path = tmp_path / "model.json"
    save_model(small_model, path)
    doc = json.loads(path.read_text())
    keep = small_model.nw - 1
    doc["psi_matrix"] = [row[:keep] for row in doc["psi_matrix"]]
    doc["NV_tilde"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelLoadError, match="full column rank"):
        load_model(path)


def test_load_rejects_malformed(tmp_path, small_model):
    path = tmp_path / "model.json"
    for content in (b"{not json", b"\xff\xfe{", b"[" * 100_000, b"[1]"):
        path.write_bytes(content)
        with pytest.raises(ModelLoadError):
            load_model(path)
    for key in ("psi_matrix", "xi_matrix"):
        save_model(small_model, path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match=key):
            load_model(path)
        # one row short of the mesh, and one entry short in a row
        for truncate in (lambda m: m[:-1], lambda m: [m[0][:-1], *m[1:]]):
            save_model(small_model, path)
            doc = json.loads(path.read_text())
            doc[key] = truncate(doc[key])
            path.write_text(json.dumps(doc))
            with pytest.raises(ModelLoadError, match=key):
                load_model(path)
    for key, value in (("xi_matrix", []), ("psi_matrix", [[]] * small_model.ops.dim),
                       ("NV_tilde", small_model.nv + 1), ("diagnostics", [1]),
                       ("diagnostics", {"eps_u": [[1.0, 0.5]]}),
                       ("diagnostics", {"eps_u": [0.5, 1.0]}),
                       ("time", {"T": 1.0, "L": 8, "theta": 0.25})):
        save_model(small_model, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError):
            load_model(path)


def test_verify_model_detects_tampering(small_model):
    # a rescaled basis with every block derived from it: only the energy
    # orthonormality of psi is violated
    with pytest.raises(ModelCorruptionError, match="energy-orthonormal"):
        dataclasses.replace(small_model, psi_matrix=small_model.psi_matrix * (1.0 + 1e-6))


@pytest.mark.parametrize("block", DERIVED)
def test_model_takes_no_block(block, small_model):
    # every block is derived from the operators and the bases
    given = {f.name: getattr(small_model, f.name)
             for f in dataclasses.fields(ReducedModel) if f.init}
    ReducedModel(**given)
    with pytest.raises(TypeError):
        ReducedModel(**given, **{block: getattr(small_model, block)})


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
    assert warnings == ["dual cone saturated at 1 of 4 generators"]
    model, warnings = build_reduced_model_from_store(
        _constant_store(default_ops, default_scheme), 2, 3, default_ops)
    assert (model.nv_tilde, model.nv, model.nw) == (1, 1, 0)
    assert warnings == ["primal basis saturated at 1 of 2 vectors",
                        "dual cone saturated at 0 of 3 generators"]


def _rank_floor_store(default_ops, default_scheme):
    # the third multiplier snapshot sits at an angle of about 1.5e-10 to the
    # span of the first two, above the rank floor as an angle; but with it
    # smin/smax of the unit lifts (and of B_N) is near 7e-11, below the
    # floor, so the greedy stops before it
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
    return SnapshotStore((traj,))


def test_rank_floor_trims_cone(default_ops, default_scheme):
    # the greedy stops before the generator below the rank floor, and the
    # pipeline reports a short cone and proceeds
    store = _rank_floor_store(default_ops, default_scheme)
    _, eps, _ = angle_greedy(store, 3, default_ops)
    assert 1e-10 < eps[1] < 3e-10
    model, warnings = build_reduced_model_from_store(store, 1, 3, default_ops)
    assert model.nw == 2
    assert warnings == ["dual cone saturated at 2 of 3 generators"]
    assert len(model.diagnostics.eps_lambda) == model.nw
    assert model.diagnostics.selected_pairs_lambda == ((1, 0), (2, 0))
    verify_model(model)


@pytest.mark.parametrize("case", ["rank-floor", "seed-3"])
def test_angle_greedy_keeps_cone_rank(case, default_ops, default_scheme, default_box):
    # every prefix of the cone keeps smin/smax of its whitened unit lifts,
    # which are the singular values of B_N, above the rank floor
    from amrb.cli import train_stream

    if case == "rank-floor":
        store, n_gen = _rank_floor_store(default_ops, default_scheme), 2
    else:
        store, n_gen = generate_snapshots(sample_training_set(default_box, 16, train_stream(3)),
                                          default_ops, default_scheme), 15
    xi, _, _ = angle_greedy(store, 16, default_ops)
    assert xi.shape[1] == n_gen
    lifts = default_ops.whiten_dual(xi)
    assert np.allclose(np.linalg.norm(lifts, axis=0), 1.0, rtol=1e-12)
    for k in range(1, n_gen + 1):
        svals = np.linalg.svd(lifts[:, :k], compute_uv=False)
        assert svals[-1] > RANK_FLOOR * svals[0], k


def _same(a, b) -> bool:
    """Bitwise equality of models, field by field."""
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.parametrize("case", ["small", "saturated", "rank-floor"])
def test_truncated_models_match_separate_builds(case, small_store, small_setup,
                                                default_ops, default_scheme):
    # one greedy run at the largest budget, truncated, gives every smaller
    # budget's model and warnings bit for bit
    store, ops, budgets = {
        "small": (small_store, small_setup[1], [(1, 1), (3, 2), (2, 6), (5, 5), (6, 6)]),
        "saturated": (_parallel_multiplier_store(default_ops, default_scheme), default_ops,
                      [(1, 1), (1, 4), (2, 2)]),
        "rank-floor": (_rank_floor_store(default_ops, default_scheme), default_ops,
                       [(1, 1), (1, 2), (1, 3)]),
    }[case]
    pod = pod_greedy(store, max(a for a, _ in budgets), ops)
    cone = angle_greedy(store, max(b for _, b in budgets), ops)
    for nv_tilde, nw in budgets:
        model, warnings = truncated_model(store, pod, cone, nv_tilde, nw, ops)
        alone, alone_warnings = build_reduced_model_from_store(store, nv_tilde, nw, ops)
        assert _same(model, alone) and warnings == alone_warnings


def test_truncated_stock_models(store16, default_ops, model_4_4, model_8_8, model_16_16):
    pod = pod_greedy(store16, 16, default_ops)
    cone = angle_greedy(store16, 16, default_ops)
    for model in (model_4_4, model_8_8, model_16_16):
        truncated, _ = truncated_model(store16, pod, cone, model.nv_tilde, model.nw, default_ops)
        assert _same(truncated, model)


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
    verify_model(model)
    for mu in sample_training_set(default_box, 10, test_stream(13)):
        rt = reduced_trajectory(model, mu)
        res = reduced_residuals(rt, online_setup(model, mu), model)
        assert rt.cone_coeffs.min() >= -1e-12
        assert res["min_cone_gap"] >= -1e-9
        assert res["max_complementarity"] <= 1e-9
