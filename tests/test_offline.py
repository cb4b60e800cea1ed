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
)

from conftest import dense, empty_diagnostics, energy_product, identity_operator_set


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
    snapshots = generate_snapshots(params, ops, scheme)
    assert len(snapshots) == 1
    assert np.column_stack([t.states.T for t in snapshots]).shape == (ops.dim, scheme.L + 1)
    lam = np.column_stack([t.multipliers.T for t in snapshots])
    assert lam.shape == (ops.dim, scheme.L)


def test_snapshot_initial_states_exact(small_store, small_setup):
    for traj in small_store:
        assert np.array_equal(traj.states[0], obstacle_data(small_setup[0], traj.mu.K).psi_tilde)


def test_snapshot_counts_stock_configuration(store16):
    assert np.column_stack([t.states.T for t in store16]).shape == (99, 16 * 21)
    assert np.column_stack([t.multipliers.T for t in store16]).shape == (99, 16 * 20)


# ---------------------------------------------------------------------------
# POD


def test_pod1_single_vector(default_ops):
    rng = np.random.default_rng(0)
    v = rng.normal(size=default_ops.dim)
    mode = _dominant_mode(default_ops.whiten(v[:, None]), default_ops)[1]
    expected = v / energy_product(default_ops, v)
    if expected[np.argmax(np.abs(expected))] < 0:
        expected = -expected
    assert np.allclose(mode, expected, atol=1e-12)


def test_pod1_dominant_direction(default_ops):
    rng = np.random.default_rng(1)
    a = rng.normal(size=default_ops.dim)
    a /= energy_product(default_ops, a)
    b = rng.normal(size=default_ops.dim)
    b -= a * energy_product(default_ops, a, b)
    b /= energy_product(default_ops, b)
    mode = _dominant_mode(default_ops.whiten(np.column_stack([2.0 * a, 1.0 * b])),
                          default_ops)[1]
    assert abs(abs(energy_product(default_ops, mode, a)) - 1.0) <= 1e-10


def test_pod1_energy_matches_eigensolver():
    ops = assemble_small()
    rng = np.random.default_rng(2)
    vectors = [rng.normal(size=ops.dim) for _ in range(20)]
    mode = _dominant_mode(ops.whiten(np.column_stack(vectors)), ops)[1]
    energy = sum(energy_product(ops, v, mode) ** 2 for v in vectors)
    gram = np.array([[energy_product(ops, v, w) for w in vectors] for v in vectors])
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
    return (traj,)


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
    assert all(0 <= i < len(small_store) for i in selected)


# ---------------------------------------------------------------------------
# angles


def _multiplier_store(ops, lams):
    """One-parameter store whose multiplier snapshots are the rows of lams."""
    lams = np.asarray(lams, dtype=float)
    scheme = SchemeConfig(T=1.0, L=lams.shape[0], theta=0.5)
    mu = ParameterVector(K=100.0, r=0.05, q=0.0015, sigma=0.5)
    traj = Trajectory(mu=mu, states=np.ones((scheme.L + 1, ops.dim)), multipliers=lams,
                      config=scheme, pdas_iterations=np.ones(scheme.L, dtype=int))
    return (traj,)


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
    lams = [lam for traj in small_store for lam in traj.multipliers
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
    return (traj,)


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


def test_angle_greedy_budget_beyond_the_snapshots(small_store, small_setup):
    # a cone of distinct snapshots saturates by the rank check at most at
    # their number, whatever the budget; the loop sizes its work by both
    _, ops, _, _ = small_setup
    n_snapshots = len(small_store) * small_store[0].config.L
    xi, eps, selected = angle_greedy(small_store, 10**15, ops)
    assert 0 < xi.shape[1] == len(eps) == len(selected) <= n_snapshots
    assert len(set(selected)) == len(selected)


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
        assert energy_product(ops, resid) <= 1e-10 * energy_product(ops, lift)


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
    cfg = small_store[0].config
    model = assemble_reduced(psi, xi, ops, cfg, nv_tilde=4, diagnostics=empty_diagnostics())
    for i in range(model.nv):
        for j in range(model.nw):
            direct = float(xi[:, j] @ psi[:, i])
            lift = np.linalg.solve(dense(ops.gram), xi[:, j])
            via_riesz = energy_product(ops, lift, psi[:, i])
            assert model.b_n[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-12)
            assert direct == pytest.approx(via_riesz, rel=1e-10, abs=1e-10)


def test_assemble_reduced_rank_failure(small_store, small_setup):
    _, ops, _, _ = small_setup
    vectors, _, _ = pod_greedy(small_store, 3, ops)
    gen = np.abs(np.random.default_rng(6).normal(size=ops.dim))
    xi = np.column_stack([gen, gen])
    with pytest.raises(InfSupFailureError):
        assemble_reduced(vectors, xi, ops, small_store[0].config, nv_tilde=3,
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
    mu = small_store[1].mu
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
    return (traj,)


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


# ---------------------------------------------------------------------------
# residuals deflated in place


@pytest.fixture(scope="module")
def stock_store(default_box, default_scheme):
    """The stock 16-draw snapshot store and its operators at (H, seed), built once."""
    from amrb.cli import train_stream

    built = {}

    def get(H, seed):
        if (H, seed) not in built:
            ops = assemble_operators(build_mesh(H, 300.0))
            params = sample_training_set(default_box, 16, train_stream(seed))
            built[H, seed] = generate_snapshots(params, ops, default_scheme), ops
        return built[H, seed]

    return get


def _deflation_errors(loop, store, ops, snaps, monkeypatch):
    """Run ``loop`` at budget 16 and, after every appended column, compare the
    residual it deflated in place with X - Q(Q'X), and the row it returned
    with the last row of Q'X, formed from the whitened snapshots X and the
    columns Q appended so far; the worst of each over the largest column
    norm of X, and the number of columns."""
    import amrb.offline as offline_mod

    deflate, columns, worst = offline_mod._deflate, [], [0.0, 0.0]
    scale = float(np.linalg.norm(snaps, axis=0).max())

    def checked(resid, q):
        row = deflate(resid, q)
        columns.append(np.array(q))
        basis = np.column_stack(columns)
        coef = basis.T @ snaps
        worst[0] = max(worst[0], float(np.abs(resid - (snaps - basis @ coef)).max()) / scale)
        worst[1] = max(worst[1], float(np.abs(row - coef[-1]).max()) / scale)
        return row

    with monkeypatch.context() as patch:
        patch.setattr(offline_mod, "_deflate", checked)
        loop(store, 16, ops)
    return worst, len(columns)


@pytest.mark.parametrize("H", [99, 999])
def test_residuals_deflated_in_place_are_the_projection_residuals(H, stock_store, monkeypatch):
    # both loops deflate one residual block in place, one rank-1 update per
    # appended column; it must stay X - Q(Q'X), which a deflation that wrote
    # into a copy (ger on an array that is not Fortran-contiguous) breaks
    store, ops = stock_store(H, 0)
    for loop, snaps in (
            (pod_greedy, ops.whiten(np.column_stack([t.states.T for t in store]))),
            (angle_greedy, ops.whiten_dual(np.column_stack([t.multipliers.T for t in store])))):
        (resid_err, row_err), n_columns = _deflation_errors(loop, store, ops, snaps,
                                                            monkeypatch)
        assert n_columns == 16, loop.__name__
        assert resid_err <= 1e-13, loop.__name__
        assert row_err <= 1e-13, loop.__name__


@pytest.mark.parametrize("seed", [0, 3])
def test_cone_generators_are_the_snapshots_their_labels_name(seed, stock_store):
    # the selection (n, i) of stacked column j is step j % L + 1 of
    # trajectory j // L; each generator is that multiplier snapshot over its
    # dual norm, also past the first trajectory
    store, ops = stock_store(99, seed)
    xi, _, pairs = angle_greedy(store, 16, ops)
    assert any(i > 0 for _, i in pairs)
    for gen, (n, i) in zip(xi.T, pairs, strict=True):
        lam = store[i].multipliers[n - 1]
        want = lam / np.linalg.norm(ops.whiten_dual(lam))
        assert np.abs(gen - want).max() <= 1e-13 * np.abs(gen).max(), (n, i)


# Selections, sizes, warnings and decays of the stock store at budget (16, 16)
# from the loops that recomputed X - Q(Q'X) in full at every iteration; the
# in-place deflation rounds otherwise, but must select the same.
FROZEN_SELECTIONS = {
    (99, 0): dict(
        pod=[0, 4, 12, 15, 12, 13, 13, 12, 13, 5, 13, 5, 5, 13, 5, 4],
        pairs=[(1, 0), (20, 5), (7, 9), (16, 9), (3, 0), (5, 0), (10, 6), (18, 8), (2, 13),
               (10, 7), (6, 7), (4, 4), (1, 13), (1, 5), (19, 5), (2, 5)],
        nv=32, nw=16, warnings=[],
        eps_u=[1114.9881062492052, 391.8842101457795, 271.7976500572628, 252.351447147815,
               225.5179944229896, 132.08127596141824, 126.8173397014024, 86.05859641140418,
               75.21766566732651, 45.81727039110396, 43.71466612994853, 26.39614652259638,
               23.092299618663922, 15.272517723142272, 12.97302724927338, 9.503324821464192],
        eps_lambda=[0.3768082233857166, 0.07608558193071747, 0.026442375276847407,
                    0.02498237581875036, 0.010992943436258687, 0.009824887567450006,
                    0.009349281698050327, 0.0070498567329686694, 0.006552498824601494,
                    0.005231381188747425, 0.004507813365512716, 0.004189740350741325,
                    0.003357122073829653, 0.0016525811614563444, 0.00023221082308208608,
                    6.0790377588764734e-15]),
    (99, 3): dict(
        pod=[0, 6, 13, 5, 13, 3, 6, 0, 6, 5, 6, 5, 6, 5, 0, 12],
        pairs=[(1, 0), (20, 0), (9, 12), (1, 12), (17, 11), (3, 0), (11, 4), (16, 3), (2, 3),
               (10, 14), (4, 0), (3, 9), (1, 8), (1, 3), (2, 8)],
        nv=31, nw=15, warnings=['dual cone saturated at 15 of 16 generators'],
        eps_u=[1218.4905558792798, 358.8674860659515, 297.69071786029815, 232.52841676632733,
               203.51008751555005, 173.57284618115284, 130.69291161819433, 95.49407875200032,
               70.91460614545943, 52.243431327434934, 41.410751888196764, 26.905062947271947,
               23.751079481193994, 15.032169530605197, 12.990370125754447, 9.924450417476068],
        eps_lambda=[0.3342199274908704, 0.06284978448524105, 0.03322911971867088,
                    0.024366823233552784, 0.014993369202603805, 0.00976969349122909,
                    0.008936188987064447, 0.007132377410668395, 0.00629365920339986,
                    0.005626898118559804, 0.004637836525509839, 0.00410784754061556,
                    0.0027276757121235495, 0.00034686147288896503, 5.848060593141825e-15]),
    (99, 13): dict(
        pod=[0, 7, 1, 11, 7, 13, 9, 11, 7, 1, 7, 1, 7, 1, 1, 7],
        pairs=[(1, 0), (20, 11), (9, 0), (2, 1), (20, 0), (4, 4), (10, 5), (1, 13), (18, 12),
               (10, 2), (4, 11), (4, 7), (2, 10), (1, 10), (7, 3), (19, 11)],
        nv=32, nw=16, warnings=[],
        eps_u=[1118.7984303756407, 439.26864825232536, 272.7761129045623, 241.34797530278655,
               220.75596438268587, 184.66159679940776, 146.7212279918026, 105.0351148330877,
               75.94825639698944, 58.0273478131915, 44.46185279748256, 28.651510274886554,
               24.906165360193587, 15.387381172501499, 14.344977966781908, 10.165907953217689],
        eps_lambda=[0.3840181487114421, 0.07828268341058889, 0.029392264582136528,
                    0.024265404109651487, 0.011780378254259928, 0.009822717438765304,
                    0.009326126891385025, 0.008976204384217912, 0.006409737026302752,
                    0.00556295439999585, 0.004762337083641903, 0.004268934783866278,
                    0.0034239019857019138, 0.00032529569802648, 4.135954932107616e-05,
                    6.549118382102758e-15]),
    (999, 0): dict(
        pod=[0, 1, 5, 13, 1, 15, 8, 9, 5, 6, 2, 7, 12, 3, 14, 0],
        pairs=[(1, 0), (20, 5), (8, 4), (16, 1), (3, 1), (7, 5), (5, 0), (19, 11), (2, 4),
               (1, 13), (15, 0), (6, 7), (20, 6), (9, 1), (3, 11), (2, 9)],
        nv=32, nw=16, warnings=[],
        eps_u=[1171.8798775806329, 421.8642617029592, 349.92628877264775, 319.5734987514705,
               308.07652178031213, 303.74954905351643, 291.71505467838705, 290.8207529662591,
               274.02436231031834, 237.97599249173422, 231.66473015585376, 222.5195225160119,
               199.28509617135683, 189.9418142006078, 174.966979812081, 168.61853352454602],
        eps_lambda=[0.3727968503557619, 0.07424288165694276, 0.025770600728660865,
                    0.023005772497924366, 0.008987947744105993, 0.008163214385044786,
                    0.007806484853718366, 0.007271196267101956, 0.0037760687167605355,
                    0.0032996605506658843, 0.0032144902966357346, 0.002778144682154916,
                    0.0027357608189801175, 0.0027269790443965034, 0.0024878161448887884,
                    0.0023669922140463558]),
    (999, 3): dict(
        pod=[0, 6, 12, 5, 13, 3, 6, 14, 4, 10, 15, 2, 5, 8, 1, 12],
        pairs=[(1, 0), (20, 0), (8, 8), (1, 12), (16, 8), (3, 5), (9, 3), (20, 4), (3, 10),
               (6, 2), (1, 11), (9, 9), (10, 0), (2, 9), (15, 15), (5, 8)],
        nv=32, nw=16, warnings=[],
        eps_u=[1242.527996053201, 416.4578008957863, 359.4263809795346, 316.1176914981586,
               312.4936140440111, 293.77738996148463, 269.9200669211462, 264.4576110874181,
               246.75371933861575, 235.6658902624881, 231.67601712334766, 222.34707532836893,
               216.4217884049061, 198.25572954729796, 179.37484048563527, 161.65229577782617],
        eps_lambda=[0.32516167670563884, 0.06004127494492446, 0.03395747936793702,
                    0.020357065178854702, 0.01508072364917358, 0.007223351935039717,
                    0.006122815698604707, 0.006073040711217254, 0.00525945653825541,
                    0.004121053336159143, 0.0026677617288622824, 0.0023485349269261827,
                    0.0022169667598827543, 0.002130605557672517, 0.002119006600624208,
                    0.001965236824028105]),
    (999, 13): dict(
        pod=[0, 7, 1, 7, 12, 13, 5, 11, 2, 9, 10, 14, 4, 1, 15, 0],
        pairs=[(1, 0), (20, 11), (7, 6), (3, 2), (16, 6), (9, 9), (1, 5), (4, 9), (18, 9),
               (13, 15), (10, 8), (4, 7), (1, 9), (4, 3), (2, 9), (14, 3)],
        nv=32, nw=16, warnings=[],
        eps_u=[1184.8987349171607, 471.9132085888498, 337.52534228960786, 330.74009163703414,
               324.87932128507254, 317.1961441649457, 310.2388677266821, 307.73124688328625,
               292.4806285090057, 271.1453741088435, 257.2368715272511, 251.8185232587263,
               249.8238897125673, 237.04618816596368, 232.24490019559207, 175.1205601974114],
        eps_lambda=[0.3759149247875302, 0.07537445108111071, 0.02579295208845289,
                    0.023653166121008536, 0.009189920930620153, 0.00873457815212112,
                    0.007667810415718134, 0.007214400209684091, 0.0033155910335701034,
                    0.003043491067059894, 0.003030457359327998, 0.002929501837802181,
                    0.002721519800579814, 0.0025390572937934518, 0.0024712394190041886,
                    0.0023235719228002346]),
}


@pytest.mark.parametrize("H,seed", list(FROZEN_SELECTIONS))
def test_selections_match_the_full_recomputation(H, seed, stock_store):
    # the saturated angles at H=99 are about 6e-15 and move by rounding
    # alone, hence the absolute floor of the tolerance
    want = FROZEN_SELECTIONS[H, seed]
    store, ops = stock_store(H, seed)
    model, warnings = build_reduced_model_from_store(store, 16, 16, ops)
    diag = model.diagnostics
    assert list(diag.selected_params_u) == want["pod"]
    assert list(diag.selected_pairs_lambda) == want["pairs"]
    assert (model.nv, model.nw, warnings) == (want["nv"], want["nw"], want["warnings"])
    for name in ("eps_u", "eps_lambda"):
        got, ref = getattr(diag, name), np.array(want[name])
        assert got.shape == ref.shape, name
        assert (np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))).all(), name
