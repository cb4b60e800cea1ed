"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Derived thresholds were computed once with the reference pipeline at the
fixed seeds used below and are frozen here; see the inline notes.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import functools
import json
import time

import numpy as np
import pytest

from amrb import (
    SchemeConfig,
    assemble_operators,
    build_mesh,
    build_reduced_model_from_store,
    error_metrics,
    generate_snapshots,
    obstacle_data,
    reconstruct_states,
    reduced_trajectory,
    sample_training_set,
    solve_lcp,
    solve_trajectory,
    trajectory_residuals,
)
from amrb.cli import main as cli_main, train_stream
from amrb.offline import _dominant_mode
from amrb.online import _cone_step, err_linf, online_setup
from amrb.truth import check_lcp_matrix, load_vector

from conftest import dense_step_pair, energy_product
from test_truth import lcp_by_enumeration


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num:2d}: {name}")
                raise
            print(f"[PASS] criterion {num:2d}: {name}")
        return run
    return wrap


# ---------------------------------------------------------------------------
# criterion 1: truth-solver contract on the stock configuration


@criterion(1, "truth solver feasibility/complementarity/residual contract")
def test_criterion_01_truth_contract(default_ops, default_scheme, default_box):
    params = sample_training_set(default_box, 20, np.random.SeedSequence([11, 7]))
    for mu in params:
        obstacle = obstacle_data(default_ops.mesh, mu.K)
        start = time.perf_counter()
        traj = solve_trajectory(mu, default_ops, obstacle, default_scheme)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"trajectory took {elapsed:.3f}s"
        res = trajectory_residuals(traj, default_ops, obstacle)
        assert res["min_state_gap"] >= -1e-9
        assert res["min_multiplier"] >= -1e-12
        assert res["max_complementarity"] <= 1e-9
        assert res["max_linear_residual"] <= 1e-10


# ---------------------------------------------------------------------------
# criterion 2: LCP oracle equivalence


@criterion(2, "active-set solver matches exhaustive enumeration (200 instances)")
def test_criterion_02_lcp_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(4, 13))
        A = rng.normal(size=(n, n))
        S = A.T @ A + n * np.eye(n)
        rhs = rng.normal(size=n) * n
        obstacle = rng.normal(size=n)
        u, lam, _ = solve_lcp(check_lcp_matrix(S), rhs, obstacle)
        ref = lcp_by_enumeration(S, rhs, obstacle)
        assert ref is not None
        u_ref, lam_ref = ref
        assert np.array_equal(lam > 1e-10, lam_ref > 1e-10), "active set differs"
        assert np.abs(u - u_ref).max() <= 1e-12 * (1 + np.abs(u_ref).max())
        assert np.abs(lam - lam_ref).max() <= 1e-12 * (1 + np.abs(lam_ref).max())


# ---------------------------------------------------------------------------
# criterion 3: American dominates European


@criterion(3, "constrained trajectory dominates the unconstrained one")
def test_criterion_03_american_dominates_european(default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    traj = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    smat, rhsm = dense_step_pair(mu0, default_scheme, default_ops)
    f_mu = load_vector(mu0, default_ops.f1, default_ops.f2)
    u = obstacle.psi_tilde.copy()
    for n in range(default_scheme.L):
        u = np.linalg.solve(smat, rhsm @ u + f_mu)
        assert (traj.states[n + 1] - u).min() >= -1e-8


# ---------------------------------------------------------------------------
# criterion 4: greedy monotonicity and decay, offline runtime


# decay exponents measured with the reference pipeline at seed 0:
# log10(eps_u[1]/eps_u[16]) = 2.07, log10(eps_lambda[1]/eps_lambda[16]) = 11.2
MIN_POD_DECAY_LOG10 = 1.5
MIN_ANGLE_DECAY_LOG10 = 3.0


@criterion(4, "greedy decays are monotone and substantial, offline < 60 s")
def test_criterion_04_greedy_decay(default_ops, default_scheme, default_box):
    params = sample_training_set(default_box, 16, train_stream(0))
    start = time.perf_counter()
    store = generate_snapshots(params, default_ops, default_scheme)
    model, warnings = build_reduced_model_from_store(store, 16, 16, default_ops)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"offline phase took {elapsed:.1f}s"
    assert not warnings
    eps_u = model.diagnostics.eps_u
    eps_lambda = model.diagnostics.eps_lambda
    assert len(eps_u) == 16 and len(eps_lambda) == 16
    assert np.all(eps_u > 0)
    assert eps_lambda[0] <= np.pi / 2 + 1e-12
    assert np.all(np.diff(eps_u) <= 1e-12 * (1 + eps_u[:-1]))
    assert np.all(np.diff(eps_lambda) <= 1e-12 * (1 + eps_lambda[:-1]))
    assert np.log10(eps_u[0] / eps_u[-1]) >= MIN_POD_DECAY_LOG10
    assert np.log10(eps_lambda[0] / eps_lambda[-1]) >= MIN_ANGLE_DECAY_LOG10


# ---------------------------------------------------------------------------
# criterion 5: single-parameter reproduction


@criterion(5, "saturating single-parameter training reproduces the truth")
def test_criterion_05_reproduction(mu0):
    # every multiplier snapshot must enter the cone, which needs a distinct
    # contact set per step; H=199, L=10 resolves the boundary motion that way
    mesh = build_mesh(199, 300.0)
    ops = assemble_operators(mesh)
    scheme = SchemeConfig(T=1.0, L=10, theta=0.5)
    store = generate_snapshots([mu0], ops, scheme)
    model, warnings = build_reduced_model_from_store(store, scheme.L + 1, scheme.L, ops)
    assert not warnings
    assert model.diagnostics.eps_u[-1] < 1e-8
    truth = store[0]
    rt = reduced_trajectory(model, mu0)
    err = error_metrics(truth, reconstruct_states(model, rt), ops)
    scale = max(energy_product(ops, truth.states[n]) for n in range(scheme.L + 1))
    assert err <= 1e-6 * scale, f"err {err:.3e} vs tol {1e-6 * scale:.3e}"


# ---------------------------------------------------------------------------
# criterion 6: basis-size identity


@criterion(6, "enriched basis sizes are NV_tilde + NW at the stock budgets")
def test_criterion_06_basis_sizes(model_8_8, model_16_16):
    assert model_8_8.nv == 16
    assert model_8_8.nv_tilde == 8 and model_8_8.nw == 8
    assert model_16_16.nv == 32
    assert model_16_16.nv_tilde == 16 and model_16_16.nw == 16


# ---------------------------------------------------------------------------
# criterion 7: generalization decay across budgets


@criterion(7, "max test error decays over budgets (4,4) -> (8,8) -> (16,16)")
def test_criterion_07_generalization(model_4_4, model_8_8, model_16_16,
                                     default_ops, default_scheme, test_params10):
    truths = [solve_trajectory(mu, default_ops, obstacle_data(default_ops.mesh, mu.K),
                               default_scheme) for mu in test_params10]
    errors = []
    for model in (model_4_4, model_8_8, model_16_16):
        errors.append(float(err_linf(model, truths).max()))
    assert errors[0] >= errors[1] >= errors[2], f"not monotone: {errors}"


# ---------------------------------------------------------------------------
# criterion 8: dominant-mode oracle


@criterion(8, "captured POD energy matches the dense eigensolver (50 families)")
def test_criterion_08_pod_oracle():
    ops = assemble_operators(build_mesh(60, 10.0))
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = int(rng.integers(2, 51))
        vectors = [rng.normal(size=ops.dim) * rng.lognormal() for _ in range(m)]
        mode = _dominant_mode(ops.whiten(np.column_stack(vectors)), ops)[1]
        energy = sum(energy_product(ops, v, mode) ** 2 for v in vectors)
        gram = np.array([[energy_product(ops, v, w) for w in vectors] for v in vectors])
        top = float(np.linalg.eigvalsh(gram)[-1])
        assert energy == pytest.approx(top, rel=1e-10)


# ---------------------------------------------------------------------------
# criterion 9: dual-norm machinery


@criterion(9, "sampled dual-norm sup bound, analytic maximizer, lift isometry")
def test_criterion_09_dual_norm(default_ops):
    rng = np.random.default_rng(9)
    H = default_ops.dim
    for _ in range(5):
        eta = rng.normal(size=H)
        wn = np.linalg.norm(default_ops.whiten_dual(eta))
        V = rng.normal(size=(H, 10_000))
        ratios = (eta @ V) / np.sqrt(np.einsum("ij,ij->j", V, default_ops.gram @ V))
        assert ratios.max() <= wn * (1 + 1e-12)
        vstar = default_ops.unwhiten(default_ops.whiten_dual(eta))
        attained = float(eta @ vstar) / energy_product(default_ops, vstar)
        assert attained == pytest.approx(wn, rel=1e-10)
    for _ in range(100):
        xi = rng.normal(size=H)
        white = default_ops.whiten_dual(xi)  # the lift as enrich_with_supremizers forms it
        lift = default_ops.unwhiten(white)
        assert energy_product(default_ops, lift) == pytest.approx(np.linalg.norm(white), rel=1e-10)


# ---------------------------------------------------------------------------
# criterion 10: online cost independent of the full dimension


def _online_data(H, params, mu, scheme):
    ops = assemble_operators(build_mesh(H, 300.0))
    store = generate_snapshots(params, ops, scheme)
    model, _ = build_reduced_model_from_store(store, 16, 16, ops)
    assert model.nv == 32
    return online_setup(model, mu)


def _per_step_seconds(data, scheme):
    """Seconds per reduced step over 400 steps, restarting every L steps."""
    y0 = data.u0
    # the cone's obstacle and the rows its problem is solved into, made once
    # as reduced_trajectory makes them
    zero = np.zeros(data.schur.shape[0])
    out = np.empty((2, zero.size))
    y = y0.copy()
    start = time.perf_counter()
    for k in range(400):
        y = _cone_step(y, data, None, zero, out)[0]
        if (k + 1) % scheme.L == 0:
            y = y0.copy()
    return (time.perf_counter() - start) / 400


@criterion(10, "per-step reduced-solve time varies < 2x between H=99 and H=999")
def test_criterion_10_online_h_independence(default_scheme, default_box, mu0):
    # both models are built first, then the two meshes are timed in
    # alternating rounds, so that a change in the machine's speed between
    # rounds reaches both; each keeps its best of 5
    params = sample_training_set(default_box, 16, train_stream(0))
    data = [_online_data(H, params, mu0, default_scheme) for H in (99, 999)]
    best = [np.inf, np.inf]
    for _ in range(5):
        for i, d in enumerate(data):
            best[i] = min(best[i], _per_step_seconds(d, default_scheme))
    t_small, t_large = best
    ratio = max(t_small, t_large) / min(t_small, t_large)
    assert ratio < 2.0, f"per-step times {t_small:.2e}s vs {t_large:.2e}s (ratio {ratio:.2f})"


# ---------------------------------------------------------------------------
# criterion 11: byte-identical artifacts across reruns


DETERMINISM_CONFIG = {
    "mesh": {"H": 40, "s_f": 300.0},
    "time": {"T": 1.0, "L": 8, "theta": 0.5},
    "sampling": {"seed": 5, "N_train": 5, "N_test": 3},
    "rb": {"NV_tilde": 4, "NW": 4},
    "study": {"budgets": [[2, 2], [4, 4]]},
}


@criterion(11, "offline + online + study artifacts identical across reruns")
def test_criterion_11_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(DETERMINISM_CONFIG))
    mu = "100,0.05,0.0015,0.5"
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(["offline", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli_main(["online", "--config", str(cfg_path), "--out", str(out),
                         "--model", str(out / "model.json"), "--mu", mu,
                         "--compare"]) == 0
        assert cli_main(["study", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs.append(out)
    a, b = outputs
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs"
