"""The benchmark's workloads: stock inputs, set-up, one op and its check.

Call ``bench_env.prepare()`` before importing this module, so that numpy
starts with one BLAS thread and ``amrb`` comes from the checkout.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.  All inputs are drawn from labelled
substreams of the workload seed, so one seed always gives the same
inputs, and the program only ever sees the generated parameters.

The layers are called through their module attributes (``truth.solve_lcp``
rather than a name imported from it), so the traced run sees these calls
once it patches the modules.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from types import SimpleNamespace

import numpy as np

from amrb import fem, offline, online, truth
from amrb.errors import SolverDivergenceError

# the stock configuration of the CLI (amrb.cli.DEFAULT_CONFIG), spelled out
# here so that the two library workloads need not import the CLI
S_F = 300.0
SCHEME = truth.SchemeConfig(T=1.0, L=20, theta=0.5)
BOX = fem.ParameterBox(K0=100.0, r0=0.05, q0=0.0015, sigma0=0.5, eps=0.1)
N_TRAIN = 16
N_TEST = 10
BUDGET = (8, 8)

# substream labels; 0 and 1 are the training and test streams of amrb.cli
TRAIN, TEST, QUERY, TRUTH, WARMUP, CLI = 0, 1, 2, 3, 4, 5

# truth contract of acceptance criterion 1 (tests/test_acceptance.py)
TRUTH_CONTRACT = (("min_state_gap", ">=", -1e-9), ("min_multiplier", ">=", -1e-12),
                  ("max_complementarity", "<=", 1e-9), ("max_linear_residual", "<=", 1e-10))
# reduced cone feasibility as checked for the stock models in tests/test_online.py
CONE_CONTRACT = (("min_cone_coeff", ">=", -1e-12), ("min_cone_gap", ">=", -1e-9),
                 ("max_complementarity", "<=", 1e-9))
# the stock (8,8) model prices the test draws to within 0.7-1.8% of the
# strike; an error of a tenth of the strike means the reduction is broken
PRICE_ERR_LIMIT = 0.1

PROBE_H = 9999
PROBE_PARAMS = 6


def stream(seed: int, label: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), label])


def draw_mu(rng: np.random.Generator) -> fem.ParameterVector:
    """One uniform draw from the stock box, as ``offline.sample_training_set`` draws."""
    lo, hi = BOX.bounds()
    row = lo + (hi - lo) * rng.random(4)
    return fem.ParameterVector(K=float(row[0]), r=float(row[1]),
                               q=float(row[2]), sigma=float(row[3]))


def box_draws(seed: int, label: int):
    """Endless i.i.d. draws from the stock box on one labelled substream."""
    rng = np.random.default_rng(stream(seed, label))
    while True:
        yield draw_mu(rng)


def _contract_violations(values: dict, contract) -> list[str]:
    """Every contract entry the values break; NaN breaks all of them."""
    bad = []
    for key, op, limit in contract:
        value = values[key]
        if not (value >= limit if op == ">=" else value <= limit):
            bad.append(f"{key}={value!r} (need {op} {limit})")
    return bad


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


class OnlineQuery:
    """Many-query pricing: reduced trajectory plus reconstruction per new mu."""

    name = "online_query"
    H = 999
    warmup_ops = 20

    def setup(self, seed: int, workdir: str):
        mesh = fem.build_mesh(self.H, S_F)
        ops = fem.assemble_operators(mesh)
        params = offline.sample_training_set(BOX, N_TRAIN, stream(seed, TRAIN))
        store = offline.generate_snapshots(params, ops, SCHEME)
        model, _ = offline.build_reduced_model_from_store(store, *BUDGET, ops)
        path = os.path.join(workdir, "model.json")
        offline.save_model(model, path)
        return SimpleNamespace(mesh=mesh, ops=ops, model=offline.load_model(path))

    def inputs(self, seed: int, label: int = QUERY):
        return box_draws(seed, label)

    def op(self, st, mu):
        rt = online.reduced_trajectory(st.model, mu)
        return rt, online.reconstruct(st.model, rt, mu.K, st.mesh)[-1]

    def check(self, st, mu, out):
        rt, price = out
        if not all(np.all(np.isfinite(a)) for a in (price, rt.states, rt.cone_coeffs)):
            return _digest(price), "non-finite reduced output"
        res = online.reduced_residuals(rt, online.online_setup(st.model, mu), st.model)
        bad = _contract_violations(res, CONE_CONTRACT)
        return _digest(price), ("cone infeasible: " + ", ".join(bad)) if bad else None

    def price_err_max(self, st, seed: int) -> float:
        """Max over the seed's test draws of max_s |reduced - truth| final price / K."""
        worst = 0.0
        for mu in offline.sample_training_set(BOX, N_TEST, stream(seed, TEST)):
            obstacle = fem.obstacle_data(st.mesh, mu.K)
            traj = truth.solve_trajectory(mu, st.ops, obstacle, SCHEME)
            _, price = self.op(st, mu)
            gap = float(np.abs(price - (traj.states[-1] + obstacle.p0)).max()) / mu.K
            worst = max(worst, gap)
        return worst


class TruthFine:
    """Full-order trajectories on a fine mesh, one fresh box mu per op."""

    name = "truth_fine"
    H = 3999
    warmup_ops = 2

    def setup(self, seed: int, workdir: str):
        mesh = fem.build_mesh(self.H, S_F)
        return SimpleNamespace(mesh=mesh, ops=fem.assemble_operators(mesh))

    def inputs(self, seed: int, label: int = TRUTH):
        return box_draws(seed, label)

    def op(self, st, mu):
        obstacle = fem.obstacle_data(st.mesh, mu.K)
        traj = truth.solve_trajectory(mu, st.ops, obstacle, SCHEME)
        return traj, traj.states[-1] + obstacle.p0

    def check(self, st, mu, out):
        traj, price = out
        res = truth.trajectory_residuals(traj, st.ops, fem.obstacle_data(st.mesh, mu.K))
        bad = _contract_violations(res, TRUTH_CONTRACT)
        return _digest(price), ("truth contract: " + ", ".join(bad)) if bad else None


class CliPipeline:
    """What a CLI user runs at the stock config: offline, online, truth, validate."""

    name = "cli_pipeline"
    warmup_ops = 1

    def setup(self, seed: int, workdir: str):
        import amrb.cli
        return SimpleNamespace(cli=amrb.cli, out=os.path.join(workdir, "op"))

    def inputs(self, seed: int, label: int = CLI):
        rng = np.random.default_rng(stream(seed, label))
        while True:
            yield int(rng.integers(2 ** 31)), draw_mu(rng)

    def op(self, st, x):
        offline_seed, mu = x
        mu_text = ",".join(repr(float(v)) for v in (mu.K, mu.r, mu.q, mu.sigma))
        model = os.path.join(st.out, "model.json")
        commands = (
            ["offline", "--seed", str(offline_seed), "--out", st.out],
            ["online", "--model", model, "--mu", mu_text, "--compare", "--out", st.out],
            ["truth", "--mu", mu_text, "--out", st.out],
            ["validate", "--model", model],
        )
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = [st.cli.main(argv) for argv in commands]
        return codes, sink.getvalue()

    def check(self, st, x, out):
        codes, log = out
        try:
            digest = hashlib.sha256()
            for name in sorted(os.listdir(st.out)):
                digest.update(name.encode())
                with open(os.path.join(st.out, name), "rb") as fh:
                    digest.update(fh.read())
            if codes != [0, 0, 0, 0]:
                return digest.hexdigest()[:16], f"exit codes {codes}: {log.strip()[-300:]}"
            with open(os.path.join(st.out, "truth_summary.json"), encoding="utf-8") as fh:
                residuals = json.load(fh)["feasibility_residuals"]
            with open(os.path.join(st.out, "online_summary.json"), encoding="utf-8") as fh:
                err_n = json.load(fh)["err_N"]
        finally:
            shutil.rmtree(st.out, ignore_errors=True)
        bad = _contract_violations(residuals, TRUTH_CONTRACT)
        if not math.isfinite(err_n):
            bad.append(f"err_N={err_n!r}")
        return digest.hexdigest()[:16], ("cli outputs: " + ", ".join(bad)) if bad else None


WORKLOADS = {w.name: w for w in (OnlineQuery(), TruthFine(), CliPipeline())}


def diverged_h9999(seed: int) -> int:
    """How many of the first truth_fine draws raise SolverDivergenceError at H=9999."""
    mesh = fem.build_mesh(PROBE_H, S_F)
    ops = fem.assemble_operators(mesh)
    draws = box_draws(seed, TRUTH)
    diverged = 0
    for _ in range(PROBE_PARAMS):
        mu = next(draws)
        try:
            truth.solve_trajectory(mu, ops, fem.obstacle_data(mesh, mu.K), SCHEME)
        except SolverDivergenceError:
            diverged += 1
    return diverged
