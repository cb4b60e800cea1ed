import base64
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from amrb import obstacle_data, solve_trajectory
from amrb.cli import main
from amrb.errors import InfSupFailureError, SolverDivergenceError
from amrb.offline import pack, save_model, unpack
from amrb.textio import state_rows
import amrb.cli as cli_mod
import amrb.truth as truth_mod

from conftest import model_basis

SMALL_CONFIG = {
    "mesh": {"H": 40, "s_f": 300.0},
    "time": {"T": 1.0, "L": 8, "theta": 0.5},
    "sampling": {"seed": 3, "N_train": 5, "N_test": 4},
    "rb": {"NV_tilde": 5, "NW": 5},
    "study": {"budgets": [[2, 2], [4, 4], [5, 5]]},
}

REPRO_CONFIG = {
    "mesh": {"H": 199, "s_f": 300.0},
    "time": {"T": 1.0, "L": 10, "theta": 0.5},
    "sampling": {"seed": 0, "N_train": 1, "N_test": 2},
    "rb": {"NV_tilde": 11, "NW": 10},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def mu_flag(mu) -> str:
    """The --mu value that parses back to exactly ``mu``."""
    return ",".join(map(repr, mu.as_array().tolist()))


def test_cli_import_leaves_scipy_sparse_out():
    # operators are bands; nothing in the package needs scipy.sparse
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli_mod.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, amrb.cli; print('scipy.sparse' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_no_stock_command_imports_scipy_linalg(tmp_path):
    # amrb.lapack loads scipy's compiled BLAS and LAPACK wrappers without
    # scipy.linalg's package init, which pulls in numpy.testing and
    # numpy.f2py and took half of every command's start-up time
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli_mod.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out, mu = str(tmp_path), "102,0.05,0.0015,0.49"
    model = os.path.join(out, "model.json")
    commands = [["offline", "--out", out],
                ["online", "--model", model, "--mu", mu, "--compare", "--out", out],
                ["truth", "--mu", mu, "--out", os.path.join(out, "truth")],
                ["validate", "--model", model],
                ["study", "--out", os.path.join(out, "study")]]
    code = ("import sys\nfrom amrb.cli import main\n"
            f"for argv in {commands!r}:\n    assert main(argv) == 0, argv\n"
            "print([m for m in ('scipy.linalg', 'numpy.testing', 'numpy.f2py') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_benchmark_tracer_bindings_exist():
    # the benchmark's tracer patches each span under the name its caller
    # looks up; a binding that goes missing (such as the tracer-only imports
    # amrb.online.solve_trajectory and amrb.cli.verify_model) breaks only
    # traced benchmark runs
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(root, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for span, _, modules in tracing.PATCHES:
        attr = span.split(".", 1)[1]
        for module in modules:
            assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_parser_reuse_leaks_no_flag(tmp_path):
    # main builds its parser once per process; a flag of one call must not
    # carry into the next, and the outputs equal those of one process per call
    assert cli_mod._build_parser() is cli_mod._build_parser()
    cfg = write_config(tmp_path, SMALL_CONFIG)

    def commands(out):
        model = str(out / "model.json")
        return (["offline", "--config", cfg, "--out", str(out), "--gnuplot"],
                ["online", "--config", cfg, "--model", model, "--mu", "101,0.05,0.0015,0.5",
                 "--compare", "--out", str(out)],
                ["validate", "--model", model])

    same = tmp_path / "same"
    assert [main(argv) for argv in commands(same)] == [0, 0, 0]
    fresh = tmp_path / "fresh"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli_mod.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in commands(fresh):
        subprocess.run([sys.executable, "-m", "amrb", *argv], env=env, capture_output=True,
                       check=True)
    names = sorted(p.name for p in same.iterdir())
    assert "greedy_decay.gp" in names and "comparison.gp" not in names
    assert names == sorted(p.name for p in fresh.iterdir())
    for name in names:
        assert (same / name).read_bytes() == (fresh / name).read_bytes()


# ---------------------------------------------------------------------------
# truth


def test_truth_default_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["truth", "--mu", "100,0.05,0.0015,0.5", "--out", "run"])
    assert code == 0
    header, rows = read_csv(tmp_path / "run" / "truth_trajectory.csv")
    assert header == ["step", "t", "s", "u", "lambda", "price"]
    assert len(rows) == 21 * 99
    summary = json.loads((tmp_path / "run" / "truth_summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["feasibility_residuals"]["max_complementarity"] <= 1e-9
    assert summary["feasibility_residuals"]["max_linear_residual"] <= 1e-10
    assert len(summary["final_price_curve"]) == 99
    assert summary["pdas_iteration_stats"]["max"] >= 1


def test_trajectory_csv(tmp_path, default_ops, default_scheme, mu0):
    # the truth command at the stock grid
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    traj = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    assert main(["truth", "--mu", mu_flag(mu0), "--out", str(tmp_path / "a")]) == 0
    path = tmp_path / "a" / "truth_trajectory.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "step,t,s,u,lambda,price"
    assert len(lines) - 1 == (default_scheme.L + 1) * default_ops.dim
    first = lines[1].split(",")
    assert first[4] == "nan"  # no multiplier at the initial time
    # 17-significant-digit cells round-trip exactly
    u_cell = float(lines[1].split(",")[3])
    assert u_cell == traj.states[0, 0]
    # rerun is byte-identical
    assert main(["truth", "--mu", mu_flag(mu0), "--out", str(tmp_path / "b")]) == 0
    path2 = tmp_path / "b" / "truth_trajectory.csv"
    assert path.read_bytes() == path2.read_bytes()


def test_truth_requires_mu(tmp_path):
    with pytest.raises(SystemExit):
        main(["truth", "--out", str(tmp_path)])


def test_malformed_mu_exits_2(tmp_path, capsys):
    assert main(["truth", "--mu", "100,0.05", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "config"


def test_malformed_config_exits_2(tmp_path, capsys):
    # not JSON, not UTF-8 (used to exit 1), nested too deeply for the
    # decoder (used to exit 1), not an object
    bad = tmp_path / "bad.json"
    for content in (b"{broken", b"\xff\xfe{", b"[" * 100_000, b"[1]"):
        bad.write_bytes(content)
        assert main(["truth", "--config", str(bad), "--mu", "100,0.05,0.0015,0.5",
                     "--out", str(tmp_path / "o")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "config"


def test_unknown_config_key_exits_2(tmp_path):
    assert main(["offline", "--config", write_config(tmp_path, {"bogus": 1}),
                 "--out", str(tmp_path / "o")]) == 2


def test_out_of_range_config_exits_2(tmp_path, capsys):
    cfg = dict(SMALL_CONFIG)
    cfg["time"] = {"T": 1.0, "L": 8, "theta": 2.0}
    assert main(["offline", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()
    # below theta = 1/2 the scheme is stable only under a step-size bound;
    # the explicit end used to exit 0 with prices of order 1e26 K
    for theta in (0.0, 0.25):
        path = write_config(tmp_path, {"time": {"theta": theta}})
        assert main(["truth", "--config", path, "--mu", "100,0.05,0.0015,0.5",
                     "--out", str(tmp_path / "o")]) == 2
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "config" and "theta" in error["message"]


@pytest.mark.parametrize("argv,config", [
    (["truth", "--mu", "100,nan,0.0015,0.5"], None),
    (["truth", "--mu", "nan,0.05,0.0015,0.5"], None),
    (["truth", "--mu", "100,0.05,0.0015,inf"], None),
    (["truth", "--mu", "100,0.05,0.0015,0.5"], {"time": {"T": float("nan")}}),
    (["offline"], {"box": {"eps": float("nan")}}),
    (["offline"], {"mesh": {"s_f": float("inf")}}),
    (["offline"], {"box": {"eps": 3.0}}),
    (["truth", "--mu", "100,0.05,0.0015,0.5"], {"mesh": {"s_f": float("nan")}}),
    (["offline", "--seed", "-1"], None),
    (["study", "--seed", "-1"], None),
    (["truth", "--seed", "-1", "--mu", "100,0.05,0.0015,0.5"], None),
    (["offline"], {"sampling": {"seed": -3}}),
    (["offline"], {"box": {"K0": 1e308, "eps": 1.9}}),
    (["offline"], {"box": {"r0": 1e308, "eps": 1.9}}),
], ids=["r-nan", "K-nan", "sigma-inf", "T-nan", "eps-nan", "s_f-inf", "eps-3", "s_f-nan",
        "offline-seed-flag", "study-seed-flag", "truth-seed-flag", "seed-config",
        "K0-bound-overflow", "r0-bound-overflow"])
def test_non_finite_or_out_of_range_input_exits_2(tmp_path, capsys, argv, config):
    # each of these used to fail with exit 1 or 4 once the solvers met it: a
    # negative seed in numpy's SeedSequence, a box bound of 1.95e308 as an
    # infinite strike or rate in the first training draw
    if config is not None:
        argv = [*argv, "--config", write_config(tmp_path, config)]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


@pytest.mark.parametrize("section, key", [
    ("mesh", "H"), ("time", "L"), ("sampling", "seed"), ("sampling", "N_train"),
    ("sampling", "N_test"), ("rb", "NV_tilde"), ("rb", "NW"), ("study", "budgets")])
def test_infinite_integer_config_exits_2(tmp_path, capsys, section, key):
    # json reads 1e400 as inf, and int(inf) raises OverflowError, which used
    # to escape every command as exit 1; int also read true as 1 and
    # truncated 20.5 to 20
    for number in ("1e400", "true", "20.5"):
        value = f"[[{number}, 2]]" if key == "budgets" else number
        path = tmp_path / "config.json"
        path.write_text(f'{{"{section}": {{"{key}": {value}}}}}')
        out = tmp_path / "o"
        assert main(["truth", "--config", str(path), "--mu", "100,0.05,0.0015,0.5",
                     "--out", str(out)]) == 2, number
        (line,) = capsys.readouterr().err.splitlines()
        error = json.loads(line)
        assert error["error"] == "config"
        assert f"{section}.{key}: " in error["message"], number
        assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("mesh", "H", "Infinity"), ("sampling", "N_test", "Infinity"), ("box", "K0", '"a"'),
    ("time", "theta", "true"), ("box", "K0", "true"), ("study", "budgets", '["23"]'),
    ("study", "budgets", '[[2, 2], "33"]'), ("time", "T", '"1"'), ("mesh", "s_f", '"300"'),
    ("box", "eps", '"0.1"')])
def test_config_error_names_its_key(tmp_path, capsys, section, key, value):
    # one except wraps every field, so an unconvertible value reported only
    # the conversion's own words, the same for an infinite mesh.H and N_test;
    # float read true as 1.0 and parsed a numeric string, and a budget pair
    # given as a string split into its characters, so those seven ran and
    # exited 0
    path = tmp_path / "config.json"
    path.write_text(f'{{"{section}": {{"{key}": {value}}}}}')
    assert main(["offline", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"{section}.{key}: " in json.loads(capsys.readouterr().err)["message"]


def test_solver_failure_exits_4(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SolverDivergenceError("forced")

    monkeypatch.setattr(cli_mod, "solve_trajectory", boom)
    code = main(["truth", "--mu", "100,0.05,0.0015,0.5", "--out", str(tmp_path / "o")])
    assert code == 4
    assert "SolverDivergenceError" in capsys.readouterr().err


def test_non_finite_error_info_keeps_one_json_line(tmp_path, monkeypatch, capsys):
    # the context of a typed failure goes into its JSON line, unless it
    # cannot be written there
    def boom(*args, **kwargs):
        raise SolverDivergenceError("forced", step=3, min_gap=float("nan"))

    monkeypatch.setattr(cli_mod, "solve_trajectory", boom)
    code = main(["truth", "--mu", "100,0.05,0.0015,0.5", "--out", str(tmp_path / "o")])
    assert code == 4
    assert json.loads(capsys.readouterr().err) == {
        "schema_version": 1, "error": "SolverDivergenceError", "message": "forced"}


def test_blown_up_truth_exits_4(tmp_path, monkeypatch, capsys):
    # a state that goes non-finite mid-trajectory is a typed breakdown, not
    # an untyped ValueError
    rhs = truth_mod.StepOperators.rhs
    calls = []

    def blown_up(self, u_prev):
        calls.append(1)
        out = rhs(self, u_prev)
        if len(calls) == 3:
            out[-1] = np.inf
        return out

    monkeypatch.setattr(truth_mod.StepOperators, "rhs", blown_up)
    out = tmp_path / "o"
    code = main(["truth", "--mu", "100,0.05,0.0015,0.5", "--out", str(out)])
    assert code == 4
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "NumericalBreakdownError"
    assert "time step 3 failed" in error["message"]
    assert "must be finite" in error["message"]
    assert not out.exists()


def test_truth_mu_fuzz(tmp_path, capsys):
    # each draw replaces one stock component of mu by +-10^U(-300, 300): the
    # exit code is a documented one, a failure is one JSON line on stderr and
    # writes no summary, and a success meets the criterion-1 contract
    rng = np.random.default_rng(5)
    for i in range(100):
        mu = [100.0, 0.05, 0.0015, 0.5]
        mu[rng.integers(4)] = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
        out = tmp_path / str(i)
        code = main(["truth", "--mu=" + ",".join(map(repr, mu)), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (mu, code)
        if code:
            assert len(err.splitlines()) == 1 and json.loads(err)["error"], (mu, err)
            assert not (out / "truth_summary.json").exists(), mu
            continue
        res = json.loads((out / "truth_summary.json").read_text())["feasibility_residuals"]
        assert res["min_state_gap"] >= -1e-9, mu
        assert res["min_multiplier"] >= -1e-12, mu
        assert res["max_complementarity"] <= 1e-9, mu
        assert res["max_linear_residual"] <= 1e-10, mu


# each config key's pool: wrong types, non-finite values (json reads 1e400
# as inf), out-of-range and small valid values; H and L draw no large finite
# value, which would allocate before it fails
_BAD = ["x", [], None, math.nan, math.inf, -math.inf]
CONFIG_POOLS = {
    "mesh": {"H": _BAD + [-1, 0, 1, 2, 7.5, 40],
             "s_f": _BAD + [-300.0, 0.0, 1.0, 300.0, 1e120]},
    "time": {"T": _BAD + [-1.0, 0.0, 0.25, 1.0], "L": _BAD + [-1, 0, 1, 3, 20],
             "theta": _BAD + [0.0, 0.25, 0.5, 1.0, 1.5]},
    "box": {"K0": _BAD + [-100.0, 0.0, 100.0, 1e308], "r0": _BAD + [-0.05, 0.0, 0.05, 1e308],
            "q0": _BAD + [-0.0015, 0.0, 0.0015, 1e308],
            "sigma0": _BAD + [-0.5, 0.0, 0.5, 1e308], "eps": _BAD + [-0.1, 0.0, 0.1, 1.9, 2.0]},
    "sampling": {"seed": _BAD + [-3, 0, 1, 2.5, 1e30], "N_train": _BAD + [-1, 0, 1, 3],
                 "N_test": _BAD + [-1, 0, 1, 3]},
    "rb": {"NV_tilde": _BAD + [-1, 0, 1, 3], "NW": _BAD + [-1, 0, 1, 3]},
    "study": {"budgets": _BAD + [5, [[0, 1]], [[math.inf, 2]], [[math.nan, 1]], [[1, 2, 3]],
                                 [["a", 1]], [[-1, 2]], [[1, 1]], [[2, 2], [3, 3]]]},
}
FUZZ_COMMANDS = {"truth": ("mesh", "time", "box"), "offline": ("sampling", "rb"),
                 "study": ("study",)}


def test_config_fuzz(tmp_path, capsys):
    # each draw runs one command on a small config with one or two of the
    # command's keys drawn from their pools: the exit code is a documented
    # one, a failure is one JSON line on stderr, a config error writes no
    # output directory, and a truth that exits 0 meets the contract
    base = {"mesh": {"H": 20}, "time": {"L": 5}, "sampling": {"N_train": 3, "N_test": 2},
            "rb": {"NV_tilde": 3, "NW": 3}, "study": {"budgets": [[2, 2]]}}
    rng = np.random.default_rng(0)
    commands = list(FUZZ_COMMANDS)
    for i in range(200):
        command = commands[rng.integers(len(commands))]
        keys = [(section, key) for section in FUZZ_COMMANDS[command]
                for key in CONFIG_POOLS[section]]
        config = json.loads(json.dumps(base))
        for k in rng.choice(len(keys), size=min(len(keys), rng.integers(1, 3)), replace=False):
            section, key = keys[k]
            pool = CONFIG_POOLS[section][key]
            config.setdefault(section, {})[key] = pool[rng.integers(len(pool))]
        out = tmp_path / str(i)
        argv = [command, "--config", write_config(tmp_path, config), "--out", str(out)]
        if command == "truth":
            argv += ["--mu", "100,0.05,0.0015,0.5"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (config, code)
        if code:
            assert len(err.splitlines()) == 1 and json.loads(err)["error"], (config, err)
            assert code != 2 or not out.exists(), config
        elif command == "truth":
            res = json.loads((out / "truth_summary.json").read_text())["feasibility_residuals"]
            assert res["min_state_gap"] >= -1e-9, config
            assert res["min_multiplier"] >= -1e-12, config
            assert res["max_complementarity"] <= 1e-9, config
            assert res["max_linear_residual"] <= 1e-10, config


def test_truth_contract_breach_exits_4(tmp_path, capsys):
    # a rate this large lets the tie threshold accept nodes below the
    # obstacle; the command fails instead of writing the broken trajectory
    out = tmp_path / "o"
    assert main(["truth", "--mu", "100,1e13,0.0015,0.5", "--out", str(out)]) == 4
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "NumericalBreakdownError"
    assert "min_state_gap" in error["message"]
    assert error["feasibility_residuals"]["min_state_gap"] < -1.0
    assert not out.exists()


# ---------------------------------------------------------------------------
# offline


def test_offline_artifacts(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["offline", "--config", cfg, "--out", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    assert model["schema_version"] == 4
    nv, nw = (model_basis(model, key).shape[1] for key in ("psi_matrix", "xi_matrix"))
    assert (model["NV_tilde"], nw, nv) == (5, 5, 10)
    header, rows = read_csv(out / "pod_greedy.csv")
    assert header == ["iteration", "eps_u", "K", "r", "q", "sigma"]
    eps = [float(r[1]) for r in rows]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(eps, eps[1:]))
    header, rows = read_csv(out / "training_params.csv")
    assert header == ["K", "r", "q", "sigma"]
    assert len(rows) == SMALL_CONFIG["sampling"]["N_train"]


def test_offline_stock_defaults(tmp_path):
    # stock configuration: 16 training draws, budget (8, 8), basis size 16
    out = tmp_path / "run"
    assert main(["offline", "--out", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    assert model["mesh"] == {"H": 99, "s_f": 300}
    assert model["time"]["L"] == 20 and model["time"]["theta"] == 0.5
    assert model["NV_tilde"] == 8
    assert model_basis(model, "xi_matrix").shape == (99, 8)
    assert model_basis(model, "psi_matrix").shape == (99, 16)
    _, rows = read_csv(out / "training_params.csv")
    assert len(rows) == 16


def test_offline_deterministic_reruns(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["offline", "--config", cfg, "--out", str(a)]) == 0
    assert main(["offline", "--config", cfg, "--out", str(b)]) == 0
    for name in ("model.json", "pod_greedy.csv", "angle_greedy.csv", "training_params.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_offline_gnuplot_flag(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["offline", "--config", cfg, "--out", str(out), "--gnuplot"]) == 0
    assert (out / "greedy_decay.gp").exists()


def test_greedy_csvs(tmp_path, small_model):
    # SMALL_CONFIG's offline builds small_model
    cfg = write_config(tmp_path, SMALL_CONFIG)
    assert main(["offline", "--config", cfg, "--out", str(tmp_path)]) == 0
    pod_path = tmp_path / "pod_greedy.csv"
    angle_path = tmp_path / "angle_greedy.csv"
    pod_lines = pod_path.read_text().splitlines()
    assert pod_lines[0] == "iteration,eps_u,K,r,q,sigma"
    assert len(pod_lines) - 1 == small_model.nv_tilde
    eps = [float(line.split(",")[1]) for line in pod_lines[1:]]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(eps, eps[1:]))
    angle_lines = angle_path.read_text().splitlines()
    assert angle_lines[0] == "iteration,eps_lambda,n,K,r,q,sigma"
    assert len(angle_lines) - 1 == small_model.nw


def test_offline_empty_cone_saves_model(tmp_path, capsys):
    # with r = 0 no training run exercises early, so every multiplier
    # snapshot vanishes and the cone stays empty; the unconstrained reduced
    # model is then the answer, and it validates and runs online
    cfg = write_config(tmp_path, {**SMALL_CONFIG, "box": {"r0": 0.0}})
    out = tmp_path / "run"
    assert main(["offline", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: dual cone saturated at 0 of 5 generators"]
    model = str(out / "model.json")
    assert json.loads((out / "model.json").read_text())["xi_matrix"] == ""  # no bytes
    assert main(["validate", "--model", model]) == 0
    assert main(["online", "--config", cfg, "--model", model, "--mu", "101,0.0,0.0015,0.5",
                 "--compare", "--out", str(out)]) == 0
    assert json.loads((out / "online_summary.json").read_text())["err_N"] >= 0.0


@pytest.mark.parametrize("argv, error", [
    (["truth", "--mu=100,1e308,0.0015,0.5"], "AssemblyError"),
    (["truth", "--mu=100,-1e308,0.0015,0.5"], "AssemblyError"),
    (["truth", "--mu=100,0.05,1e308,0.5"], "AssemblyError"),
    (["truth", "--mu=100,0.05,0.0015,1e200"], "AssemblyError"),
    (["truth", "--mu=1e308,0.05,0.0015,0.5"], "NumericalBreakdownError"),
    (["online", "--mu=100,0.05,0.0015,1e200"], "AssemblyError"),
], ids=["r-1e308", "r-minus-1e308", "q-1e308", "sigma-1e200", "K-1e308",
        "online-sigma-1e200"])
def test_overflowing_market_parameters_exit_4(tmp_path, capsys, argv, error):
    # finite parameters whose operators overflow used to exit 1 with a
    # traceback, then with numpy's overflow warnings ahead of the JSON line
    out = tmp_path / "run"
    if argv[0] == "online":
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["offline", "--config", cfg, "--out", str(out)]) == 0
        argv = [*argv, "--config", cfg]
        capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, "--out", str(out)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


OVERFLOWING_CONFIGS = {  # id: (config override, commands, error)
    "s_f-1e120": ({"mesh": {"H": 40, "s_f": 1e120}}, ("truth", "offline", "study"), "AssemblyError"),
    "K0-1e200": ({"box": {"K0": 1e200}}, ("offline", "study"), "NumericalBreakdownError"),
    "sigma0-1e100": ({"box": {"sigma0": 1e100}}, ("offline", "study"), "NumericalBreakdownError"),
}


@pytest.mark.parametrize("command, override, error", [
    pytest.param(command, override, error, id=f"{command}-{name}")
    for name, (override, commands, error) in OVERFLOWING_CONFIGS.items()
    for command in commands])
def test_overflowing_configs_exit_4(tmp_path, capsys, command, override, error):
    # a huge mesh overflows the inner-product bands, a huge strike the
    # snapshot energies and a huge volatility the multiplier lifts; each
    # used to exit 1 with a scipy or LAPACK traceback
    argv = [command, "--config", write_config(tmp_path, {**SMALL_CONFIG, **override}),
            "--out", str(tmp_path / "run")]
    if command == "truth":
        argv += ["--mu", "102,0.05,0.0015,0.49"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


def test_narrow_box_is_a_config_error(tmp_path, capsys):
    # a zero-width box draws one parameter over and over; the training set
    # must hold distinct draws
    narrow = {**SMALL_CONFIG, "box": {"eps": 0.0}}
    cfg = write_config(tmp_path, narrow)
    for command in ("offline", "study"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "config" and "too narrow" in error["message"]
    cfg = write_config(tmp_path, {**narrow, "sampling": {"N_train": 1}}, name="one.json")
    assert main(["offline", "--config", cfg, "--out", str(tmp_path / "one")]) == 0


@pytest.mark.parametrize("argv", [
    ["truth", "--mu", "100,0.05,x,0.5"], ["online", "--mu", "100,0.05"],
    ["study", "--budgets", "4x"], ["offline", "--config", "narrow.json"]])
def test_config_error_makes_no_output_directory(tmp_path, monkeypatch, capsys, argv):
    # --mu, --budgets and the training draws are read before the output
    # directory is made, as the config is
    write_config(tmp_path, {"box": {"eps": 0.0}}, name="narrow.json")
    out = tmp_path / "o"
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


def test_io_paths_must_be_strings(tmp_path, monkeypatch, capsys):
    # str() made {"output_dir": null} the directory ./None, and the command
    # exited 0; a model path may be null (the output directory's model.json)
    monkeypatch.chdir(tmp_path)
    for io, key in (({"output_dir": None}, "io.output_dir"), ({"output_dir": 7}, "io.output_dir"),
                    ({"model_path": 3.5}, "io.model_path"), ({"model_path": []}, "io.model_path")):
        cfg = write_config(tmp_path, {"io": io})
        assert main(["truth", "--config", cfg, "--mu", "100,0.05,0.0015,0.5"]) == 2, io
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config"
        assert f"{key}: expected a path string" in error["message"], io
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("flag, value, key", [
    ("--seed", "abc", "sampling.seed"), ("--seed", "1.5", "sampling.seed"),
    ("--seed", "-1", "sampling.seed"), ("--budgets", "garbled", "study.budgets"),
    ("--budgets", "0x2", "study.budgets"), ("--budgets", "2x2x2", "study.budgets")])
def test_bad_flag_names_its_config_key(tmp_path, capsys, flag, value, key):
    # a flag overrides its config key and is read as the key is, so its error
    # names the key; a non-integer --seed was argparse's usage error
    out = tmp_path / "o"
    assert main(["study", flag, value, "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "config" and key in error["message"]
    assert not out.exists()


def test_flags_equal_their_config_keys(tmp_path):
    # --seed, --budgets and --out write what sampling.seed, study.budgets and
    # io.output_dir write
    cfg = write_config(tmp_path, SMALL_CONFIG)
    by_flags, by_keys = tmp_path / "flags", tmp_path / "keys"
    assert main(["study", "--config", cfg, "--seed", "7", "--budgets", "2X2,3x3",
                 "--out", str(by_flags)]) == 0
    keys = {**SMALL_CONFIG, "sampling": {**SMALL_CONFIG["sampling"], "seed": 7},
            "study": {"budgets": [[2, 2], [3, 3]]}, "io": {"output_dir": str(by_keys)}}
    assert main(["study", "--config", write_config(tmp_path, keys, name="keys.json")]) == 0
    names = sorted(os.listdir(by_keys))
    assert "errors_3x3.csv" in names and names == sorted(os.listdir(by_flags))
    for name in names:
        assert (by_flags / name).read_bytes() == (by_keys / name).read_bytes()


@pytest.mark.parametrize("command, grid", [
    (["truth", "--mu", "100,0.05,0.0015,0.5"], {"mesh": {"H": 1e12}}),
    (["truth", "--mu", "100,0.05,0.0015,0.5"], {"time": {"L": 1e12}}),
    (["offline"], {"time": {"L": 1e12}})], ids=["truth-H", "truth-L", "offline-L"])
def test_huge_grid_exits_4_with_a_memory_line(tmp_path, command, grid):
    # the mesh (7.28 TiB at H = 1e12) or the trajectory block (1.41 PiB for
    # a truth at L = 1e12, 22.5 PiB for the training group) cannot be
    # allocated; under a 2 GB address-space limit the allocation fails at
    # once, whatever the machine's memory
    resource = pytest.importorskip("resource")
    limit = 2 * 10 ** 9
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli_mod.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = tmp_path / "o"
    done = subprocess.run(
        [sys.executable, "-m", "amrb", *command, "--config", write_config(tmp_path, grid),
         "--out", str(out)], env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert done.returncode == 4, done.stderr
    (line,) = done.stderr.splitlines()
    assert json.loads(line)["error"] == "memory"
    assert not out.exists()


# ---------------------------------------------------------------------------
# online


def test_online_missing_model_exits_3(tmp_path, capsys):
    code = main(["online", "--model", str(tmp_path / "nope.json"),
                 "--mu", "100,0.05,0.0015,0.5", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "missing-model" in capsys.readouterr().err


def test_online_corrupt_model_exits_3(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text("{}")
    code = main(["online", "--model", str(bad), "--mu", "100,0.05,0.0015,0.5",
                 "--out", str(tmp_path / "o")])
    assert code == 3


@pytest.mark.parametrize("model", ["nope.json", "empty.json"])
def test_unusable_model_makes_no_output_directory(tmp_path, capsys, model):
    # the model file is opened before the output directory is made
    (tmp_path / "empty.json").write_text("{}")
    out = tmp_path / "o"
    assert main(["online", "--model", str(tmp_path / model), "--mu", "100,0.05,0.0015,0.5",
                 "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] in ("missing-model", "model-load")
    assert not out.exists()


def test_nan_horizon_model_exits_3(tmp_path, capsys):
    # json reads NaN; a model with it used to pass validate and crash online
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["offline", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "model.json").read_text())
    doc["time"]["T"] = float("nan")
    bad = out / "nan_horizon.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", "--model", str(bad)]) == 3
    assert json.loads(capsys.readouterr().err.strip())["error"] == "model-invalid"
    assert main(["online", "--config", cfg, "--model", str(bad), "--mu", "101,0.05,0.0015,0.5",
                 "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err.strip())["error"] == "model-load"


INTEGER_MODEL_FIELDS = {
    "H": lambda doc, value: doc["mesh"].update(H=value),
    "L": lambda doc, value: doc["time"].update(L=value),
    "NV_tilde": lambda doc, value: doc.update(NV_tilde=value),
    "pod_train_indices":
        lambda doc, value: doc["diagnostics"]["selections"]["pod_train_indices"].append(value),
    "angle_pairs":
        lambda doc, value: doc["diagnostics"]["selections"]["angle_pairs"].append([value, 0]),
}


def assert_edited_model_exits_3(tmp_path, capsys, small_model, edit, names=None):
    """``edit`` applied to the saved ``small_model``'s document makes the file
    unusable: validate and online exit 3 with one JSON line, whose message
    holds ``names`` if given, and online writes nothing."""
    path = tmp_path / "model.json"
    save_model(small_model, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    for argv, kind in ((["validate"], "model-invalid"),
                       (["online", "--mu", "101,0.05,0.0015,0.5", "--out", str(out)],
                        "model-load")):
        assert main([*argv, "--model", str(path)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == kind
        assert names is None or names in json.loads(line)["message"]
    assert not out.exists()


@pytest.mark.parametrize("field", INTEGER_MODEL_FIELDS)
def test_infinite_integer_model_field_exits_3(tmp_path, capsys, small_model, field):
    # an integer field written as Infinity (or 1e400) used to raise
    # OverflowError out of load_model, and validate exited 1; int also read
    # true as 1 (a model with "L": true loaded with L = 1) and truncated 20.5
    for value in (math.inf, True, 20.5):
        assert_edited_model_exits_3(tmp_path, capsys, small_model,
                                    lambda doc: INTEGER_MODEL_FIELDS[field](doc, value))


@pytest.mark.parametrize("section, key", [("time", "T"), ("time", "theta")])
def test_boolean_float_model_field_exits_3(tmp_path, capsys, small_model, section, key):
    # float read true as 1.0, so a model with "theta": true loaded at theta = 1
    assert_edited_model_exits_3(tmp_path, capsys, small_model,
                                lambda doc: doc[section].update({key: True}))


@pytest.mark.parametrize("section, key", [("mesh", "s_f"), ("time", "T"), ("time", "theta")])
def test_string_float_model_field_exits_3(tmp_path, capsys, small_model, section, key):
    # float parsed a numeric string, so a model with "T": "1.0" loaded at T = 1
    assert_edited_model_exits_3(tmp_path, capsys, small_model,
                                lambda doc: doc[section].update({key: repr(doc[section][key])}))


def test_time_step_underflow_exits_2_and_3(tmp_path, capsys, small_model):
    # T / L rounds to 0.0 here, and mass/dt divided by it: the truth exited
    # 1 with a ZeroDivisionError traceback
    path = tmp_path / "config.json"
    path.write_text('{"time": {"T": 5e-324, "L": 2}}')
    assert main(["truth", "--config", str(path), "--mu", "100,0.05,0.0015,0.5",
                 "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert_edited_model_exits_3(tmp_path, capsys, small_model,
                                lambda doc: doc["time"].update({"T": 5e-324, "L": 2}))


# each float array field of a model file: its path in the document, and
# the array of the model it packs
FLOAT_ARRAY_MODEL_FIELDS = {
    "psi_matrix": (("psi_matrix",), lambda model: model.psi_matrix),
    "xi_matrix": (("xi_matrix",), lambda model: model.xi_matrix),
    "eps_u": (("diagnostics", "eps_u"), lambda model: model.diagnostics.eps_u),
    "eps_lambda": (("diagnostics", "eps_lambda"), lambda model: model.diagnostics.eps_lambda),
    "training_params": (("diagnostics", "selections", "training_params"),
                        lambda model: model.diagnostics.training_params),
}


def assert_float_array_exits_3(tmp_path, capsys, small_model, field, value):
    """A model file whose float array ``field`` is ``value`` exits 3, and the
    one error line names the field."""
    *parents, last = FLOAT_ARRAY_MODEL_FIELDS[field][0]

    def edit(doc):
        for key in parents:
            doc = doc[key]
        doc[last] = value

    assert_edited_model_exits_3(tmp_path, capsys, small_model, edit, names=repr(field))


@pytest.mark.parametrize("field", FLOAT_ARRAY_MODEL_FIELDS)
@pytest.mark.parametrize("value", [True, False])
def test_boolean_in_float_array_model_field_exits_3(tmp_path, capsys, small_model, field, value):
    # a float array is packed into a string; a bool in its place is no array
    assert_float_array_exits_3(tmp_path, capsys, small_model, field, value)


@pytest.mark.parametrize("field", FLOAT_ARRAY_MODEL_FIELDS)
def test_string_in_float_array_model_field_exits_3(tmp_path, capsys, small_model, field):
    # the decimal text of the array's first entry holds a "." (and maybe a
    # "-"), which base64 does not
    first = FLOAT_ARRAY_MODEL_FIELDS[field][1](small_model).flat[0]
    assert_float_array_exits_3(tmp_path, capsys, small_model, field, repr(float(first)))


@pytest.mark.parametrize("field", FLOAT_ARRAY_MODEL_FIELDS)
def test_malformed_float_array_model_field_exits_3(tmp_path, capsys, small_model, field):
    # a float array is the base64 of its little-endian float64 bytes; each
    # other form makes the file unusable
    arr = FLOAT_ARRAY_MODEL_FIELDS[field][1](small_model)
    packed = pack(arr)
    values = [
        arr.tolist(),                                  # a JSON list, the form of schema 3
        1.0,                                           # a number
        packed[:4] + "!" + packed[4:],                 # a character outside base64
        packed[:-1],                                   # a cut-short text
        base64.b64encode(base64.b64decode(packed) + bytes(4)).decode(),  # half an entry more
        pack(np.append(arr.ravel()[:-1], np.nan)),     # a NaN entry
        pack(np.append(np.inf, arr.ravel()[1:])),      # an infinite entry
    ]
    if field in ("psi_matrix", "xi_matrix"):
        values.append(pack(arr[:-1]))                  # one row short of H
    for value in values:
        assert_float_array_exits_3(tmp_path, capsys, small_model, field, value)


@pytest.mark.parametrize("key", ["diagnostics", "selections"])
def test_missing_diagnostics_exit_3(tmp_path, capsys, small_model, key):
    # offline always writes both objects; a file without one is unusable
    def drop(doc):
        if key == "selections":
            doc = doc["diagnostics"]
        del doc[key]

    assert_edited_model_exits_3(tmp_path, capsys, small_model, drop, names=repr(key))


def test_huge_model_mesh_exits_3_before_building_it(tmp_path, capsys, small_model):
    # H + 2 nodes at H = 10**12 would ask for 8 TB: the bases' row count
    # must reject the file before the mesh is built, or MemoryError exits 1
    assert_edited_model_exits_3(tmp_path, capsys, small_model,
                                lambda doc: doc["mesh"].update(H=10**12))


def test_model_defects_exit_3_from_online_and_validate(tmp_path, capsys):
    # the blocks are derived on load, so every check they run rejects the
    # file in online and validate alike, with one JSON line on stderr
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["offline", "--config", cfg, "--out", str(out)]) == 0

    def zero_generator(doc):
        xi = model_basis(doc, "xi_matrix")
        xi[:, 0] = 0.0
        doc["xi_matrix"] = pack(xi)

    def scale_column(doc):
        psi = model_basis(doc, "psi_matrix")
        psi[:, 1] *= 1.0 + 1e-6
        doc["psi_matrix"] = pack(psi)

    def raise_decay(doc):
        eps_u = unpack(doc["diagnostics"]["eps_u"], "eps_u", (-1,)).copy()
        eps_u[-1] = 2.0 * eps_u[0]
        doc["diagnostics"]["eps_u"] = pack(eps_u)

    def old_schema(doc):
        doc["schema_version"] = 3

    def drop_row(doc):
        doc["psi_matrix"] = pack(model_basis(doc, "psi_matrix")[:-1])

    for corrupt in (zero_generator, scale_column, raise_decay, old_schema, drop_row):
        doc = json.loads((out / "model.json").read_text())
        corrupt(doc)
        bad = out / f"{corrupt.__name__}.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (["validate"], ["online", "--config", cfg, "--out", str(out),
                                    "--mu", "101,0.05,0.0015,0.5"]):
            assert main([*argv, "--model", str(bad)]) == 3, (corrupt.__name__, argv[0])
            assert len(capsys.readouterr().err.splitlines()) == 1


def test_online_compare_reproduces_training_mu(tmp_path, capsys):
    cfg = write_config(tmp_path, REPRO_CONFIG)
    out = tmp_path / "run"
    assert main(["offline", "--config", cfg, "--out", str(out)]) == 0
    params = (out / "training_params.csv").read_text().splitlines()[1]
    code = main(["online", "--config", cfg, "--out", str(out),
                 "--model", str(out / "model.json"), "--mu", params, "--compare"])
    assert code == 0
    summary = json.loads((out / "online_summary.json").read_text())
    assert summary["err_N"] <= 1e-3
    cone = summary["cone_iteration_stats"]
    assert len(cone["per_step"]) == 10
    assert 1 <= cone["min"] <= cone["mean"] <= cone["max"] == max(cone["per_step"])
    header, rows = read_csv(out / "comparison.csv")
    assert header == ["step", "t", "s", "u", "lambda", "price", "source"]
    assert {r[-1] for r in rows} == {"truth", "reduced"}
    # displayed steps are all available
    steps = {int(r[0]) for r in rows}
    assert {0, 1, 5, 10} <= steps


def test_online_out_of_box_warns(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["offline", "--config", cfg, "--out", str(out)]) == 0
    code = main(["online", "--config", cfg, "--out", str(out),
                 "--model", str(out / "model.json"), "--mu", "120,0.05,0.0015,0.5"])
    assert code == 0
    assert "outside" in capsys.readouterr().err
    summary = json.loads((out / "online_summary.json").read_text())
    assert summary["in_box"] is False


def test_trajectory_csvs(tmp_path, small_model, small_store, small_setup):
    mesh, ops, scheme, _ = small_setup
    mu = small_store[0].mu
    model = str(tmp_path / "model.json")
    save_model(small_model, model)
    assert main(["online", "--model", model, "--mu", mu_flag(mu),
                 "--out", str(tmp_path / "alone")]) == 0
    assert sorted(p.name for p in (tmp_path / "alone").glob("*.csv")) == ["reduced_trajectory.csv"]
    reduced = (tmp_path / "alone" / "reduced_trajectory.csv").read_text()
    lines = reduced.splitlines()
    assert lines[0] == "step,t,s,u,lambda,price,source"
    assert len(lines) - 1 == (scheme.L + 1) * mesh.H
    assert all(line.endswith(",reduced") for line in lines[1:])

    # the comparison is the truth export with a source column, then the
    # body of reduced_trajectory.csv byte for byte
    truth = small_store[0]
    assert main(["online", "--model", model, "--mu", mu_flag(mu), "--compare",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "reduced_trajectory.csv").read_text() == reduced
    truth_text = "step,t,s,u,lambda,price,source\n" + "".join(state_rows(
        mesh.interior_nodes, obstacle_data(mesh, truth.mu.K).p0, truth.states,
        truth.multipliers, scheme.delta_t, ",truth"))
    body = reduced.split("\n", 1)[1]
    assert (tmp_path / "comparison.csv").read_text() == truth_text + body
    comparison = (tmp_path / "comparison.csv").read_text().splitlines()
    assert [line for line in comparison[1:] if not line.endswith(",truth")] == lines[1:]


def test_online_compare_reconstructs_once(tmp_path, monkeypatch):
    # the error and both CSVs share one reconstruction of the reduced states
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["offline", "--config", cfg, "--out", str(out)]) == 0
    import amrb.online as online_mod

    calls = []
    reconstruct = online_mod.reconstruct_states
    for module in (cli_mod, online_mod):
        monkeypatch.setattr(module, "reconstruct_states",
                            lambda *args: calls.append(args) or reconstruct(*args))
    assert main(["online", "--config", cfg, "--out", str(out), "--model", str(out / "model.json"),
                 "--mu", "101,0.05,0.0015,0.5", "--compare"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("mu", ["100,1e13,0.0015,0.5", "100,1e14,0.0015,0.5",
                                "100,0.05,-1e14,0.5"])
def test_online_compare_refuses_contract_breach(tmp_path, capsys, mu):
    # the truth behind err_N must meet the contract the truth command
    # enforces; the command fails before it writes anything, into a new
    # output directory or one that holds files
    out = tmp_path / "run"
    assert main(["offline", "--out", str(out)]) == 0
    written = sorted(os.listdir(out))
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    assert main(["online", "--model", str(out / "model.json"), "--mu", mu, "--compare",
                 "--out", str(fresh)]) == 4
    assert not fresh.exists()
    capsys.readouterr()
    assert main(["online", "--model", str(out / "model.json"), "--mu", mu, "--compare",
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "err_N" not in captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "NumericalBreakdownError"
    assert "breaks the truth contract" in error["message"]
    assert error["feasibility_residuals"]["min_state_gap"] < -1.0
    assert sorted(os.listdir(out)) == written


# ---------------------------------------------------------------------------
# study


def test_study_budgets(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "study.csv")
    assert header == ["NV_tilde", "NW", "NV", "ErrLinf", "status"]
    assert len(rows) == 3
    assert all(r[4] == "ok" for r in rows)
    for r in rows:
        assert int(r[2]) == int(r[0]) + int(r[1])
    errs = [float(r[3]) for r in rows]
    assert errs[0] >= errs[1] >= errs[2]
    assert (out / "test_params.csv").exists()
    per_budget = (out / "errors_4x4.csv").read_text().splitlines()
    assert per_budget[0] == "K,r,q,sigma,err_N"
    assert per_budget[-1].startswith("ERR_LINF")


def test_study_budget_flag(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["study", "--config", cfg, "--out", str(out),
                 "--budgets", "2x2,3x3"]) == 0
    _, rows = read_csv(out / "study.csv")
    assert len(rows) == 2
    assert main(["study", "--config", cfg, "--out", str(out),
                 "--budgets", "garbled"]) == 2


def test_study_deterministic(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["study", "--config", cfg, "--out", str(a), "--budgets", "3x3"]) == 0
    assert main(["study", "--config", cfg, "--out", str(b), "--budgets", "3x3"]) == 0
    assert (a / "study.csv").read_bytes() == (b / "study.csv").read_bytes()


def test_error_report_csv(tmp_path, monkeypatch):
    # one budget's report over three test draws, against the errors the
    # study computed
    found = []
    err_linf = cli_mod.err_linf
    monkeypatch.setattr(cli_mod, "err_linf",
                        lambda *args: found.append(err_linf(*args)) or found[-1])
    config = dict(SMALL_CONFIG, sampling={**SMALL_CONFIG["sampling"], "N_test": 3},
                  study={"budgets": [[5, 5]]})
    cfg = write_config(tmp_path, config)
    assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 0
    (errors,) = found
    path = tmp_path / "errors_5x5.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "K,r,q,sigma,err_N"
    assert len(lines) == 1 + 3 + 1
    assert lines[-1].startswith("ERR_LINF,,,,")
    assert float(lines[-1].split(",")[-1]) == errors.max()


@pytest.mark.parametrize("command", [["truth", "--mu", "100,0.05,0.0015,0.5"], ["offline"]])
@pytest.mark.parametrize("below", [False, True])
def test_output_path_through_a_file_exits_3(tmp_path, capsys, command, below):
    # an --out that names a plain file, or lies under one, cannot be written
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if below else afile
    cfg = write_config(tmp_path, SMALL_CONFIG)
    assert main(command + ["--config", cfg, "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "output" and str(out) in error["message"]
    assert afile.read_text() == "kept\n"


def test_study_shared_failure_exits_4(tmp_path, monkeypatch, capsys):
    # the test truths serve every budget, so their failure ends the study
    def boom(*args, **kwargs):
        raise SolverDivergenceError("forced")

    monkeypatch.setattr(cli_mod, "solve_trajectories", boom)
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 4
    assert json.loads(capsys.readouterr().err.strip())["error"] == "SolverDivergenceError"
    assert not (out / "study.csv").exists()


def test_study_test_truth_failure_names_its_mu(tmp_path, monkeypatch, capsys):
    # the test truths march one at a time here, and the second one fails
    cfg = write_config(tmp_path, SMALL_CONFIG)
    config = cli_mod.load_config(cfg)
    bad = cli_mod.sample_training_set(config.box, config.n_test,
                                      cli_mod.test_stream(config.seed))[1]
    solve = truth_mod.solve_trajectory

    def fail_at_bad(mu, *args):
        if mu == bad:
            raise SolverDivergenceError("time step 3 failed: forced", step=3)
        return solve(mu, *args)

    monkeypatch.setattr(truth_mod, "march_group", lambda *args: None)
    monkeypatch.setattr(truth_mod, "solve_trajectory", fail_at_bad)
    out = tmp_path / "run"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 4
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "SolverDivergenceError" and error["step"] == 3
    assert error["message"] == f"test truth failed at mu={bad}: time step 3 failed: forced"
    assert not out.exists()


def test_study_refuses_contract_breach(tmp_path, monkeypatch, capsys):
    # a test truth outside its contract ends the study, as a failed solve does
    residuals = truth_mod.trajectory_residuals
    monkeypatch.setattr(truth_mod, "trajectory_residuals",
                        lambda *args: {**residuals(*args), "min_state_gap": -1.0})
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 4
    error = json.loads(capsys.readouterr().err.strip())
    assert error["error"] == "NumericalBreakdownError"
    assert error["feasibility_residuals"]["min_state_gap"] == -1.0
    assert not (out / "study.csv").exists()


def test_study_of_failed_budgets_writes_its_table_and_exits_4(tmp_path, monkeypatch, capsys):
    # every budget failing is a solver failure, reported after study.csv
    # records each budget's error
    def fail(*args):
        raise InfSupFailureError("forced")

    monkeypatch.setattr(cli_mod, "truncated_model", fail)
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["study", "--config", cfg, "--out", str(out), "--budgets", "2x2,3x3"]) == 4
    _, rows = read_csv(out / "study.csv")
    assert [r[4] for r in rows] == ["error:InfSupFailureError"] * 2
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == [f"warning: budget ({b},{b}) failed: forced" for b in (2, 3)]
    assert json.loads(err[2])["error"] == "study-failed"
    assert not list(out.glob("errors_*.csv"))


def test_study_budget_failure_is_a_row(tmp_path, monkeypatch, capsys):
    truncated_model = cli_mod.truncated_model

    def fail_at_4(snapshots, pod, cone, nv_tilde, nw, ops):
        if nw == 4:
            raise InfSupFailureError("forced")
        return truncated_model(snapshots, pod, cone, nv_tilde, nw, ops)

    monkeypatch.setattr(cli_mod, "truncated_model", fail_at_4)
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "study.csv")
    assert [r[4] for r in rows] == ["ok", "error:InfSupFailureError", "ok"]
    assert capsys.readouterr().err == "warning: budget (4,4) failed: forced\n"
    assert not (out / "errors_4x4.csv").exists()


def test_study_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["study", "--config", cfg, "--out", str(a), "--budgets", "3x3"]) == 0
    assert main(["study", "--config", cfg, "--out", str(b), "--budgets", "3x3",
                 "--seed", "77"]) == 0
    assert (a / "study.csv").read_bytes() != (b / "study.csv").read_bytes()


# ---------------------------------------------------------------------------
# validate


def test_validate_and_compare_assemble_once(tmp_path, monkeypatch):
    # load_model assembles the stored mesh's operators and hands them on to
    # verify_model and to the truth solve of online --compare
    import amrb.offline as offline_mod

    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["offline", "--config", cfg, "--out", str(out)]) == 0
    meshes = []
    for module in (cli_mod, offline_mod):
        assemble = module.assemble_operators
        monkeypatch.setattr(module, "assemble_operators",
                            lambda mesh, assemble=assemble: meshes.append(mesh.H) or assemble(mesh))
    model = str(out / "model.json")
    assert main(["validate", "--model", model]) == 0
    assert meshes == [40]
    assert main(["online", "--config", cfg, "--out", str(out), "--model", model,
                 "--mu", "101,0.05,0.0015,0.5", "--compare"]) == 0
    assert meshes == [40, 40]


def test_validate_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    assert main(["offline", "--config", cfg, "--out", str(out)]) == 0
    assert main(["validate", "--model", str(out / "model.json")]) == 0
    assert main(["validate", "--model", str(out / "missing.json")]) == 3
    doc = json.loads((out / "model.json").read_text())
    for key, value in (("xi_matrix", []), ("diagnostics", [1])):
        (out / "bad.json").write_text(json.dumps(dict(doc, **{key: value})))
        assert main(["validate", "--model", str(out / "bad.json")]) == 3
    psi = model_basis(doc, "psi_matrix")
    psi[:, 0] *= 1.0 + 1e-6
    doc["psi_matrix"] = pack(psi)
    (out / "model.json").write_text(json.dumps(doc))
    assert main(["validate", "--model", str(out / "model.json")]) == 3
