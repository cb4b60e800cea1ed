"""Command-line pipeline around the truth solver and the reduction phases.

Subcommands:

  truth     solve one full-order trajectory, export CSV plus a summary JSON
  offline   sample a training set, build and save a reduced model, export
            the greedy decay diagnostics
  online    run a reduced trajectory from a saved model; with --compare,
            also solve the truth and emit an overlay CSV and the
            space-time error
  study     build one model per basis-size budget from one greedy run per
            axis and tabulate the maximal test-set error per budget
  validate  re-run all invariant checks on a saved model file

All commands are deterministic given (config, seed): reruns produce
byte-identical numeric artifacts.  The flags --seed, --out, --model
(online) and --budgets override the config keys sampling.seed,
io.output_dir, io.model_path and study.budgets.  Exit codes: 0 ok, 2
config error, 3 missing or unusable artifact (a model file, or an output
path that cannot be written), 4 solver or assembly failure, or a problem
too large for the memory at hand.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import os
import sys

import numpy as np

from . import textio
from .errors import AmrbError, ModelLoadError
from .fem import (
    Mesh1D,
    ParameterBox,
    ParameterVector,
    assemble_operators,
    obstacle_data,
)
from .offline import (
    ReducedModel,
    angle_greedy,
    build_reduced_model_from_store,
    generate_snapshots,
    grid_document,
    integer,
    load_model,
    pod_greedy,
    read_field,
    read_grid,
    sample_training_set,
    save_model,
    truncated_model,
    verify_model,  # noqa: F401  unused here; perfbench's tracer patches this binding
)
from .online import (
    err_linf,
    error_metrics,
    reconstruct_states,
    reduced_trajectory,
)
from .truth import SchemeConfig, check_contract, solve_trajectories, solve_trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_SOLVER = 4

# the columns of a trajectory CSV, which ``textio.state_rows`` renders; the
# online CSVs add a ``source`` column
TRAJECTORY_HEADER = ("step", "t", "s", "u", "lambda", "price")

DEFAULT_CONFIG = {
    "mesh": {"H": 99, "s_f": 300.0},
    "time": {"T": 1.0, "L": 20, "theta": 0.5},
    "box": {"K0": 100.0, "r0": 0.05, "q0": 0.0015, "sigma0": 0.5, "eps": 0.1},
    "sampling": {"seed": 0, "N_train": 16, "N_test": 10},
    "rb": {"NV_tilde": 8, "NW": 8},
    "io": {"output_dir": "out", "model_path": None},
    "study": {"budgets": [[4, 4], [8, 8], [16, 16]]},
}


class ConfigError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class RunConfig:
    mesh: Mesh1D
    scheme: SchemeConfig
    box: ParameterBox
    seed: int
    n_train: int
    n_test: int
    nv_tilde: int
    nw: int
    output_dir: str
    model_path: str
    budgets: tuple[tuple[int, int], ...]


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    merged = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must be an object")
            merged[key] = _merge(defaults[key], value, path + key + ".")
        else:
            merged[key] = value
    return merged


def load_config(path: str | None, flags: dict | None = None) -> RunConfig:
    """Parse the JSON run configuration, merged over the built-in defaults,
    with the command line's ``flags`` fragment merged over both.

    Each section is checked by the type it becomes (``Mesh1D``,
    ``SchemeConfig``, ``ParameterBox``); any failure is a ConfigError, and
    a bad value's message names its dotted key, whether the file or a flag
    set it.
    """
    raw = {} if path is None else textio.read_json_object(path, ConfigError, "config")
    data = _merge(_merge(DEFAULT_CONFIG, raw), flags or {})
    try:
        mesh, scheme = read_grid(data)
        box = ParameterBox(**{key: read_field(data, f"box.{key}")
                              for key in ("K0", "r0", "q0", "sigma0", "eps")})
        seed = read_field(data, "sampling.seed", integer)
        n_train = read_field(data, "sampling.N_train", integer)
        n_test = read_field(data, "sampling.N_test", integer)
        nv_tilde = read_field(data, "rb.NV_tilde", integer)
        nw = read_field(data, "rb.NW", integer)
        budgets = read_field(data, "study.budgets", _budgets)
        output_dir = read_field(data, "io.output_dir", _path)
        model_path = (os.path.join(output_dir, "model.json") if data["io"]["model_path"] is None
                      else read_field(data, "io.model_path", _path))
    except ValueError as err:
        raise ConfigError(f"malformed or out-of-range config value: {err}") from err
    if seed < 0:
        raise ConfigError(f"sampling.seed must be non-negative, got {seed}")
    if n_train < 1 or n_test < 1 or nv_tilde < 1 or nw < 1:
        raise ConfigError("sampling and basis budgets must be positive")
    return RunConfig(mesh=mesh, scheme=scheme, box=box, seed=seed,
                     n_train=n_train, n_test=n_test, nv_tilde=nv_tilde, nw=nw,
                     output_dir=output_dir, model_path=model_path, budgets=budgets)


def _path(value) -> str:
    """An ``io`` path of the config, which must be a string."""
    if not isinstance(value, str):
        raise TypeError(f"expected a path string, got {value!r}")
    return value


def _budgets(pairs) -> tuple[tuple[int, int], ...]:
    """The study's basis budgets (NV_tilde, NW), at least one pair, each a
    list (a string pair would split into its characters)."""
    budgets = tuple(tuple(map(integer, pair)) if isinstance(pair, list) else ()
                    for pair in pairs)
    if not budgets or any(len(pair) != 2 or min(pair) < 1 for pair in budgets):
        raise ValueError("study budgets must be pairs of positive integers")
    return budgets


def train_stream(seed: int) -> np.random.SeedSequence:
    """Labeled substream for training draws; independent of the test stream."""
    return np.random.SeedSequence([int(seed), 0])


def test_stream(seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), 1])


def training_set(cfg: RunConfig) -> list[ParameterVector]:
    """The training draws of ``cfg``, pairwise distinct: a box too narrow
    to give that many distinct draws is a config error."""
    params = sample_training_set(cfg.box, cfg.n_train, train_stream(cfg.seed))
    if len(set(params)) < len(params):
        raise ConfigError(f"the parameter box is too narrow for {cfg.n_train} "
                          "distinct training draws")
    return params


def parse_mu(text: str) -> ParameterVector:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--mu expects K,R,Q,SIGMA, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as err:
        raise ConfigError(f"--mu has a non-numeric entry: {err}") from err
    try:
        return ParameterVector(*values)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _error_json(kind: str, message: str, **extra) -> None:
    doc = {"schema_version": 1, "error": kind, "message": message}
    try:
        text = textio.json_text({**doc, **extra})
    except ValueError:  # a non-finite diagnostic; the message still names the failure
        text = textio.json_text(doc)
    sys.stderr.write(text + "\n")


def _open_model(path: str, kind: str):
    """The model file at ``path`` loaded, or None after the JSON error line:
    ``missing-model`` for a missing file, ``kind`` for an unusable one."""
    if not os.path.exists(path):
        _error_json("missing-model", f"model file not found: {path}")
        return None
    try:
        return load_model(path)
    except ModelLoadError as err:
        _error_json(kind, str(err))
        return None


# ---------------------------------------------------------------------------
# commands


def _write_params(path, params) -> None:
    """The table of a training or test set: one row K, r, q, sigma per draw."""
    textio.write_csv(path, ["K", "r", "q", "sigma"], (mu.as_array() for mu in params))


def _iteration_stats(counts) -> dict:
    """Active-set solves per time step and their range and mean."""
    return {
        "per_step": [int(i) for i in counts],
        "min": int(counts.min()),
        "max": int(counts.max()),
        "mean": float(counts.mean()),
    }


def cmd_truth(cfg: RunConfig, mu: ParameterVector, gnuplot: bool) -> int:
    mesh = cfg.mesh
    ops = assemble_operators(mesh)
    obstacle = obstacle_data(mesh, mu.K)
    scheme = cfg.scheme
    traj = solve_trajectory(mu, ops, obstacle, scheme)
    residuals = check_contract(traj, ops)

    out = cfg.output_dir
    csv_path = os.path.join(out, "truth_trajectory.csv")
    textio.write_csv(csv_path, TRAJECTORY_HEADER, textio.state_rows(
        mesh.interior_nodes, obstacle.p0, traj.states, traj.multipliers, scheme.delta_t))
    final_price = traj.states[-1] + obstacle.p0
    summary = {
        "schema_version": 1,
        "mu": dataclasses.asdict(mu),
        **grid_document(mesh, scheme),
        "final_price_curve": np.column_stack([mesh.interior_nodes, final_price]),
        "pdas_iteration_stats": _iteration_stats(traj.pdas_iterations),
        "feasibility_residuals": residuals,
    }
    textio.write_json(os.path.join(out, "truth_summary.json"), summary)
    if gnuplot:
        textio.write_lines(os.path.join(out, "truth_trajectory.gp"), [
            "set datafile separator ','",
            "set xlabel 's'",
            "set ylabel 'price'",
            f"plot 'truth_trajectory.csv' every ::1 using 3:($1=={scheme.L}?$6:1/0) "
            "with lines title 'price at final step'",
        ])
    print(f"truth trajectory written to {csv_path}")
    return EXIT_OK


def cmd_offline(cfg: RunConfig, params: list[ParameterVector], gnuplot: bool) -> int:
    ops = assemble_operators(cfg.mesh)
    scheme = cfg.scheme
    snapshots = generate_snapshots(params, ops, scheme)
    model, warnings = build_reduced_model_from_store(snapshots, cfg.nv_tilde, cfg.nw, ops)
    for note in warnings:
        sys.stderr.write(f"warning: {note}\n")

    out = cfg.output_dir
    save_model(model, cfg.model_path)
    _write_params(os.path.join(out, "training_params.csv"), params)
    # the greedy loops record one selection per decay entry
    diag = model.diagnostics
    train = diag.training_params
    textio.write_csv(os.path.join(out, "pod_greedy.csv"),
                     ["iteration", "eps_u", "K", "r", "q", "sigma"],
                     ([k + 1, eps, *train[idx]] for k, (eps, idx) in enumerate(
                         zip(diag.eps_u, diag.selected_params_u, strict=True))))
    textio.write_csv(os.path.join(out, "angle_greedy.csv"),
                     ["iteration", "eps_lambda", "n", "K", "r", "q", "sigma"],
                     ([k + 1, eps, n, *train[idx]] for k, (eps, (n, idx)) in enumerate(
                         zip(diag.eps_lambda, diag.selected_pairs_lambda, strict=True))))
    if gnuplot:
        textio.write_lines(os.path.join(out, "greedy_decay.gp"), [
            "set datafile separator ','",
            "set logscale y",
            "set xlabel 'iteration'",
            "plot 'pod_greedy.csv' every ::1 using 1:2 with linespoints title 'primal decay', \\",
            "     'angle_greedy.csv' every ::1 using 1:2 with linespoints title 'cone decay'",
        ])
    print(f"model written to {cfg.model_path} "
          f"(NV_tilde={model.nv_tilde}, NW={model.nw}, NV={model.nv})")
    return EXIT_OK


def cmd_online(cfg: RunConfig, model: ReducedModel, mu: ParameterVector,
               compare: bool, gnuplot: bool) -> int:
    ops, scheme = model.ops, model.config
    rt = reduced_trajectory(model, mu)
    obstacle = obstacle_data(ops.mesh, mu.K)
    truth = None
    if compare:  # a truth outside its contract fails before any output
        truth = solve_trajectory(mu, ops, obstacle, scheme)
        check_contract(truth, ops)
    out = cfg.output_dir
    in_box = cfg.box.contains(mu)
    if not in_box:
        sys.stderr.write(f"warning: mu={mu} lies outside the configured parameter box; "
                         "extrapolating\n")
    summary = {
        "schema_version": 1,
        "mu": dataclasses.asdict(mu),
        "model": {"NV_tilde": model.nv_tilde, "NW": model.nw, "NV": model.nv},
        "in_box": in_box,
        "cone_iteration_stats": _iteration_stats(rt.lcp_solves),
    }
    states = reconstruct_states(model, rt)
    if truth is not None:
        err = error_metrics(truth, states, ops)
        summary["err_N"] = err
        print(f"err_N(mu) = {err:.6e}")
        if gnuplot:
            textio.write_lines(os.path.join(out, "comparison.gp"), [
                "set datafile separator ','",
                "set xlabel 's'",
                "set ylabel 'u'",
                f"plot 'comparison.csv' every ::1 using 3:($1=={scheme.L} && "
                "strcol(7) eq 'truth' ? $4:1/0) with lines title 'truth', \\",
                f"     'comparison.csv' every ::1 using 3:($1=={scheme.L} && "
                "strcol(7) eq 'reduced' ? $4:1/0) with points title 'reduced'",
            ])
    # the reduced lines, with the nodal multipliers xi @ alpha, are rendered
    # once: the body of reduced_trajectory.csv and the second half of comparison.csv
    header = (*TRAJECTORY_HEADER, "source")
    nodes, p0, delta_t = ops.mesh.interior_nodes, obstacle.p0, scheme.delta_t
    reduced = list(textio.state_rows(nodes, p0, states, rt.cone_coeffs @ model.xi_matrix.T,
                                     delta_t, ",reduced"))
    textio.write_csv(os.path.join(out, "reduced_trajectory.csv"), header, reduced)
    if truth is not None:
        textio.write_csv(os.path.join(out, "comparison.csv"), header, itertools.chain(
            textio.state_rows(nodes, p0, truth.states, truth.multipliers, delta_t, ",truth"),
            reduced))
    textio.write_json(os.path.join(out, "online_summary.json"), summary)
    print(f"reduced trajectory written to {os.path.join(out, 'reduced_trajectory.csv')}")
    return EXIT_OK


def cmd_study(cfg: RunConfig, params: list[ParameterVector], gnuplot: bool) -> int:
    ops = assemble_operators(cfg.mesh)
    scheme, budgets = cfg.scheme, cfg.budgets
    test_params = sample_training_set(cfg.box, cfg.n_test, test_stream(cfg.seed))
    snapshots = generate_snapshots(params, ops, scheme)
    pod = pod_greedy(snapshots, max(a for a, _ in budgets), ops)
    cone = angle_greedy(snapshots, max(b for _, b in budgets), ops)
    truths = solve_trajectories(test_params, ops, scheme, label="test truth")
    for truth in truths:
        check_contract(truth, ops)

    rows = []
    out = cfg.output_dir
    for nv_tilde, nw in budgets:
        try:
            model, warnings = truncated_model(snapshots, pod, cone, nv_tilde, nw, ops)
            for note in warnings:
                sys.stderr.write(f"warning: budget ({nv_tilde},{nw}): {note}\n")
            errors = err_linf(model, truths)
            worst = float(errors.max())
            textio.write_csv(os.path.join(out, f"errors_{nv_tilde}x{nw}.csv"),
                             ["K", "r", "q", "sigma", "err_N"],
                             [*([*mu.as_array(), e] for mu, e in zip(test_params, errors)),
                              ["ERR_LINF", "", "", "", worst]])
            rows.append([nv_tilde, nw, model.nv, worst, "ok"])
        except AmrbError as err:
            sys.stderr.write(f"warning: budget ({nv_tilde},{nw}) failed: {err}\n")
            rows.append([nv_tilde, nw, -1, float("nan"), f"error:{type(err).__name__}"])
    study_path = os.path.join(out, "study.csv")
    textio.write_csv(study_path, ["NV_tilde", "NW", "NV", "ErrLinf", "status"], rows)
    _write_params(os.path.join(out, "test_params.csv"), test_params)
    if gnuplot:
        textio.write_lines(os.path.join(out, "study.gp"), [
            "set datafile separator ','",
            "set logscale y",
            "set xlabel 'NV'",
            "set ylabel 'max test error'",
            "plot 'study.csv' every ::1 using 3:4 with linespoints title 'error decay'",
        ])
    print(f"study written to {study_path}")
    if all(row[4] != "ok" for row in rows):
        _error_json("study-failed", "every budget in the study failed")
        return EXIT_SOLVER
    return EXIT_OK


def cmd_validate(model_path: str) -> int:
    model = _open_model(model_path, "model-invalid")
    if model is None:
        return EXIT_MISSING
    print(f"model {model_path} passes all invariant checks "
          f"(NV_tilde={model.nv_tilde}, NW={model.nw}, NV={model.nv})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # built on the first call; parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amrb",
        description="Reduced basis pipeline for the parametrized American put "
                    "obstacle problem.")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag whose dest is a dotted config key overrides that key (``main``)
    def common(p, mu=False, model=False):
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--seed", dest="sampling.seed", metavar="N",
                       help="override sampling.seed")
        p.add_argument("--out", dest="io.output_dir", metavar="DIR",
                       help="override io.output_dir")
        p.add_argument("--gnuplot", action="store_true",
                       help="also emit gnuplot scripts next to the CSV artifacts")
        if mu:
            p.add_argument("--mu", metavar="K,R,Q,SIGMA", required=True,
                           help="market parameters")
        if model:
            p.add_argument("--model", dest="io.model_path", metavar="PATH",
                           help="override io.model_path")

    common(sub.add_parser("truth", help="solve one full-order trajectory"), mu=True)
    common(sub.add_parser("offline", help="build and save a reduced model"))
    online = sub.add_parser("online", help="run a reduced trajectory from a saved model")
    common(online, mu=True, model=True)
    online.add_argument("--compare", action="store_true",
                        help="also solve the truth problem and emit the overlay CSV")
    study = sub.add_parser("study", help="error study over basis-size budgets")
    common(study)
    study.add_argument("--budgets", dest="study.budgets", metavar="A1xB1,A2xB2,...",
                       type=lambda text: [chunk.lower().split("x") for chunk in text.split(",")],
                       help="override study.budgets, e.g. 4x4,8x8,16x16")
    validate = sub.add_parser("validate", help="re-check a saved model file")
    validate.add_argument("--model", metavar="PATH", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # overflowing inputs fail the finiteness checks and are reported as one
    # JSON line; numpy's warnings about the same overflow would come first
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if args.command == "validate":
                return cmd_validate(args.model)
            flags = {}
            for name, value in vars(args).items():
                if "." in name and value is not None:
                    section, key = name.split(".")
                    flags.setdefault(section, {})[key] = value
            cfg = load_config(args.config, flags)
            # the first artifact a command writes makes the output directory
            # (amrb.textio), after every input is parsed and opened
            if args.command == "truth":
                return cmd_truth(cfg, parse_mu(args.mu), args.gnuplot)
            if args.command == "offline":
                return cmd_offline(cfg, training_set(cfg), args.gnuplot)
            if args.command == "online":
                mu = parse_mu(args.mu)
                model = _open_model(cfg.model_path, "model-load")
                if model is None:
                    return EXIT_MISSING
                return cmd_online(cfg, model, mu, args.compare, args.gnuplot)
            return cmd_study(cfg, training_set(cfg), args.gnuplot)
        except ConfigError as err:
            _error_json("config", str(err))
            return EXIT_CONFIG
        except AmrbError as err:
            _error_json(type(err).__name__, str(err), **err.info)
            return EXIT_SOLVER
        except OSError as err:  # the inputs' read errors are raised as the two above
            _error_json("output", f"cannot write output: {err}")
            return EXIT_MISSING
        except MemoryError as err:  # a mesh or time grid too large for this machine
            _error_json("memory", str(err))
            return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
