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
byte-identical numeric artifacts.  Exit codes: 0 ok, 2 config error,
3 missing or unusable artifact, 4 solver or assembly failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass

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
    angle_greedy,
    build_reduced_model_from_store,
    generate_snapshots,
    load_model,
    pod_greedy,
    read_grid,
    sample_training_set,
    save_model,
    truncated_model,
    verify_model,  # noqa: F401  unused here; perfbench's tracer patches this binding
    write_greedy_csvs,
    write_params_csv,
)
from .online import (
    err_linf,
    error_metrics,
    reconstruct_states,
    reduced_trajectory,
    write_error_report_csv,
    write_online_csvs,
)
from .truth import (
    SchemeConfig,
    check_contract,
    solve_trajectory,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_SOLVER = 4

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


@dataclass(frozen=True)
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


def load_config(path: str | None, seed_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    """Parse the JSON run configuration, merged over the built-in defaults.

    Each section is checked by the type it becomes (``Mesh1D``,
    ``SchemeConfig``, ``ParameterBox``); any failure is a ConfigError.
    """
    raw = {} if path is None else textio.read_json_object(path, ConfigError, "config")
    data = _merge(DEFAULT_CONFIG, raw)
    box, sampling, rb, io_cfg = data["box"], data["sampling"], data["rb"], data["io"]
    try:
        mesh, scheme = read_grid(data)
        box_obj = ParameterBox(**{key: float(box[key])
                                  for key in ("K0", "r0", "q0", "sigma0", "eps")})
        seed = int(sampling["seed"] if seed_override is None else seed_override)
        n_train = int(sampling["N_train"])
        n_test = int(sampling["N_test"])
        nv_tilde = int(rb["NV_tilde"])
        nw = int(rb["NW"])
        budgets = tuple((int(a), int(b)) for a, b in data["study"]["budgets"])
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"malformed or out-of-range config value: {err}") from err
    if seed < 0:
        raise ConfigError(f"the sampling seed must be non-negative, got {seed}")
    if n_train < 1 or n_test < 1 or nv_tilde < 1 or nw < 1:
        raise ConfigError("sampling and basis budgets must be positive")
    _check_budgets(budgets)
    output_dir = str(io_cfg["output_dir"] if out_override is None else out_override)
    model_path = io_cfg["model_path"]
    if model_path is None:
        model_path = os.path.join(output_dir, "model.json")
    return RunConfig(mesh=mesh, scheme=scheme, box=box_obj, seed=seed,
                     n_train=n_train, n_test=n_test, nv_tilde=nv_tilde, nw=nw,
                     output_dir=output_dir, model_path=str(model_path), budgets=budgets)


def _check_budgets(budgets) -> None:
    if not budgets or any(a < 1 or b < 1 for a, b in budgets):
        raise ConfigError("study budgets must be pairs of positive integers")


def train_stream(seed: int) -> np.random.SeedSequence:
    """Labeled substream for training draws; independent of the test stream."""
    return np.random.SeedSequence([int(seed), 0])


def test_stream(seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), 1])


def training_set(cfg: RunConfig) -> list[ParameterVector]:
    """The training draws of ``cfg``, which a snapshot store needs pairwise distinct."""
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
        return ParameterVector(K=values[0], r=values[1], q=values[2], sigma=values[3])
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


def _gnuplot(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


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
    residuals = check_contract(traj, ops, obstacle)

    out = cfg.output_dir
    csv_path = os.path.join(out, "truth_trajectory.csv")
    write_trajectory_csv(csv_path, traj, mesh)
    final_price = traj.states[-1] + obstacle.p0
    summary = {
        "schema_version": 1,
        "mu": {"K": mu.K, "r": mu.r, "q": mu.q, "sigma": mu.sigma},
        "mesh": {"H": mesh.H, "s_f": mesh.s_f},
        "time": {"T": scheme.T, "L": scheme.L, "theta": scheme.theta},
        "final_price_curve": [[float(s), float(p)]
                              for s, p in zip(mesh.interior_nodes, final_price)],
        "pdas_iteration_stats": _iteration_stats(traj.pdas_iterations),
        "feasibility_residuals": residuals,
    }
    textio.write_json(os.path.join(out, "truth_summary.json"), summary)
    if gnuplot:
        _gnuplot(os.path.join(out, "truth_trajectory.gp"), [
            "set datafile separator ','",
            "set xlabel 's'",
            "set ylabel 'price'",
            f"plot 'truth_trajectory.csv' every ::1 using 3:($1=={scheme.L}?$6:1/0) "
            "with lines title 'price at final step'",
        ])
    print(f"truth trajectory written to {csv_path}")
    return EXIT_OK


def cmd_offline(cfg: RunConfig, gnuplot: bool) -> int:
    ops = assemble_operators(cfg.mesh)
    scheme = cfg.scheme
    params = training_set(cfg)
    store = generate_snapshots(params, ops, scheme)
    model, warnings = build_reduced_model_from_store(store, cfg.nv_tilde, cfg.nw, ops)
    for note in warnings:
        sys.stderr.write(f"warning: {note}\n")

    out = cfg.output_dir
    save_model(model, cfg.model_path)
    write_params_csv(params, os.path.join(out, "training_params.csv"))
    write_greedy_csvs(model.diagnostics,
                      os.path.join(out, "pod_greedy.csv"),
                      os.path.join(out, "angle_greedy.csv"))
    if gnuplot:
        _gnuplot(os.path.join(out, "greedy_decay.gp"), [
            "set datafile separator ','",
            "set logscale y",
            "set xlabel 'iteration'",
            "plot 'pod_greedy.csv' every ::1 using 1:2 with linespoints title 'primal decay', \\",
            "     'angle_greedy.csv' every ::1 using 1:2 with linespoints title 'cone decay'",
        ])
    print(f"model written to {cfg.model_path} "
          f"(NV_tilde={model.nv_tilde}, NW={model.nw}, NV={model.nv})")
    return EXIT_OK


def cmd_online(cfg: RunConfig, model_path: str, mu: ParameterVector,
               compare: bool, gnuplot: bool) -> int:
    model = _open_model(model_path, "model-load")
    if model is None:
        return EXIT_MISSING
    ops, scheme = model.ops, model.config
    rt = reduced_trajectory(model, mu)
    truth = None
    if compare:  # a truth outside its contract fails before any output
        obstacle = obstacle_data(ops.mesh, mu.K)
        truth = solve_trajectory(mu, ops, obstacle, scheme)
        check_contract(truth, ops, obstacle)
    out = cfg.output_dir
    in_box = cfg.box.contains(mu)
    if not in_box:
        sys.stderr.write(f"warning: mu={mu} lies outside the configured parameter box; "
                         "extrapolating\n")
    summary = {
        "schema_version": 1,
        "mu": {"K": mu.K, "r": mu.r, "q": mu.q, "sigma": mu.sigma},
        "model": {"NV_tilde": model.nv_tilde, "NW": model.nw, "NV": model.nv},
        "in_box": in_box,
        "cone_iteration_stats": _iteration_stats(rt.lcp_solves),
    }
    if truth is not None:
        err = error_metrics(truth, reconstruct_states(model, rt), ops)
        summary["err_N"] = err
        print(f"err_N(mu) = {err:.6e}")
        if gnuplot:
            _gnuplot(os.path.join(out, "comparison.gp"), [
                "set datafile separator ','",
                "set xlabel 's'",
                "set ylabel 'u'",
                f"plot 'comparison.csv' every ::1 using 3:($1=={scheme.L} && "
                "strcol(7) eq 'truth' ? $4:1/0) with lines title 'truth', \\",
                f"     'comparison.csv' every ::1 using 3:($1=={scheme.L} && "
                "strcol(7) eq 'reduced' ? $4:1/0) with points title 'reduced'",
            ])
    write_online_csvs(out, model, rt, truth)
    textio.write_json(os.path.join(out, "online_summary.json"), summary)
    print(f"reduced trajectory written to {os.path.join(out, 'reduced_trajectory.csv')}")
    return EXIT_OK


def cmd_study(cfg: RunConfig, budgets, gnuplot: bool) -> int:
    mesh = cfg.mesh
    ops = assemble_operators(mesh)
    scheme = cfg.scheme
    test_params = sample_training_set(cfg.box, cfg.n_test, test_stream(cfg.seed))
    store = generate_snapshots(training_set(cfg), ops, scheme)
    pod = pod_greedy(store, max(a for a, _ in budgets), ops)
    cone = angle_greedy(store, max(b for _, b in budgets), ops)
    truths = [solve_trajectory(mu, ops, obstacle_data(mesh, mu.K), scheme) for mu in test_params]
    for truth in truths:
        check_contract(truth, ops, obstacle_data(mesh, truth.mu.K))

    rows = []
    out = cfg.output_dir
    for nv_tilde, nw in budgets:
        try:
            model, warnings = truncated_model(store, pod, cone, nv_tilde, nw, ops)
            for note in warnings:
                sys.stderr.write(f"warning: budget ({nv_tilde},{nw}): {note}\n")
            errors = err_linf(model, truths)
            write_error_report_csv(test_params, errors,
                                   os.path.join(out, f"errors_{nv_tilde}x{nw}.csv"))
            rows.append([nv_tilde, nw, model.nv, float(errors.max()), "ok"])
        except AmrbError as err:
            sys.stderr.write(f"warning: budget ({nv_tilde},{nw}) failed: {err}\n")
            rows.append([nv_tilde, nw, -1, float("nan"), f"error:{type(err).__name__}"])
    study_path = os.path.join(out, "study.csv")
    textio.write_csv(study_path, ["NV_tilde", "NW", "NV", "ErrLinf", "status"], rows)
    write_params_csv(test_params, os.path.join(out, "test_params.csv"))
    if gnuplot:
        _gnuplot(os.path.join(out, "study.gp"), [
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

    def common(p, mu=False, model=False):
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override the sampling seed")
        p.add_argument("--out", metavar="DIR", help="override the output directory")
        p.add_argument("--gnuplot", action="store_true",
                       help="also emit gnuplot scripts next to the CSV artifacts")
        if mu:
            p.add_argument("--mu", metavar="K,R,Q,SIGMA", required=True,
                           help="market parameters")
        if model:
            p.add_argument("--model", metavar="PATH", help="model file path")

    common(sub.add_parser("truth", help="solve one full-order trajectory"), mu=True)
    common(sub.add_parser("offline", help="build and save a reduced model"))
    online = sub.add_parser("online", help="run a reduced trajectory from a saved model")
    common(online, mu=True, model=True)
    online.add_argument("--compare", action="store_true",
                        help="also solve the truth problem and emit the overlay CSV")
    study = sub.add_parser("study", help="error study over basis-size budgets")
    common(study)
    study.add_argument("--budgets", metavar="A1xB1,A2xB2,...",
                       help="basis budgets, e.g. 4x4,8x8,16x16 (default from config)")
    validate = sub.add_parser("validate", help="re-check a saved model file")
    validate.add_argument("--model", metavar="PATH", required=True)
    return parser


def _parse_budgets(text: str) -> tuple[tuple[int, int], ...]:
    budgets = []
    for chunk in text.split(","):
        parts = chunk.lower().split("x")
        if len(parts) != 2:
            raise ConfigError(f"budget {chunk!r} is not of the form AxB")
        try:
            budgets.append((int(parts[0]), int(parts[1])))
        except ValueError as err:
            raise ConfigError(f"budget {chunk!r} is not numeric: {err}") from err
    _check_budgets(budgets)
    return tuple(budgets)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # overflowing inputs fail the finiteness checks and are reported as one
    # JSON line; numpy's warnings about the same overflow would come first
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if args.command == "validate":
                return cmd_validate(args.model)
            cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
            os.makedirs(cfg.output_dir, exist_ok=True)
            if args.command == "truth":
                return cmd_truth(cfg, parse_mu(args.mu), args.gnuplot)
            if args.command == "offline":
                return cmd_offline(cfg, args.gnuplot)
            if args.command == "online":
                model_path = args.model if args.model else cfg.model_path
                return cmd_online(cfg, model_path, parse_mu(args.mu), args.compare,
                                  args.gnuplot)
            if args.command == "study":
                budgets = _parse_budgets(args.budgets) if args.budgets else cfg.budgets
                return cmd_study(cfg, budgets, args.gnuplot)
            parser.error(f"unknown command {args.command!r}")
        except ConfigError as err:
            _error_json("config", str(err))
            return EXIT_CONFIG
        except AmrbError as err:
            _error_json(type(err).__name__, str(err), **err.info)
            return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
