"""Command-line pipeline around the truth solver and the reduction phases.

Subcommands:

  truth     solve one full-order trajectory, export CSV plus a summary JSON
  offline   sample a training set, build and save a reduced model, export
            the greedy decay diagnostics
  online    run a reduced trajectory from a saved model; with --compare,
            also solve the truth and emit an overlay CSV and the
            space-time error
  study     build one model per basis-size budget and tabulate the maximal
            test-set error per budget
  validate  re-run all invariant checks on a saved model file

All commands are deterministic given (config, seed): reruns produce
byte-identical numeric artifacts.  Exit codes: 0 ok, 2 config error,
3 missing or unusable artifact, 4 solver failure, 5 greedy saturation
with an empty result.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import textio
from .errors import AmrbError, ModelLoadError, SaturationError
from .fem import (
    ParameterBox,
    ParameterVector,
    assemble_operators,
    build_mesh,
    obstacle_data,
)
from .offline import (
    build_reduced_model_from_store,
    generate_snapshots,
    load_model,
    sample_training_set,
    save_model,
    verify_model,
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
    solve_trajectory,
    trajectory_residuals,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_SOLVER = 4
EXIT_SATURATED = 5

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
    h: int
    s_f: float
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
    """Parse the JSON run configuration, merged over the built-in defaults."""
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config {path} is not valid JSON: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    data = _merge(DEFAULT_CONFIG, raw)
    try:
        mesh = data["mesh"]
        time = data["time"]
        box = data["box"]
        sampling = data["sampling"]
        rb = data["rb"]
        io_cfg = data["io"]
        h = int(mesh["H"])
        s_f = float(mesh["s_f"])
        time_grid = {"T": float(time["T"]), "L": int(time["L"]), "theta": float(time["theta"])}
        box_obj = ParameterBox(K0=float(box["K0"]), r0=float(box["r0"]),
                               q0=float(box["q0"]), sigma0=float(box["sigma0"]),
                               eps=float(box["eps"]))
        seed = int(sampling["seed"]) if seed_override is None else int(seed_override)
        n_train = int(sampling["N_train"])
        n_test = int(sampling["N_test"])
        nv_tilde = int(rb["NV_tilde"])
        nw = int(rb["NW"])
        output_dir = str(io_cfg["output_dir"]) if out_override is None else str(out_override)
        model_path = io_cfg["model_path"]
        budgets = tuple((int(a), int(b)) for a, b in data["study"]["budgets"])
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"malformed config value: {err}") from err
    if h < 2 or s_f <= 0:
        raise ConfigError(f"mesh out of range: H={h}, s_f={s_f}")
    try:
        scheme = SchemeConfig(**time_grid)
    except ValueError as err:
        raise ConfigError(f"time grid out of range: {err}") from err
    if box_obj.K0 <= 0 or box_obj.sigma0 <= 0 or box_obj.eps < 0:
        raise ConfigError("parameter box must have positive K0 and sigma0 and eps >= 0")
    if n_train < 1 or n_test < 1 or nv_tilde < 1 or nw < 1:
        raise ConfigError("sampling and basis budgets must be positive")
    if not budgets or any(a < 1 or b < 1 for a, b in budgets):
        raise ConfigError("study budgets must be pairs of positive integers")
    if model_path is None:
        model_path = os.path.join(output_dir, "model.json")
    return RunConfig(h=h, s_f=s_f, scheme=scheme, box=box_obj, seed=seed,
                     n_train=n_train, n_test=n_test, nv_tilde=nv_tilde, nw=nw,
                     output_dir=output_dir, model_path=str(model_path), budgets=budgets)


def train_stream(seed: int) -> np.random.SeedSequence:
    """Labeled substream for training draws; independent of the test stream."""
    return np.random.SeedSequence([int(seed), 0])


def test_stream(seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), 1])


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
    doc.update(extra)
    sys.stderr.write(textio.json_text(doc) + "\n")


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
    mesh = build_mesh(cfg.h, cfg.s_f)
    ops = assemble_operators(mesh)
    obstacle = obstacle_data(mesh, mu.K)
    scheme = cfg.scheme
    traj = solve_trajectory(mu, ops, obstacle, scheme)

    out = cfg.output_dir
    csv_path = os.path.join(out, "truth_trajectory.csv")
    write_trajectory_csv(csv_path, traj, mesh)
    residuals = trajectory_residuals(traj, ops, obstacle)
    final_price = traj.states[-1] + obstacle.p0
    summary = {
        "schema_version": 1,
        "mu": {"K": mu.K, "r": mu.r, "q": mu.q, "sigma": mu.sigma},
        "mesh": {"H": cfg.h, "s_f": cfg.s_f},
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
    mesh = build_mesh(cfg.h, cfg.s_f)
    ops = assemble_operators(mesh)
    scheme = cfg.scheme
    params = sample_training_set(cfg.box, cfg.n_train, train_stream(cfg.seed))
    store = generate_snapshots(params, ops, scheme)
    model, warnings = build_reduced_model_from_store(store, cfg.nv_tilde, cfg.nw, ops)
    for note in warnings:
        sys.stderr.write(f"warning: {note}\n")
    if model.nv == 0 or model.nw == 0:
        _error_json("saturation", "greedy construction produced an empty basis or cone",
                    achieved_nv=model.nv, achieved_nw=model.nw)
        return EXIT_SATURATED

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
    if not os.path.exists(model_path):
        _error_json("missing-model", f"model file not found: {model_path}")
        return EXIT_MISSING
    try:
        model, ops = load_model(model_path, return_operators=True)
    except ModelLoadError as err:
        _error_json("model-load", str(err))
        return EXIT_MISSING

    mesh = ops.mesh
    scheme = model.config
    rt = reduced_trajectory(model, mu, scheme)
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
    truth = None
    if compare:
        truth = solve_trajectory(mu, ops, obstacle_data(mesh, mu.K), scheme)
        err = error_metrics(truth, reconstruct_states(model, rt), ops, scheme)
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
    write_online_csvs(out, model, rt, mesh, truth)
    textio.write_json(os.path.join(out, "online_summary.json"), summary)
    print(f"reduced trajectory written to {os.path.join(out, 'reduced_trajectory.csv')}")
    return EXIT_OK


def cmd_study(cfg: RunConfig, budgets, gnuplot: bool) -> int:
    mesh = build_mesh(cfg.h, cfg.s_f)
    ops = assemble_operators(mesh)
    scheme = cfg.scheme
    train_params = sample_training_set(cfg.box, cfg.n_train, train_stream(cfg.seed))
    test_params = sample_training_set(cfg.box, cfg.n_test, test_stream(cfg.seed))
    store = generate_snapshots(train_params, ops, scheme)

    rows = []
    ok_rows = 0
    out = cfg.output_dir
    for nv_tilde, nw in budgets:
        try:
            model, warnings = build_reduced_model_from_store(store, nv_tilde, nw, ops)
            for note in warnings:
                sys.stderr.write(f"warning: budget ({nv_tilde},{nw}): {note}\n")
            report = err_linf(model, test_params, ops, scheme, box=cfg.box)
            write_error_report_csv(
                report, os.path.join(out, f"errors_{nv_tilde}x{nw}.csv"))
            rows.append([nv_tilde, nw, model.nv, report.err_linf, "ok"])
            ok_rows += 1
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
    if ok_rows == 0:
        _error_json("study-failed", "every budget in the study failed")
        return EXIT_SOLVER
    return EXIT_OK


def cmd_validate(model_path: str) -> int:
    if not os.path.exists(model_path):
        _error_json("missing-model", f"model file not found: {model_path}")
        return EXIT_MISSING
    try:
        model, ops = load_model(model_path, return_operators=True)
        verify_model(model, ops)
    except AmrbError as err:
        _error_json("model-invalid", str(err))
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
    if not budgets or any(a < 1 or b < 1 for a, b in budgets):
        raise ConfigError("budgets must be pairs of positive integers")
    return tuple(budgets)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    except SaturationError as err:
        _error_json("saturation", str(err), achieved=err.achieved)
        return EXIT_SATURATED if err.achieved == 0 else EXIT_SOLVER
    except AmrbError as err:
        _error_json(type(err).__name__, str(err))
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
