"""Timings of the truth march and the online phase per mesh size, written
as one JSON file.

Rows, first one without a mesh:

  cli_import        a fresh ``python -c "import amrb.cli"`` process, start
                    to exit, with the benchmark's BLAS pinning

then at each mesh size H of ``--H`` (stock time grid and box):

  truth             one ``solve_trajectory`` at the first stock training draw
  snapshots         ``offline.generate_snapshots`` of the 16 stock training
                    draws (seed 0), as ``amrb offline`` calls it
  snapshots_single  the same 16 trajectories, one ``solve_trajectory`` each
  snapshots_group   the same 16 through ``truth.march_group`` at every H
  pod_greedy_A      ``offline.pod_greedy`` of those snapshots at the stock
                    budgets A = 8 and 16
  angle_greedy_B    ``offline.angle_greedy`` of those snapshots at B = 8, 16
  enrich_AxB        ``offline.enrich_with_supremizers`` of the (A, B) =
                    (8, 8) and (16, 16) greedy results, as ``amrb offline``
                    calls it
  save_model_AxB    ``offline.save_model`` of the stock (A, B) model, built
                    untimed from those snapshots
  load_model_AxB    ``offline.load_model`` of that model's file
  online_setup_AxB  ``online.online_setup`` of the same model at the first
                    stock test draw
  reduced_trajectory_AxB
                    ``online.reduced_trajectory`` of the same model and draw

Repeats interleave the rows, after one untimed call of each.  Beside each
timed call runs the reference kernel of ``perfbench/reference.py``, and a
row reports the median and quartiles over the repeats of the call's time
divided by the kernel's (``rel``), which stays steady while the host's
speed drifts, and the median seconds (``cli_import``: their quartiles).
An online row also records its median ``rel`` over the same run's
``truth`` median (``over_truth``) and over the ``snapshots`` median per
draw (``over_snapshot``), the truth cost it stands in for, alone or
marched in a group.
The record names the machine, the BLAS threads, the numpy and scipy
versions and the git commit.

    python scripts/bench.py --out BENCH.json
    python scripts/bench.py --H 99,999,1999,3999 --repeats 9 --out BENCH.json

Model files go to a temporary directory that the run removes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import bench_env  # noqa: E402  pins BLAS to one thread before numpy loads

bench_env.prepare()

import numpy as np  # noqa: E402
import reference  # noqa: E402

from amrb import offline, online, truth  # noqa: E402
from amrb.cli import load_config, test_stream, training_set  # noqa: E402
from amrb.fem import assemble_operators, build_mesh, obstacle_data  # noqa: E402


# the stock (NV_tilde, NW) budgets of the offline and online rows
BUDGETS = ((8, 8), (16, 16))


def rows_at(H: int, workdir: str) -> dict:
    """The calls timed at mesh size H, by row name; model files go to workdir."""
    cfg = load_config(None)
    ops = assemble_operators(build_mesh(H, cfg.mesh.s_f))
    scheme = cfg.scheme
    params = training_set(cfg)

    def single(mu):
        return truth.solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), scheme)

    rows = {
        "truth": lambda: single(params[0]),
        "snapshots": lambda: offline.generate_snapshots(params, ops, scheme),
        "snapshots_single": lambda: [single(mu) for mu in params],
        "snapshots_group": lambda: truth.march_group(params, ops, scheme),
    }
    snapshots = offline.generate_snapshots(params, ops, scheme)
    mu = offline.sample_training_set(cfg.box, cfg.n_test, test_stream(cfg.seed))[0]
    for nv_tilde, nw in BUDGETS:
        pod = offline.pod_greedy(snapshots, nv_tilde, ops)
        cone = offline.angle_greedy(snapshots, nw, ops)
        model, _ = offline.truncated_model(snapshots, pod, cone, nv_tilde, nw, ops)
        path = os.path.join(workdir, f"model_{H}_{nv_tilde}x{nw}.json")
        offline.save_model(model, path)
        xi = np.ascontiguousarray(cone[0])  # as truncated_model passes it
        rows[f"pod_greedy_{nv_tilde}"] = lambda n=nv_tilde: offline.pod_greedy(snapshots, n, ops)
        rows[f"angle_greedy_{nw}"] = lambda n=nw: offline.angle_greedy(snapshots, n, ops)
        rows[f"enrich_{nv_tilde}x{nw}"] = (
            lambda pod=pod[0], xi=xi: offline.enrich_with_supremizers(pod, xi, ops))
        rows[f"save_model_{nv_tilde}x{nw}"] = (
            lambda model=model, path=path: offline.save_model(model, path))
        rows[f"load_model_{nv_tilde}x{nw}"] = lambda path=path: offline.load_model(path)
        rows[f"online_setup_{nv_tilde}x{nw}"] = lambda model=model: online.online_setup(model, mu)
        rows[f"reduced_trajectory_{nv_tilde}x{nw}"] = (
            lambda model=model: online.reduced_trajectory(model, mu))
    return rows


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def cli_import_row(repeats: int) -> dict:
    """Fresh interpreters that import amrb.cli and exit, after one untimed."""
    argv = [sys.executable, "-c", "import amrb.cli"]
    env = dict(os.environ, PYTHONPATH=bench_env.SRC)
    subprocess.run(argv, env=env, check=True)
    seconds, rel = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        seconds.append(time.perf_counter() - start)
        rel.append(seconds[-1] / float(np.median(reference.measure())))
    return {"row": "cli_import", "repeats": repeats, "rel": quartiles(rel),
            "seconds": quartiles(seconds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--H", default="99,999,3999", help="interior node counts")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per row")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    bench_env.check_sources(truth)

    row = cli_import_row(args.repeats)
    results = [row]
    print(f"{'cli_import':<32s} rel median {row['rel']['median']:9.2f} "
          f"[{row['rel']['q1']:.2f}, {row['rel']['q3']:.2f}]  "
          f"{1e3 * row['seconds']['median']:8.2f} ms")
    with tempfile.TemporaryDirectory(prefix="amrb-bench-") as workdir:
        for H in (int(h) for h in args.H.split(",")):
            rows = rows_at(H, workdir)
            for call in rows.values():
                call()
            rel = {name: [] for name in rows}
            seconds = {name: [] for name in rows}
            for _ in range(args.repeats):
                for name, call in rows.items():
                    start = time.perf_counter()
                    call()
                    elapsed = time.perf_counter() - start
                    kernel = float(np.median(reference.measure()))
                    seconds[name].append(elapsed)
                    rel[name].append(elapsed / kernel)
            truth_rel = float(np.median(rel["truth"]))
            member_rel = float(np.median(rel["snapshots"])) / load_config(None).n_train
            for name in rows:
                row = {"row": name, "H": H, "repeats": args.repeats, "rel": quartiles(rel[name]),
                       "seconds_median": float(np.median(seconds[name]))}
                if name.startswith(("online_setup", "reduced_trajectory")):
                    row["over_truth"] = row["rel"]["median"] / truth_rel
                    row["over_snapshot"] = row["rel"]["median"] / member_rel
                results.append(row)
                ratios = (f"  {row['over_truth']:.2f} truth, {row['over_snapshot']:.2f} snapshot"
                          if "over_truth" in row else "")
                print(f"H={H:<5d} {name:<24s} rel median {row['rel']['median']:9.2f} "
                      f"[{row['rel']['q1']:.2f}, {row['rel']['q3']:.2f}]  "
                      f"{1e3 * row['seconds_median']:8.2f} ms{ratios}")
    record = {"machine": bench_env.machine(), "kernel": "perfbench/reference.py",
              "rows": results}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
