"""Truth solver sweep over meshes, horizons, step counts and theta weights.

Solves every trajectory of the grid on the first draws of the CLI's seed-0
training stream and checks the criterion-1 contract (feasibility,
complementarity, linear residual).  Prints one line per configuration and a
summary, with the minor page faults per trajectory that this process took
inside ``solve_trajectory`` (``resource.getrusage``); exits 1 if any
trajectory raised or broke the contract.

    PYTHONPATH=src python scripts/truth_sweep.py
    PYTHONPATH=src python scripts/truth_sweep.py --H 99,999 --theta 0.5,1 --draws 3
"""

from __future__ import annotations

import argparse
import itertools
import resource
import sys
import time
from collections import Counter

import numpy as np

from amrb import (AmrbError, SchemeConfig, assemble_operators, build_mesh, obstacle_data,
                  sample_training_set, solve_trajectory, trajectory_residuals)
from amrb.cli import load_config, train_stream
from amrb.truth import contract_breaches


def floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--H", default="99,999,3999,9999", help="interior node counts")
    parser.add_argument("--L", default="20,100", help="time step counts")
    parser.add_argument("--T", default="0.25,1", help="horizons")
    parser.add_argument("--theta", default="0.5,1", help="theta weights")
    parser.add_argument("--draws", type=int, default=6, help="training draws per cell")
    args = parser.parse_args(argv)

    cfg = load_config(None)
    params = sample_training_set(cfg.box, args.draws, train_stream(cfg.seed))
    total = failed = faults = 0
    solves, errors = [], Counter()
    for H in (int(h) for h in floats(args.H)):
        ops = assemble_operators(build_mesh(H, cfg.mesh.s_f))
        for L, T, theta in itertools.product(floats(args.L), floats(args.T), floats(args.theta)):
            scheme = SchemeConfig(T=T, L=int(L), theta=theta)
            bad, start = [], time.perf_counter()
            for k, mu in enumerate(params):
                total += 1
                obstacle = obstacle_data(ops.mesh, mu.K)
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                try:
                    traj = solve_trajectory(mu, ops, obstacle, scheme)
                except AmrbError as err:
                    errors[type(err).__name__] += 1
                    bad.append(f"draw {k}: {type(err).__name__} at step {err.info.get('step')}")
                    continue
                finally:
                    faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
                solves.append(traj.pdas_iterations)
                res = trajectory_residuals(traj, ops, obstacle)
                broken = contract_breaches(res)
                if broken:
                    errors["contract"] += 1
                    bad.append(f"draw {k}: " + ", ".join(f"{key}={res[key]:.3g}" for key in broken))
            failed += len(bad)
            print(f"H={H} L={int(L)} T={T:g} theta={theta:g}: {len(params) - len(bad)}/"
                  f"{len(params)} ok in {time.perf_counter() - start:.2f} s"
                  + "".join(f"\n  {line}" for line in bad))
    per_step = np.concatenate(solves) if solves else np.zeros(0)
    print(f"summary: {failed}/{total} trajectories failed {dict(errors)}; "
          f"solves per step mean {per_step.mean() if per_step.size else float('nan'):.3f}, "
          f"max {per_step.max(initial=0)}; minor page faults per trajectory "
          f"{faults / total if total else float('nan'):.1f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
