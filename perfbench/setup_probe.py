"""Set up one workload in a fresh interpreter, for the benchmark's ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD SEED REFERENCE_REPEATS

Prints ``ready`` once the workload could start its first op.  The parent
times the interval from starting this process to that line.  The probe
then runs the reference kernel REFERENCE_REPEATS times, so that the parent
can scale the set-up time by the machine's speed at that moment, and
prints the median kernel time in seconds on a second line.
"""

import os
import shutil
import statistics
import sys

import bench_env


def main() -> int:
    name, seed, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    bench_env.prepare()
    import amrb
    import workloads

    bench_env.check_sources(amrb)
    workdir = os.path.join(bench_env.WORK, f"{name}-setup-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workloads.WORKLOADS[name].setup(seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import reference

    print(repr(statistics.median(reference.measure(repeats))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
