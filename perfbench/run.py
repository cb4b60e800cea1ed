"""Run one workload of the amrb benchmark, check its outputs, print its metrics.

    python3 perfbench/run.py --workload online_query --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs half the time untraced, replays the same ops with a
span around every layer call, checks that both gave identical outputs,
and reports the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload both ways, each in a fresh
process, and writes one combined result file.

Human-readable lines come first.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics, where
metrics holds every metric BENCHMARK.json names for the mode.  Each run
also writes its full record (machine, per-op output digests, failures,
span table, spans as JSONL) under perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import bench_env

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("online_query", "truth_fine", "cli_pipeline")
MIN_OPS = 3
SETUP_REPEATS = 12
REFERENCE_REPEATS = 60  # reference kernel runs around each set-up, about 25 ms
P90_MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile


class Op(NamedTuple):
    latency: float         # seconds in the op itself
    digest: str | None     # hash of the op's output
    problem: str | None    # why the op failed, None if it passed its check
    reference: float       # seconds per reference kernel run, timed right after


def run_ops(wl, st, inputs, seconds=None, count=None, tracer=None) -> list[Op]:
    """Closed loop with one client: each op starts when the last one returned.

    Stops after ``count`` ops, or once ``seconds`` have passed and at least
    MIN_OPS ops ran.  Only the op itself is timed, never its check.
    """
    import reference  # numpy-based modules load after bench_env.prepare() pinned BLAS

    ops = []
    start = time.perf_counter()
    for index, x in enumerate(inputs):
        if count is not None and index >= count:
            break
        if count is None and index >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
        with tracer.installed(index) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out, problem = wl.op(st, x), None
            except Exception as err:  # a failed op is recorded; the loop goes on
                out, problem = None, f"{type(err).__name__}: {err}"
            latency = time.perf_counter() - t0
        digest = None
        if problem is None:
            try:
                digest, problem = wl.check(st, x, out)
            except Exception as err:
                problem = f"check raised {type(err).__name__}: {err}"
        ops.append(Op(latency, digest, problem, statistics.median(reference.measure())))
    return ops


def latency_metrics(ops: list[Op]) -> dict:
    """Raw and reference-relative latencies; a failed op never completes."""
    done = [op for op in ops if op.problem is None]
    busy = sum(op.latency for op in ops)
    # a failed op waited at least as long as the whole run
    cap_ms = busy * 1e3
    cap_rel = busy / statistics.median(op.reference for op in ops)
    ms = [op.latency * 1e3 if op.problem is None else math.inf for op in ops]
    rel = [op.latency / op.reference if op.problem is None else math.inf for op in ops]
    metrics = {
        "latency_p50_rel": (min(statistics.median(rel), cap_rel), "1"),
        "latency_mean_rel": (busy / sum(op.reference for op in done) if done else cap_rel, "1"),
        "latency_p50_ms": (min(statistics.median(ms), cap_ms), "ms"),
        "ops_per_s": (len(done) / busy, "1/s"),
        "reference_ms": (statistics.median(op.reference for op in ops) * 1e3, "ms"),
    }
    if len(ms) >= P90_MIN_OPS:
        nearest_rank = sorted(ms)[math.ceil(0.9 * len(ms)) - 1]
        metrics["latency_p90_ms"] = (min(nearest_rank, cap_ms), "ms")
    return metrics


def setup_times(name: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """(wall seconds from starting a fresh interpreter to the workload being ready,
    seconds per reference kernel run) for each of ``repeats`` fresh interpreters.

    The kernel time is the mean of the kernel timed here right before the
    start and in the fresh interpreter right after it was ready.
    """
    import reference

    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(repeats):
        before = statistics.median(reference.measure(REFERENCE_REPEATS))
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, probe, name, str(seed),
                               str(REFERENCE_REPEATS)],
                              stdout=subprocess.PIPE, text=True,
                              cwd=bench_env.ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            after, _ = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
        times.append((ready - start, (before + float(after)) / 2))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def load_spec() -> dict:
    with open(os.path.join(bench_env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: float, trace: int, workdir: str, tag: str):
    """Set up, warm up and run one workload; returns (metrics, record fields, failures)."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    t0 = time.perf_counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        st = wl.setup(seed, workdir)
    extra = {"setup_inproc_s": time.perf_counter() - t0}
    run_ops(wl, st, wl.inputs(seed, workloads.WARMUP), count=wl.warmup_ops)

    ops = run_ops(wl, st, wl.inputs(seed), seconds=seconds / 2 if trace else seconds)
    metrics = latency_metrics(ops)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    traced = []
    if trace:
        traced = run_ops(wl, st, wl.inputs(seed), count=len(ops), tracer=tracer)
        for i, (plain, op) in enumerate(zip(ops, traced)):
            if op.problem is None and op.digest != plain.digest:
                traced[i] = op._replace(
                    problem=f"traced output {op.digest} != untraced {plain.digest}")
        table = tracing.span_table(tracer.spans)
        metrics.update(tracing.layer_metrics(table, len(traced), workloads.SCHEME.L))
        traced_latency = latency_metrics(traced)
        extra["traced_latency_p50_ms"] = traced_latency["latency_p50_ms"][0]
        extra["traced_latency_p50_rel"] = traced_latency["latency_p50_rel"][0]
        extra["tracing_overhead_pct"] = 100 * (
            traced_latency["latency_p50_rel"][0] / metrics["latency_p50_rel"][0] - 1)
        extra["span_table"] = {k: {"calls": v["calls"], "incl_ms": v["incl_ms"],
                                   "self_ms": v["self_ms"]} for k, v in table.items()}
        spans_path = os.path.join(bench_env.RESULTS, tag + ".spans.jsonl")
        tracer.write_jsonl(spans_path)
        extra["spans_file"] = os.path.relpath(spans_path, bench_env.ROOT)

    every = ops + traced
    failures = [op.problem for op in every if op.problem is not None]
    metrics["failed_frac"] = (len(failures) / len(every), "1")
    metrics["truth.diverged_h9999"] = (workloads.diverged_h9999(seed), "count")
    extra.update(ops=len(ops), attempted=len(every), failed=len(failures),
                 op_digests=[op.digest for op in ops],
                 traced_op_digests=[op.digest for op in traced])
    if not trace:
        if hasattr(wl, "price_err_max"):
            err = wl.price_err_max(st, seed)
            metrics["price_err_max"] = (err, "1")
            if not err <= workloads.PRICE_ERR_LIMIT:
                failures.append(f"price_err_max={err!r} above {workloads.PRICE_ERR_LIMIT}")
        import reference

        # set-up time in seconds at the reference machine's speed: like an op,
        # each set-up is divided by the reference kernel time measured around it
        samples = setup_times(name, seed, SETUP_REPEATS)
        extra["setup_samples_s"] = samples
        metrics["setup_s"] = (reference.NOMINAL_S * statistics.median(
            wall / ref for wall, ref in samples), "s")
        metrics["setup_wall_s"] = (statistics.median(wall for wall, _ in samples), "s")
    return metrics, extra, failures


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    import amrb

    bench_env.check_sources(amrb)
    tag = f"{name}-seed{seed}-trace{trace}"
    os.makedirs(bench_env.RESULTS, exist_ok=True)
    workdir = os.path.join(bench_env.WORK, f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        metrics, extra, failures = measure(name, seed, seconds, trace, workdir, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not failures, "attempted": extra["attempted"],
              "failed": extra["failed"], "metrics": {}}
    for spec in load_spec()["per_layer" if trace else "end_to_end"]:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']} is measured in {unit}, declared in {spec['unit']}")
        result["metrics"][spec["name"]] = {"value": value, "unit": unit}

    machine = bench_env.machine()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "loop": "closed", "clients": 1, "machine": machine,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **extra, "failures": failures[:20], "result": result}
    with open(os.path.join(bench_env.RESULTS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"# {name} seed={seed} trace={trace}: closed loop, 1 client, {extra['ops']} ops "
          f"measured over {seconds:g} s{' (then replayed traced)' if trace else ''}")
    print(f"# machine: {machine['nproc']} x {machine['cpu_model']}; python {machine['python']}, "
          f"numpy {machine['numpy']}, scipy {machine['scipy']}; BLAS threads "
          f"{machine['blas_threads']}; git {machine['git_sha']}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value:.6g} {unit}")
    if trace:
        print(f"# tracing overhead {extra['tracing_overhead_pct']:+.2f}%: traced "
              f"latency_p50_rel {extra['traced_latency_p50_rel']:.6g} vs untraced "
              f"{metrics['latency_p50_rel'][0]:.6g} on the same ops (latency_p50_ms "
              f"{extra['traced_latency_p50_ms']:.6g} vs {metrics['latency_p50_ms'][0]:.6g})")
        print("# self time by span (ms total, share of traced time):")
        total = sum(v["self_ms"] for v in extra["span_table"].values()) or 1.0
        for span, row in sorted(extra["span_table"].items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"#   {span:40s} calls={row['calls']:<7d} self={row['self_ms']:10.2f} "
                  f"({100.0 * row['self_ms'] / total:5.1f}%)")
    for problem in failures[:5]:
        print(f"# FAILED: {problem}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process; one combined file."""
    runs = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                                  cwd=bench_env.ROOT, check=False)
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                print(f"# {name} trace={trace} exited with {done.returncode}")
                return done.returncode
            path = os.path.join(bench_env.RESULTS, f"{name}-seed{seed}-trace{trace}.json")
            with open(path, encoding="utf-8") as fh:
                runs.append(json.load(fh))
    combined = {"seed": seed, "seconds": seconds, "machine": runs[0]["machine"], "runs": runs}
    path = os.path.join(bench_env.RESULTS, f"bench-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(combined, fh, indent=1)
        fh.write("\n")
    summary = {"correct": all(r["result"]["correct"] for r in runs),
               "attempted": sum(r["result"]["attempted"] for r in runs),
               "failed": sum(r["result"]["failed"] for r in runs),
               "result_file": os.path.relpath(path, bench_env.ROOT)}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        bench_env.prepare()
    except bench_env.MissingSourcesError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
