"""Spans around the calls into amrb's layers, kept in memory, for the traced run.

The benchmark records spans from its own files only: it replaces public
functions of amrb with timing wrappers while a traced op runs and puts the
originals back afterwards.  A function is patched under the name its
*caller* looks up, because ``from .truth import solve_lcp`` in
``amrb.online`` makes ``amrb.online.solve_lcp`` a binding of its own,
separate from ``amrb.truth.solve_lcp``.  Calls that go through a module
attribute (``textio.write_csv``) are caught by patching that module.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager


def _third(args, result):
    return result[2]  # solver iterations in (u, lam, iterations)


def _size_of(position):
    def size(args, result):
        return os.path.getsize(args[position])
    return size


# (span name "layer.function", count read off each call, calling modules)
PATCHES = (
    ("fem.assemble_operators", None, ("amrb.fem", "amrb.cli")),
    ("truth.solve_trajectory", None, ("amrb.truth", "amrb.offline", "amrb.online", "amrb.cli")),
    ("truth.theta_step", _third, ("amrb.truth",)),
    ("truth.solve_lcp", _third, ("amrb.truth",)),
    ("offline.generate_snapshots", None, ("amrb.offline", "amrb.cli")),
    ("offline.build_reduced_model_from_store", None, ("amrb.offline", "amrb.cli")),
    ("offline.pod_greedy", None, ("amrb.offline",)),
    ("offline.angle_greedy", None, ("amrb.offline",)),
    ("offline.enrich_with_supremizers", None, ("amrb.offline",)),
    ("offline.assemble_reduced", None, ("amrb.offline",)),
    ("offline.save_model", _size_of(1), ("amrb.offline", "amrb.cli")),
    ("offline.load_model", None, ("amrb.offline", "amrb.cli")),
    ("offline.verify_model", None, ("amrb.offline", "amrb.cli")),
    ("online.reduced_trajectory", None, ("amrb.online", "amrb.cli")),
    ("online.online_setup", None, ("amrb.online",)),
    ("online.solve_lcp", _third, ("amrb.online",)),
    ("online.reconstruct", None, ("amrb.online",)),
    ("textio.write_csv", _size_of(0), ("amrb.textio",)),
    ("textio.write_json", _size_of(0), ("amrb.textio",)),
    ("cli.main", None, ("amrb.cli",)),
    ("cli.cmd_offline", None, ("amrb.cli",)),
    ("cli.cmd_online", None, ("amrb.cli",)),
    ("cli.cmd_truth", None, ("amrb.cli",)),
    ("cli.cmd_validate", None, ("amrb.cli",)),
)

SETUP_OP = -1  # op id of the spans recorded while the workload sets up


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent index, op id, count)."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op_id = SETUP_OP

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, None)
            if count is not None:
                spans[index] = spans[index][:5] + (count(args, result),)
            return result

        traced.perfbench_span = name
        return traced

    @contextmanager
    def installed(self, op_id: int = SETUP_OP):
        """Patch every calling module for the duration of the block.

        All of them are imported first: a module imported while the patches
        are in place would bind a wrapper under its own name and keep it.
        """
        self.op_id = op_id
        for _, _, modules in PATCHES:
            for module_name in modules:
                importlib.import_module(module_name)
        for name, count, modules in PATCHES:
            attr = name.split(".", 1)[1]
            for module_name in modules:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)
            for name, _, modules in PATCHES:
                for module_name in modules:
                    left = getattr(sys.modules[module_name], name.split(".", 1)[1])
                    if hasattr(left, "perfbench_span"):
                        raise RuntimeError(f"{module_name} kept the {left.perfbench_span} wrapper")

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op,
                                     "count": count}) + "\n")


def span_table(spans) -> dict:
    """Per span name: calls, inclusive and self milliseconds, and the counts seen.

    Self time is a span's duration minus the durations of its direct
    children; spans never overlap, since the benchmark is single-threaded.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, op, count in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table: dict[str, dict] = {}
    for index, (name, start, end, parent, op, count) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0,
                                      "counts": [], "op_counts": []})
        row["calls"] += 1
        row["incl_ms"] += (end - start) / 1e6
        row["self_ms"] += (end - start - child_ns[index]) / 1e6
        if count is not None:
            row["counts"].append(count)
            if op != SETUP_OP:
                row["op_counts"].append(count)
    return table


def layer_metrics(table: dict, traced_ops: int, steps_per_trajectory: int) -> dict:
    """Per-layer metrics of one traced run as {name: (value, unit)}.

    Times are mean inclusive milliseconds per call over setup and ops,
    except where the name says per step or self.  A layer the workload
    never calls reports 0.
    """
    def row(name):
        return table.get(name, {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0,
                                "counts": [], "op_counts": []})

    def per_call(name):
        r = row(name)
        return r["incl_ms"] / r["calls"] if r["calls"] else 0.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    truth_steps = row("truth.theta_step")["calls"]
    truth_iters = row("truth.theta_step")["counts"]
    reduced_steps = row("online.reduced_trajectory")["calls"] * steps_per_trajectory
    saved = row("offline.save_model")["counts"]
    written = row("textio.write_csv")["op_counts"] + row("textio.write_json")["op_counts"]
    ms, count = "ms", "count"
    return {
        "fem.assemble_ms": (per_call("fem.assemble_operators"), ms),
        "truth.lcp_solves_per_step_mean": (mean(truth_iters), count),
        "truth.lcp_solves_per_step_max": (max(truth_iters, default=0), count),
        "truth.lcp_ms_per_step": (
            row("truth.solve_lcp")["self_ms"] / truth_steps if truth_steps else 0.0, ms),
        "truth.step_self_ms": (
            row("truth.theta_step")["self_ms"] / truth_steps if truth_steps else 0.0, ms),
        "truth.snapshots_ms": (per_call("offline.generate_snapshots"), ms),
        "offline.pod_greedy_ms": (per_call("offline.pod_greedy"), ms),
        "offline.angle_greedy_ms": (per_call("offline.angle_greedy"), ms),
        "offline.enrich_ms": (per_call("offline.enrich_with_supremizers"), ms),
        "offline.assemble_reduced_ms": (per_call("offline.assemble_reduced"), ms),
        "offline.save_model_ms": (per_call("offline.save_model"), ms),
        "offline.load_model_ms": (per_call("offline.load_model"), ms),
        "offline.verify_model_ms": (per_call("offline.verify_model"), ms),
        "offline.model_bytes": (saved[-1] if saved else 0, "bytes"),
        "online.setup_ms": (per_call("online.online_setup"), ms),
        "online.step_ms": (
            (row("online.reduced_trajectory")["incl_ms"] - row("online.online_setup")["incl_ms"])
            / reduced_steps if reduced_steps else 0.0, ms),
        "online.lcp_ms_per_step": (
            row("online.solve_lcp")["incl_ms"] / reduced_steps if reduced_steps else 0.0, ms),
        "online.lcp_solves_per_step_mean": (mean(row("online.solve_lcp")["counts"]), count),
        "online.reconstruct_ms": (per_call("online.reconstruct"), ms),
        "textio.write_csv_ms": (per_call("textio.write_csv"), ms),
        "textio.write_json_ms": (per_call("textio.write_json"), ms),
        "textio.bytes_written": (sum(written) / traced_ops if traced_ops else 0.0, "bytes"),
    }
