"""Process environment of the benchmark: one BLAS thread, sources, machine record.

``prepare()`` must run before numpy is imported anywhere in the process,
so every entry point of the benchmark calls it first.  It imports nothing
heavy itself.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "work")
RESULTS = os.path.join(ROOT, "perfbench", "results")

# the same online_setup call took 0.4 ms or 40 ms depending on BLAS threading
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSourcesError(RuntimeError):
    """The checkout holds no amrb sources to benchmark."""


def prepare() -> None:
    """Pin BLAS to one thread and put the checkout's ``src`` first on the path."""
    for name in BLAS_ENV:
        os.environ[name] = "1"
    if not os.path.isfile(os.path.join(SRC, "amrb", "__init__.py")):
        raise MissingSourcesError(f"no amrb package under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def check_sources(module) -> None:
    """Refuse to measure an amrb that was not imported from this checkout."""
    where = os.path.dirname(os.path.abspath(module.__file__))
    if where != os.path.join(SRC, "amrb"):
        raise MissingSourcesError(f"amrb was imported from {where}, not from {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, or 'unknown' where the checkout is no git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine() -> dict:
    """What a result needs to be compared with another: host, versions, BLAS, commit."""
    import numpy
    import scipy

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": len(affinity) if affinity else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_sha": _git_sha(),
    }
