"""Deterministic text artifacts: fixed layout, 17-significant-digit numbers.

Every CSV and JSON file the pipeline writes goes through these helpers so
that reruns with identical inputs produce byte-identical output.  Floats
are written with ``%.17g``, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Sequence

import numpy as np


def fmt(value) -> str:
    """Render a cell for CSV output (floats at 17 significant digits)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _float_text(float(value))


def fmt_floats(values) -> list[str]:
    """Render every entry of a float array as ``fmt`` renders one."""
    return list(map(_float_text, np.asarray(values, dtype=float).tolist()))


def _float_text(x: float) -> str:
    """``%.17g``, spelling nan, inf and -inf so.

    Adding 0.0 turns -0.0 into 0.0, so reruns and round-trips agree bytewise.
    """
    return format(x + 0.0, ".17g")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence | str]) -> None:
    """Write the header and the rows.

    A row is a sequence of cells, each rendered by ``fmt``, or a str of
    whole lines already rendered (by ``fmt_floats``), written as it is.
    """
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                fh.write(",".join(fmt(cell) for cell in row) + "\n")


def json_text(obj) -> str:
    """Serialize to compact JSON with deterministic key order and .17g floats."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def write_json(path, obj) -> None:
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json_text(obj))
        fh.write("\n")


def _emit(obj, parts: list[str]) -> None:
    if isinstance(obj, dict):
        parts.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _emit(val, parts)
        parts.append("}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
        if not np.isfinite(obj).all():  # a float row is checked and rendered whole
            raise ValueError("non-finite value cannot be written to JSON")
        parts.append("[" + ",".join(fmt_floats(obj)) + "]")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        # arrays of more dimensions go row by row, into the branch above
        seq = obj.tolist() if isinstance(obj, np.ndarray) and obj.ndim == 1 else obj
        parts.append("[")
        for i, val in enumerate(seq):
            if i:
                parts.append(",")
            _emit(val, parts)
        parts.append("]")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("non-finite value cannot be written to JSON")
        parts.append(_float_text(x))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _ensure_parent(path) -> None:
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
