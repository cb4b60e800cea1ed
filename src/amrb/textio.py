"""Deterministic text artifacts: fixed layout, 17-significant-digit numbers.

Every CSV and JSON file the pipeline writes goes through these helpers so
that reruns with identical inputs produce byte-identical output; they are
the one place numbers are spelled, but for the float arrays of the model
file, which ``amrb.offline.pack`` stores as their IEEE bytes.  Floats are
written with ``%.17g``, which round-trips IEEE doubles exactly, after
adding 0.0 so that -0.0 is written as 0 (nan and +-inf as ``format``
spells them).  JSON renders a 1-D or 2-D float array in one ``%`` call
on the template ``"[%.17g,...]"``, after adding the 0.0 to the whole
array.  ``state_rows`` renders a
trajectory one time step per ``%`` call on the block template
``"{n},{t},%s,%.17g,%.17g,%.17g{tail}" * H``, adding the 0.0 to its arrays
once and escaping ``%`` in the literal tail; ``write_csv`` writes such
blocks as they come.  ``read_json_object`` is the one reader of the JSON
input files, the run config and the model file.

Every writer opens its file through ``_create``, which makes the file's
directory first: a command's first artifact makes its output directory,
so a command that fails before it writes anything leaves none.  A write
that fails, as under a directory path that names a file, raises
``OSError``.
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


def _float_text(x: float) -> str:
    """``%.17g``, spelling nan, inf and -inf so.

    Adding 0.0 turns -0.0 into 0.0, so reruns and round-trips agree bytewise.
    """
    return format(x + 0.0, ".17g")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence | str]) -> None:
    """Write the header and the rows.

    A row is a sequence of cells, each rendered by ``fmt``, or a str of
    whole lines already rendered (by ``state_rows``), written as it is.
    """
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                fh.write(",".join(fmt(cell) for cell in row) + "\n")


def state_rows(nodes: np.ndarray, p0: np.ndarray, states: np.ndarray, multipliers,
               delta_t: float, tail: str = ""):
    """Yield the CSV lines (step, t, s, u, lambda, price) of a trajectory,
    each ending in the literal ``tail`` (such as a ``",truth"`` column), one
    text block per time step.

    ``nodes`` is the s column, ``states`` the (L+1, H) states and
    ``multipliers`` the (L, H) multipliers of steps 1 to L; the price is
    the state plus the lift ``p0``.  The multiplier column for step 0 is
    written as nan: the scheme defines no multiplier there.  Each block is
    one ``%`` call on the template ``"{n},{t},%s,%.17g,%.17g,%.17g{tail}" * H``,
    whose cells are the s column (rendered once) interleaved with the
    step's u, lambda and price.  The head holds numbers only; the tail's
    ``%`` is escaped.  Adding 0.0 to the float arrays once makes -0.0
    render as 0, as ``fmt`` renders it; nan and +-inf render as ``format``
    renders them.
    """
    prices = states + p0 + 0.0
    states = states + 0.0
    lam = np.full(states.shape, np.nan)
    lam[1:] = multipliers + 0.0
    line = "%s,%.17g,%.17g,%.17g" + tail.replace("%", "%%") + "\n"
    cells = [None] * (4 * nodes.size)
    cells[0::4] = [_float_text(x) for x in nodes.tolist()]
    for n in range(states.shape[0]):
        head = f"{n},{_float_text(n * delta_t)},"
        cells[1::4] = states[n].tolist()
        cells[2::4] = lam[n].tolist()
        cells[3::4] = prices[n].tolist()
        yield (head + line) * nodes.size % tuple(cells)


def read_json_object(path, error: type[Exception], what: str) -> dict:
    """The JSON object in the file at ``path``, the one reader of input files.

    Raises ``error``, its message naming ``what`` and ``path``, when the
    file cannot be read, is not valid UTF-8 JSON or holds another value.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise error(f"cannot read {what} {path}: {err}") from err
    except (ValueError, RecursionError) as err:  # bad JSON or UTF-8, or too deep
        raise error(f"{what} {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return data


def json_text(obj) -> str:
    """Serialize to compact JSON with deterministic key order and .17g floats."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def write_json(path, obj) -> None:
    write_lines(path, [json_text(obj)])


def write_lines(path, lines: Sequence[str]) -> None:
    """Write each line followed by a newline (gnuplot scripts, JSON)."""
    with _create(path) as fh:
        fh.write("\n".join(lines) + "\n")


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
    elif isinstance(obj, np.ndarray) and obj.ndim in (1, 2) and obj.dtype.kind == "f":
        if not np.isfinite(obj).all():  # a float array is checked and rendered whole
            raise ValueError("non-finite value cannot be written to JSON")
        parts.append(_float_array_text(obj))
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


def _float_array_text(arr: np.ndarray) -> str:
    """A 1-D or 2-D float array as JSON, in one ``%`` call on the template
    ``"[%.17g,...]"`` (of rows of it in 2-D), after adding 0.0 once: the
    bytes ``_float_text`` gives element by element."""
    row = "[" + ",".join(["%.17g"] * arr.shape[-1]) + "]"
    template = row if arr.ndim == 1 else "[" + ",".join([row] * arr.shape[0]) + "]"
    return template % tuple((arr + 0.0).ravel().tolist())


def _create(path):
    """``path`` opened for writing text, its directory made if missing."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")
