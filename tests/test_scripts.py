"""The repository's scripts, on small inputs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide the code

# a comment line


class Box:
    """Class docstring."""

    side = 2.0


def area(box):
    """Function docstring,

    with a blank line."""
    text = """a string that is
    not a docstring"""
    return math.pow(box.side, 2), text
'''


def test_code_lines_counts_code_outside_docstrings_and_comments():
    # import, class, side, def, the string's two lines and the return
    assert load_script("code_lines").code_lines(SOURCE) == 7


def test_bench_times_the_operator_build_at_every_mesh_size(tmp_path):
    # one repeat on two tiny meshes: beside each whole truth trajectory, its
    # operator build is a row of its own
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPTS / "bench.py"), "--H", "3,4", "--repeats", "1",
                    "--out", str(out)], check=True, stdout=subprocess.DEVNULL)
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["row"] == "cli_import" and "H" not in rows[0]
    per_budget = ("pod_greedy_{a}", "angle_greedy_{b}", "enrich_{a}x{b}", "save_model_{a}x{b}",
                  "load_model_{a}x{b}", "assemble_reduced_{a}x{b}", "online_setup_{a}x{b}",
                  "reduced_trajectory_{a}x{b}")
    expected = ["truth", "step_operators", "snapshots", "snapshots_single", "snapshots_group"]
    expected += [name.format(a=a, b=b) for a, b in ((8, 8), (16, 16)) for name in per_budget]
    expected += ["break_even_8x8", "break_even_16x16"]
    for H in (3, 4):
        assert [row["row"] for row in rows if row.get("H") == H] == expected
        build = next(row for row in rows if row["row"] == "step_operators" and row["H"] == H)
        assert build["repeats"] == 1 and build["seconds_median"] > 0.0
        assert build["rel"]["q1"] == build["rel"]["median"] == build["rel"]["q3"] > 0.0
