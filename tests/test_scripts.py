"""The repository's scripts, on small inputs."""

import importlib.util
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
