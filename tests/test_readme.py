"""The README's Python example, run as it is printed."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    price, scheme, mesh = namespace["price"], namespace["scheme"], namespace["mesh"]
    assert price.shape == (scheme.L + 1, mesh.H)
    assert np.isfinite(price).all()
    assert namespace["warnings"] == []
