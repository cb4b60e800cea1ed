import ast
import pathlib

import numpy as np
import pytest

from amrb import SchemeConfig, build_mesh, obstacle_data, solve_trajectory
from amrb.cli import TRAJECTORY_HEADER
from amrb.textio import fmt, json_text, state_rows, write_csv
import amrb.online as online_mod
import amrb.textio as textio_mod
import amrb.truth as truth_mod


def test_json_float_arrays_match_elementwise_rendering():
    # an array of any shape, a 0-d one included, renders as its tolist() does
    rng = np.random.default_rng(0)
    cases = [
        np.array(0.1),
        np.array([-0.0, 0.0, 1e-300, -1e300, 3.0, -7.0, 0.1, 1 / 3]),
        rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-20, 20, size=(5, 3)),
        np.arange(12.0).reshape(2, 3, 2),
        np.zeros((0, 4)),
        np.zeros((3, 0)),
    ]
    for arr in cases:
        assert json_text(arr) == json_text(arr.tolist())
        doc = {"a": arr, "b": [arr, 2]}
        assert json_text(doc) == json_text({"a": arr.tolist(), "b": [arr.tolist(), 2]})
    assert json_text(np.array([-0.0, 1e300])) == "[0,1.0000000000000001e+300]"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_json_float_array_rejects_non_finite(bad):
    for arr in (np.array([1.0, bad]), np.array([[0.0], [bad]])):
        with pytest.raises(ValueError, match="non-finite"):
            json_text({"x": arr})


def test_json_2d_float_array_is_the_elementwise_spelling():
    # a 2-D array writes, row by row, what format(x + 0.0, ".17g") writes
    # for each entry
    arr = np.array([[-0.0, 5e-324, 1e300], [-1e-300, 0.1, -2.5]])

    def spelled(row):
        return "[" + ",".join(format(x + 0.0, ".17g") for x in row) + "]"

    expected = "[" + ",".join(spelled(row) for row in arr.tolist()) + "]"
    assert json_text(arr) == expected
    assert json_text(arr.T.copy()) == "[" + ",".join(spelled(r) for r in arr.T.tolist()) + "]"
    assert json_text(arr[1]) == spelled(arr[1].tolist())
    assert json_text(arr[0]) == "[0,4.9406564584124654e-324,1.0000000000000001e+300]"


def test_json_numbers_are_csv_cells():
    # every bool, int and float is spelled as fmt spells a CSV cell, alone
    # or nested; an int never passes through float, so 10**400 keeps its digits
    scalars = [True, np.bool_(True), 3, np.int64(3), 10**400, 0.1, np.float64(1 / 3), -0.0,
               5e-324]
    for x in scalars:
        assert json_text(x) == fmt(x)
        assert json_text({"a": [x]}) == '{"a":[' + fmt(x) + "]}"
    assert json_text(10**400) == "1" + "0" * 400
    assert json_text([True, -0.0, 5e-324]) == "[true,0,4.9406564584124654e-324]"
    with pytest.raises(ValueError, match="non-finite"):
        json_text({"a": [1.0, float("nan")]})
    with pytest.raises(TypeError, match="object"):
        json_text({"a": object()})


def _imports(module) -> set[str]:
    """The modules an amrb module imports, relative ones named in full."""
    names = set()
    for node in ast.walk(ast.parse(pathlib.Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "amrb." * (node.level > 0)
            names.update([package + node.module] if node.module else
                         [package + alias.name for alias in node.names])
    return names


def test_only_textio_spells_numbers():
    # the truth and reduced layers write no text, and textio, the one module
    # that spells numbers, knows nothing of the layers it writes for
    assert "amrb.textio" not in _imports(truth_mod) | _imports(online_mod)
    assert not any(name.startswith("amrb") for name in _imports(textio_mod))
    src = pathlib.Path(textio_mod.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "%.17g" in p.read_text()] == ["textio.py"]


def test_trajectory_csv_source_column(tmp_path, default_ops, default_scheme, mu0):
    obstacle = obstacle_data(default_ops.mesh, mu0.K)
    traj = solve_trajectory(mu0, default_ops, obstacle, default_scheme)
    path = tmp_path / "traj.csv"
    write_csv(path, [*TRAJECTORY_HEADER, "source"], state_rows(
        default_ops.mesh.interior_nodes, obstacle.p0, traj.states, traj.multipliers,
        default_scheme.delta_t, ",truth"))
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",source")
    assert lines[1].endswith(",truth")


def test_trajectory_csv_matches_cellwise_rendering(tmp_path, mu0):
    # each per-step block is one % call; it renders as the cell-by-cell fmt
    # loop does, -0.0, nan and the infinities included, with and without a
    # source column, whose % is literal text
    assert [fmt(x) for x in (-0.0, np.nan, np.inf, -np.inf, 0.1)] == [
        "0", "nan", "inf", "-inf", "0.10000000000000001"]
    mesh = build_mesh(3, 300.0)
    states = np.array([[0.5, -0.0, 1e-300], [np.inf, -np.inf, np.nan], [-0.0, 7.0, -1e300]])
    multipliers = np.array([[-0.0, 2.5, 1.0 / 3.0], [np.nan, -np.inf, 0.0]])
    config = SchemeConfig(T=0.3, L=2, theta=0.5)
    s = mesh.interior_nodes
    lift = mu0.K * (1.0 - s / mesh.s_f)
    p0 = obstacle_data(mesh, mu0.K).p0
    for source in ("truth", None, "100%s %d%%"):
        expected = []
        for n in range(3):
            for j in range(3):
                lam = multipliers[n - 1, j] if n else float("nan")
                row = [n, n * config.delta_t, s[j], states[n, j], lam, states[n, j] + lift[j]]
                if source is not None:
                    row.append(source)
                expected.append(",".join(fmt(cell) for cell in row))
        rendered = "".join(state_rows(s, p0, states, multipliers, config.delta_t,
                                      "" if source is None else f",{source}"))
        assert rendered == "\n".join(expected) + "\n"
    path = tmp_path / "traj.csv"
    write_csv(path, TRAJECTORY_HEADER, state_rows(s, p0, states, multipliers, config.delta_t))
    assert path.read_text() == "step,t,s,u,lambda,price\n" + "".join(
        state_rows(s, p0, states, multipliers, config.delta_t))
