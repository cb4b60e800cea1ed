import numpy as np
import pytest

from amrb.textio import json_text


def test_json_float_arrays_match_elementwise_rendering():
    # 1-D and 2-D float arrays render in one % call; a list goes element by element
    rng = np.random.default_rng(0)
    cases = [
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
    # one % call on the row template writes what format(x + 0.0, ".17g")
    # writes for each entry
    arr = np.array([[-0.0, 5e-324, 1e300], [-1e-300, 0.1, -2.5]])

    def spelled(row):
        return "[" + ",".join(format(x + 0.0, ".17g") for x in row) + "]"

    expected = "[" + ",".join(spelled(row) for row in arr.tolist()) + "]"
    assert json_text(arr) == expected
    assert json_text(arr.T.copy()) == "[" + ",".join(spelled(r) for r in arr.T.tolist()) + "]"
    assert json_text(arr[1]) == spelled(arr[1].tolist())
    assert json_text(arr[0]) == "[0,4.9406564584124654e-324,1.0000000000000001e+300]"
