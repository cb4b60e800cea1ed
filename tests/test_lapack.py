import re

import numpy as np
import pytest
import scipy.linalg.blas
import scipy.linalg.lapack

from amrb import lapack


def _spd_bands(n):
    # upper band storage of tridiag(-1, 4, -1)
    return np.array([np.r_[0.0, np.full(n - 1, -1.0)], np.full(n, 4.0)])


def _calls():
    rng = np.random.default_rng(7)
    n = 6
    a = rng.random((n, n)) + n * np.eye(n)
    b = rng.random(n)
    dl, d, du = rng.random(n - 1), rng.random(n) + 4.0, rng.random(n - 1)
    chol = scipy.linalg.lapack.dpbtrf(_spd_bands(n))[0]
    lu, piv, _ = scipy.linalg.lapack.dgetrf(a)
    return {
        "dger": ((-1.0, b, rng.random(n + 1)), {"a": rng.random((n, n + 1))}),
        "dtbsv": ((1, chol, b), {"lower": 0, "trans": 1}),
        "dtbtrs": ((chol, b), {"trans": "T"}),
        "dpbtrf": ((_spd_bands(n),), {}),
        "dgesv": ((a, b), {}),
        "dgtsv": ((dl, d, du, b), {}),
        "dgttrf": ((dl, d, du), {}),
        "dgetrf": ((a,), {}),
        "dgetrs": ((lu, piv, b), {}),
    }


def test_routines_match_scipy_linalg_bit_for_bit():
    # amrb.lapack loads the same compiled wrappers that scipy.linalg's blas
    # and lapack modules export, without running scipy.linalg's package init
    for name, (args, kwargs) in _calls().items():
        reference = getattr(scipy.linalg.blas, name, None) or getattr(scipy.linalg.lapack, name)
        got = getattr(lapack, name)(*args, **kwargs)
        want = reference(*args, **kwargs)
        got, want = (out if isinstance(out, tuple) else (out,) for out in (got, want))
        assert len(got) == len(want), name
        for g, w in zip(map(np.asarray, got), map(np.asarray, want)):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), name


def test_missing_extension_names_the_directory_searched():
    # no fallback to scipy.linalg: a scipy without the wrappers fails at import
    with pytest.raises(ImportError, match=re.escape(lapack._LINALG)):
        lapack._extension("_no_such_wrapper")
