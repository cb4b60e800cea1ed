"""The nine BLAS and LAPACK routines amrb calls, without ``scipy.linalg``.

Importing ``scipy.linalg`` runs its package init, which pulls in scipy's
array-API layer and with it ``numpy.testing``, ``numpy.f2py``,
``numpy.random`` and ``numpy.ma``: about half of an amrb process's start-up
time.  amrb needs only scipy's two compiled f2py wrappers, so this module
loads ``_fblas`` and ``_flapack`` straight from scipy's ``linalg`` directory
under their usual names, leaving them out of ``sys.modules``.  The routines
are the function objects ``scipy.linalg.blas`` and ``scipy.linalg.lapack``
export, so every result and every call's overhead is theirs.
"""

import importlib.machinery
import importlib.util
import os

import scipy  # its own init loads the bundled OpenBLAS on some platforms

_LINALG = os.path.join(os.path.dirname(scipy.__file__), "linalg")


def _extension(name: str):
    spec = importlib.machinery.PathFinder.find_spec(f"scipy.linalg.{name}", [_LINALG])
    if spec is None:
        raise ImportError(f"scipy extension module {name} not found in {_LINALG}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_fblas, _flapack = _extension("_fblas"), _extension("_flapack")
dger, dtbsv = _fblas.dger, _fblas.dtbsv
dgesv, dgetrf, dgetrs, dgtsv, dgttrf, dpbtrf, dtbtrs = (
    _flapack.dgesv, _flapack.dgetrf, _flapack.dgetrs, _flapack.dgtsv, _flapack.dgttrf,
    _flapack.dpbtrf, _flapack.dtbtrs)
