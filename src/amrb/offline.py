"""Offline reduction phase: snapshots, greedy bases, reduced operators.

The primal space grows by a POD-greedy loop: scan the training set for the
trajectory worst approximated by the current space (true energy-norm
projection errors summed over the time grid), compress that trajectory's
projection-error history to its dominant POD mode, orthonormalize, repeat.
The dual cone grows by an angle-greedy loop over the multiplier snapshots:
pick the snapshot forming the largest principal angle with the span of the
current generators, normalize it in the dual norm, repeat.  Supremizer
lifts of the cone generators are Gram-Schmidt orthogonalized against the
POD modes and appended, so the reduced primal-dual coupling keeps full
column rank and the whole primal basis stays energy-orthonormal: its Gram
matrix is the identity, and the online phase works on the basis as it is.

All three loops run in the whitened coordinates U u of states and U^{-T} eta
of multipliers (gram = U'U, see ``amrb.fem``), where both inner products
are dot products; they share one Euclidean Gram-Schmidt step.  The two
greedy loops keep every snapshot's residual against the span explicit and
deflate it in place by each appended column (``_deflate``), so an
iteration costs O(H N) for N snapshots and allocates no (H, N) block.

The reduced coupling is B_N = psi' xi = (U psi)'(U^{-T} xi).  The
orthonormal columns U psi span every supremizer lift U^{-T} xi_j (a lift
is appended, or dropped because the span already holds it), so B_N has
exactly the singular values of the generators' unit lifts.  The cone's
rank is therefore decided once, by ``angle_greedy`` as it picks the
generators, and ``verify_model`` checks B_N once per built or loaded
model; both test with ``_full_rank``.

Bases and cones are plain column arrays.  A ``ReducedModel`` is an
operator set, the bases on it and the greedy diagnostics; it derives its
reduced blocks (the projections of the operators onto the bases) and
checks them itself.  Its JSON document holds the bases and the
diagnostics only, and the offline build and ``load_model`` alike make
the model through ``assemble_reduced``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import textio
from .errors import (
    AmrbError,
    DegenerateInputError,
    InfSupFailureError,
    ModelCorruptionError,
    ModelLoadError,
    ModelVersionError,
    NumericalBreakdownError,
)
from .fem import (
    AffineOperatorSet,
    Mesh1D,
    ParameterBox,
    ParameterVector,
    assemble_operators,
    build_mesh,
)
from .lapack import dger
from .truth import (
    SchemeConfig,
    Trajectory,
    solve_trajectories,
    solve_trajectory,  # noqa: F401  unused here; perfbench's tracer patches this binding
)

SCHEMA_VERSION = 3

NORM_FLOOR = 1e-12       # below this a vector counts as zero in its norm
RANK_FLOOR = 1e-10       # smin/smax at or below this means lost column rank
ORTHO_TOL = 1e-9         # max |psi' gram psi - I|; stock bases reach 5.6e-12 at H=9999


def sample_training_set(box: ParameterBox, n: int, seed) -> list[ParameterVector]:
    """Draw n parameter vectors i.i.d. uniform per coordinate in the box.

    ``seed`` may be an int or a numpy SeedSequence, so callers can carve
    labeled substreams out of one master seed.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    rng = np.random.default_rng(seed)
    lo, hi = box.bounds()
    draws = lo + (hi - lo) * rng.random((n, 4))
    return [ParameterVector(*row) for row in draws.tolist()]


def generate_snapshots(params, ops: AffineOperatorSet,
                       config: SchemeConfig) -> tuple[Trajectory, ...]:
    """The snapshots: one truth trajectory per parameter (obstacle derived
    per strike), on ``ops`` and ``config``, in the order of ``params``.

    ``solve_trajectories`` marches them; a failure names the parameter that
    failed.  The greedy loops read the parameters, the time grid and the
    snapshot columns off the trajectories.
    """
    return tuple(solve_trajectories(params, ops, config, label="snapshot run"))


def _append_orthonormal(basis: np.ndarray, vec: np.ndarray) -> np.ndarray | None:
    """The orthonormal columns ``basis`` with vec, orthonormalized, appended.

    Euclidean Gram-Schmidt, applied twice so rounding leaves no component
    along the basis.  Returns None, a drop, when what is left of vec has a
    norm below ``NORM_FLOOR``.
    """
    for _ in range(2):
        vec = vec - basis @ (basis.T @ vec)
    nrm = np.linalg.norm(vec)
    if nrm < NORM_FLOOR:
        return None
    return np.hstack([basis, (vec / nrm)[:, None]])


def _deflate(resid: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Remove the unit vector q from every column of the C-ordered block
    ``resid`` in place, resid -= q (q' resid), and return the row q' resid.

    One matrix-vector product and one BLAS ``ger`` on the Fortran view
    resid.T: O(size) work and no temporary block.  ``ger`` writes in place
    only into a Fortran-contiguous array and would update a copy of any
    other, hence the C order.
    """
    row = q @ resid
    dger(-1.0, row, q, a=resid.T, overwrite_a=1)
    return row


def _full_rank(m: np.ndarray) -> bool:
    """Whether the columns of m are numerically independent: smin/smax of m
    above ``RANK_FLOOR``."""
    if m.shape[1] == 0:
        return True
    svals = np.linalg.svd(m, compute_uv=False)
    return m.shape[0] >= m.shape[1] and bool(svals[-1] > RANK_FLOOR * svals[0])


def _dominant_mode(white: np.ndarray, ops: AffineOperatorSet) -> tuple[np.ndarray, np.ndarray]:
    """Dominant POD mode of whitened columns, whitened and nodal.

    Method of snapshots: eigen-decompose the small family Gram matrix,
    lift the dominant eigenvector back, and normalize.  The sign is fixed
    so the largest-magnitude component of the nodal mode is positive.
    Columns whose energies overflow raise ``NumericalBreakdownError``.
    """
    if float(np.max(np.einsum("ij,ij->j", white, white), initial=0.0)) <= NORM_FLOOR ** 2:
        raise DegenerateInputError("all input vectors vanish in the energy norm")
    gram = white.T @ white
    if not np.isfinite(gram).all():
        raise NumericalBreakdownError("snapshot energies overflow")
    _, eigvecs = np.linalg.eigh(gram)
    mode = white @ eigvecs[:, -1]
    nrm = np.linalg.norm(mode)
    if nrm <= NORM_FLOOR:
        raise DegenerateInputError("dominant mode vanishes in the energy norm")
    mode = mode / nrm
    nodal = ops.unwhiten(mode)
    if nodal[np.argmax(np.abs(nodal))] < 0:
        return -mode, -nodal
    return mode, nodal


def pod_greedy(snapshots: tuple[Trajectory, ...], n_v_tilde: int,
               ops: AffineOperatorSet) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Greedy primal basis construction over the states of the snapshot
    trajectories, stacked as columns, trajectory-major, time-minor.

    Start from the normalized initial state of the first training
    parameter.  At basis size k, evaluate for every training parameter the
    summed squared projection errors of its trajectory onto the current
    space, record the square root of the maximum, and grow the basis with
    the dominant POD mode of the worst trajectory's error history,
    orthonormalized against the basis (ties break to the smallest index).
    The loop runs on the whitened snapshots, whose residuals it deflates in
    place by each new column.

    Returns (orthonormal basis columns, error decay, selected indices), one
    decay entry and one selection per column.  The loop stops early, with
    fewer than ``n_v_tilde`` columns, once the snapshots cannot supply a
    further independent direction.
    """
    if n_v_tilde < 1:
        raise ValueError(f"need a positive basis budget, got {n_v_tilde}")
    # explicit residuals, deflated in place: the norm-subtraction form
    # floors at sqrt(eps_machine) * snapshot scale, far above the greedy's
    # tail.  whiten returns a fresh C-ordered block, as _deflate needs
    resid = ops.whiten(np.column_stack([traj.states.T for traj in snapshots]))
    width = snapshots[0].config.L + 1

    basis = _append_orthonormal(np.zeros((ops.dim, 0)), resid[:, 0])  # first initial state
    if basis is None:
        raise DegenerateInputError("initial snapshot vanishes in the energy norm")
    _deflate(resid, basis[:, 0])
    selected = [0]
    eps_u: list[float] = []
    while True:
        per_mu = np.einsum("ij,ij->j", resid, resid).reshape(len(snapshots), width).sum(axis=1)
        best = int(np.argmax(per_mu))
        eps_u.append(float(np.sqrt(per_mu[best])))
        if basis.shape[1] == n_v_tilde:
            break
        try:
            mode, _ = _dominant_mode(resid[:, best * width:(best + 1) * width], ops)
        except DegenerateInputError:
            break
        grown = _append_orthonormal(basis, mode)
        if grown is None:
            break
        basis = grown
        _deflate(resid, basis[:, -1])
        selected.append(best)
    return ops.unwhiten(basis), np.array(eps_u), selected


def angle_greedy(snapshots: tuple[Trajectory, ...], n_w: int,
                 ops: AffineOperatorSet) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Greedy dual cone construction over the multipliers of the snapshot
    trajectories, stacked as columns, trajectory-major, time-minor: column
    j is step j % L + 1 of trajectory j // L.

    Initialize with the first multiplier snapshot of positive dual norm
    (in that scan order).  At cone size k, compute the angle of every
    usable snapshot to the span of the current generators, record the
    maximum, and append the normalized maximizer (ties break to the
    smallest parameter index, then the smallest time step).  The loop runs
    on the whitened snapshots, whose residuals it deflates in place by each
    new column of an orthonormal basis of the generators' span.

    Returns (generator columns, angle decay, selected (time step n,
    parameter index i) pairs), one decay entry and one selection per
    column.  The loop stops early, with fewer than ``n_w`` columns, when
    the maximizer would leave the generators' unit lifts without full
    column rank (``_full_rank``, which any angle at or below ``RANK_FLOOR``
    fails); without a snapshot of positive dual norm the cone is empty.
    Lifts that overflow raise ``NumericalBreakdownError``.
    """
    if n_w < 1:
        raise ValueError(f"need a positive cone budget, got {n_w}")
    lam_matrix = np.column_stack([traj.multipliers.T for traj in snapshots])
    lifts = ops.whiten_dual(lam_matrix)
    w_norm = np.sqrt(np.einsum("ij,ij->j", lifts, lifts))
    valid = w_norm > NORM_FLOOR
    if not valid.any():
        return np.zeros((ops.dim, 0)), np.zeros(0), []

    cols = [int(np.flatnonzero(valid)[0])]
    eps_lambda: list[float] = []
    # the span is tracked through an orthonormal basis of the generators'
    # lifts, so angle scans stay stable when generators become nearly
    # dependent; row k of coef holds the lifts' coefficients on its column k,
    # and the generators are distinct snapshots, so there are at most N rows
    ortho = lifts[:, cols] / w_norm[cols]
    resid = np.ascontiguousarray(lifts)  # a C-ordered copy; the tbtrs result is Fortran
    coef = np.zeros((min(n_w, lifts.shape[1]), lifts.shape[1]))
    coef[0] = _deflate(resid, ortho[:, 0])

    while True:
        k = len(cols)
        sin_part = np.sqrt(np.einsum("ij,ij->j", resid, resid))
        cos_part = np.sqrt(np.einsum("ij,ij->j", coef[:k], coef[:k]))
        angles = np.where(valid, np.arctan2(sin_part, cos_part), -1.0)
        best = int(np.argmax(angles))
        eps_lambda.append(float(angles[best]))
        if k == n_w:
            break
        # the unit lifts of the generators and the maximizer in an
        # orthonormal basis of their span: an upper triangular matrix
        tri = np.zeros((k + 1, k + 1))
        tri[:k, :k] = coef[:k, cols] / w_norm[cols]
        tri[:k, k] = coef[:k, best] / w_norm[best]
        tri[k, k] = sin_part[best] / w_norm[best]
        if not np.isfinite(tri).all():
            raise NumericalBreakdownError("multiplier lifts overflow")
        if not _full_rank(tri):
            break
        ortho = _append_orthonormal(ortho, lifts[:, best] / w_norm[best])
        coef[k] = _deflate(resid, ortho[:, -1])
        cols.append(best)
    steps = snapshots[0].config.L
    labels = [(j % steps + 1, j // steps) for j in cols]
    return lam_matrix[:, cols] / w_norm[cols], np.array(eps_lambda), labels


def enrich_with_supremizers(pod_vectors: np.ndarray, xi: np.ndarray,
                            ops: AffineOperatorSet) -> tuple[np.ndarray, list[int]]:
    """Append the supremizer lift of each cone generator to the POD block.

    Each lift gram^{-1} xi_j is Gram-Schmidt orthogonalized twice against
    the columns so far, as in ``pod_greedy``, and normalized, so an
    energy-orthonormal POD block gives an energy-orthonormal result; the
    lifts are whitened as U^{-T} xi_j, and the POD block is returned as it
    came.  A lift whose residual norm falls below ``NORM_FLOOR`` adds no
    direction; it is dropped and its generator index recorded.

    Returns (psi, dropped): the (H, NV) basis and the dropped indices.
    """
    basis = ops.whiten(pod_vectors)
    lifts = ops.whiten_dual(xi)
    dropped: list[int] = []
    for j in range(xi.shape[1]):
        grown = _append_orthonormal(basis, lifts[:, j])
        if grown is None:
            dropped.append(j)
            continue
        basis = grown
    return np.hstack([pod_vectors, ops.unwhiten(basis[:, pod_vectors.shape[1]:])]), dropped


@dataclass(frozen=True)
class GreedyDiagnostics:
    """Per-iteration greedy decay and the selection records behind it."""

    eps_u: np.ndarray
    eps_lambda: np.ndarray
    selected_params_u: tuple[int, ...]
    selected_pairs_lambda: tuple[tuple[int, int], ...]
    training_params: np.ndarray  # (N, 4) rows of (K, r, q, sigma)


@dataclass(frozen=True)
class ReducedModel:
    """Offline output: the operators, the bases and the greedy diagnostics.

    ``ops`` is the operator set the bases live on.  Every block after
    ``diagnostics`` is the projection of ``ops`` onto the bases, formed and
    checked (``verify_model``) on construction, so the constructor takes
    none of them.  ``psi_matrix`` is energy-orthonormal, so the energy
    projection of a nodal vector v onto the reduced space has coefficients
    gram_psi' v.  The sizes ``nv`` and ``nw`` are read off the bases.
    """

    ops: AffineOperatorSet
    config: SchemeConfig
    nv_tilde: int
    psi_matrix: np.ndarray        # (H, NV) energy-orthonormal primal basis
    xi_matrix: np.ndarray         # (H, NW) cone generator coefficients
    diagnostics: GreedyDiagnostics
    mass_n: np.ndarray = field(init=False)   # (NV, NV)
    a1_n: np.ndarray = field(init=False)
    a2_n: np.ndarray = field(init=False)
    f1_n: np.ndarray = field(init=False)     # (NV,)
    f2_n: np.ndarray = field(init=False)
    b_n: np.ndarray = field(init=False)      # (NV, NW) primal-dual coupling
    gram_psi: np.ndarray = field(init=False)  # (H, NV) gram @ psi

    def __post_init__(self):
        ops, psi, xi = self.ops, self.psi_matrix, self.xi_matrix
        # products round by layout: project from the Fortran order that
        # enrich_with_supremizers builds, whatever order psi arrives in
        psi_f = np.asfortranarray(psi)
        mass_n = psi_f.T @ (ops.mass @ psi_f)
        blocks = {
            "mass_n": 0.5 * (mass_n + mass_n.T),
            "a1_n": psi_f.T @ (ops.a1 @ psi_f), "a2_n": psi_f.T @ (ops.a2 @ psi_f),
            "f1_n": psi_f.T @ ops.f1, "f2_n": psi_f.T @ ops.f2, "b_n": psi_f.T @ xi,
            "gram_psi": ops.gram @ psi_f, "psi_matrix": psi.copy(), "xi_matrix": xi.copy(),
        }
        for name, value in blocks.items():
            object.__setattr__(self, name, value)
        verify_model(self)

    @property
    def nv(self) -> int:
        return self.psi_matrix.shape[1]

    @property
    def nw(self) -> int:
        return self.xi_matrix.shape[1]


def assemble_reduced(psi: np.ndarray, xi: np.ndarray, ops: AffineOperatorSet,
                     config: SchemeConfig, *, nv_tilde: int,
                     diagnostics: GreedyDiagnostics) -> ReducedModel:
    """The model of bases psi (energy-orthonormal) and xi on ``ops``.

    The one call that makes a model: the offline build and ``load_model``
    both come here.  ``nv_tilde`` counts the POD columns in front of the
    supremizers.  Fails as ``verify_model`` does, the one check of a built
    or loaded model.
    """
    return ReducedModel(ops=ops, config=config, nv_tilde=nv_tilde, psi_matrix=psi,
                        xi_matrix=xi, diagnostics=diagnostics)


def truncated_model(snapshots: tuple[Trajectory, ...], pod, cone, nv_tilde: int, nw: int,
                    ops: AffineOperatorSet):
    """Model and warnings at budget (nv_tilde, nw) from ``pod_greedy`` and
    ``angle_greedy`` results ``pod`` and ``cone`` at budgets at least as
    large: the loops only append, so a run's leading entries are the run at
    a smaller budget.  The model's time grid and training parameters are
    those of the ``snapshots`` the loops ran on.  A loop that saturated early contributes what it
    built, and the warning list records each such event."""
    warnings: list[str] = []
    vectors, eps_u, selected_u = pod[0][:, :nv_tilde], pod[1][:nv_tilde], pod[2][:nv_tilde]
    if vectors.shape[1] < nv_tilde:
        warnings.append(f"primal basis saturated at {vectors.shape[1]} of {nv_tilde} vectors")
    xi, eps_lambda, selected_lambda = cone[0][:, :nw], cone[1][:nw], cone[2][:nw]
    xi = np.ascontiguousarray(xi)  # C order: products round by layout
    if xi.shape[1] < nw:
        warnings.append(f"dual cone saturated at {xi.shape[1]} of {nw} generators")

    psi, dropped = enrich_with_supremizers(vectors, xi, ops)
    diagnostics = GreedyDiagnostics(
        eps_u=eps_u,
        eps_lambda=eps_lambda,
        selected_params_u=tuple(int(i) for i in selected_u),
        selected_pairs_lambda=tuple(selected_lambda),
        training_params=np.array([traj.mu.as_array() for traj in snapshots]),
    )
    model = assemble_reduced(psi, xi, ops, snapshots[0].config,
                             nv_tilde=vectors.shape[1], diagnostics=diagnostics)
    for j in dropped:
        warnings.append(f"dropped supremizer {j}: direction dependent on the basis")
    return model, warnings


def build_reduced_model_from_store(snapshots: tuple[Trajectory, ...], nv_tilde: int,
                                   nw: int, ops: AffineOperatorSet):
    """``truncated_model`` of both greedy loops run at the budget itself."""
    return truncated_model(snapshots, pod_greedy(snapshots, nv_tilde, ops),
                           angle_greedy(snapshots, nw, ops), nv_tilde, nw, ops)


# ---------------------------------------------------------------------------
# model file I/O


def model_document(model: ReducedModel) -> dict:
    """The file form of a model: its bases and diagnostics, no derived arrays."""
    diag = model.diagnostics
    diagnostics = {
        "eps_u": diag.eps_u,
        "eps_lambda": diag.eps_lambda,
        "selections": {
            "pod_train_indices": list(diag.selected_params_u),
            "angle_pairs": [list(p) for p in diag.selected_pairs_lambda],
            "training_params": diag.training_params,
        },
    }
    return {
        "schema_version": SCHEMA_VERSION,
        **grid_document(model.ops.mesh, model.config),
        "NV_tilde": model.nv_tilde,
        "psi_matrix": model.psi_matrix,
        "xi_matrix": model.xi_matrix,
        "diagnostics": diagnostics,
    }


def save_model(model: ReducedModel, path) -> None:
    textio.write_json(path, model_document(model))


def _object(data: dict, key: str) -> dict:
    """Optional JSON object field; absent or null reads as empty."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ModelLoadError(f"model field {key!r} must be a JSON object")
    return value


def _matrix(data: dict, key: str, rows: int) -> np.ndarray:
    """Finite float matrix field with ``rows`` rows; rows of [] give 0 columns."""
    if key not in data:
        raise ModelLoadError(f"model file is missing field {key!r}")
    try:
        arr = reals(data[key])
    except (TypeError, ValueError) as err:
        raise ModelLoadError(f"field {key!r} is not a numeric array: {err}") from err
    if arr.ndim != 2 or arr.shape[0] != rows:
        raise ModelLoadError(f"field {key!r} has shape {arr.shape}, expected {rows} rows")
    if not np.all(np.isfinite(arr)):
        raise ModelLoadError(f"field {key!r} contains non-finite values")
    return arr


def integer(value) -> int:
    """``value`` as an int, the one converter of every integer field of the
    run config and the model file.  A bool or a float with a fractional
    part, which ``int`` would read as 0 or 1 or truncate, raises ValueError;
    an infinite float raises OverflowError."""
    number = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise ValueError(f"expected an integer, got {value!r}")
    return number


def real(value) -> float:
    """``value`` as a float, the one converter of every float field of the
    run config and the model file.  A bool, which ``float`` would read as
    0.0 or 1.0, and a string, which it would parse, raise ValueError."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def reals(value) -> np.ndarray:
    """``value``, a JSON number or nested lists of them, as a float array, the
    one converter of every array field of the model file.  ``real``'s rule
    holds per entry: a bool, which the array would read as 0.0 or 1.0, and
    a string, which it would parse, raise ValueError."""
    arr = np.array(value, dtype=float)
    entries = [value]
    for _ in range(arr.ndim):
        entries = itertools.chain.from_iterable(entries)
    if not {bool, str}.isdisjoint(map(type, entries)):
        raise ValueError("expected numbers, got a bool or a string")
    return arr


def read_field(data: dict, key: str, convert=real):
    """``convert`` applied to the value at the dotted ``key`` ("section.name")
    of ``data``.  A value it cannot convert (a TypeError, ValueError or
    OverflowError, such as an infinite integer) raises ValueError naming the
    key; a missing key raises KeyError."""
    section, name = key.split(".")
    try:
        return convert(data[section][name])
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"{key}: {err}") from err


def grid_document(mesh: Mesh1D, config: SchemeConfig) -> dict:
    """The ``mesh`` and ``time`` objects of a model file and a truth summary,
    which ``read_grid`` parses."""
    return {"mesh": {"H": mesh.H, "s_f": mesh.s_f},
            "time": {"T": config.T, "L": config.L, "theta": config.theta}}


def read_grid(data: dict) -> tuple[Mesh1D, SchemeConfig]:
    """The ``mesh`` and ``time`` objects that a run config and a model file share.

    Lets the KeyError or ValueError of a missing, malformed or out-of-range
    value through; ``read_field`` names the key of an unconvertible one.
    """
    return (build_mesh(read_field(data, "mesh.H", integer), read_field(data, "mesh.s_f")),
            SchemeConfig(T=read_field(data, "time.T"), L=read_field(data, "time.L", integer),
                         theta=read_field(data, "time.theta")))


def load_model(path) -> ReducedModel:
    """Parse a model file and derive its blocks through ``assemble_reduced``.

    The operators of the stored mesh are assembled to project them onto the
    stored bases, and the model keeps them (``ops``).  Every failure, in the
    file or in the checks the derivation runs (coupling rank, energy
    orthonormality, SPD mass, monotone decays), raises ModelLoadError.
    """
    data = textio.read_json_object(path, ModelLoadError, "model file")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelVersionError(
            f"unsupported model schema version {version!r}, expected {SCHEMA_VERSION}")
    try:
        # the bases must have H rows before the mesh's H + 2 nodes are built:
        # a huge finite H then fails on the rows, not on allocating the nodes
        h = read_field(data, "mesh.H", integer)
        psi = _matrix(data, "psi_matrix", h)
        xi = _matrix(data, "xi_matrix", h)
        mesh, config = read_grid(data)
        nv_tilde = integer(data["NV_tilde"])
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ModelLoadError(f"model header is malformed: {err}") from err
    if not 1 <= nv_tilde <= psi.shape[1]:
        raise ModelLoadError(
            f"model sizes are out of range: NV_tilde={nv_tilde}, NV={psi.shape[1]}")

    diag_data = _object(data, "diagnostics")
    selections = _object(diag_data, "selections")
    try:
        train = reals(selections.get("training_params", [])).reshape(-1, 4)
        eps_u = reals(diag_data.get("eps_u", []))
        eps_lambda = reals(diag_data.get("eps_lambda", []))
        if eps_u.ndim != 1 or eps_lambda.ndim != 1:
            raise ValueError("greedy decay sequences must be flat lists")
        diagnostics = GreedyDiagnostics(
            eps_u=eps_u,
            eps_lambda=eps_lambda,
            selected_params_u=tuple(map(integer, selections.get("pod_train_indices", []))),
            selected_pairs_lambda=tuple((integer(a), integer(b))
                                        for a, b in selections.get("angle_pairs", [])),
            training_params=train,
        )
    except (TypeError, ValueError, OverflowError) as err:
        raise ModelLoadError(f"model diagnostics are malformed: {err}") from err

    try:
        return assemble_reduced(psi, xi, assemble_operators(mesh), config,
                                nv_tilde=nv_tilde, diagnostics=diagnostics)
    except AmrbError as err:
        raise ModelLoadError(f"model file {path} is unusable: {err}", **err.info) from err


def verify_model(model: ReducedModel) -> None:
    """Check the structural invariants of a model: full-rank coupling,
    energy-orthonormal basis, SPD mass and non-increasing greedy decays.

    Raises InfSupFailureError if the coupling b_n lost full column rank,
    which would make the reduced saddle-point steps ill posed, and
    ModelCorruptionError on any other violated invariant.
    """
    if not _full_rank(model.b_n):
        raise InfSupFailureError("reduced coupling lost full column rank")
    dev = float(np.abs(model.psi_matrix.T @ model.gram_psi - np.eye(model.nv)).max(initial=0.0))
    if not dev <= ORTHO_TOL:
        raise ModelCorruptionError(
            f"primal basis is not energy-orthonormal (max deviation {dev:.3e})")
    try:
        np.linalg.cholesky(model.mass_n)
    except np.linalg.LinAlgError as err:
        raise ModelCorruptionError(f"reduced mass matrix is not SPD: {err}") from err
    diag = model.diagnostics
    for name, seq in (("eps_u", diag.eps_u), ("eps_lambda", diag.eps_lambda)):
        if seq.size and np.any(np.diff(seq) > 1e-12 * (1.0 + seq[:-1])):
            raise ModelCorruptionError(f"diagnostic sequence {name} is not non-increasing")

