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
are dot products; they share one Euclidean Gram-Schmidt step.

Bases and cones are plain column arrays.  A ``ReducedModel`` collects
them, all reduced operator blocks and the greedy diagnostics; it
serializes to a single JSON document.
"""

from __future__ import annotations

from dataclasses import dataclass

import json

import numpy as np

from . import textio
from .errors import (
    AmrbError,
    BasisSaturationError,
    ConeSaturationError,
    DegenerateInputError,
    IllConditionedBasisError,
    InfSupFailureError,
    ModelCorruptionError,
    ModelLoadError,
    ModelVersionError,
)
from .fem import (
    AffineOperatorSet,
    Mesh1D,
    ParameterBox,
    ParameterVector,
    assemble_operators,
    build_mesh,
    obstacle_data,
)
from .truth import SchemeConfig, Trajectory, solve_trajectory

SCHEMA_VERSION = 2

NORM_FLOOR = 1e-12       # below this a vector counts as zero in its norm
MIN_GREEDY_ANGLE = 1e-10  # smaller angles mean the snapshot cone is exhausted
RANK_FLOOR = 1e-10       # smin/smax of B_N below this means lost column rank
BLOCK_RTOL = 1e-12       # stored reduced blocks must match their recomputation
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
    return [ParameterVector(K=row[0], r=row[1], q=row[2], sigma=row[3]) for row in draws]


@dataclass(frozen=True)
class SnapshotStore:
    """Truth trajectories for a set of pairwise distinct parameters."""

    params: tuple[ParameterVector, ...]
    trajectories: tuple[Trajectory, ...]
    obstacles: tuple
    mesh: Mesh1D
    config: SchemeConfig

    def __post_init__(self):
        if len(self.params) != len(self.trajectories):
            raise ValueError("one trajectory per parameter required")
        if len(set(self.params)) != len(self.params):
            raise ValueError("training parameters must be pairwise distinct")
        if any(traj.config != self.config for traj in self.trajectories):
            raise ValueError("all trajectories must share one time grid")
        if any(traj.states.shape[1] != self.mesh.H for traj in self.trajectories):
            raise ValueError("all trajectories must share one mesh")

    @property
    def n_params(self) -> int:
        return len(self.params)

    def primal_matrix(self) -> np.ndarray:
        """All state snapshots as columns, parameter-major, time-minor."""
        return np.column_stack([traj.states.T for traj in self.trajectories])

    def multiplier_matrix(self) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """All multiplier snapshots as columns with their (n, mu_index) labels."""
        cols = []
        labels = []
        for i, traj in enumerate(self.trajectories):
            for n in range(1, self.config.L + 1):
                cols.append(traj.multipliers[n - 1])
                labels.append((n, i))
        return np.column_stack(cols), labels


def generate_snapshots(params, ops: AffineOperatorSet,
                       config: SchemeConfig) -> SnapshotStore:
    """Solve one truth trajectory per parameter (obstacle derived per strike)."""
    trajectories = []
    obstacles = []
    for mu in params:
        obst = obstacle_data(ops.mesh, mu.K)
        try:
            trajectories.append(solve_trajectory(mu, ops, obst, config))
        except AmrbError as err:
            raise type(err)(f"snapshot run failed at mu={mu}: {err}", **err.info) from err
        obstacles.append(obst)
    return SnapshotStore(params=tuple(params), trajectories=tuple(trajectories),
                         obstacles=tuple(obstacles), mesh=ops.mesh, config=config)


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


def _dominant_mode(white: np.ndarray, ops: AffineOperatorSet) -> tuple[np.ndarray, np.ndarray]:
    """Dominant POD mode of whitened columns, whitened and nodal.

    Method of snapshots: eigen-decompose the small family Gram matrix,
    lift the dominant eigenvector back, and normalize.  The sign is fixed
    so the largest-magnitude component of the nodal mode is positive.
    """
    if float(np.max(np.einsum("ij,ij->j", white, white), initial=0.0)) <= NORM_FLOOR ** 2:
        raise DegenerateInputError("all input vectors vanish in the energy norm")
    _, eigvecs = np.linalg.eigh(white.T @ white)
    mode = white @ eigvecs[:, -1]
    nrm = np.linalg.norm(mode)
    if nrm <= NORM_FLOOR:
        raise DegenerateInputError("dominant mode vanishes in the energy norm")
    mode = mode / nrm
    nodal = ops.unwhiten(mode)
    if nodal[np.argmax(np.abs(nodal))] < 0:
        return -mode, -nodal
    return mode, nodal


def pod1(vectors, ops: AffineOperatorSet) -> np.ndarray:
    """Dominant POD mode of a vector family in the energy inner product.

    The result has unit energy norm and maximizes the captured energy (the
    sum of squared inner products with the family); its sign is fixed so
    the largest-magnitude component is positive.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        mat = vectors
    else:
        mat = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    return _dominant_mode(ops.whiten(mat), ops)[1]


def pod_greedy(store: SnapshotStore, n_v_tilde: int,
               ops: AffineOperatorSet) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Greedy primal basis construction.

    Start from the normalized initial state of the first training
    parameter.  At basis size k, evaluate for every training parameter the
    summed squared projection errors of its trajectory onto the current
    space, record the square root of the maximum, and grow the basis with
    the dominant POD mode of the worst trajectory's error history,
    orthonormalized against the basis (ties break to the smallest index).
    The loop runs on the whitened snapshots.

    Returns (orthonormal basis columns, error decay, selected indices).
    Raises BasisSaturationError (carrying the partial result in ``info``)
    once the snapshots cannot supply a further independent direction.
    """
    if n_v_tilde < 1:
        raise ValueError(f"need a positive basis budget, got {n_v_tilde}")
    if store.n_params == 0:
        raise ValueError("empty snapshot store")
    snaps = ops.whiten(store.primal_matrix())
    width = store.config.L + 1

    basis = _append_orthonormal(np.zeros((ops.dim, 0)), snaps[:, 0])  # first initial state
    if basis is None:
        raise DegenerateInputError("initial snapshot vanishes in the energy norm")
    selected = [0]
    eps_u: list[float] = []

    def saturation(message: str) -> BasisSaturationError:
        return BasisSaturationError(
            message, achieved=basis.shape[1], vectors=ops.unwhiten(basis),
            eps_u=np.array(eps_u), selected=list(selected))

    while True:
        k = basis.shape[1]
        # explicit residuals: the norm-subtraction form floors at
        # sqrt(eps_machine) * snapshot scale, far above the greedy's tail
        resid = snaps - basis @ (basis.T @ snaps)
        per_mu = np.einsum("ij,ij->j", resid, resid).reshape(store.n_params, width).sum(axis=1)
        best = int(np.argmax(per_mu))
        eps_u.append(float(np.sqrt(per_mu[best])))
        if k == n_v_tilde:
            break
        try:
            mode, _ = _dominant_mode(resid[:, best * width:(best + 1) * width], ops)
        except DegenerateInputError as err:
            raise saturation(f"snapshots exhausted at basis size {k}: {err}") from err
        grown = _append_orthonormal(basis, mode)
        if grown is None:
            raise saturation(f"snapshots exhausted at basis size {k}")
        basis = grown
        selected.append(best)
    return ops.unwhiten(basis), np.array(eps_u), selected


def angle_to_subspace(lam, basis, ops: AffineOperatorSet) -> float:
    """Principal angle between a multiplier and the span of dual vectors.

    The projection is computed in the dual inner product via the basis
    Gram normal equations; the angle comes from atan2 of the residual and
    projection norms, which keeps tiny angles accurate where
    arccos(1 - eps) loses half the digits.  An empty basis gives pi/2.
    """
    c = ops.whiten_dual(np.asarray(lam, dtype=float))
    if float(c @ c) <= NORM_FLOOR ** 2:
        raise DegenerateInputError("multiplier vanishes in the dual norm")
    cols = [np.asarray(b, dtype=float) for b in basis]
    if not cols:
        return float(np.pi / 2)
    xi = ops.whiten_dual(np.column_stack(cols))
    rhs = xi.T @ c
    try:
        coef = np.linalg.solve(xi.T @ xi, rhs)
    except np.linalg.LinAlgError as err:
        raise IllConditionedBasisError(f"dual basis Gram is singular: {err}") from err
    sin_part = np.linalg.norm(c - xi @ coef)
    cos_part = np.sqrt(max(float(coef @ rhs), 0.0))
    return float(np.arctan2(sin_part, cos_part))


def angle_greedy(store: SnapshotStore, n_w: int,
                 ops: AffineOperatorSet) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Greedy dual cone construction.

    Initialize with the first multiplier snapshot of positive dual norm
    (parameter-major, time-minor scan order).  At cone size k, compute the
    angle of every usable snapshot to the span of the current generators,
    record the maximum, and append the normalized maximizer (ties break to
    the smallest parameter index, then the smallest time step).  The loop
    runs on the whitened snapshots.

    Returns (generator columns, angle decay, selected (time step,
    parameter index) pairs).  Raises ConeSaturationError (carrying the
    partial result in ``info``) when no snapshot keeps an angle above the
    floor.
    """
    if n_w < 1:
        raise ValueError(f"need a positive cone budget, got {n_w}")
    lam_matrix, labels = store.multiplier_matrix()
    lifts = ops.whiten_dual(lam_matrix)
    w_norm = np.sqrt(np.einsum("ij,ij->j", lifts, lifts))
    valid = w_norm > NORM_FLOOR
    if not valid.any():
        raise ConeSaturationError(
            "no multiplier snapshot has positive dual norm", achieved=0,
            xi=np.zeros((ops.dim, 0)), eps_lambda=np.zeros(0), selected=[])

    first = int(np.flatnonzero(valid)[0])
    xi = lam_matrix[:, [first]] / w_norm[first]
    selected = [labels[first]]
    eps_lambda: list[float] = []
    # the span is tracked through an orthonormal basis of the generators'
    # lifts, so angle scans stay stable when generators become nearly dependent
    ortho = lifts[:, [first]] / w_norm[first]

    while True:
        k = xi.shape[1]
        coef = ortho.T @ lifts
        resid = lifts - ortho @ coef
        sin_part = np.sqrt(np.einsum("ij,ij->j", resid, resid))
        cos_part = np.sqrt(np.einsum("ij,ij->j", coef, coef))
        angles = np.where(valid, np.arctan2(sin_part, cos_part), -1.0)
        best = int(np.argmax(angles))
        eps_lambda.append(float(angles[best]))
        if k == n_w:
            break
        grown = (_append_orthonormal(ortho, lifts[:, best] / w_norm[best])
                 if angles[best] > MIN_GREEDY_ANGLE else None)
        if grown is None:
            raise ConeSaturationError(
                f"multiplier snapshots exhausted at cone size {k}",
                achieved=k, xi=xi, eps_lambda=np.array(eps_lambda), selected=selected)
        ortho = grown
        xi = np.hstack([xi, lam_matrix[:, [best]] / w_norm[best]])
        selected.append(labels[best])
    return xi, np.array(eps_lambda), selected


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
    """Offline output: bases, reduced operators, and greedy diagnostics.

    ``psi_matrix`` is energy-orthonormal, so the energy projection of a
    nodal vector v onto the reduced space has coefficients gram_psi' v.
    """

    mesh_h: int
    mesh_s_f: float
    config: SchemeConfig
    nv_tilde: int
    nw: int
    nv: int
    psi_matrix: np.ndarray        # (H, NV) energy-orthonormal primal basis
    xi_matrix: np.ndarray         # (H, NW) cone generator coefficients
    mass_n: np.ndarray            # (NV, NV)
    a1_n: np.ndarray
    a2_n: np.ndarray
    f1_n: np.ndarray              # (NV,)
    f2_n: np.ndarray
    b_n: np.ndarray               # (NV, NW) primal-dual coupling
    gram_psi: np.ndarray          # (H, NV) gram @ psi; recomputed on load, not stored
    diagnostics: GreedyDiagnostics | None = None


def _check_coupling_rank(b_n: np.ndarray, error: type[AmrbError], message: str) -> None:
    """Raise ``error`` unless b_n has numerically full column rank."""
    if b_n.shape[1] == 0:
        return
    svals = np.linalg.svd(b_n, compute_uv=False)
    if svals[0] <= 0 or svals[-1] <= RANK_FLOOR * svals[0]:
        raise error(f"{message} (smin={svals[-1]:.3e}, smax={svals[0]:.3e})",
                    smin=float(svals[-1]), smax=float(svals[0]))


def _check_unit_gram(psi: np.ndarray, gram_psi: np.ndarray,
                     error: type[AmrbError]) -> None:
    """Raise ``error`` unless psi' gram psi is the identity to ``ORTHO_TOL``."""
    dev = float(np.abs(psi.T @ gram_psi - np.eye(psi.shape[1])).max(initial=0.0))
    if not dev <= ORTHO_TOL:
        raise error(f"primal basis is not energy-orthonormal (max deviation {dev:.3e})")


def assemble_reduced(psi: np.ndarray, xi: np.ndarray, ops: AffineOperatorSet,
                     config: SchemeConfig, *, nv_tilde: int,
                     diagnostics: GreedyDiagnostics | None = None) -> ReducedModel:
    """Project all operator blocks onto the energy-orthonormal basis psi.

    ``nv_tilde`` counts the POD columns in front of the supremizers.  Fails
    with InfSupFailureError if the reduced coupling b_n loses full column
    rank, which would make the reduced saddle-point steps ill posed.
    """
    mass_n = psi.T @ (ops.mass @ psi)
    mass_n = 0.5 * (mass_n + mass_n.T)
    b_n = psi.T @ xi
    _check_coupling_rank(b_n, InfSupFailureError,
                         "reduced coupling lost full column rank; "
                         "supremizer enrichment is broken")
    model = ReducedModel(
        mesh_h=ops.mesh.H, mesh_s_f=ops.mesh.s_f, config=config,
        nv_tilde=nv_tilde, nw=xi.shape[1], nv=psi.shape[1],
        psi_matrix=psi.copy(), xi_matrix=xi.copy(),
        mass_n=mass_n, a1_n=psi.T @ (ops.a1 @ psi), a2_n=psi.T @ (ops.a2 @ psi),
        f1_n=psi.T @ ops.f1, f2_n=psi.T @ ops.f2, b_n=b_n,
        gram_psi=ops.gram @ psi, diagnostics=diagnostics,
    )
    verify_model(model, ops)
    return model


def build_reduced_model_from_store(store: SnapshotStore, nv_tilde: int, nw: int,
                                   ops: AffineOperatorSet):
    """Run both greedy loops plus enrichment; saturation degrades gracefully.

    Returns (model, warnings).  A greedy loop that saturates early
    contributes whatever it built; the warning list records each such
    event.
    """
    warnings: list[str] = []
    try:
        vectors, eps_u, selected_u = pod_greedy(store, nv_tilde, ops)
    except BasisSaturationError as err:
        vectors = err.info["vectors"]
        eps_u = err.info["eps_u"]
        selected_u = err.info["selected"]
        warnings.append(f"primal basis saturated at {vectors.shape[1]} of {nv_tilde} vectors")
    try:
        xi, eps_lambda, selected_lambda = angle_greedy(store, nw, ops)
    except ConeSaturationError as err:
        xi = err.info["xi"]
        eps_lambda = err.info["eps_lambda"]
        selected_lambda = err.info["selected"]
        warnings.append(f"dual cone saturated at {xi.shape[1]} of {nw} generators")

    while True:
        psi, dropped = enrich_with_supremizers(vectors, xi, ops)
        diagnostics = GreedyDiagnostics(
            eps_u=np.asarray(eps_u, dtype=float),
            eps_lambda=np.asarray(eps_lambda, dtype=float)[:xi.shape[1]],
            selected_params_u=tuple(int(i) for i in selected_u),
            selected_pairs_lambda=tuple(selected_lambda),
            training_params=np.array([p.as_array() for p in store.params]),
        )
        try:
            model = assemble_reduced(psi, xi, ops, store.config,
                                     nv_tilde=vectors.shape[1], diagnostics=diagnostics)
            break
        except InfSupFailureError:
            # a generator selected at a tiny (but legal) angle can push the
            # coupling below the rank floor; trim from the least independent
            # end, exactly as if the greedy had saturated one step earlier
            if xi.shape[1] == 0:
                raise
            warnings.append(
                f"dropped cone generator {xi.shape[1] - 1}: coupling rank floor")
            xi = xi[:, :-1]
            selected_lambda = selected_lambda[:-1]
    for j in dropped:
        warnings.append(f"dropped supremizer {j}: direction dependent on the basis")
    return model, warnings


# ---------------------------------------------------------------------------
# model file I/O


def model_document(model: ReducedModel) -> dict:
    diag = model.diagnostics
    diagnostics = {
        "eps_u": diag.eps_u if diag else np.zeros(0),
        "eps_lambda": diag.eps_lambda if diag else np.zeros(0),
        "selections": {
            "pod_train_indices": list(diag.selected_params_u) if diag else [],
            "angle_pairs": [list(p) for p in diag.selected_pairs_lambda] if diag else [],
            "training_params": diag.training_params if diag else np.zeros((0, 4)),
        },
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "mesh": {"H": model.mesh_h, "s_f": model.mesh_s_f},
        "time": {"T": model.config.T, "L": model.config.L, "theta": model.config.theta},
        "NV_tilde": model.nv_tilde,
        "NW": model.nw,
        "NV": model.nv,
        "psi_matrix": model.psi_matrix,
        "xi_matrix": model.xi_matrix,
        "Mass_N": model.mass_n,
        "A1_N": model.a1_n,
        "A2_N": model.a2_n,
        "f1_N": model.f1_n,
        "f2_N": model.f2_n,
        "B_N": model.b_n,
        "diagnostics": diagnostics,
    }


def save_model(model: ReducedModel, path) -> None:
    textio.write_json(path, model_document(model))


def _need(data: dict, key: str):
    if key not in data:
        raise ModelLoadError(f"model file is missing field {key!r}")
    return data[key]


def _object(data: dict, key: str) -> dict:
    """Optional JSON object field; absent or null reads as empty."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ModelLoadError(f"model field {key!r} must be a JSON object")
    return value


def _array(data, key: str, shape: tuple) -> np.ndarray:
    try:
        arr = np.array(_need(data, key) if isinstance(data, dict) else data, dtype=float)
    except (TypeError, ValueError) as err:
        raise ModelLoadError(f"field {key!r} is not a numeric array: {err}") from err
    if arr.size == 0 and 0 in shape:
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise ModelLoadError(f"field {key!r} has shape {arr.shape}, expected {shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ModelLoadError(f"field {key!r} contains non-finite values")
    return arr


def load_model(path, return_operators: bool = False):
    """Parse and validate a model file; rejects corrupted coupling blocks.

    The operators of the stored mesh are reassembled to recompute
    gram @ psi and to check that the basis is energy-orthonormal.  Returns
    the ``ReducedModel``, or (model, operators) with ``return_operators``,
    so that a caller that verifies the model or solves the truth on its
    mesh need not assemble them again.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ModelLoadError(f"cannot read model file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ModelLoadError(f"model file {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ModelLoadError("model file must hold a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelVersionError(
            f"unsupported model schema version {version!r}, expected {SCHEMA_VERSION}")
    try:
        mesh = _need(data, "mesh")
        h = int(mesh["H"])
        s_f = float(mesh["s_f"])
        time = _need(data, "time")
        config = SchemeConfig(T=float(time["T"]), L=int(time["L"]), theta=float(time["theta"]))
        nv_tilde = int(_need(data, "NV_tilde"))
        nw = int(_need(data, "NW"))
        nv = int(_need(data, "NV"))
    except (KeyError, TypeError, ValueError) as err:
        raise ModelLoadError(f"model header is malformed: {err}") from err
    if h < 2 or not 0 < s_f < np.inf or nv < 1 or nw < 0 or nv_tilde < 1:
        raise ModelLoadError(
            f"model sizes are out of range: H={h}, s_f={s_f}, NV={nv}, NW={nw}")

    psi = _array(data, "psi_matrix", (h, nv))
    xi = _array(data, "xi_matrix", (h, nw))
    mass_n = _array(data, "Mass_N", (nv, nv))
    a1_n = _array(data, "A1_N", (nv, nv))
    a2_n = _array(data, "A2_N", (nv, nv))
    f1_n = _array(data, "f1_N", (nv,))
    f2_n = _array(data, "f2_N", (nv,))
    b_n = _array(data, "B_N", (nv, nw))

    ops = assemble_operators(build_mesh(h, s_f))
    gram_psi = ops.gram @ psi
    _check_unit_gram(psi, gram_psi, ModelLoadError)
    _check_coupling_rank(b_n, ModelLoadError,
                         "model coupling block fails the full-rank check; file is corrupt")

    diag_data = _object(data, "diagnostics")
    selections = _object(diag_data, "selections")
    try:
        train = np.array(selections.get("training_params", []), dtype=float).reshape(-1, 4)
        eps_u = np.array(diag_data.get("eps_u", []), dtype=float)
        eps_lambda = np.array(diag_data.get("eps_lambda", []), dtype=float)
        if eps_u.ndim != 1 or eps_lambda.ndim != 1:
            raise ValueError("greedy decay sequences must be flat lists")
        diagnostics = GreedyDiagnostics(
            eps_u=eps_u,
            eps_lambda=eps_lambda,
            selected_params_u=tuple(int(i) for i in selections.get("pod_train_indices", [])),
            selected_pairs_lambda=tuple((int(a), int(b))
                                        for a, b in selections.get("angle_pairs", [])),
            training_params=train,
        )
    except (TypeError, ValueError) as err:
        raise ModelLoadError(f"model diagnostics are malformed: {err}") from err

    model = ReducedModel(
        mesh_h=h, mesh_s_f=s_f, config=config,
        nv_tilde=nv_tilde, nw=nw, nv=nv,
        psi_matrix=psi, xi_matrix=xi,
        mass_n=mass_n, a1_n=a1_n, a2_n=a2_n,
        f1_n=f1_n, f2_n=f2_n, b_n=b_n,
        gram_psi=gram_psi, diagnostics=diagnostics,
    )
    return (model, ops) if return_operators else model


def verify_model(model: ReducedModel, ops: AffineOperatorSet | None = None) -> None:
    """Recompute every reduced block from the stored bases and compare.

    Raises ModelCorruptionError on the first violated invariant.  When no
    operator set is passed, the full-order operators are reassembled from
    the stored mesh descriptor.
    """
    if ops is None:
        ops = assemble_operators(build_mesh(model.mesh_h, model.mesh_s_f))
    if ops.mesh.H != model.mesh_h:
        raise ModelCorruptionError("operator set does not match the model mesh")
    psi = model.psi_matrix
    xi = model.xi_matrix

    def close(name: str, stored: np.ndarray, recomputed: np.ndarray) -> None:
        scale = 1.0 + float(np.linalg.norm(recomputed))
        if float(np.linalg.norm(stored - recomputed)) > BLOCK_RTOL * scale:
            raise ModelCorruptionError(f"reduced block {name} does not match its recomputation")

    close("Mass_N", model.mass_n, psi.T @ (ops.mass @ psi))
    close("A1_N", model.a1_n, psi.T @ (ops.a1 @ psi))
    close("A2_N", model.a2_n, psi.T @ (ops.a2 @ psi))
    close("f1_N", model.f1_n, psi.T @ ops.f1)
    close("f2_N", model.f2_n, psi.T @ ops.f2)
    close("B_N", model.b_n, psi.T @ xi)
    close("gram_psi", model.gram_psi, ops.gram @ psi)
    _check_unit_gram(psi, model.gram_psi, ModelCorruptionError)
    _check_coupling_rank(model.b_n, ModelCorruptionError,
                         "reduced coupling block lost full column rank")
    try:
        np.linalg.cholesky(model.mass_n)
    except np.linalg.LinAlgError as err:
        raise ModelCorruptionError(f"reduced mass matrix is not SPD: {err}") from err
    diag = model.diagnostics
    if diag is not None:
        for name, seq in (("eps_u", diag.eps_u), ("eps_lambda", diag.eps_lambda)):
            if seq.size and np.any(np.diff(seq) > 1e-12 * (1.0 + seq[:-1])):
                raise ModelCorruptionError(f"diagnostic sequence {name} is not non-increasing")


# ---------------------------------------------------------------------------
# diagnostics artifacts


def write_greedy_csvs(diagnostics: GreedyDiagnostics, pod_path, angle_path) -> None:
    """Per-iteration decay CSVs with the selected snapshot coordinates."""
    train = diagnostics.training_params

    def pod_rows():
        for k, eps in enumerate(diagnostics.eps_u):
            idx = diagnostics.selected_params_u[k] if k < len(diagnostics.selected_params_u) else -1
            coords = train[idx] if 0 <= idx < len(train) else [float("nan")] * 4
            yield [k + 1, eps, *coords]

    def angle_rows():
        for k, eps in enumerate(diagnostics.eps_lambda):
            if k < len(diagnostics.selected_pairs_lambda):
                n, idx = diagnostics.selected_pairs_lambda[k]
            else:
                n, idx = -1, -1
            coords = train[idx] if 0 <= idx < len(train) else [float("nan")] * 4
            yield [k + 1, eps, n, *coords]

    textio.write_csv(pod_path, ["iteration", "eps_u", "K", "r", "q", "sigma"], pod_rows())
    textio.write_csv(angle_path, ["iteration", "eps_lambda", "n", "K", "r", "q", "sigma"],
                     angle_rows())


def write_params_csv(params, path) -> None:
    textio.write_csv(path, ["K", "r", "q", "sigma"],
                     ([p.K, p.r, p.q, p.sigma] for p in params))
