"""Online phase: parameter-fast reduced simulations and error metrics.

Per parameter, ``online_setup`` forms the step matrix
s_n = mass_n/dt + theta a_n, its explicit part
rhs_n = mass_n/dt - (1 - theta) a_n and the load f_n from the stored affine
blocks with ``amrb.truth.step_pair`` and ``load_vector``, the functions
that form the truth's step bands: the reduced step is the Galerkin
projection of the truth's, up to rounding.  It factorizes s_n once (LAPACK
``getrf``; a numerically singular s_n raises ``AssemblyError`` naming
mu), and forms the obstacle data (cone loads g_n and the initial
projection) in a single O(H) pass.  It keeps only what a step reads, as
``OnlineData``: with P = s_n^-1 rhs_n and c = s_n^-1 f_n,
the state with the cone inactive is P u + c, and the cone right-hand side
is d - Q u, with Q = b_n' P and d = g_n - b_n' c; the Schur complement
b_n' s_n^-1 b_n is checked once (``check_lcp_matrix``; parameters that
leave it unusable raise ``AssemblyError``, as the truth's step matrix
does).  Each time step is then three matrix-vector products and the
primal-dual active-set iteration of ``amrb.truth`` on the cone
coefficients alpha, to which the step passes the Schur complement, its
cone right-hand side and the obstacle None (the cone alpha >= 0 has
none) directly, and the next state is P u + c + s_n^-1 b_n alpha, the
last term added in place; the products are ``ndarray.dot`` calls, which
cost half the overhead of ``@`` on these small blocks.  The per-step
cost depends only on the reduced dimensions.  As in a truth trajectory,
each step is solved into its rows: the next state into its row of the
states and the cone problem into its row of the cone coefficients, with
one multiplier vector and one cone right-hand side per trajectory.  Every
function works on the model's own time grid.

Within a trajectory, v = lam - alpha is positive exactly on a step's cone
active set; ``solve_lcp`` leaves it in a third ``out`` vector, two of
which the trajectory alternates.  Step 2 starts its iteration from
{v_1 > 0}, and step n+1 from the linear extrapolation
{2 v_n - v_(n-1) > 0}, tested as 2 v_n > v_(n-1): 2 v_n is exact or
infinite, and with gradual underflow a difference of floats is positive
exactly when a > b, so the two pick the same set.  The Schur complement is
positive definite, so the cone problem has one solution whatever the
start; a start that is already right is certified by a single solve.

The primal basis is energy-orthonormal (see ``amrb.offline``), so the
reduced blocks are well conditioned as stored: every solve works on them
directly, and the initial state is the energy projection gram_psi' psi_tilde
of the lifted obstacle.  ``reconstruct`` adds the boundary lift
(``amrb.fem.boundary_lift``) to the reconstructed states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmrbError, AssemblyError
from .fem import AffineOperatorSet, Mesh1D, ParameterVector, boundary_lift, obstacle_data
from .lapack import dgetrf, dgetrs
from .offline import ReducedModel
from .truth import (
    Trajectory,
    check_lcp_matrix,
    load_vector,
    solve_lcp,
    solve_trajectory,  # noqa: F401  unused here; perfbench's tracer patches this binding
    step_pair,
)


@dataclass(frozen=True)
class OnlineData:
    """Per-parameter step maps, Schur complement and obstacle data.

    A step maps u to ``step_map @ u + step_load + sinv_b @ alpha``, where
    alpha solves the cone problem on ``schur`` with the right-hand side
    ``cone_load - cone_map @ u``.
    """

    step_map: np.ndarray   # (NV, NV) s_n^-1 rhs_n
    step_load: np.ndarray  # (NV,) s_n^-1 f_n
    cone_map: np.ndarray   # (NW, NV) b_n' step_map
    cone_load: np.ndarray  # (NW,) g_n - b_n' step_load
    sinv_b: np.ndarray     # (NV, NW) s_n^-1 b_n
    schur: np.ndarray      # (NW, NW) b_n' s_n^-1 b_n, checked by check_lcp_matrix
    g_n: np.ndarray        # (NW,) cone loads xi_j . obstacle
    u0: np.ndarray         # (NV,) projected initial state


def online_setup(model: ReducedModel, mu) -> OnlineData:
    """Assemble and factorize everything a reduced trajectory needs for mu."""
    try:
        s_n, explicit_n = step_pair(mu, model.config, model.mass_n, model.a1_n, model.a2_n)
    except OverflowError as err:
        raise AssemblyError(f"reduced operator at mu={mu} overflows: {err}") from err
    if not np.isfinite(s_n).all():
        raise AssemblyError(f"reduced step matrix at mu={mu} is not finite")
    lu, piv, _ = dgetrf(s_n)  # an exactly zero pivot fails the test below
    pivots = np.abs(lu.diagonal())
    if pivots.min() <= 1e-14 * max(pivots.max(), 1.0):
        raise AssemblyError(f"reduced step matrix at mu={mu} is numerically singular")

    psi_tilde = obstacle_data(model.ops.mesh, mu.K).psi_tilde
    b_n = model.b_n
    sinv_b = dgetrs(lu, piv, b_n)[0]
    step_map = dgetrs(lu, piv, explicit_n)[0]
    step_load = dgetrs(lu, piv, load_vector(mu, model.f1_n, model.f2_n))[0]
    try:
        schur = check_lcp_matrix(b_n.T @ sinv_b)
    except ValueError as err:
        raise AssemblyError(f"reduced Schur complement at mu={mu} is unusable: {err}") from err
    g_n = model.xi_matrix.T @ psi_tilde
    return OnlineData(step_map=step_map, step_load=step_load, cone_map=b_n.T @ step_map,
                      cone_load=g_n - b_n.T @ step_load, sinv_b=sinv_b, schur=schur, g_n=g_n,
                      u0=model.gram_psi.T @ psi_tilde)


def _cone_step(u_prev: np.ndarray, u: np.ndarray, data: OnlineData, start, cone_rhs: np.ndarray,
               out) -> int:
    """One reduced step from ``u_prev`` and the cone active set ``start``,
    solved into ``u``; the cone right-hand side is formed in ``cone_rhs``,
    and the cone problem is solved into ``out`` = (alpha, lam[, update])
    as ``solve_lcp`` does, against the zero obstacle None.

    Returns the number of cone solves: 0 for a model without a cone, whose
    ``cone_rhs`` has size 0.
    """
    data.step_map.dot(u_prev, out=u)
    u += data.step_load
    if cone_rhs.size == 0:
        return 0
    data.cone_map.dot(u_prev, out=cone_rhs)
    np.subtract(data.cone_load, cone_rhs, out=cone_rhs)
    alpha, _, solves = solve_lcp(data.schur, cone_rhs, start, out=out)
    u += data.sinv_b.dot(alpha)
    return solves


@dataclass(frozen=True)
class ReducedTrajectory:
    """Reduced states and nonnegative cone coefficients over the time grid."""

    mu: ParameterVector
    states: np.ndarray       # (L+1, NV)
    cone_coeffs: np.ndarray  # (L, NW)
    lcp_solves: np.ndarray   # (L,) cone active-set solves per step


def reduced_trajectory(model: ReducedModel, mu) -> ReducedTrajectory:
    cfg = model.config
    data = online_setup(model, mu)
    states = np.empty((cfg.L + 1, model.nv))
    alphas = np.empty((cfg.L, model.nw))
    solves = np.empty(cfg.L, dtype=int)
    states[0] = data.u0
    cone_rhs, lam, v, v_prev, twice = np.empty((5, model.nw))
    start = None
    for n in range(cfg.L):
        try:
            solves[n] = _cone_step(states[n], states[n + 1], data, start, cone_rhs,
                                   (alphas[n], lam, v))
        except AmrbError as err:
            raise type(err)(f"reduced step {n + 1} failed: {err}",
                            step=n + 1, **err.info) from err
        # v = lam - alpha, the update vector that solve_lcp leaves in v, is
        # positive exactly on this step's active set; the next step starts
        # from its linear extrapolation 2 v - v_prev > 0, tested as
        # 2 v > v_prev (see the module docstring)
        start = v > 0.0 if n == 0 else np.greater(np.add(v, v, out=twice), v_prev)
        v, v_prev = v_prev, v
    return ReducedTrajectory(mu=mu, states=states, cone_coeffs=alphas, lcp_solves=solves)


def reduced_residuals(rt: ReducedTrajectory, data: OnlineData,
                      model: ReducedModel) -> dict:
    """Worst-case reduced feasibility and complementarity over the steps
    (an empty cone has no coefficient or gap: inf, inf and 0)."""
    alpha = rt.cone_coeffs                       # (L, NW)
    slack = rt.states[1:] @ model.b_n - data.g_n  # (L, NW)
    scale = 1.0 + np.abs(slack).max(axis=1, initial=0.0) * np.abs(alpha).max(axis=1, initial=0.0)
    comp = np.abs(np.einsum("ij,ij->i", alpha, slack)) / scale
    return {"min_cone_coeff": float(alpha.min(initial=np.inf)),
            "min_cone_gap": float(slack.min(initial=np.inf)),
            "max_complementarity": float(comp.max())}


def reconstruct_states(model: ReducedModel, rt: ReducedTrajectory) -> np.ndarray:
    """Nodal states of the reduced trajectory, shape (L+1, H)."""
    return rt.states @ model.psi_matrix.T


def reconstruct(model: ReducedModel, rt: ReducedTrajectory, K: float,
                mesh: Mesh1D) -> np.ndarray:
    """Nodal price trajectory: reconstructed states plus the boundary lift."""
    states = reconstruct_states(model, rt)
    if states.shape[1] != mesh.H:
        raise ValueError(f"model has {states.shape[1]} nodes, mesh has {mesh.H}")
    states += boundary_lift(mesh, K)
    return states


def error_metrics(truth: Trajectory, reduced_states: np.ndarray,
                  ops: AffineOperatorSet) -> float:
    """Space-time error sqrt(dt * sum_n ||u^n - u_N^n||_V^2) on the truth's grid."""
    cfg = truth.config
    reduced_states = np.asarray(reduced_states, dtype=float)
    if truth.states.shape != reduced_states.shape:
        raise ValueError(
            f"mismatched discretizations: {truth.states.shape} vs {reduced_states.shape}")
    if truth.states.shape[0] != cfg.L + 1:
        raise ValueError("trajectory does not match the time grid")
    diff = (truth.states - reduced_states).T  # (H, L+1)
    sq = np.einsum("ij,ij->j", diff, ops.gram @ diff)
    return float(np.sqrt(cfg.delta_t * float(np.sum(np.maximum(sq, 0.0)))))


def err_linf(model: ReducedModel, truths) -> np.ndarray:
    """Space-time error of the reduced trajectory against each truth
    trajectory, which must lie on the model's time grid and mesh."""
    values = []
    for truth in truths:
        if truth.config != model.config:
            raise ValueError(f"truth time grid {truth.config} is not the model's {model.config}")
        rt = reduced_trajectory(model, truth.mu)
        values.append(error_metrics(truth, reconstruct_states(model, rt), model.ops))
    return np.array(values)

