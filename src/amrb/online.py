"""Online phase: parameter-fast reduced simulations and error metrics.

Per parameter, ``online_setup`` combines the reduced operator a_n and
load f_n from the stored affine blocks, factorizes the step matrix
s_n = mass_n/dt + theta a_n once (LAPACK ``getrf``), and forms the
obstacle data (cone loads g_n and the initial projection) in a single O(H)
pass.  It keeps only what a step reads, as ``OnlineData``: with
rhs_n = mass_n/dt - (1 - theta) a_n, P = s_n^-1 rhs_n and c = s_n^-1 f_n,
the state with the cone inactive is P u + c, and the cone right-hand side
is d - Q u, with Q = b_n' P and d = g_n - b_n' c; the Schur complement
b_n' s_n^-1 b_n is checked once (``check_lcp_matrix``).  Each time step is
then three matrix-vector products and the primal-dual active-set iteration
of ``amrb.truth`` on the cone coefficients alpha, to which the step passes
the Schur complement, its cone right-hand side and the zero obstacle
directly, and the next state is P u + c + s_n^-1 b_n alpha; the per-step
cost depends only on the reduced dimensions.  Every function works on the
model's own time grid.

Within a trajectory, v = lam - alpha is positive exactly on a step's cone
active set.  Step 2 starts its iteration from {v_1 > 0}, and step n+1 from
the linear extrapolation {2 v_n - v_(n-1) > 0}.  The Schur complement is
positive definite, so the cone problem has one solution whatever the
start; a start that is already right is certified by a single solve.

The primal basis is energy-orthonormal (see ``amrb.offline``), so the
reduced blocks are well conditioned as stored: every solve works on them
directly, and the initial state is the energy projection gram_psi' psi_tilde
of the lifted obstacle.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from . import textio
from .errors import AmrbError, AssemblyError, ModelCorruptionError
from .fem import AffineOperatorSet, Mesh1D, ParameterVector, obstacle_data
from .offline import ReducedModel
from .truth import (
    Trajectory,
    check_lcp_matrix,
    solve_lcp,
    solve_trajectory,  # noqa: F401  unused here; perfbench's tracer patches this binding
    state_rows,
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
    if mu.K <= 0 or mu.sigma <= 0:
        raise ValueError(f"need K > 0 and sigma > 0, got K={mu.K}, sigma={mu.sigma}")
    cfg = model.config
    try:
        a_n = (mu.sigma ** 2) * model.a1_n + (mu.r - mu.q) * model.a2_n + mu.r * model.mass_n
    except OverflowError as err:
        raise AssemblyError(f"reduced operator at mu={mu} overflows: {err}") from err
    f_n = mu.K * mu.q * model.f1_n - mu.K * mu.r * model.f2_n
    mass_dt = model.mass_n / cfg.delta_t
    s_n = mass_dt + cfg.theta * a_n
    if not np.isfinite(s_n).all():
        raise AssemblyError(f"reduced step matrix at mu={mu} is not finite")
    lu, piv, _ = dgetrf(s_n)  # an exactly zero pivot fails the test below
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= 1e-14 * max(pivots.max(), 1.0):
        raise ModelCorruptionError("reduced step matrix is numerically singular")

    psi_tilde = obstacle_data(model.ops.mesh, mu.K).psi_tilde
    b_n = model.b_n
    sinv_b = dgetrs(lu, piv, b_n)[0]
    step_map = dgetrs(lu, piv, mass_dt - (1.0 - cfg.theta) * a_n)[0]
    step_load = dgetrs(lu, piv, f_n)[0]
    g_n = model.xi_matrix.T @ psi_tilde
    return OnlineData(step_map=step_map, step_load=step_load, cone_map=b_n.T @ step_map,
                      cone_load=g_n - b_n.T @ step_load, sinv_b=sinv_b,
                      schur=check_lcp_matrix(b_n.T @ sinv_b), g_n=g_n,
                      u0=model.gram_psi.T @ psi_tilde)


def _cone_step(u_prev: np.ndarray, data: OnlineData, start, zero: np.ndarray):
    """One reduced step from the cone active set ``start``.

    Returns (u, alpha, lam, solves); ``zero`` is the cone's zero obstacle.
    """
    u = data.step_map @ u_prev + data.step_load
    if zero.size == 0:
        return u, zero, zero, 0
    rhs = data.cone_load - data.cone_map @ u_prev
    alpha, lam, solves = solve_lcp(data.schur, rhs, zero, start)
    return u + data.sinv_b @ alpha, alpha, lam, solves


def reduced_step(u_prev: np.ndarray, data: OnlineData):
    """One reduced step; returns (next coefficients, cone coefficients).

    The state is eliminated through the Schur complement, leaving a small
    complementarity problem in the nonnegative cone coefficients that the
    active-set solver handles on its dense path from the empty set.
    """
    if not np.isfinite(u_prev).all():  # the step's products skip this check
        raise ValueError("reduced coefficients must be finite")
    u, alpha, _, _ = _cone_step(u_prev, data, None, np.zeros(data.schur.shape[0]))
    return u, alpha


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
    zero = np.zeros(model.nw)
    start = v_prev = None
    for n in range(cfg.L):
        try:
            u, alpha, lam, solves[n] = _cone_step(states[n], data, start, zero)
        except AmrbError as err:
            raise type(err)(f"reduced step {n + 1} failed: {err}",
                            step=n + 1, **err.info) from err
        states[n + 1] = u
        alphas[n] = alpha
        # v = lam - alpha is positive exactly on this step's active set;
        # the next step starts from its linear extrapolation
        v = lam - alpha
        start = (v if v_prev is None else 2.0 * v - v_prev) > 0.0
        v_prev = v
    return ReducedTrajectory(mu=mu, states=states, cone_coeffs=alphas, lcp_solves=solves)


def reduced_residuals(rt: ReducedTrajectory, data: OnlineData,
                      model: ReducedModel) -> dict:
    """Worst-case reduced feasibility and complementarity over the steps."""
    min_alpha = np.inf
    min_gap = np.inf
    max_comp = 0.0
    for n in range(rt.cone_coeffs.shape[0]):
        alpha = rt.cone_coeffs[n]
        slack = model.b_n.T @ rt.states[n + 1] - data.g_n
        if alpha.size:
            min_alpha = min(min_alpha, float(alpha.min()))
            min_gap = min(min_gap, float(slack.min()))
            scale = 1.0 + float(np.abs(slack).max()) * float(np.abs(alpha).max())
            max_comp = max(max_comp, abs(float(alpha @ slack)) / scale)
    return {"min_cone_coeff": min_alpha, "min_cone_gap": min_gap,
            "max_complementarity": max_comp}


def reconstruct_states(model: ReducedModel, rt: ReducedTrajectory) -> np.ndarray:
    """Nodal states of the reduced trajectory, shape (L+1, H)."""
    return rt.states @ model.psi_matrix.T


def reconstruct_multipliers(model: ReducedModel, rt: ReducedTrajectory) -> np.ndarray:
    """Nodal multiplier reconstruction xi @ alpha per step, shape (L, H)."""
    return rt.cone_coeffs @ model.xi_matrix.T


def reconstruct(model: ReducedModel, rt: ReducedTrajectory, K: float,
                mesh: Mesh1D) -> np.ndarray:
    """Nodal price trajectory: reconstructed states plus the boundary lift."""
    states = reconstruct_states(model, rt)
    if states.shape[1] != mesh.H:
        raise ValueError(f"model has {states.shape[1]} nodes, mesh has {mesh.H}")
    states += K * (1.0 - mesh.interior_nodes / mesh.s_f)
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


def write_error_report_csv(params, errors: np.ndarray, path) -> None:
    """Columns K, r, q, sigma, err_N with a final ERR_LINF row."""
    rows = [[mu.K, mu.r, mu.q, mu.sigma, err] for mu, err in zip(params, errors)]
    rows.append(["ERR_LINF", "", "", "", float(errors.max(initial=0.0))])
    textio.write_csv(path, ["K", "r", "q", "sigma", "err_N"], rows)


def write_online_csvs(out, model: ReducedModel, rt: ReducedTrajectory,
                      truth: Trajectory | None = None) -> None:
    """Write the reconstructed trajectory to ``out/reduced_trajectory.csv``
    and, given the truth at the model's time grid, both trajectories to
    ``out/comparison.csv`` for overlay plots.

    The reduced lines are rendered once: they are the body of the first
    file and the second half of the other.
    """
    header = ["step", "t", "s", "u", "lambda", "price", "source"]
    mesh, delta_t = model.ops.mesh, model.config.delta_t
    reduced = list(state_rows(reconstruct_states(model, rt), reconstruct_multipliers(model, rt),
                              mesh, rt.mu.K, delta_t, "reduced"))
    textio.write_csv(os.path.join(out, "reduced_trajectory.csv"), header, reduced)
    if truth is not None:
        textio.write_csv(os.path.join(out, "comparison.csv"), header, itertools.chain(
            state_rows(truth.states, truth.multipliers, mesh, truth.mu.K, delta_t, "truth"),
            reduced))
