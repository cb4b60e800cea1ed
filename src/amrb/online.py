"""Online phase: parameter-fast reduced simulations and error metrics.

Per parameter, the reduced operator and load are combined from the stored
affine blocks, the step matrix is factorized once (LAPACK ``getrf``), the
Schur complement is checked once (``check_lcp_matrix``), and the obstacle
data (cone loads and the initial projection) is formed in a single O(H)
pass.  Each time step then solves a small mixed complementarity system by
eliminating the state through the Schur complement (LAPACK ``getrs`` on
the stored factors) and running the primal-dual active-set iteration of
``amrb.truth`` on the cone coefficients, so the per-step cost depends only
on the reduced dimensions.  Within a trajectory each step starts that
iteration from the active-set update of the previous step's solution,
{lam - alpha > 0}.  The Schur complement is positive definite, so the cone
problem has one solution whatever the start; a start that is already right
is certified by a single solve.

The primal basis is energy-orthonormal (see ``amrb.offline``), so the
reduced blocks are well conditioned as stored: every solve works on them
directly, and the initial state is the energy projection gram_psi' psi_tilde
of the lifted obstacle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from . import textio
from .errors import AmrbError, ModelCorruptionError
from .fem import AffineOperatorSet, Mesh1D, ParameterBox, ParameterVector, obstacle_data
from .offline import ReducedModel
from .truth import (
    LcpStep,
    SchemeConfig,
    Trajectory,
    check_lcp_matrix,
    solve_lcp,
    solve_trajectory,
    state_rows,
)


@dataclass(frozen=True)
class OnlineData:
    """Per-parameter reduced operators, factorizations, and obstacle data."""

    mu: ParameterVector
    config: SchemeConfig
    a_n: np.ndarray            # (NV, NV) combined operator
    f_n: np.ndarray            # (NV,) combined load
    s_n: np.ndarray            # (NV, NV) step matrix mass/dt + theta * a_n
    rhs_n: np.ndarray          # (NV, NV) explicit part mass/dt - (1-theta) * a_n
    s_lu: tuple                # LU factorization of s_n
    b_n: np.ndarray            # (NV, NW) primal-dual coupling
    sinv_b: np.ndarray         # (NV, NW) s_n^{-1} b_n
    schur: np.ndarray          # (NW, NW) b_n' s_n^{-1} b_n, checked by check_lcp_matrix
    g_n: np.ndarray            # (NW,) cone loads xi_j . obstacle
    u0: np.ndarray             # (NV,) projected initial state


def lifted_obstacle(model: ReducedModel, K: float) -> np.ndarray:
    """Nodal lifted obstacle on the model's mesh, one O(H) pass."""
    s = np.arange(1, model.mesh_h + 1) * (model.mesh_s_f / (model.mesh_h + 1))
    return np.maximum(K - s, 0.0) - K * (1.0 - s / model.mesh_s_f)


def online_setup(model: ReducedModel, mu, config: SchemeConfig | None = None) -> OnlineData:
    """Assemble and factorize everything a reduced trajectory needs for mu."""
    if mu.K <= 0 or mu.sigma <= 0:
        raise ValueError(f"need K > 0 and sigma > 0, got K={mu.K}, sigma={mu.sigma}")
    cfg = config if config is not None else model.config
    a_n = (mu.sigma ** 2) * model.a1_n + (mu.r - mu.q) * model.a2_n + mu.r * model.mass_n
    f_n = mu.K * mu.q * model.f1_n - mu.K * mu.r * model.f2_n
    mass_dt = model.mass_n / cfg.delta_t
    s_n = mass_dt + cfg.theta * a_n
    if not np.isfinite(s_n).all():
        raise ValueError("reduced step matrix must be finite")
    lu, piv, _ = dgetrf(s_n)  # an exactly zero pivot fails the test below
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= 1e-14 * max(pivots.max(), 1.0):
        raise ModelCorruptionError("reduced step matrix is numerically singular")

    psi_tilde = lifted_obstacle(model, mu.K)
    sinv_b = dgetrs(lu, piv, model.b_n)[0]
    return OnlineData(mu=mu, config=cfg, a_n=a_n, f_n=f_n, s_n=s_n,
                      rhs_n=mass_dt - (1.0 - cfg.theta) * a_n, s_lu=(lu, piv),
                      b_n=model.b_n, sinv_b=sinv_b,
                      schur=check_lcp_matrix(model.b_n.T @ sinv_b),
                      g_n=model.xi_matrix.T @ psi_tilde,
                      u0=model.gram_psi.T @ psi_tilde)


def _cone_step(u_prev: np.ndarray, data: OnlineData, start, zero: np.ndarray):
    """One reduced step from the cone active set ``start``.

    Returns (u, alpha, lam, solves); ``zero`` is the cone's zero obstacle.
    """
    rhs = data.rhs_n @ u_prev + data.f_n
    base = dgetrs(*data.s_lu, rhs)[0]  # info is nonzero only for malformed arguments
    if zero.size == 0:
        return base, zero, zero, 0
    q = data.b_n.T @ base
    alpha, lam, solves = solve_lcp(LcpStep(S=data.schur, rhs=data.g_n - q,
                                           obstacle=zero, start=start))
    return base + data.sinv_b @ alpha, alpha, lam, solves


def _cold_step(u_prev: np.ndarray, data: OnlineData):
    """One reduced step from the empty cone active set; returns (u, alpha)."""
    u, alpha, _, _ = _cone_step(u_prev, data, None, np.zeros(data.schur.shape[0]))
    return u, alpha


def reduced_step(u_prev: np.ndarray, data: OnlineData):
    """One reduced step; returns (next coefficients, cone coefficients).

    The state is eliminated through the Schur complement, leaving a small
    complementarity problem in the nonnegative cone coefficients that the
    active-set solver handles on its dense path from the empty set.
    """
    if not np.isfinite(u_prev).all():  # the step's solves skip this check
        raise ValueError("reduced coefficients must be finite")
    return _cold_step(u_prev, data)


@dataclass(frozen=True)
class ReducedTrajectory:
    """Reduced states and nonnegative cone coefficients over the time grid."""

    mu: ParameterVector
    states: np.ndarray       # (L+1, NV)
    cone_coeffs: np.ndarray  # (L, NW)
    lcp_solves: np.ndarray | None = None  # (L,) cone active-set solves per step


def reduced_trajectory(model: ReducedModel, mu,
                       config: SchemeConfig | None = None) -> ReducedTrajectory:
    cfg = config if config is not None else model.config
    data = online_setup(model, mu, cfg)
    states = np.empty((cfg.L + 1, model.nv))
    alphas = np.empty((cfg.L, model.nw))
    solves = np.empty(cfg.L, dtype=int)
    states[0] = data.u0
    zero = np.zeros(model.nw)
    start = None
    for n in range(cfg.L):
        try:
            u, alpha, lam, solves[n] = _cone_step(states[n], data, start, zero)
        except AmrbError as err:
            raise type(err)(f"reduced step {n + 1} failed: {err}",
                            step=n + 1, **err.info) from err
        states[n + 1] = u
        alphas[n] = alpha
        start = (lam - alpha) > 0.0  # the active-set update at this step's solution
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
                  ops: AffineOperatorSet, config: SchemeConfig | None = None) -> float:
    """Space-time error sqrt(dt * sum_n ||u^n - u_N^n||_V^2)."""
    cfg = config if config is not None else truth.config
    reduced_states = np.asarray(reduced_states, dtype=float)
    if truth.states.shape != reduced_states.shape:
        raise ValueError(
            f"mismatched discretizations: {truth.states.shape} vs {reduced_states.shape}")
    if truth.states.shape[0] != cfg.L + 1:
        raise ValueError("trajectory does not match the time grid")
    diff = (truth.states - reduced_states).T  # (H, L+1)
    sq = np.einsum("ij,ij->j", diff, ops.gram @ diff)
    return float(np.sqrt(cfg.delta_t * float(np.sum(np.maximum(sq, 0.0)))))


@dataclass(frozen=True)
class ErrorReport:
    """Per-parameter space-time errors over a test set and their maximum."""

    params: tuple[ParameterVector, ...]
    err_values: np.ndarray
    err_linf: float
    nv_tilde: int
    nw: int
    nv: int
    in_box: tuple[bool, ...] | None = None


def err_linf(model: ReducedModel, test_params, ops: AffineOperatorSet,
             config: SchemeConfig | None = None,
             box: ParameterBox | None = None) -> ErrorReport:
    """Truth-vs-reduced space-time error for every test parameter."""
    cfg = config if config is not None else model.config
    values = []
    flags = []
    for mu in test_params:
        truth = solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), cfg)
        rt = reduced_trajectory(model, mu, cfg)
        values.append(error_metrics(truth, reconstruct_states(model, rt), ops, cfg))
        flags.append(box.contains(mu) if box is not None else True)
    values = np.array(values)
    return ErrorReport(params=tuple(test_params), err_values=values,
                       err_linf=float(values.max()) if values.size else 0.0,
                       nv_tilde=model.nv_tilde, nw=model.nw, nv=model.nv,
                       in_box=tuple(flags) if box is not None else None)


def write_error_report_csv(report: ErrorReport, path) -> None:
    """Columns K, r, q, sigma, err_N with a final ERR_LINF row."""
    def rows():
        for mu, err in zip(report.params, report.err_values):
            yield [mu.K, mu.r, mu.q, mu.sigma, err]
        yield ["ERR_LINF", "", "", "", report.err_linf]

    textio.write_csv(path, ["K", "r", "q", "sigma", "err_N"], rows())


def write_reduced_trajectory_csv(path, model: ReducedModel, rt: ReducedTrajectory,
                                 mesh: Mesh1D) -> None:
    """Reconstructed trajectory export with a source column."""
    states = reconstruct_states(model, rt)
    multipliers = reconstruct_multipliers(model, rt)
    textio.write_csv(path, ["step", "t", "s", "u", "lambda", "price", "source"],
                     state_rows(states, multipliers, mesh, rt.mu.K,
                                model.config.delta_t, "reduced"))


def write_comparison_csv(path, model: ReducedModel, truth: Trajectory,
                         rt: ReducedTrajectory, mesh: Mesh1D) -> None:
    """Truth and reduced trajectories side by side for overlay plots."""
    states = reconstruct_states(model, rt)
    multipliers = reconstruct_multipliers(model, rt)
    delta_t = truth.config.delta_t

    def rows():
        yield from state_rows(truth.states, truth.multipliers, mesh,
                              truth.mu.K, delta_t, "truth")
        yield from state_rows(states, multipliers, mesh, rt.mu.K, delta_t, "reduced")

    textio.write_csv(path, ["step", "t", "s", "u", "lambda", "price", "source"], rows())
