"""Full-order theta-scheme time stepper for the discrete obstacle problem.

Each backward-time step is a linear complementarity problem

    S u - lam = rhs,   u >= obstacle,   lam >= 0,   lam . (u - obstacle) = 0,

with S = mass/dt + theta * a(mu) and rhs = (mass/dt - (1-theta) * a(mu))
applied to the previous state plus the load.  Steps are solved with a
primal-dual active-set iteration: freeze a guess of the contact set, solve
the linear system with the state pinned to the obstacle there, read the
multiplier off the residual, update the set from the sign of
lam + c*(obstacle - u), and stop once the set repeats.  At a fixed point
complementarity holds exactly by construction.

Truth steps predict the contact set, then let the iteration certify it.
The operators come as the bands of ``amrb.fem.Tridiagonal``, and only the
previous state changes between the steps of a trajectory, so the bands of
S, mass/dt and a(mu) (``ops.a_matrix``), the load, and the
Brennan-Schwartz pivots of S (a UL elimination from the last node down)
are built once per trajectory.  The put is exercised on one interval
[0, k) of low asset prices; the projected forward sweep of Brennan and
Schwartz (1977) predicts k with one bidiagonal solve, and the iteration
starts from [0, k).  A correct guess is reproduced by the first update,
so one solve certifies it (Hintermueller, Ito and Kunisch, 2003).  A wrong
guess (as at theta = 0, where the positive off-diagonals of mass/dt break
the sweep's monotonicity) costs further iterations but still ends at the
exact solution.

On tridiagonal matrices each iteration costs O(H): the subsystem goes
straight to LAPACK ``gtsv``, and the predictor's bidiagonal solve to BLAS
``tbsv``.  Dense inputs (the reduced-order Schur complements and small
test problems) take a dense path through ``np.linalg.solve``, from the
empty set unless the caller passes a start.  A trajectory checks its step
matrix once (``check_lcp_matrix``) and poses every step as an ``LcpStep``,
which checks only that step's vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgtsv

from .errors import AmrbError, NumericalBreakdownError, SolverDivergenceError
from .fem import AffineOperatorSet, Mesh1D, ObstacleData, ParameterVector, Tridiagonal
from . import textio


@dataclass(frozen=True)
class SchemeConfig:
    """Time grid: horizon T split into L steps, weight theta in [0, 1]."""

    T: float
    L: int
    theta: float

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"horizon must be positive, got T={self.T}")
        if self.L < 1:
            raise ValueError(f"need at least one time step, got L={self.L}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")

    @property
    def delta_t(self) -> float:
        return self.T / self.L


def check_lcp_matrix(S):
    """Check a complementarity matrix once for every problem posed on it.

    S is a ``Tridiagonal`` or a square dense array (returned in floats); it
    must be finite with a positive diagonal.
    """
    if isinstance(S, Tridiagonal):
        diag, entries = S.diag, np.concatenate(S)
    else:
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("inconsistent LCP dimensions")
        diag, entries = S.diagonal(), S
    if not np.isfinite(entries).all():
        raise ValueError("LCP matrix must be finite")
    if not (diag > 0.0).all():
        raise ValueError("LCP matrix must have a positive diagonal")
    return S


@dataclass(frozen=True)
class LcpProblem:
    """One complementarity problem S u - lam = rhs against a lower obstacle.

    ``start`` is the active set the iteration starts from (empty if None).
    The matrix goes through ``check_lcp_matrix``; rhs and obstacle must be
    finite vectors of its size.
    """

    S: object  # dense (n, n) array or Tridiagonal
    rhs: np.ndarray
    obstacle: np.ndarray
    start: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "S", check_lcp_matrix(self.S))
        self._check_vectors()

    def _check_vectors(self):
        n = self.S.diag.size if isinstance(self.S, Tridiagonal) else self.S.shape[0]
        if (self.rhs.shape != (n,) or self.obstacle.shape != (n,)
                or (self.start is not None and np.shape(self.start) != (n,))):
            raise ValueError("inconsistent LCP dimensions")
        if n == 0:
            raise ValueError("empty LCP")
        # count_nonzero is a direct loop; .all() goes through the reduction machinery
        if np.count_nonzero(np.isfinite(self.rhs)) + np.count_nonzero(np.isfinite(self.obstacle)) < 2 * n:
            raise ValueError("LCP right-hand side and obstacle must be finite")


class LcpStep(LcpProblem):
    """A problem on a matrix that ``check_lcp_matrix`` has already passed.

    A trajectory poses one problem per step on the same matrix, so it checks
    the matrix once and each step only its own vectors.
    """

    def __post_init__(self):
        self._check_vectors()


def _solve_subsystem(S, ix: np.ndarray, b: np.ndarray):
    """Solve the rows and columns ``ix`` of S against b; None if singular.

    The dense path keeps ``np.linalg.solve``: scipy's LAPACK ``gesv`` can
    come from another OpenBLAS build than numpy's and then differ from it in
    the last bit on systems of order six and up.
    """
    if not isinstance(S, Tridiagonal):
        try:
            return np.linalg.solve(S[ix[:, None], ix], b)
        except np.linalg.LinAlgError:
            return None
    if ix.size == 1:  # the gtsv wrapper refuses empty off-diagonals
        return b / S.diag[ix]
    lo, hi = ix[0], ix[-1] + 1
    if hi - lo == ix.size:  # one run of nodes, as a predicted contact prefix leaves
        dl, d, du = S.lower[lo:hi - 1].copy(), S.diag[lo:hi].copy(), S.upper[lo:hi - 1].copy()
    else:  # a sorted index subset of a tridiagonal matrix is tridiagonal
        adjacent = np.diff(ix) == 1
        dl = np.where(adjacent, S.lower[ix[:-1]], 0.0)
        d = S.diag[ix]
        du = np.where(adjacent, S.upper[ix[:-1]], 0.0)
    _, _, _, x, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)
    return None if info > 0 else x


def _solve_for_active_set(S, rhs, obstacle, active):
    """Solve with the state pinned to the obstacle on the active set."""
    inactive = ~active
    ix = inactive.nonzero()[0]
    u = obstacle.copy()
    if ix.size:
        shifted = rhs
        if np.count_nonzero(obstacle[active]):  # a zero obstacle shifts nothing
            shifted = rhs - S @ np.where(active, obstacle, 0.0)
        sol = _solve_subsystem(S, ix, shifted[ix])
        if sol is None:
            raise NumericalBreakdownError("singular linear system on an active-set iterate",
                                          active_size=int(active.sum()))
        u[ix] = sol
    lam = S @ u - rhs
    lam[inactive] = 0.0
    return u, lam


def solve_lcp(problem: LcpProblem, penalty: float = 1.0,
              max_iter: int = 100) -> tuple[np.ndarray, np.ndarray, int]:
    """Primal-dual active-set solve.

    Returns (u, lam, number of linear solves).  The iteration starts from
    ``problem.start`` (the unconstrained solve when that is None) and stops
    as soon as the updated active set
    {i : lam_i + penalty*(obstacle_i - u_i) > 0} reproduces the current
    one, which makes the final iterate feasible and exactly complementary.

    The full-set update can cycle on strongly coupled non-M matrices (the
    reduced Schur complements are the prime source).  A revisited active
    set therefore switches the iteration to least-index single toggles,
    which keep the run deterministic.  They are not guaranteed to settle:
    in floating point a node at the free boundary whose gap and multiplier
    both vanish up to rounding can make them cycle until ``max_iter``.
    """
    S, rhs, obstacle = problem.S, np.asarray(problem.rhs, float), np.asarray(problem.obstacle, float)
    if problem.start is None:
        active = np.zeros(rhs.size, dtype=bool)
    else:
        active = np.asarray(problem.start, dtype=bool)
    u, lam = _solve_for_active_set(S, rhs, obstacle, active)
    solves = 1
    key = active.tobytes()
    seen = {key}
    least_index_mode = False
    while True:
        if least_index_mode:
            gap = u - obstacle
            violated = np.flatnonzero(np.where(active, lam < 0.0, gap < 0.0))
            if violated.size == 0:
                return u, lam, solves
            new_active = active.copy()
            new_active[violated[0]] = not new_active[violated[0]]
        else:
            new_active = (lam + penalty * (obstacle - u)) > 0.0
            new_key = new_active.tobytes()
            if new_key == key:
                return u, lam, solves
            if new_key in seen:
                least_index_mode = True
                continue
            seen.add(new_key)
            key = new_key
        if solves >= max_iter:
            gap = u - obstacle
            raise SolverDivergenceError(
                f"active set did not settle after {max_iter} updates",
                min_gap=float(gap.min()),
                min_multiplier=float(lam.min()),
                complementarity=abs(float(lam @ gap)),
            )
        active = new_active
        u, lam = _solve_for_active_set(S, rhs, obstacle, active)
        solves += 1


@dataclass(frozen=True)
class StepOperators:
    """What every step of one trajectory shares: operators, load, pivots.

    ``pivots`` are those of the UL elimination S = U L, with U unit upper
    bidiagonal; ``upper_factor`` holds U in LAPACK band storage (row 0 the
    superdiagonal, row 1 the diagonal), in Fortran order.  ``S`` has passed
    ``check_lcp_matrix``.
    """

    S: Tridiagonal
    m_dt: Tridiagonal
    a_mu: Tridiagonal
    f_mu: np.ndarray
    theta: float
    pivots: np.ndarray
    upper_factor: np.ndarray

    def rhs(self, u_prev: np.ndarray) -> np.ndarray:
        """Right-hand side of the step that starts from ``u_prev``."""
        return self.m_dt @ u_prev - (1.0 - self.theta) * (self.a_mu @ u_prev) + self.f_mu

    def predict_contact(self, rhs: np.ndarray, obstacle: np.ndarray) -> np.ndarray:
        """Brennan-Schwartz guess of the active set: the prefix [0, k).

        After the upward elimination, node i would leave the obstacle when
        its forward-sweep value, with node i-1 pinned, exceeds the obstacle;
        k is the first such node.
        """
        swept = dtbsv(1, self.upper_factor, rhs)  # what a (0, 1) gbsv reduces to
        swept[1:] -= self.S.lower * obstacle[:-1]
        above = swept / self.pivots > obstacle
        k = int(np.argmax(above)) if above.any() else above.size
        return np.arange(above.size) < k


def step_operators(mu, ops: AffineOperatorSet, config: SchemeConfig) -> StepOperators:
    """Build the loop invariants of a trajectory at parameter ``mu``."""
    a_mu = ops.a_matrix(mu)
    m_dt = Tridiagonal(*(b * (1.0 / config.delta_t) for b in ops.mass))
    S = check_lcp_matrix(Tridiagonal(*(bm + config.theta * ba for bm, ba in zip(m_dt, a_mu))))

    diag, coupling = S.diag.tolist(), (S.upper * S.lower).tolist()
    pivots = [0.0] * len(diag)
    p = pivots[-1] = diag[-1]
    for i in range(len(diag) - 2, -1, -1):
        p = pivots[i] = diag[i] - coupling[i] / p
    pivots = np.array(pivots)
    upper_factor = np.ones((2, pivots.size), order="F")
    upper_factor[0, 1:] = S.upper / pivots[1:]
    return StepOperators(S=S, m_dt=m_dt, a_mu=a_mu, f_mu=ops.f_vector(mu),
                         theta=config.theta, pivots=pivots, upper_factor=upper_factor)


def theta_step(u_prev: np.ndarray, mu, ops: AffineOperatorSet,
               obstacle: ObstacleData, config: SchemeConfig,
               step: StepOperators | None = None):
    """One backward-time step; returns (u_next, lam_next, solver iterations).

    ``step`` passes the trajectory's ``step_operators(mu, ops, config)``;
    they are built here when it is None.
    """
    if step is None:
        step = step_operators(mu, ops, config)
    rhs = step.rhs(u_prev)
    psi = obstacle.psi_tilde
    return solve_lcp(LcpStep(S=step.S, rhs=rhs, obstacle=psi,
                             start=step.predict_contact(rhs, psi)))


@dataclass(frozen=True)
class Trajectory:
    """States u^0..u^L and multipliers lam^1..lam^L for one parameter.

    Row 0 of ``states`` is the lifted payoff; the scheme defines no
    multiplier for the initial time, so ``multipliers`` starts at step 1.
    """

    mu: ParameterVector
    states: np.ndarray        # (L+1, H)
    multipliers: np.ndarray   # (L, H)
    config: SchemeConfig
    pdas_iterations: np.ndarray  # (L,) linear solves per step


def solve_trajectory(mu, ops: AffineOperatorSet, obstacle: ObstacleData,
                     config: SchemeConfig) -> Trajectory:
    """March the theta-scheme from the lifted payoff over all L steps."""
    H = ops.dim
    states = np.empty((config.L + 1, H))
    multipliers = np.empty((config.L, H))
    iterations = np.empty(config.L, dtype=int)
    states[0] = obstacle.psi_tilde
    step = step_operators(mu, ops, config)
    for n in range(config.L):
        try:
            u, lam, its = theta_step(states[n], mu, ops, obstacle, config, step)
        except AmrbError as err:
            raise type(err)(f"time step {n + 1} failed: {err}",
                            step=n + 1, **err.info) from err
        states[n + 1] = u
        multipliers[n] = lam
        iterations[n] = its
    return Trajectory(mu=mu, states=states, multipliers=multipliers,
                      config=config, pdas_iterations=iterations)


def trajectory_residuals(traj: Trajectory, ops: AffineOperatorSet,
                         obstacle: ObstacleData) -> dict:
    """Worst-case feasibility, complementarity, and linear residuals."""
    cfg = traj.config
    step = step_operators(traj.mu, ops, cfg)
    psi_tilde = obstacle.psi_tilde

    min_gap = np.inf
    min_multiplier = np.inf
    max_comp = 0.0
    max_lin = 0.0
    for n in range(cfg.L):
        u = traj.states[n + 1]
        lam = traj.multipliers[n]
        rhs = step.rhs(traj.states[n])
        residual = step.S @ u - lam - rhs
        scale = max(1.0, float(np.abs(rhs).max()))
        max_lin = max(max_lin, float(np.abs(residual).max()) / scale)
        gap = u - psi_tilde
        min_gap = min(min_gap, float(gap.min()))
        min_multiplier = min(min_multiplier, float(lam.min()))
        comp_scale = 1.0 + float(np.abs(u).max()) * float(np.abs(lam).max())
        max_comp = max(max_comp, abs(float(lam @ gap)) / comp_scale)
    return {
        "min_state_gap": min_gap,
        "min_multiplier": min_multiplier,
        "max_complementarity": max_comp,
        "max_linear_residual": max_lin,
    }


def state_rows(states: np.ndarray, multipliers, mesh: Mesh1D, K: float,
               delta_t: float, source: str | None = None):
    """Yield the CSV lines (step, t, s, u, lambda, price[, source]), one
    text block per time step.

    The multiplier column for step 0 is written as nan: the scheme defines
    no multiplier there.
    """
    s = mesh.interior_nodes
    lift = K * (1.0 - s / mesh.s_f)
    s_cells = textio.fmt_floats(s)
    tail = "\n" if source is None else f",{source}\n"
    no_lam = ["nan"] * s.size
    for n in range(states.shape[0]):
        head = f"{n},{textio.fmt(n * delta_t)},"
        lam_cells = (textio.fmt_floats(multipliers[n - 1])
                     if multipliers is not None and n >= 1 else no_lam)
        yield "".join(f"{head}{x},{u},{lam},{price}{tail}" for x, u, lam, price in zip(
            s_cells, textio.fmt_floats(states[n]), lam_cells,
            textio.fmt_floats(states[n] + lift)))


def write_trajectory_csv(path, traj: Trajectory, mesh: Mesh1D,
                         source: str | None = None) -> None:
    """Trajectory export: one row per (step, node), header mandatory."""
    header = ["step", "t", "s", "u", "lambda", "price"]
    if source is not None:
        header.append("source")
    textio.write_csv(path, header, state_rows(
        traj.states, traj.multipliers, mesh, traj.mu.K, traj.config.delta_t, source))
