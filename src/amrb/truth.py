"""Full-order theta-scheme time stepper for the discrete obstacle problem.

Each backward-time step is a linear complementarity problem

    S u - lam = rhs,   u >= obstacle,   lam >= 0,   lam . (u - obstacle) = 0,

with S = mass/dt + theta * a(mu) and rhs = (mass/dt - (1-theta) * a(mu))
applied to the previous state plus the load.  Steps are solved with a
primal-dual active-set iteration: freeze a guess of the contact set, solve
the linear system with the state pinned to the obstacle there, read the
multiplier off the residual, update the set from the sign of
lam + (obstacle - u) against a tie threshold of 16 machine epsilons
times ||rhs||_inf, and stop once the set repeats.  At a fixed point
complementarity holds exactly by construction.  The threshold sets a node
whose gap and multiplier both vanish up to rounding (a failure of strict
complementarity) inactive, whatever the start; see ``solve_lcp``.

Truth steps predict the contact set, then let the iteration certify it.
The operators come as the bands of ``amrb.fem.Tridiagonal``, and only the
previous state changes between the steps of a trajectory, so
``step_operators`` builds once per trajectory a ``StepOperators``: the
bands of S, mass/dt and a(mu) (``ops.a_matrix``), the load, and the UL
factors of S (a Brennan-Schwartz elimination from the last node up, LAPACK
``gttrf`` on the reversed bands).  ``theta_step(u_prev, step, psi)`` is
then one step against the lifted obstacle psi.
The put is exercised on one interval [0, k) of low asset prices; the
projected forward sweep of Brennan and Schwartz (1977) predicts k with one
bidiagonal solve, and the iteration starts from [0, k).  A correct guess
is reproduced by the first update, so one solve certifies it (Hintermueller,
Ito and Kunisch, 2003).  A wrong guess costs further iterations but still
ends at the exact solution; so does the empty guess made where the
elimination would need row interchanges.

On tridiagonal matrices each iteration costs O(H).  Every prefix active
set is solved on the trajectory's UL factors: the elimination runs from
the last node up, so the trailing blocks of U and L factor S[k:, k:].  The
step's one sweep U^-1 rhs (BLAS ``tbsv``), which the predictor also reads,
holds the trailing part of every such solve; pinning [0, k) changes row k
only, and one lower-bidiagonal ``tbsv`` over [k, H) is left.  LAPACK
``gtsv`` still solves every other active set, and every set of a matrix
without UL pivots.  An iterate depends on the right-hand side and the
active set only, whichever path solves it.  Dense inputs (the
reduced-order Schur complements and small test problems) take a dense path
through LAPACK ``gesv``, from the empty set unless the caller passes a
start.  A trajectory checks its step matrix once (``check_lcp_matrix``)
and poses every step as an ``LcpStep``, which checks only that step's
vectors; a non-finite one there means the state blew up and raises
``NumericalBreakdownError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgesv, dgtsv, dgttrf

from .errors import AmrbError, AssemblyError, NumericalBreakdownError, SolverDivergenceError
from .fem import AffineOperatorSet, Mesh1D, ObstacleData, ParameterVector, Tridiagonal
from . import textio

# ties in the active-set update are broken within TIE_TOL * ||rhs||_inf of zero
TIE_TOL = 16.0 * np.finfo(float).eps

# the truth contract: the range of each ``trajectory_residuals`` entry
CONTRACT = {
    "min_state_gap": (-1e-9, math.inf),
    "min_multiplier": (-1e-12, math.inf),
    "max_complementarity": (-math.inf, 1e-9),
    "max_linear_residual": (-math.inf, 1e-10),
}


@dataclass(frozen=True)
class SchemeConfig:
    """Time grid: horizon T split into L steps, weight theta in [1/2, 1]
    (below 1/2 the scheme is stable only under a step-size bound)."""

    T: float
    L: int
    theta: float

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError(f"horizon must be positive and finite, got T={self.T}")
        if self.L < 1:
            raise ValueError(f"need at least one time step, got L={self.L}")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [1/2, 1], got {self.theta}")

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
    finite vectors of its size (``ValueError`` otherwise).  ``rhs_scale``
    is ||rhs||_inf, found by the finiteness check.  ``ul`` optionally
    passes (U^-1 rhs, L) for a tridiagonal S = U L factored without row
    interchanges, as ``StepOperators.sweep`` and ``lower_factor`` give them;
    prefix active sets are then solved on those factors.
    """

    S: object  # dense (n, n) array or Tridiagonal
    rhs: np.ndarray
    obstacle: np.ndarray
    start: np.ndarray | None = None
    ul: tuple[np.ndarray, np.ndarray] | None = None
    rhs_scale: float = field(init=False, repr=False, compare=False)

    non_finite = ValueError  # raised for a non-finite rhs or obstacle

    def __post_init__(self):
        object.__setattr__(self, "S", check_lcp_matrix(self.S))
        self._check_vectors()

    def _check_vectors(self):
        S, rhs, obstacle = self.S, self.rhs, self.obstacle
        n = S.diag.size if isinstance(S, Tridiagonal) else S.shape[0]
        if (rhs.shape != (n,) or obstacle.shape != (n,)
                or (self.start is not None and np.shape(self.start) != (n,))
                or (self.ul is not None and self.ul[0].shape != (n,))):
            raise ValueError("inconsistent LCP dimensions")
        if n == 0:
            raise ValueError("empty LCP")
        # nan or inf unless rhs is finite; the ufunc's reduce skips ndarray.max's
        # Python wrapper, and count_nonzero is a direct loop where .all() is not
        scale = float(np.maximum.reduce(np.abs(rhs)))
        if not math.isfinite(scale) or np.count_nonzero(np.isfinite(obstacle)) < n:
            raise self.non_finite("LCP right-hand side and obstacle must be finite")
        object.__setattr__(self, "rhs_scale", scale)


class LcpStep(LcpProblem):
    """A problem on a matrix that ``check_lcp_matrix`` has already passed.

    A trajectory poses one problem per step on the same matrix, so it checks
    the matrix once and each step only its own vectors.  Those vectors come
    from the trajectory's own arithmetic, so a non-finite one means the state
    blew up: it raises ``NumericalBreakdownError``, not ``ValueError``.
    """

    non_finite = NumericalBreakdownError

    def __post_init__(self):
        self._check_vectors()


def _solve_subsystem(S, ix: np.ndarray, b: np.ndarray):
    """Solve the rows and columns ``ix`` of S against b; None if singular."""
    if not isinstance(S, Tridiagonal):  # both operands are fresh copies
        _, _, x, info = dgesv(S.take(ix, 0).take(ix, 1), b, 1, 1)
        return None if info > 0 else x
    if ix.size == 1:  # the gtsv wrapper refuses empty off-diagonals
        return b / S.diag[ix]
    # a sorted index subset of a tridiagonal matrix is tridiagonal
    adjacent = np.diff(ix) == 1
    dl = np.where(adjacent, S.lower[ix[:-1]], 0.0)
    d = S.diag[ix]
    du = np.where(adjacent, S.upper[ix[:-1]], 0.0)
    _, _, _, x, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)
    return None if info > 0 else x


def _solve_prefix(S: Tridiagonal, rhs, obstacle, k: int, swept, lower_factor):
    """Solve with the state pinned to the obstacle on the prefix [0, k).

    S = U L, eliminated from the last node up, so the trailing blocks of U
    and L factor S[k:, k:].  ``swept`` = U^-1 rhs already holds the trailing
    sweep; pinning nodes below k changes only row k, by the coupling
    lower[k-1] * obstacle[k-1].  With L = D M (``ul_factor``), a
    division by the pivots and one unit lower-bidiagonal solve are left.
    Only the pinned rows carry a multiplier; each is summed as ``S @ u``
    sums its row.
    """
    u = obstacle.copy()
    if k < u.size:
        pivots = lower_factor[0, k:]
        free = u[k:]
        np.divide(swept[k:], pivots, out=free)
        if k:
            free[0] = (swept[k] - S.lower[k - 1] * obstacle[k - 1]) / pivots[0]
        dtbsv(1, lower_factor[:, k:], free, lower=1, diag=1, overwrite_x=1)
    lam = np.zeros(u.size)
    if k:
        head = lam[:k]
        np.multiply(S.diag[:k], u[:k], out=head)
        head[1:] += S.lower[:k - 1] * u[:k - 1]
        upper = S.upper[:k]
        head[:upper.size] += upper * u[1:k + 1]
        head -= rhs[:k]
    return u, lam


def _solve_for_active_set(S, rhs, obstacle, active, pinned_obstacle, ul=None):
    """Solve with the state pinned to the obstacle on the active set.

    ``pinned_obstacle`` False says the obstacle is zero, so pinning shifts
    nothing.  ``ul`` is ``LcpProblem.ul``: with it, a prefix active set is
    solved on the UL factors, and any other set by ``_solve_subsystem``.
    """
    if ul is not None:
        k = np.count_nonzero(active)
        if not active[k:].any():  # the prefix [0, k)
            return _solve_prefix(S, rhs, obstacle, k, *ul)
    inactive = ~active
    ix = inactive.nonzero()[0]
    if pinned_obstacle and ix.size < active.size:
        u = np.where(active, obstacle, 0.0)
        shifted = rhs - S @ u
    else:
        u, shifted = obstacle.copy(), rhs
    if ix.size:
        sol = _solve_subsystem(S, ix, shifted[ix])
        if sol is None:
            raise NumericalBreakdownError("singular linear system on an active-set iterate",
                                          active_size=int(active.sum()))
        u[ix] = sol
    lam = S @ u - rhs
    lam[inactive] = 0.0
    return u, lam


def solve_lcp(problem: LcpProblem, max_iter: int = 100) -> tuple[np.ndarray, np.ndarray, int]:
    """Primal-dual active-set solve.

    Returns (u, lam, number of linear solves).  The iteration starts from
    ``problem.start`` (the unconstrained solve when that is None) and stops
    as soon as the updated active set
    {i : lam_i + (obstacle_i - u_i) > tol} reproduces the current
    one, which makes the final iterate feasible and exactly complementary.

    ``tol = TIE_TOL * ||rhs||_inf`` (``TIE_TOL`` is 16 machine epsilons)
    breaks ties; it is a property of the iteration, not a relaxed check.
    An iterate has a zero gap on its active nodes and a zero multiplier on
    its inactive ones, so a node whose gap and multiplier both vanish to
    within tol is set inactive whatever the start.  Such a node is where
    strict complementarity fails; with a zero threshold its rounding can
    make it flip on every update.  At the fixed point active nodes carry
    multipliers above tol and inactive nodes lie at most tol below the
    obstacle.

    The full-set update can still cycle on strongly coupled non-M matrices
    (the reduced Schur complements are the prime source), and on a tie
    whose rounding exceeds tol, as the free value of a node can on an
    ill-conditioned dense system.  A revisited active set therefore
    switches the iteration to least-index single toggles of the first node
    with a negative multiplier (active) or a negative gap (inactive), which
    keep the run deterministic and stop only at exact signs.
    """
    S, rhs, obstacle = problem.S, np.asarray(problem.rhs, float), np.asarray(problem.obstacle, float)
    tol = TIE_TOL * problem.rhs_scale
    pinned_obstacle = np.count_nonzero(obstacle) > 0
    if problem.start is None:
        active = np.zeros(rhs.size, dtype=bool)
    else:
        active = np.asarray(problem.start, dtype=bool)
    u, lam = _solve_for_active_set(S, rhs, obstacle, active, pinned_obstacle, problem.ul)
    solves = 1
    key = active.tobytes()
    seen = {key}
    least_index_mode = False
    while True:
        if least_index_mode:
            violated = np.flatnonzero(np.where(active, lam < 0.0, u < obstacle))
            if violated.size == 0:
                return u, lam, solves
            new_active = active.copy()
            new_active[violated[0]] = not new_active[violated[0]]
        else:
            new_active = (lam + (obstacle - u)) > tol
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
        u, lam = _solve_for_active_set(S, rhs, obstacle, active, pinned_obstacle, problem.ul)
        solves += 1


@dataclass(frozen=True)
class StepOperators:
    """What every step of one trajectory shares: operators, load, factors.

    ``upper_factor`` and ``lower_factor`` are those of ``ul_factor(S)``, or
    both None where it finds no UL pivots.  ``S`` has passed
    ``check_lcp_matrix``.
    """

    S: Tridiagonal
    m_dt: Tridiagonal
    a_mu: Tridiagonal
    f_mu: np.ndarray
    theta: float
    upper_factor: np.ndarray | None
    lower_factor: np.ndarray | None

    def rhs(self, u_prev: np.ndarray) -> np.ndarray:
        """Right-hand side of the step that starts from ``u_prev``."""
        return self.m_dt @ u_prev - (1.0 - self.theta) * (self.a_mu @ u_prev) + self.f_mu

    def sweep(self, rhs: np.ndarray) -> np.ndarray | None:
        """U^-1 rhs, the upward elimination of rhs; None without pivots."""
        if self.upper_factor is None:
            return None
        return dtbsv(1, self.upper_factor, rhs, diag=1)  # what a (0, 1) gbsv reduces to

    def predict_contact(self, swept: np.ndarray | None, obstacle: np.ndarray) -> np.ndarray:
        """Brennan-Schwartz guess of the active set: the prefix [0, k).

        ``swept`` is ``sweep(rhs)``.  After the upward elimination, node i
        would leave the obstacle when its forward-sweep value, with node i-1
        pinned, exceeds the obstacle; k is the first such node.  Without
        pivots the guess is the empty prefix, which the iteration corrects
        as it does any wrong guess.
        """
        if self.lower_factor is None:
            return np.zeros(obstacle.size, dtype=bool)
        pinned = swept.copy()
        pinned[1:] -= self.S.lower * obstacle[:-1]
        above = pinned / self.lower_factor[0] > obstacle
        k = int(np.argmax(above)) if above.any() else above.size
        return np.arange(above.size) < k


def ul_factor(S: Tridiagonal):
    """Factors of the UL elimination S = U L, in BLAS band storage.

    Eliminating from the last node up is LU on the reversed bands, which is
    LAPACK ``gttrf``.  U is unit upper bidiagonal: ``upper_factor`` holds
    it with row 0 the superdiagonal, upper[i] / pivots[i + 1], and row 1
    the diagonal.  L = D M, with D the pivots and M unit lower bidiagonal,
    M[i+1, i] = lower[i] / pivots[i + 1]: ``lower_factor`` holds the pivots
    in row 0 and that subdiagonal in row 1, so that BLAS reads it as M with
    a unit diagonal.  Both are in Fortran order.  Returns (upper_factor,
    lower_factor), or (None, None) when ``gttrf`` finds S singular or swaps
    rows, so that it computed no UL pivots, and below three nodes, which
    scipy's ``gttrf`` wrapper rejects.
    """
    n = S.diag.size
    if n < 3:
        return None, None
    multipliers, pivots, _, _, ipiv, info = dgttrf(
        S.upper[::-1].copy(), S.diag[::-1].copy(), S.lower[::-1].copy(), 1, 1, 1)
    if info > 0 or np.count_nonzero(ipiv != np.arange(1, n + 1)):
        return None, None
    upper_factor = np.ones((2, n), order="F")
    upper_factor[0, 1:] = multipliers[::-1]
    lower_factor = np.zeros((2, n), order="F")
    lower_factor[0] = pivots[::-1]
    lower_factor[1, :-1] = S.lower / lower_factor[0, 1:]
    return upper_factor, lower_factor


def step_operators(mu, ops: AffineOperatorSet, config: SchemeConfig) -> StepOperators:
    """Build the loop invariants of a trajectory at parameter ``mu``.

    Market parameters whose operator overflows, or whose step matrix is not
    usable, raise ``AssemblyError``.
    """
    m_dt = Tridiagonal(*(b * (1.0 / config.delta_t) for b in ops.mass))
    try:
        a_mu = ops.a_matrix(mu)
        S = check_lcp_matrix(Tridiagonal(*(bm + config.theta * ba for bm, ba in zip(m_dt, a_mu))))
    except (OverflowError, ValueError) as err:
        raise AssemblyError(f"step matrix at mu={mu} is unusable: {err}") from err
    upper_factor, lower_factor = ul_factor(S)
    return StepOperators(S=S, m_dt=m_dt, a_mu=a_mu, f_mu=ops.f_vector(mu), theta=config.theta,
                         upper_factor=upper_factor, lower_factor=lower_factor)


def theta_step(u_prev: np.ndarray, step: StepOperators, psi: np.ndarray):
    """One backward-time step against the lifted obstacle ``psi``; returns
    (u_next, lam_next, solver iterations)."""
    rhs = step.rhs(u_prev)
    swept = step.sweep(rhs)
    return solve_lcp(LcpStep(S=step.S, rhs=rhs, obstacle=psi,
                             start=step.predict_contact(swept, psi),
                             ul=None if swept is None else (swept, step.lower_factor)))


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
            u, lam, its = theta_step(states[n], step, obstacle.psi_tilde)
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


def contract_breaches(residuals: dict) -> list[str]:
    """The ``trajectory_residuals`` entries outside the ``CONTRACT`` range
    (a NaN is outside every range)."""
    return [name for name, (lo, hi) in CONTRACT.items() if not lo <= residuals[name] <= hi]


def state_rows(states: np.ndarray, multipliers, mesh: Mesh1D, K: float,
               delta_t: float, source: str | None = None):
    """Yield the CSV lines (step, t, s, u, lambda, price[, source]), one
    text block per time step.

    The multiplier column for step 0 is written as nan: the scheme defines
    no multiplier there.  Each block is one ``%`` call on the template
    ``"{n},{t},%s,%.17g,%.17g,%.17g{tail}" * H``, whose cells are the s
    column (rendered once by ``fmt_floats``) interleaved with the step's
    u, lambda and price.  The head holds numbers only; the tail's ``%`` is
    escaped.  Adding 0.0 to the float arrays once makes -0.0 render as 0,
    as ``fmt`` renders it; nan and +-inf render as ``format`` renders them.
    """
    s = mesh.interior_nodes
    prices = states + K * (1.0 - s / mesh.s_f) + 0.0
    states = states + 0.0
    lam = np.full(states.shape, np.nan)
    if multipliers is not None:
        lam[1:] = multipliers + 0.0
    tail = "\n" if source is None else f",{source}\n"
    line = "%s,%.17g,%.17g,%.17g" + tail.replace("%", "%%")
    cells = [None] * (4 * s.size)
    cells[0::4] = textio.fmt_floats(s)
    for n in range(states.shape[0]):
        head = f"{n},{textio.fmt(n * delta_t)},"
        cells[1::4] = states[n].tolist()
        cells[2::4] = lam[n].tolist()
        cells[3::4] = prices[n].tolist()
        yield (head + line) * s.size % tuple(cells)


def write_trajectory_csv(path, traj: Trajectory, mesh: Mesh1D,
                         source: str | None = None) -> None:
    """Trajectory export: one row per (step, node), header mandatory."""
    header = ["step", "t", "s", "u", "lambda", "price"]
    if source is not None:
        header.append("source")
    textio.write_csv(path, header, state_rows(
        traj.states, traj.multipliers, mesh, traj.mu.K, traj.config.delta_t, source))
