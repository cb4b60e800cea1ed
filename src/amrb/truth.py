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
``step_operators(mu, ops, config, psi)`` builds once per trajectory a
``StepOperators``: the bands of S and of mass/dt - (1-theta) a(mu) (from
``step_bands``, all that the residual check needs besides the load), the
load, the lifted obstacle psi and its products with S, and the UL factors
of S (a Brennan-Schwartz elimination from the last node up, LAPACK
``gttrf`` on the reversed bands).  ``theta_step(u_prev, step)`` is then
one step, whose right-hand side is one band product plus the load.
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
only, and one lower-bidiagonal ``tbsv`` over [k, H) is left.  The
multipliers on [0, k) are read off S psi - rhs, with row k-1, which holds
the free u[k], summed again.  LAPACK ``gtsv`` still solves every other
active set, and every set of a matrix without UL pivots.  An iterate
depends on the right-hand side and the active set only, whichever path
solves it.  Dense inputs (the reduced-order Schur complements and small
test problems) take a dense path through LAPACK ``gesv``, from the empty
set unless the caller passes a start; whether pinning shifts their
right-hand side is decided once per call.

A trajectory allocates nothing per step.  ``solve_trajectory`` allocates
one (2L + 1, H) block, whose leading L + 1 rows are the returned states
and trailing L rows the multipliers (both views of it), and each step's
iterates are solved straight into its two rows.  The step's right-hand
side, sweep and predicted contact set fill a workspace that
``step_operators`` makes once per trajectory; the arrays the step
methods return are that workspace, overwritten by the next step.

``solve_lcp`` takes one problem's arrays and checks only the right-hand
side.  A trajectory checks its step matrix (``check_lcp_matrix``) and
obstacle once and passes each step's arrays straight in, building no
problem object per step.  A non-finite right-hand side means the state
blew up; it and a non-finite obstacle raise ``NumericalBreakdownError``.
``LcpProblem`` checks a single problem whole for callers that pose one,
and raises ``ValueError``.
"""

from __future__ import annotations

import functools
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

# active-set updates after which ``solve_lcp`` gives up
MAX_ITER = 100

# floats per block of steps that ``trajectory_residuals`` checks at once
RESIDUAL_FLOATS = 2 ** 14

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
    """One complementarity problem S u - lam = rhs against a lower obstacle,
    checked whole, for callers that pose a single problem.

    ``start`` is the active set the iteration starts from (empty if None).
    The matrix goes through ``check_lcp_matrix``; rhs and obstacle must be
    finite vectors of its size, and start and ``ul`` must fit it
    (``ValueError`` otherwise).  ``ul`` optionally passes (U^-1 rhs, L,
    S obstacle) for a tridiagonal S = U L factored without row
    interchanges, as ``StepOperators`` gives them; prefix active sets are
    then solved on those factors.  ``solve`` runs ``solve_lcp`` on it.
    """

    S: object  # dense (n, n) array or Tridiagonal
    rhs: np.ndarray
    obstacle: np.ndarray
    start: np.ndarray | None = None
    ul: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        S = check_lcp_matrix(self.S)
        n = S.diag.size if isinstance(S, Tridiagonal) else S.shape[0]
        rhs, obstacle = np.asarray(self.rhs, dtype=float), np.asarray(self.obstacle, dtype=float)
        start = None if self.start is None else np.asarray(self.start, dtype=bool)
        if (rhs.shape != (n,) or obstacle.shape != (n,)
                or (start is not None and start.shape != (n,))
                or (self.ul is not None and self.ul[0].shape != (n,))):
            raise ValueError("inconsistent LCP dimensions")
        if n == 0:
            raise ValueError("empty LCP")
        if not np.isfinite(rhs).all():
            raise ValueError("LCP right-hand side must be finite")
        if not np.isfinite(obstacle).all():
            raise ValueError("LCP obstacle must be finite")
        for name, value in (("S", S), ("rhs", rhs), ("obstacle", obstacle), ("start", start)):
            object.__setattr__(self, name, value)

    def solve(self) -> tuple[np.ndarray, np.ndarray, int]:
        """``solve_lcp`` on this problem: (u, lam, number of linear solves)."""
        return solve_lcp(self.S, self.rhs, self.obstacle, self.start, self.ul)


def _singular(active: np.ndarray) -> NumericalBreakdownError:
    return NumericalBreakdownError("singular linear system on an active-set iterate",
                                   active_size=int(active.sum()))


def _solve_prefix(S: Tridiagonal, rhs, obstacle, k: int, swept, lower_factor, s_obstacle,
                  u, lam):
    """Solve with the state pinned to the obstacle on the prefix [0, k),
    into ``u`` and ``lam``.

    S = U L, eliminated from the last node up, so the trailing blocks of U
    and L factor S[k:, k:].  ``swept`` = U^-1 rhs already holds the trailing
    sweep; pinning nodes below k changes only row k, by the coupling
    lower[k-1] * obstacle[k-1].  With L = D M (``ul_factor``), a
    division by the pivots and one unit lower-bidiagonal solve are left.
    Only the pinned rows carry a multiplier: (S obstacle - rhs) on [0, k)
    from ``s_obstacle`` = S obstacle, except row k-1, which reads the free
    u[k] and is summed as ``S @ u`` sums a row.
    """
    u[:k] = obstacle[:k]
    lam[k:] = 0.0
    if k:
        np.subtract(s_obstacle[:k], rhs[:k], out=lam[:k])
    if k < u.size:
        pivots = lower_factor[0, k:]
        free = u[k:]
        np.divide(swept[k:], pivots, out=free)
        if k:
            free[0] = (swept[k] - S.lower[k - 1] * obstacle[k - 1]) / pivots[0]
        dtbsv(1, lower_factor[:, k:], free, lower=1, diag=1, overwrite_x=1)
        if k:
            i = k - 1
            row = S.diag[i] * u[i]
            if i:
                row += S.lower[i - 1] * u[i - 1]
            lam[i] = row + S.upper[i] * u[k] - rhs[i]
    return u, lam


def _solve_banded(S: Tridiagonal, rhs, obstacle, ul, u, lam, active):
    """Solve a tridiagonal problem with the state pinned to the obstacle on
    the active set, into ``u`` and ``lam``.

    With ``ul`` (see ``solve_lcp``), a prefix active set is solved on the
    UL factors; any other set by LAPACK ``gtsv`` on the inactive rows and
    columns, a sorted index subset of a tridiagonal matrix being
    tridiagonal.  Pinning shifts the right-hand side only where the
    obstacle is nonzero; that is tested per solve, since most truth solves
    take the prefix path and never need it.
    """
    if ul is not None:
        k = np.count_nonzero(active)
        if not active[k:].any():  # the prefix [0, k)
            return _solve_prefix(S, rhs, obstacle, k, *ul, u, lam)
    inactive = ~active
    ix = inactive.nonzero()[0]
    np.copyto(u, obstacle)
    if ix.size < active.size and np.count_nonzero(obstacle):
        u[ix] = 0.0
        b = (rhs - S @ u)[ix]
    else:
        b = rhs[ix]
    if ix.size == 1:  # the gtsv wrapper refuses empty off-diagonals
        u[ix] = b / S.diag[ix]
    elif ix.size:
        adjacent = np.diff(ix) == 1
        dl = np.where(adjacent, S.lower[ix[:-1]], 0.0)
        du = np.where(adjacent, S.upper[ix[:-1]], 0.0)
        _, _, _, x, info = dgtsv(dl, S.diag[ix], du, b, 1, 1, 1, 1)
        if info > 0:
            raise _singular(active)
        u[ix] = x
    np.subtract(S @ u, rhs, out=lam)
    lam[inactive] = 0.0
    return u, lam


def _solve_dense(S: np.ndarray, rhs, obstacle, pinned: bool, active):
    """Solve a dense problem with the state pinned to the obstacle on the
    active set, by LAPACK ``gesv`` on the inactive rows and columns.

    ``pinned`` says whether the obstacle has a nonzero entry, where pinning
    shifts the right-hand side; ``solve_lcp`` finds it once per call.
    """
    inactive = ~active
    ix = inactive.nonzero()[0]
    if pinned and ix.size < active.size:
        u = np.where(active, obstacle, 0.0)
        b = (rhs - S @ u)[ix]
    else:
        u, b = obstacle.copy(), rhs[ix]
    if ix.size:
        _, _, x, info = dgesv(S.take(ix, 0).take(ix, 1), b, 1, 1)  # both fresh copies
        if info > 0:
            raise _singular(active)
        u[ix] = x
    lam = S @ u - rhs
    lam[inactive] = 0.0
    return u, lam


def solve_lcp(S, rhs: np.ndarray, obstacle: np.ndarray, start: np.ndarray | None = None,
              ul=None, out=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Primal-dual active-set solve of S u - lam = rhs, u >= obstacle,
    lam >= 0, lam . (u - obstacle) = 0.

    Returns (u, lam, number of linear solves).  S (a ``Tridiagonal`` or a
    square dense array) and the obstacle are taken as checked: S by
    ``check_lcp_matrix``, the obstacle finite and of S's size, as a
    trajectory checks them once and ``LcpProblem`` checks a single
    problem.  Only the float vector rhs is checked here, for its shape
    (``ValueError``) and finiteness: a non-finite rhs raises
    ``NumericalBreakdownError``, since a trajectory computes it from its
    own states.  ``start`` is a boolean active set (empty if None);
    ``ul`` is as in ``LcpProblem``.  For a tridiagonal S, ``out`` may pass
    two float vectors (u, lam) of its size, such as a trajectory's rows:
    every iterate is solved into them, and they are returned.  Without
    it, and always on the dense path, u and lam are fresh arrays.

    The iteration starts from ``start`` and stops as soon as the updated
    active set {i : lam_i + (obstacle_i - u_i) > tol} reproduces the
    current one, which makes the final iterate feasible and exactly
    complementary.

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
    if rhs.shape != obstacle.shape:
        raise ValueError("inconsistent LCP dimensions")
    # nan or inf unless rhs is finite; the ufunc's reduce skips ndarray.max's
    # Python wrapper
    scale = float(np.maximum.reduce(np.abs(rhs)))
    if not math.isfinite(scale):
        raise NumericalBreakdownError("LCP right-hand side must be finite")
    tol = TIE_TOL * scale
    if isinstance(S, Tridiagonal):
        u, lam = (np.empty(rhs.size), np.empty(rhs.size)) if out is None else out
        solve = functools.partial(_solve_banded, S, rhs, obstacle, ul, u, lam)
    else:
        pinned = bool(np.count_nonzero(obstacle))
        solve = functools.partial(_solve_dense, S, rhs, obstacle, pinned)
    active = np.zeros(rhs.size, dtype=bool) if start is None else start
    u, lam = solve(active)
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
        if solves >= MAX_ITER:
            gap = u - obstacle
            raise SolverDivergenceError(
                f"active set did not settle after {MAX_ITER} updates",
                min_gap=float(gap.min()),
                min_multiplier=float(lam.min()),
                complementarity=abs(float(lam @ gap)),
            )
        active = new_active
        u, lam = solve(active)
        solves += 1


def _band_product(T: Tridiagonal, x: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """T @ x along the last axis of x (one vector, or the rows of a block)
    into ``out``, each row summed lower, diagonal, upper as ``Tridiagonal @``
    sums it; ``scratch`` is a buffer of out's shape."""
    np.multiply(T.diag, x, out=out)
    np.multiply(T.lower, x[..., :-1], out=scratch[..., 1:])
    out[..., 1:] += scratch[..., 1:]
    np.multiply(T.upper, x[..., 1:], out=scratch[..., :-1])
    out[..., :-1] += scratch[..., :-1]
    return out


@dataclass(frozen=True)
class StepOperators:
    """What every step of one trajectory shares: operators, load, obstacle,
    factors and a workspace.

    ``explicit`` is mass/dt - (1 - theta) a(mu), the bands that act on the
    previous state.  ``psi`` is the lifted obstacle, checked finite;
    ``coupling`` = lower * psi[:-1] is what pinning node i-1 takes off row
    i, and ``s_psi`` = S psi.  ``upper_factor`` and ``lower_factor`` are
    those of ``ul_factor(S)``, or both None where it finds no UL pivots.
    ``S`` has passed ``check_lcp_matrix``.

    The workspace is made with the object, sized by ``psi`` (so
    ``dataclasses.replace`` gives a copy its own): three float vectors and
    a boolean mask.  ``rhs``, ``sweep`` and ``predict_contact`` fill it in
    place and return its arrays, which the next step overwrites.
    """

    S: Tridiagonal
    explicit: Tridiagonal
    f_mu: np.ndarray
    psi: np.ndarray
    coupling: np.ndarray
    s_psi: np.ndarray
    upper_factor: np.ndarray | None
    lower_factor: np.ndarray | None
    work: np.ndarray = field(init=False, repr=False)     # (3, H): rhs, sweep, scratch
    contact: np.ndarray = field(init=False, repr=False)  # (H,) predicted active set

    def __post_init__(self):
        object.__setattr__(self, "work", np.empty((3, self.psi.size)))
        object.__setattr__(self, "contact", np.zeros(self.psi.size, dtype=bool))

    def rhs(self, u_prev: np.ndarray) -> np.ndarray:
        """Right-hand side of the step that starts from ``u_prev``: one band
        product plus the load, in the workspace."""
        rhs = _band_product(self.explicit, u_prev, self.work[0], self.work[2])
        rhs += self.f_mu
        return rhs

    def sweep(self, rhs: np.ndarray) -> np.ndarray | None:
        """U^-1 rhs, the upward elimination of rhs, in the workspace; None
        without pivots."""
        if self.upper_factor is None:
            return None
        swept = self.work[1]
        swept[...] = rhs
        dtbsv(1, self.upper_factor, swept, diag=1, overwrite_x=1)  # a (0, 1) gbsv, in place
        return swept

    def predict_contact(self, swept: np.ndarray | None) -> np.ndarray:
        """Brennan-Schwartz guess of the active set: the prefix [0, k), as
        the workspace's mask.

        ``swept`` is ``sweep(rhs)``.  After the upward elimination, node i
        would leave the obstacle when its forward-sweep value, with node i-1
        pinned, exceeds the obstacle; k is the first such node.  Without
        pivots the guess is the empty prefix, which the iteration corrects
        as it does any wrong guess.
        """
        above = self.contact
        if self.lower_factor is None:
            return above  # never written: the empty prefix
        pinned = self.work[2]
        pinned[0] = swept[0]
        np.subtract(swept[1:], self.coupling, out=pinned[1:])
        pinned /= self.lower_factor[0]
        np.greater(pinned, self.psi, out=above)
        k = int(above.argmax())
        if not above[k]:  # no node leaves the obstacle
            k = above.size
        above[:k] = True
        above[k:] = False
        return above


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


def step_bands(mu, ops: AffineOperatorSet,
               config: SchemeConfig) -> tuple[Tridiagonal, Tridiagonal]:
    """The bands of a trajectory's step at parameter ``mu``: the step matrix
    S = mass/dt + theta a(mu), checked by ``check_lcp_matrix``, and the
    explicit part mass/dt - (1 - theta) a(mu).

    Market parameters whose operator overflows, or whose step matrix is not
    usable, raise ``AssemblyError``.
    """
    m_dt = Tridiagonal(*(b * (1.0 / config.delta_t) for b in ops.mass))
    try:
        a_mu = ops.a_matrix(mu)
        S = check_lcp_matrix(Tridiagonal(*(bm + config.theta * ba for bm, ba in zip(m_dt, a_mu))))
        explicit = Tridiagonal(*(bm - (1.0 - config.theta) * ba for bm, ba in zip(m_dt, a_mu)))
    except (OverflowError, ValueError) as err:
        raise AssemblyError(f"step matrix at mu={mu} is unusable: {err}") from err
    return S, explicit


def step_operators(mu, ops: AffineOperatorSet, config: SchemeConfig,
                   psi: np.ndarray) -> StepOperators:
    """Build the loop invariants of a trajectory at parameter ``mu`` against
    the lifted obstacle ``psi``.

    Fails as ``step_bands`` does; a non-finite ``psi`` raises
    ``NumericalBreakdownError``, as a non-finite step right-hand side does.
    """
    S, explicit = step_bands(mu, ops, config)
    if np.count_nonzero(np.isfinite(psi)) < psi.size:
        raise NumericalBreakdownError("LCP obstacle must be finite")
    upper_factor, lower_factor = ul_factor(S)
    return StepOperators(S=S, explicit=explicit, f_mu=ops.f_vector(mu), psi=psi,
                         coupling=S.lower * psi[:-1], s_psi=S @ psi,
                         upper_factor=upper_factor, lower_factor=lower_factor)


def theta_step(u_prev: np.ndarray, step: StepOperators, out):
    """One backward-time step against ``step.psi``, solved into ``out`` =
    (u, lam) as ``solve_lcp`` does; returns (u_next, lam_next, solver
    iterations)."""
    rhs = step.rhs(u_prev)
    swept = step.sweep(rhs)
    return solve_lcp(step.S, rhs, step.psi, step.predict_contact(swept),
                     None if swept is None else (swept, step.lower_factor, step.s_psi),
                     out=out)


@dataclass(frozen=True)
class Trajectory:
    """States u^0..u^L and multipliers lam^1..lam^L for one parameter.

    Row 0 of ``states`` is the lifted payoff; the scheme defines no
    multiplier for the initial time, so ``multipliers`` starts at step 1.
    ``solve_trajectory`` allocates the two as the leading L + 1 and the
    trailing L rows of one C-ordered (2L + 1, H) block, so both are views
    of it.
    """

    mu: ParameterVector
    states: np.ndarray        # (L+1, H)
    multipliers: np.ndarray   # (L, H)
    config: SchemeConfig
    pdas_iterations: np.ndarray  # (L,) linear solves per step


def solve_trajectory(mu, ops: AffineOperatorSet, obstacle: ObstacleData,
                     config: SchemeConfig) -> Trajectory:
    """March the theta-scheme from the lifted payoff over all L steps.

    One block holds the result, and every iterate of step n is solved
    straight into its rows ``states[n + 1]`` and ``multipliers[n]``; the
    steps' other vectors live in the ``StepOperators`` workspace.
    """
    L = config.L
    block = np.empty((2 * L + 1, ops.dim))
    states, multipliers = block[:L + 1], block[L + 1:]
    iterations = np.empty(L, dtype=int)
    states[0] = obstacle.psi_tilde
    step = step_operators(mu, ops, config, obstacle.psi_tilde)
    for n in range(L):
        try:
            iterations[n] = theta_step(states[n], step, (states[n + 1], multipliers[n]))[2]
        except AmrbError as err:
            raise type(err)(f"time step {n + 1} failed: {err}",
                            step=n + 1, **err.info) from err
    return Trajectory(mu=mu, states=states, multipliers=multipliers,
                      config=config, pdas_iterations=iterations)


def _residual_rows(S: Tridiagonal, explicit: Tridiagonal, f_mu, psi, states, lam, work):
    """Residual figures of the steps from ``states[:-1]`` to ``states[1:]``
    with multipliers ``lam``, one entry per step: (min gap, min multiplier,
    complementarity, linear residual).

    The band products run along the rows, as each step formed its
    right-hand side; ``work`` is a (3, rows, H) block with a row per step,
    and the complementarity is one dot product per step.
    """
    rhs, residual, gap = work[:, :lam.shape[0]]
    after = states[1:]
    _band_product(explicit, states[:-1], rhs, gap)
    rhs += f_mu
    _band_product(S, after, residual, gap)
    residual -= lam
    residual -= rhs
    scale = np.maximum(np.abs(rhs, out=rhs).max(axis=1), 1.0)
    linear = np.abs(residual, out=residual).max(axis=1) / scale
    np.subtract(after, psi, out=gap)
    comp_scale = 1.0 + np.abs(after, out=residual).max(axis=1) * np.abs(lam, out=rhs).max(axis=1)
    comp = np.array([abs(float(lam_n @ gap_n)) for lam_n, gap_n in zip(lam, gap)]) / comp_scale
    return gap.min(axis=1), lam.min(axis=1), comp, linear


def trajectory_residuals(traj: Trajectory, ops: AffineOperatorSet,
                         obstacle: ObstacleData) -> dict:
    """Worst-case feasibility, complementarity, and linear residuals.

    The steps are checked in runs of up to ``RESIDUAL_FLOATS // H`` at
    once (``_residual_rows``), whose work block stays small enough to be
    reused from the heap and the cache.
    """
    S, explicit = step_bands(traj.mu, ops, traj.config)
    f_mu = ops.f_vector(traj.mu)
    L, H = traj.multipliers.shape
    rows = min(L, max(1, RESIDUAL_FLOATS // H))
    work = np.empty((3, rows, H))
    figures = [_residual_rows(S, explicit, f_mu, obstacle.psi_tilde, traj.states[i:i + rows + 1],
                              traj.multipliers[i:i + rows], work) for i in range(0, L, rows)]
    gap, lam, comp, linear = (np.concatenate(column) for column in zip(*figures))
    return {
        "min_state_gap": float(gap.min()),
        "min_multiplier": float(lam.min()),
        "max_complementarity": float(comp.max()),
        "max_linear_residual": float(linear.max()),
    }


def contract_breaches(residuals: dict) -> list[str]:
    """The ``trajectory_residuals`` entries outside the ``CONTRACT`` range
    (a NaN is outside every range)."""
    return [name for name, (lo, hi) in CONTRACT.items() if not lo <= residuals[name] <= hi]


def check_contract(traj: Trajectory, ops: AffineOperatorSet, obstacle: ObstacleData) -> dict:
    """``trajectory_residuals`` of a trajectory that meets the truth contract;
    a breach raises ``NumericalBreakdownError`` carrying the residuals."""
    residuals = trajectory_residuals(traj, ops, obstacle)
    broken = contract_breaches(residuals)
    if broken:
        raise NumericalBreakdownError(
            f"trajectory at mu={traj.mu} breaks the truth contract on {', '.join(broken)}",
            feasibility_residuals=residuals)
    return residuals


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
