"""Full-order theta-scheme time stepper for the discrete obstacle problem.

Each backward-time step is a linear complementarity problem

    S u - lam = rhs,   u >= obstacle,   lam >= 0,   lam . (u - obstacle) = 0,

with S = mass/dt + theta * a(mu) and rhs = (mass/dt - (1-theta) * a(mu))
applied to the previous state plus the load.  ``step_pair`` forms that
pair from the affine terms of a(mu), and ``load_vector`` the load; both
work on any arrays, so the truth's bands (``step_bands``, one call per
band) and the reduced blocks of ``amrb.online`` take the same theta-step
from the same lines.  Steps are solved with a
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
``StepOperators``, the step's whole complementarity problem: the bands of
S and of mass/dt - (1-theta) a(mu) (from ``step_bands``, all that the
residual check needs besides the load), the load and the lifted obstacle
psi, from which ``derived_operators`` derives the products of psi with S
and the UL factors of S (a Brennan-Schwartz elimination from the last
node up, LAPACK ``gttrf`` on the reversed bands).  ``theta_step(u_prev,
step)`` is then one step: its right-hand side, one band product plus the load, and
``solve_lcp(step, rhs)``.  The put is exercised on one interval [0, k)
of low asset prices; the projected forward sweep of Brennan and Schwartz
(1977) predicts k with one bidiagonal solve and one comparison: node i
leaves the obstacle when its swept value exceeds psi[i] pivots[i] +
lower[i-1] psi[i-1], the sweep's test with the division by the
(positive) pivot multiplied out.  Only the trajectory sets that
threshold, so ``StepOperators`` forms it once.  The iteration starts
from [0, k).  A correct guess is reproduced by the first update, so one
solve certifies it (Hintermueller, Ito and Kunisch, 2003); on a prefix
iterate that update reads only lam on [0, k) and the gap after it, two
partial passes, and no mask of the set is made.  A wrong guess costs
further iterations but still ends at the exact solution; so does the
empty guess made where the elimination would need row interchanges or
meets a pivot that is not positive.

``solve_lcp(S, rhs, start, out)`` takes the scheme's two problems, told
apart by the type of S, and refuses anything else.  The truth step is a
``StepOperators``, whose obstacle is its lifted payoff, and each
iteration costs O(H).  Every prefix active set is solved on the
trajectory's UL factors: the elimination runs from the last node up, so
the trailing blocks of U and L factor S[k:, k:].  The step's one sweep
U^-1 rhs (BLAS ``tbsv``), which the predictor also reads, holds the
trailing part of every such solve; pinning [0, k) changes row k only, and
one lower-bidiagonal ``tbsv`` over [k, H) is left.  The multipliers on
[0, k) are read off S psi - rhs, with row k-1, which holds the free u[k],
summed again.  LAPACK ``gtsv`` still solves every other active set, and
every set of a matrix without UL pivots.  An iterate depends on the
right-hand side and the active set only, whichever path solves it.  The
cone step is a dense S (a reduced Schur complement) with the zero
obstacle of alpha >= 0: zeros are pinned, LAPACK ``gesv`` solves the
inactive block, and the update's vector is lam - u, which a third
``out`` vector can take back for the caller's next start.  Its solve and
update are written out in the loop, with no call layer and no per-call
set-up.

A trajectory allocates nothing per step.  ``solve_trajectory`` allocates
one (2L + 1, H) block, whose leading L + 1 rows are the returned states
and trailing L rows the multipliers (both views of it), and each step's
iterates are solved straight into its two rows.  The step's right-hand
side, sweep and the predictor's flags fill a workspace that
``step_operators`` makes once per trajectory; the arrays the step
methods return are that workspace, overwritten by the next step.

Two or more parameters on one mesh and time grid (a training set, a
test set) march in lockstep through ``solve_trajectories``.  Their
operators are (M, ·) rows, built once by the lines of one parameter:
``step_pair``, ``load_vector`` and ``obstacle_data`` run on (M, 1) columns
of K, r, q and sigma, and ``derived_operators`` derives the rest along
the last axis, the UL factors of all members by one ``gttrf`` of their
rows laid end to end with a pad node after each.  At each time
level one band product forms every right-hand side on an (M, H) block,
one upper ``tbsv`` sweeps the members laid end to end, and the
prediction, the prefix solve and the certification run once over all
members, with each member's own tie threshold.  The prediction is the
single step's ``first_leaving_node`` over the blocks' last axis, against
the members' rows of thresholds; the lower sweep pins node k of each
member from its ``coupling`` at that one node, and the prefix
multipliers read each member's ``s_psi`` and row sums ``s_psi_left``, as
``_solve_prefix`` does; the sweeps, the prefix solve and the
certification stay the group's own, since every way tried of running
both marches through one step was slower.  A member whose
prediction the first update does not reproduce is solved again from it
by ``solve_lcp``, the one active-set loop, on the ``StepOperators`` of
its own rows.  The results are the bits of one ``solve_trajectory`` per
member: every float is made by the same IEEE operation on the same
operands, only for many members at a time (each sigma ** 2 by C's
``pow``, as one parameter squares it), and the sweeps' couplings across
members are zero couplings to pad nodes that hold 1.0, each of which
adds -0.0 to a member's node, which changes no float (see
``march_group``).  The group pays where per-call
overhead dominates a step: up to ``GROUP_MAX_NODES`` mesh nodes, above
which the arithmetic of its extra passes outweighs the calls it saves,
the parameters march one at a time.  So do a single parameter, and the
members of a group that has one without UL pivots or one that fails, so
that an error names the parameter and step that one-at-a-time marching
names.

``solve_lcp`` checks only the right-hand side and the start.  A
trajectory checks its step matrix (``check_lcp_matrix``) and obstacle
once, in ``step_operators``, and passes each step's right-hand side
straight in with the trajectory's one ``StepOperators``.  A non-finite
right-hand side means the state blew up; it and a non-finite obstacle
raise ``NumericalBreakdownError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import AmrbError, AssemblyError, NumericalBreakdownError, SolverDivergenceError
from .fem import (AffineOperatorSet, ObstacleData, ParameterVector, Tridiagonal, band_product,
                  obstacle_data)
from .lapack import dgesv, dgtsv, dgttrf, dtbsv

# ties in the active-set update are broken within TIE_TOL * ||rhs||_inf of zero
TIE_TOL = 16.0 * np.finfo(float).eps

# active-set updates after which ``solve_lcp`` gives up
MAX_ITER = 100

# floats per block of steps that ``trajectory_residuals`` checks at once
RESIDUAL_FLOATS = 2 ** 14

# mesh nodes up to which ``solve_trajectories`` marches its parameters as
# one group: on a 2-core Xeon with one BLAS thread, 16 stock draws march so
# 1.0-1.3x faster than one at a time at H=999, and no faster from H=1249
GROUP_MAX_NODES = 1000

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
        if not self.delta_t > 0.0:  # mass/dt would divide by zero
            raise ValueError(f"time step T/L underflows to zero, got T={self.T}, L={self.L}")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [1/2, 1], got {self.theta}")

    @property
    def delta_t(self) -> float:
        return self.T / self.L


def step_pair(mu, config: SchemeConfig, mass, a1, a2):
    """The theta-step (S, explicit) = (mass/dt + theta a(mu),
    mass/dt - (1 - theta) a(mu)), with a(mu) = sigma^2 a1 + (r - q) a2 + r mass.

    The terms are arrays of one shape: a band of the truth operators
    (``step_bands``) or the reduced blocks (``amrb.online.online_setup``).
    ``mu``'s fields are floats, or a group's (M, 1) columns, which give row
    m the floats of member m's own call (``march_group``).  A market
    parameter too large to square raises OverflowError; entries that
    overflow are left infinite, for the caller's check.
    """
    a_mu = _square(mu.sigma) * a1 + (mu.r - mu.q) * a2 + mu.r * mass
    m_dt = mass * (1.0 / config.delta_t)
    return m_dt + config.theta * a_mu, m_dt - (1.0 - config.theta) * a_mu


def _square(x):
    """x ** 2 as Python squares a float (C ``pow``), also for each entry of
    a group's (M, 1) column, which numpy would square as x * x: the two
    round apart in about one square in a thousand."""
    return np.array([[v ** 2] for [v] in x.tolist()]) if isinstance(x, np.ndarray) else x ** 2


def load_vector(mu, f1, f2):
    """The load f(mu) = K q f1 - K r f2, from the truth's load vectors or
    the reduced ones."""
    return mu.K * mu.q * f1 - mu.K * mu.r * f2


def check_lcp_matrix(S):
    """Check a complementarity matrix once for every problem posed on it.

    S is a ``Tridiagonal``, or a group's bands with a row per member, or a
    square dense array (returned in floats); it must be finite with a
    positive diagonal.
    """
    if isinstance(S, Tridiagonal):
        diag, entries = S.diag, np.concatenate(S, axis=-1)
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


def _solve_prefix(step: StepOperators, rhs, swept, k: int, u, lam):
    """Solve the step's problem with the state pinned to ``step.psi`` on
    the prefix [0, k), into ``u`` and ``lam``.

    S = U L, eliminated from the last node up, so the trailing blocks of U
    and L factor S[k:, k:].  ``swept`` = U^-1 rhs (``step.sweep``) already
    holds the trailing sweep; pinning nodes below k changes only row k, by
    ``step.coupling[k]`` = lower[k-1] * psi[k-1].  With L = D M
    (``ul_factor``), a division by the pivots and one unit lower-bidiagonal
    solve are left.  Only the pinned rows carry a multiplier: (S psi - rhs)
    on [0, k) from ``step.s_psi``, except row k-1, which reads the free
    u[k]: ``step.s_psi_left``, row i of S psi without its upper term, plus
    upper[k-1] * u[k], summed as ``S @ u`` sums the row.
    """
    u[:k] = step.psi[:k]
    lam[k:] = 0.0
    if k:
        np.subtract(step.s_psi[:k], rhs[:k], out=lam[:k])
    if k < u.size:
        pivots = step.lower_factor[0, k:]
        free = u[k:]
        np.divide(swept[k:], pivots, out=free)
        if k:
            free[0] = (swept[k] - step.coupling[k]) / pivots[0]
        dtbsv(1, step.lower_factor[:, k:], free, lower=1, diag=1, overwrite_x=1)
        if k:
            lam[k - 1] = step.s_psi_left[k - 1] + step.S.upper[k - 1] * u[k] - rhs[k - 1]
    return u, lam


def _solve_banded(S: Tridiagonal, ix, b):
    """(x, info) of S[ix, ix] x = b by LAPACK ``gtsv``: a sorted index
    subset of a tridiagonal matrix is tridiagonal."""
    if ix.size == 1:  # the gtsv wrapper refuses empty off-diagonals
        return b / S.diag[ix], 0
    adjacent = np.diff(ix) == 1
    dl = np.where(adjacent, S.lower[ix[:-1]], 0.0)
    du = np.where(adjacent, S.upper[ix[:-1]], 0.0)
    return dgtsv(dl, S.diag[ix], du, b, 1, 1, 1, 1)[3:]


def _singular_iterate(active):
    """The error of an active set whose inactive block is singular."""
    return NumericalBreakdownError("singular linear system on an active-set iterate",
                                   active_size=int(active.sum()))


def _solve_pinned(step: StepOperators, rhs, swept, u, lam, active):
    """Solve the step's problem with the state pinned to ``step.psi`` on
    the active set, into ``u`` and ``lam``.

    With the sweep ``swept`` (None without UL pivots), a prefix active set
    is solved on the step's UL factors (``_solve_prefix``).  Any other set
    is solved on the inactive rows and columns by ``_solve_banded``,
    against the right-hand side less the pinned columns.
    """
    if swept is not None:
        k = np.count_nonzero(active)
        if not active[k:].any():  # the prefix [0, k)
            return _solve_prefix(step, rhs, swept, k, u, lam)
    S = step.S
    ix = (~active).nonzero()[0]
    u[...] = step.psi
    u[ix] = 0.0
    b = (rhs - S @ u)[ix] if ix.size < active.size else rhs[ix]
    if ix.size:
        x, info = _solve_banded(S, ix, b)
        if info > 0:
            raise _singular_iterate(active)
        u[ix] = x
    np.subtract(S @ u, rhs, out=lam)
    lam[ix] = 0.0
    return u, lam


# what ``solve_lcp`` raises for any other form of its arguments
LCP_FORMS = ("solve_lcp takes a StepOperators S with out=(u, lam), or a dense S with "
             "out=(u, lam[, update]); start is None or a boolean array of rhs's shape")


def solve_lcp(S, rhs: np.ndarray, start: np.ndarray | None = None,
              out=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Primal-dual active-set solve of S u - lam = rhs, u >= obstacle,
    lam >= 0, lam . (u - obstacle) = 0, in one of the scheme's two forms,
    told apart by the type of S.

    The truth step: S a ``StepOperators``, whose ``psi`` is the obstacle.
    Where the step has UL pivots, ``rhs`` is swept on its factors once
    (``StepOperators.sweep``), and every prefix active set is solved on
    them (``_solve_prefix``); every other set, and every set of a step
    without UL pivots, is solved by LAPACK ``gtsv`` (``_solve_pinned``).
    With ``start`` None the iteration starts from the step's
    Brennan-Schwartz prefix [0, k) (``StepOperators.predict_contact``),
    the empty set without UL pivots.

    The cone step: S a square dense array, with the zero obstacle of the
    reduced cone problems alpha >= 0; ``start`` None is the empty set.
    Zeros are pinned, the inactive block is solved by LAPACK ``gesv``, and
    the update's vector is lam - u, one pass; all of it is written out in
    the loop.  A third vector in ``out`` receives, whichever way the
    iteration stops, the returned iterate's lam - u, from which a reduced
    trajectory starts its next step.

    Any other S, a third ``out`` vector on a truth step, and a ``start``
    that is neither None nor a boolean array of ``rhs``'s shape raise
    ``ValueError`` (``LCP_FORMS``).  Returns (u, lam, number of linear
    solves).  S is taken as checked: a dense S by ``check_lcp_matrix``, a
    ``StepOperators`` as ``step_operators`` checks it, as a trajectory
    checks them once.  Only the float vector rhs is checked here, for its
    shape against the obstacle's (``ValueError``) and finiteness: a
    non-finite rhs raises ``NumericalBreakdownError``, since a trajectory
    computes it from its own states.  ``out`` may pass two float vectors
    (u, lam) of rhs's size, such as a trajectory's rows: every iterate is
    solved into them, and they are returned.  Without it, u and lam are
    fresh arrays.

    The iteration starts from ``start`` and stops as soon as the updated
    active set {i : lam_i + (obstacle_i - u_i) > tol} reproduces the
    current one, which makes the final iterate feasible and exactly
    complementary.  From a truth step's predicted prefix [0, k) the first
    update is made in two partial passes, lam[:k] > tol everywhere and
    obstacle[k:] - u[k:] > tol nowhere: a prefix iterate has u = obstacle
    on [0, k) and lam = 0 after it, so that is the full update's decision.
    Only if it fails is the mask of [0, k) built, for the loop to go on
    from.

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
    if isinstance(S, np.ndarray):
        obstacle = None
    elif isinstance(S, StepOperators) and (out is None or len(out) == 2):
        obstacle = S.psi
        if rhs.shape != obstacle.shape:
            raise ValueError("inconsistent LCP dimensions")
    else:
        raise ValueError(LCP_FORMS)
    if start is not None and not (isinstance(start, np.ndarray) and start.dtype == bool
                                  and start.shape == rhs.shape):
        raise ValueError(LCP_FORMS)
    # nan or inf unless rhs is finite; the ufunc's reduce skips ndarray.max's
    # Python wrapper
    scale = float(np.maximum.reduce(np.abs(rhs)))
    if not math.isfinite(scale):
        raise NumericalBreakdownError("LCP right-hand side must be finite")
    tol = TIE_TOL * scale
    if out is None:
        u, lam, update = np.empty(rhs.size), np.empty(rhs.size), None
    else:
        u, lam, update = out[0], out[1], out[2] if len(out) > 2 else None
    solves = 0
    if obstacle is not None:
        swept = S.sweep(rhs)
        k = S.predict_contact(swept) if start is None else None
        if k is not None:  # the prefix [0, k), certified in two partial passes
            _solve_prefix(S, rhs, swept, k, u, lam)
            # a nan fails the first test and, skipped by fmax, passes the
            # second, as it does in the full update
            if (np.minimum.reduce(lam[:k], initial=math.inf) > tol
                    and not np.fmax.reduce(obstacle[k:] - u[k:], initial=-math.inf) > tol):
                return u, lam, 1
            start, solves = np.arange(rhs.size) < k, 1
    active = np.zeros(rhs.size, dtype=bool) if start is None else start
    pinned = 0.0 if obstacle is None else obstacle
    work = np.empty(rhs.size) if update is None else update
    key, seen = active.tobytes(), None  # the revisit check's set from the second update on
    least_index_mode, solved = False, solves > 0
    while True:
        if not solved:
            if obstacle is None:  # the cone step's pinned solve, zeros pinned
                ix = (~active).nonzero()[0]
                u[...] = 0.0
                if ix.size:
                    x, info = dgesv(S.take(ix, 0).take(ix, 1), rhs[ix], 1, 1)[2:]
                    if info > 0:
                        raise _singular_iterate(active)
                    u[ix] = x
                np.subtract(S.dot(u), rhs, out=lam)
                lam[ix] = 0.0
            else:
                _solve_pinned(S, rhs, swept, u, lam, active)
            solves += 1
            solved = True
        if least_index_mode:
            violated = np.flatnonzero(np.where(active, lam < 0.0, u < pinned))
            if violated.size == 0:
                if update is not None:
                    np.subtract(lam, u, out=update)
                return u, lam, solves
            new_active = active.copy()
            new_active[violated[0]] = not new_active[violated[0]]
        else:
            new_active = (np.subtract(lam, u, out=work) if obstacle is None
                          else np.add(lam, np.subtract(obstacle, u, out=work), out=work)) > tol
            new_key = new_active.tobytes()
            if new_key == key:
                return u, lam, solves
            if seen is None:
                seen = {key}
            elif new_key in seen:
                least_index_mode = True
                continue
            seen.add(new_key)
            key = new_key
        if solves >= MAX_ITER:
            gap = u - pinned
            raise SolverDivergenceError(
                f"active set did not settle after {MAX_ITER} updates",
                min_gap=float(gap.min()),
                min_multiplier=float(lam.min()),
                complementarity=abs(float(lam @ gap)),
            )
        active, solved = new_active, False


def first_leaving_node(swept, threshold, above):
    """The Brennan-Schwartz prediction, along the last axis: k, the first
    node that leaves the obstacle, so that the predicted active set is the
    prefix [0, k).

    ``swept`` is U^-1 rhs.  Node i would leave the obstacle when its
    forward-sweep value with node i-1 pinned, (swept[i] - coupling[i]) /
    pivots[i], exceeds psi[i]; with a positive pivot that is swept[i] >
    ``threshold[i]`` = psi[i] pivots[i] + coupling[i], which a trajectory
    forms once (``StepOperators.threshold``), so a step makes one
    comparison.  ``above`` (one more node, whose pad is True: no node
    leaves, k = H) is scratch; the pad is never written.
    """
    np.greater(swept, threshold, out=above[..., :-1])
    return above.argmax(axis=-1)


@dataclass(frozen=True)
class StepOperators:
    """The truth step's complementarity problem, shared by every step of one
    trajectory: operators, load, obstacle, factors and a workspace.

    It is built from four fields, and derives the rest on construction
    (``derived_operators``).  ``S`` is the step matrix, checked by
    ``check_lcp_matrix``, ``explicit`` the bands mass/dt - (1 - theta) a(mu)
    that act on the previous state, ``f_mu`` the load and ``psi`` the
    lifted obstacle, checked finite; ``step_operators`` builds the four at
    a parameter.  Derived: ``coupling``, ``s_psi``, ``s_psi_left``, the UL
    factors and ``threshold``, the last three None without (positive) UL
    pivots.

    The workspace is made with the object, sized by ``psi`` (so
    ``dataclasses.replace`` gives a copy its own): three float vectors and
    ``first_leaving_node``'s ``above``, a boolean vector with a True pad.
    ``rhs`` and ``sweep`` fill it in place and return its arrays, which the
    next step overwrites; ``predict_contact`` uses ``above`` as scratch and
    returns an int.
    """

    S: Tridiagonal
    explicit: Tridiagonal
    f_mu: np.ndarray
    psi: np.ndarray
    coupling: np.ndarray = field(init=False)
    s_psi: np.ndarray = field(init=False)
    s_psi_left: np.ndarray = field(init=False)
    upper_factor: np.ndarray | None = field(init=False)
    lower_factor: np.ndarray | None = field(init=False)
    threshold: np.ndarray | None = field(init=False)
    work: np.ndarray = field(init=False, repr=False)   # (3, H): rhs, sweep, scratch
    above: np.ndarray = field(init=False, repr=False)  # (H + 1,), True at H

    def __post_init__(self):
        for name, value in derived_operators(self.S, self.psi).items():
            object.__setattr__(self, name, value)

    def rhs(self, u_prev: np.ndarray) -> np.ndarray:
        """Right-hand side of the step that starts from ``u_prev``: one band
        product plus the load, in the workspace."""
        rhs = band_product(self.explicit, u_prev, self.work[0], self.work[2])
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

    def predict_contact(self, swept: np.ndarray | None) -> int | None:
        """Brennan-Schwartz guess of the active set: the length k of the
        prefix [0, k) of ``first_leaving_node``, a Python int, from which
        ``solve_lcp`` starts a truth step.

        ``swept`` is ``sweep(rhs)``.  Without pivots the guess is None, the
        empty start, which the iteration corrects as it does any wrong guess.
        """
        if self.threshold is None:
            return None
        return int(first_leaving_node(swept, self.threshold, self.above))


def derived_operators(S: Tridiagonal, psi: np.ndarray) -> dict:
    """What a truth step derives from its step matrix S and obstacle psi,
    by ``StepOperators`` field name, along the last axis: of one
    parameter's (H,) vectors, or of a group's (M, H) rows (``march_group``).

    ``coupling[i]`` = lower[i-1] * psi[i-1], what pinning node i-1 takes
    off row i (0 at node 0); ``s_psi_left``, row i of S psi without its
    upper term, diag[i] psi[i] + coupling[i] (no added zero at node 0, so
    that a -0.0 stays -0.0); ``s_psi`` = S psi, that plus upper[i]
    psi[i+1], summed as ``S @ psi`` sums it; ``upper_factor`` and
    ``lower_factor``, those of ``ul_factor(S)``, one ``gttrf`` for a whole
    group; and ``threshold`` = psi * pivots + coupling,
    ``first_leaving_node``'s per-trajectory threshold, None with the
    factors.  The workspace: ``work``, three float rows of psi's shape,
    and ``above``, one boolean node more than psi along the last axis, True
    in that pad.
    """
    coupling = np.zeros(psi.shape)
    np.multiply(S.lower, psi[..., :-1], out=coupling[..., 1:])
    s_psi_left = S.diag * psi
    s_psi_left[..., 1:] += coupling[..., 1:]
    s_psi = s_psi_left.copy()
    s_psi[..., :-1] += S.upper * psi[..., 1:]
    upper_factor, lower_factor = ul_factor(S)
    above = np.zeros((*psi.shape[:-1], psi.shape[-1] + 1), dtype=bool)
    above[..., -1] = True
    return {"coupling": coupling, "s_psi": s_psi, "s_psi_left": s_psi_left,
            "upper_factor": upper_factor, "lower_factor": lower_factor,
            "threshold": None if lower_factor is None else psi * lower_factor[0].reshape(
                *psi.shape[:-1], -1)[..., :psi.shape[-1]] + coupling,
            "work": np.empty((3, *psi.shape)), "above": above}


def ul_factor(S: Tridiagonal):
    """Factors of the UL elimination S = U L, in BLAS band storage.

    Eliminating from the last node up is LU on the reversed bands, which is
    LAPACK ``gttrf``.  U is unit upper bidiagonal: ``upper_factor`` holds
    it with row 0 the superdiagonal, upper[i] / pivots[i + 1], and row 1
    the diagonal.  L = D M, with D the pivots and M unit lower bidiagonal,
    M[i+1, i] = lower[i] / pivots[i + 1]: ``lower_factor`` holds the pivots
    in row 0 and that subdiagonal in row 1, so that BLAS reads it as M with
    a unit diagonal.  Both are in Fortran order.  Returns (upper_factor,
    lower_factor), or (None, None), no UL pivots, when ``gttrf`` finds S
    singular or swaps rows, when a pivot is not positive (NaN included),
    since ``first_leaving_node``'s threshold multiplies out the division
    by a positive pivot, and below three nodes, which scipy's ``gttrf``
    wrapper rejects.

    A group's bands, with a row per member, are factored by one ``gttrf``
    of the rows laid end to end, each followed by a pad node with 1.0 on
    the diagonal and 0.0 couplings: every row's pivots and multipliers are
    its own bits, each pad's are 1.0 and 0.0, and the (2, M (H + 1))
    factors are the layout that ``march_group``'s chained sweeps read.  A
    row with no UL pivots leaves the whole group without.
    """
    if S.diag.shape[-1] < 3:
        return None, None
    if S.diag.ndim > 1:  # the rows end to end, each followed by a pad node
        ends = np.zeros((len(S.diag), 2))
        lower, upper = (np.hstack([band, ends]).ravel()[:-1] for band in (S.lower, S.upper))
        S = Tridiagonal(lower, np.hstack([S.diag, ends[:, :1] + 1.0]).ravel(), upper)
    n = S.diag.size
    multipliers, pivots, _, _, ipiv, info = dgttrf(
        S.upper[::-1].copy(), S.diag[::-1].copy(), S.lower[::-1].copy(), 1, 1, 1)
    if (info > 0 or np.count_nonzero(ipiv != np.arange(1, n + 1))
            or np.count_nonzero(pivots > 0.0) < n):
        return None, None
    upper_factor = np.ones((2, n), order="F")
    upper_factor[0, 1:] = multipliers[::-1]
    lower_factor = np.zeros((2, n), order="F")
    lower_factor[0] = pivots[::-1]
    lower_factor[1, :-1] = S.lower / lower_factor[0, 1:]
    return upper_factor, lower_factor


def step_bands(mu, ops: AffineOperatorSet,
               config: SchemeConfig) -> tuple[Tridiagonal, Tridiagonal]:
    """The bands of a trajectory's step at parameter ``mu``: ``step_pair``
    of each band, the step matrix S checked by ``check_lcp_matrix``.

    Market parameters whose operator overflows, or whose step matrix is not
    usable, raise ``AssemblyError``.
    """
    try:
        pairs = [step_pair(mu, config, *terms) for terms in zip(ops.mass, ops.a1, ops.a2)]
        S, explicit = (Tridiagonal(*bands) for bands in zip(*pairs))
        return check_lcp_matrix(S), explicit
    except (OverflowError, ValueError) as err:
        raise AssemblyError(f"step matrix at mu={mu} is unusable: {err}") from err


def step_operators(mu, ops: AffineOperatorSet, config: SchemeConfig,
                   psi: np.ndarray) -> StepOperators:
    """The ``StepOperators`` of a trajectory at parameter ``mu`` against
    the lifted obstacle ``psi``: its bands, its load and ``psi``.

    Fails as ``step_bands`` does; a non-finite ``psi`` raises
    ``NumericalBreakdownError``, as a non-finite step right-hand side does.
    """
    S, explicit = step_bands(mu, ops, config)
    if np.count_nonzero(np.isfinite(psi)) < psi.size:
        raise NumericalBreakdownError("LCP obstacle must be finite")
    return StepOperators(S, explicit, load_vector(mu, ops.f1, ops.f2), psi)


def theta_step(u_prev: np.ndarray, step: StepOperators, out):
    """One backward-time step from ``u_prev``: its right-hand side, one
    band product plus the load, and ``solve_lcp`` of the step's problem
    from its predicted prefix, solved into ``out`` = (u, lam); returns
    (u_next, lam_next, solver iterations)."""
    return solve_lcp(step, step.rhs(u_prev), out=out)


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


def solve_trajectories(params, ops: AffineOperatorSet, config: SchemeConfig,
                       label: str) -> list[Trajectory]:
    """One trajectory per parameter (obstacle derived per strike), each the
    bits ``solve_trajectory`` gives.

    Two or more parameters on a mesh of up to ``GROUP_MAX_NODES`` nodes
    march as one group (``march_group``).  Otherwise, and wherever the
    group cannot run, they march one at a time, so that an error is raised
    by the first member that fails, at the step where it fails, its message
    prefixed f"{label} failed at mu={mu}: ".
    """
    params = list(params)
    if len(params) > 1 and ops.dim <= GROUP_MAX_NODES:
        group = march_group(params, ops, config)
        if group is not None:
            return group
    trajectories = []
    for mu in params:
        try:
            trajectories.append(solve_trajectory(mu, ops, obstacle_data(ops.mesh, mu.K), config))
        except AmrbError as err:
            raise type(err)(f"{label} failed at mu={mu}: {err}", **err.info) from err
    return trajectories


def march_group(params, ops: AffineOperatorSet,
                config: SchemeConfig) -> list[Trajectory] | None:
    """March the M >= 1 parameters in lockstep over the L steps, as M
    ``solve_trajectory`` calls would; None where a member has no UL pivots
    or fails, for the single march to report.

    The members' K, r, q and sigma are (M, 1) columns, on which
    ``step_bands``, ``load_vector`` and ``obstacle_data`` run the lines of
    one parameter, so that row m of each (M, ·) block holds member m's
    bits, and ``derived_operators`` derives the rest from all the rows at
    once.  Each elementwise operation of ``theta_step`` runs once for all
    members, on the same operands, the prediction by the same
    ``first_leaving_node``.  Each of the two bidiagonal sweeps runs once,
    on the members laid end to end with a pad node holding 1.0 after each
    and zero couplings across the pads, the layout of the group's factors:
    such a coupling adds -1.0 * 0.0 = -0.0 to a member's node, which
    changes no float.  The lower sweep pads a member's predicted prefix
    [0, k) too, so that node k starts as ``_solve_prefix`` starts it.  A
    pad left other than 1.0 has met a non-finite neighbour, and the group
    gives up.  A member whose predicted prefix the first update does not
    reproduce is solved again from it by ``solve_lcp``, on the
    ``StepOperators`` of its own rows.  The states and multipliers are rows
    of one (M, 2L + 1, H) block; member m's trajectory is block[m].
    """
    H, L, M = ops.dim, config.L, len(params)
    columns = SimpleNamespace(**{name: np.array([[getattr(mu, name)] for mu in params],
                                                dtype=float) for name in ("K", "r", "q", "sigma")})
    try:  # what a member's own step_bands or obstacle_data raises
        S, explicit = step_bands(columns, ops, config)
        psi = obstacle_data(ops.mesh, columns.K).psi_tilde
    except (AssemblyError, ValueError):
        return None
    group = SimpleNamespace(**derived_operators(S, psi)) if np.isfinite(psi).all() else None
    if group is None or group.lower_factor is None:
        return None
    f_mu = load_vector(columns, ops.f1, ops.f2)
    explicit_columns = Tridiagonal(*(band.T for band in explicit))  # nodes along axis 0
    pivots = group.lower_factor[0].reshape(M, H + 1)[:, :H]
    # the lower factor's couplings, which each step zeroes on the predicted
    # prefixes, and the members' own
    sub = group.lower_factor[1].reshape(M, H + 1)
    sub_members = sub.copy()

    block = np.zeros((M, 2 * L + 1, H))
    block[:, 0] = psi
    iterations = np.ones((M, L), dtype=int)
    rhs, _, work = group.work
    # the upward sweep and the sweep down from the predicted prefixes;
    # column H holds their pads
    swept, free = sweeps = np.ones((2, M, H + 1))
    for n in range(L):
        u, lam = block[:, n + 1], block[:, L + 1 + n]
        band_product(explicit_columns, block[:, n].T, rhs.T, work.T)
        rhs += f_mu
        scale = np.maximum.reduce(np.abs(rhs, out=work), axis=1)
        if not math.isfinite(np.maximum.reduce(scale)):
            return None
        swept[:, :H] = rhs
        dtbsv(1, group.upper_factor, swept.reshape(-1), diag=1, overwrite_x=1)
        k = first_leaving_node(swept[:, :H], group.threshold, group.above)
        contact = np.arange(H) < k[:, None]
        # ``_solve_prefix`` from every prediction: node k takes off its
        # coupling where 0 < k < H (at node 0 it is zero, and at k = H only
        # the pad, which holds 1.0, is left)
        inner = np.flatnonzero((k > 0) & (k < H))
        ki = k[inner]
        np.divide(swept[:, :H], pivots, out=free[:, :H])
        free[inner, ki] = (swept[inner, ki] - group.coupling[inner, ki]) / pivots[inner, ki]
        np.copyto(free[:, :H], 1.0, where=contact)
        np.copyto(sub, sub_members)
        np.copyto(sub[:, :H], 0.0, where=contact)
        dtbsv(1, group.lower_factor, free.reshape(-1), lower=1, diag=1, overwrite_x=1)
        # a pad left other than 1.0 has met a nan
        if np.add.reduce(sweeps[:, :, H], axis=None) != 2 * M:
            return None
        np.copyto(u, free[:, :H])
        np.copyto(u, psi, where=contact)
        np.subtract(group.s_psi, rhs, out=lam, where=contact)  # zero elsewhere from the start
        i = ki - 1  # row k-1 reads the free u[k]
        lam[inner, i] = (group.s_psi_left[inner, i] + S.upper[inner, i] * u[inner, ki]
                         - rhs[inner, i])
        # the first update of ``solve_lcp``, which certifies the prediction
        np.subtract(psi, u, out=work)
        work += lam
        certified = group.above[:, :H]
        np.greater(work, (TIE_TOL * scale)[:, None], out=certified)
        np.equal(certified, contact, out=certified)
        if certified.all():
            continue
        for m in np.flatnonzero(~certified.all(axis=1)):
            alone = StepOperators(*(Tridiagonal(*(band[m] for band in bands))
                                    for bands in (S, explicit)), f_mu[m], psi[m])
            try:
                iterations[m, n] = solve_lcp(alone, rhs[m], contact[m], out=(u[m], lam[m]))[2]
            except AmrbError:
                return None
    return [Trajectory(mu=mu, states=block[m, :L + 1], multipliers=block[m, L + 1:],
                       config=config, pdas_iterations=iterations[m])
            for m, mu in enumerate(params)]


def _residual_rows(S: Tridiagonal, explicit: Tridiagonal, f_mu, psi, states, lam, work):
    """Residual figures of the steps from ``states[:-1]`` to ``states[1:]``
    with multipliers ``lam``, one entry per step: (min gap, min multiplier,
    complementarity, linear residual).

    ``band_product`` runs along the first axis, so it takes the blocks
    transposed: each row is summed as its step summed its right-hand side.
    ``work`` is a (3, rows, H) block with a row per step, and the
    complementarity is one dot product per step.
    """
    rhs, residual, gap = work[:, :lam.shape[0]]
    after = states[1:]
    band_product(explicit, states[:-1].T, rhs.T, gap.T)
    rhs += f_mu
    band_product(S, after.T, residual.T, gap.T)
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
    f_mu = load_vector(traj.mu, ops.f1, ops.f2)
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


def check_contract(traj: Trajectory, ops: AffineOperatorSet) -> dict:
    """``trajectory_residuals`` of a trajectory that meets the truth contract,
    against the obstacle of its strike; a breach raises
    ``NumericalBreakdownError`` carrying the residuals."""
    residuals = trajectory_residuals(traj, ops, obstacle_data(ops.mesh, traj.mu.K))
    broken = contract_breaches(residuals)
    if broken:
        raise NumericalBreakdownError(
            f"trajectory at mu={traj.mu} breaks the truth contract on {', '.join(broken)}",
            feasibility_residuals=residuals)
    return residuals

