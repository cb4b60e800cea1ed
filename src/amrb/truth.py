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
``StepOperators``: the bands of S and of mass/dt - (1-theta) a(mu) (from
``step_bands``, all that the residual check needs besides the load), the
load, the lifted obstacle psi and its products with S, and the UL factors
of S (a Brennan-Schwartz elimination from the last node up, LAPACK
``gttrf`` on the reversed bands).  ``theta_step(u_prev, step)`` is then
one step, whose right-hand side is one band product plus the load.
The put is exercised on one interval [0, k) of low asset prices; the
projected forward sweep of Brennan and Schwartz (1977) predicts k with one
bidiagonal solve and one comparison: node i leaves the obstacle when its
swept value exceeds psi[i] pivots[i] + lower[i-1] psi[i-1], the sweep's
test with the division by the (positive) pivot multiplied out.  Only
the trajectory sets that threshold, so ``step_operators`` forms it once.
The iteration starts from [0, k), passed as the int k.  A correct guess
is reproduced by the first update, so one solve certifies it
(Hintermueller, Ito and Kunisch, 2003); on a prefix iterate that update
reads only lam on [0, k) and the gap after it, two partial passes, and
no mask of the set is made.  A wrong guess costs further
iterations but still ends at the exact solution; so does the empty guess
made where the elimination would need row interchanges or meets a pivot
that is not positive.

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
test problems) run the same loop and the same pinned-set solve, whose
inactive block LAPACK ``gesv`` solves, from the empty set unless the
caller passes a start.  The loop picks the solve of the matrix's kind
once per call.  The reduced cone problems have no obstacle and pass
None: zeros are pinned, the right-hand side is never shifted, and the
update's vector is lam - u, which a third ``out`` vector can take back
for the caller's next start.

A trajectory allocates nothing per step.  ``solve_trajectory`` allocates
one (2L + 1, H) block, whose leading L + 1 rows are the returned states
and trailing L rows the multipliers (both views of it), and each step's
iterates are solved straight into its two rows.  The step's right-hand
side, sweep and the predictor's flags fill a workspace that
``step_operators`` makes once per trajectory; the arrays the step
methods return are that workspace, overwritten by the next step.

Two or more parameters on one mesh and time grid (a training set, a
test set) march in lockstep through ``solve_trajectories``: at each time
level one band product forms every right-hand side on an (M, H) block,
one upper ``tbsv`` sweeps the members laid end to end, and the
prediction, the prefix solve and the certification run once over all
members, with each member's own tie threshold.  The prediction is the
single step's ``first_leaving_node`` over the blocks' last axis, against
the members' stacked thresholds; the lower sweep pins node k of each
member from its ``coupling`` at that one node, and the prefix
multipliers read each member's ``s_psi`` and row sums ``s_psi_left``, as
``_solve_prefix`` does; the sweeps, the prefix solve and the
certification stay the group's own, since every way tried of running
both marches through one step was slower.  A member whose
prediction the first update does not reproduce is solved again from it
by ``solve_lcp``, the one active-set loop.  The results are the bits of
one ``solve_trajectory`` per member: every float is made by the same
IEEE operation on the same operands, only for many members at a time,
and the sweeps' couplings across members are zero couplings to pad
nodes that hold 1.0, each of which adds -0.0 to a member's node, which
changes no float (see ``march_group``).  The group pays where per-call
overhead dominates a step: up to ``GROUP_MAX_NODES`` mesh nodes, above
which the arithmetic of its extra passes outweighs the calls it saves,
the parameters march one at a time.  So do a single parameter, and the
members of a group that has one without UL pivots or one that fails, so
that an error names the parameter and step that one-at-a-time marching
names.

``solve_lcp`` takes one problem's arrays and checks only the right-hand
side.  A trajectory checks its step matrix (``check_lcp_matrix``) and
obstacle once and passes each step's arrays straight in, building no
problem object per step.  A non-finite right-hand side means the state
blew up; it and a non-finite obstacle raise ``NumericalBreakdownError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    A market parameter too large to square raises OverflowError; entries
    that overflow are left infinite, for the caller's check.
    """
    a_mu = (mu.sigma ** 2) * a1 + (mu.r - mu.q) * a2 + mu.r * mass
    m_dt = mass * (1.0 / config.delta_t)
    return m_dt + config.theta * a_mu, m_dt - (1.0 - config.theta) * a_mu


def load_vector(mu, f1, f2):
    """The load f(mu) = K q f1 - K r f2, from the truth's load vectors or
    the reduced ones."""
    return mu.K * mu.q * f1 - mu.K * mu.r * f2


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


def _solve_prefix(S: Tridiagonal, rhs, obstacle, k: int, swept, lower_factor, s_obstacle,
                  s_obstacle_left, u, lam):
    """Solve with the state pinned to the obstacle on the prefix [0, k),
    into ``u`` and ``lam``.

    S = U L, eliminated from the last node up, so the trailing blocks of U
    and L factor S[k:, k:].  ``swept`` = U^-1 rhs already holds the trailing
    sweep; pinning nodes below k changes only row k, by the coupling
    lower[k-1] * obstacle[k-1].  With L = D M (``ul_factor``), a
    division by the pivots and one unit lower-bidiagonal solve are left.
    Only the pinned rows carry a multiplier: (S obstacle - rhs) on [0, k)
    from ``s_obstacle`` = S obstacle, except row k-1, which reads the free
    u[k]: ``s_obstacle_left``, row i of S obstacle without its upper term,
    plus upper[k-1] * u[k], summed as ``S @ u`` sums the row.
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
            lam[k - 1] = s_obstacle_left[k - 1] + S.upper[k - 1] * u[k] - rhs[k - 1]
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


def _solve_dense(S, ix, b):
    """(x, info) of S[ix, ix] x = b by LAPACK ``gesv``."""
    return dgesv(S.take(ix, 0).take(ix, 1), b, 1, 1)[2:]  # both fresh copies


def _solve_pinned(S, rhs, pinned, shift, solve_inactive, ul, u, lam, active):
    """Solve with the state pinned to ``pinned`` (the obstacle, or 0.0 for
    the zero obstacle) on the active set, into ``u`` and ``lam``.

    With ``ul`` (see ``solve_lcp``), a prefix active set is solved on the
    UL factors.  Any other set is solved on the inactive rows and columns
    by ``solve_inactive``, ``_solve_banded`` for a ``Tridiagonal`` S and
    ``_solve_dense`` for a dense one.  Pinning shifts the right-hand side
    only if ``shift``, a nonzero obstacle.  ``solve_lcp`` decides both once
    per call, after its prefix path, which never needs them.
    """
    if ul is not None:
        k = np.count_nonzero(active)
        if not active[k:].any():  # the prefix [0, k)
            return _solve_prefix(S, rhs, pinned, k, *ul, u, lam)
    ix = (~active).nonzero()[0]
    u[...] = pinned
    if shift and ix.size < active.size:
        u[ix] = 0.0
        b = (rhs - S @ u)[ix]
    else:
        b = rhs[ix]
    if ix.size:
        x, info = solve_inactive(S, ix, b)
        if info > 0:
            raise NumericalBreakdownError("singular linear system on an active-set iterate",
                                          active_size=int(active.sum()))
        u[ix] = x
    np.subtract(S.dot(u), rhs, out=lam)
    lam[ix] = 0.0
    return u, lam


def _update_vector(u, lam, obstacle, out):
    """The active-set update's vector lam + (obstacle - u) into ``out``;
    lam - u, one pass, for the zero obstacle None."""
    if obstacle is None:
        return np.subtract(lam, u, out=out)
    np.subtract(obstacle, u, out=out)
    return np.add(lam, out, out=out)


def _prefix_length(start, size: int, ul) -> int:
    """An integer ``solve_lcp`` start as the Python int k of the prefix
    [0, k); a bool raises ``TypeError``, a k without ``ul`` or outside
    [0, size] ``ValueError``, each naming the starts ``solve_lcp`` takes."""
    accepted = f"None, a boolean mask, or with ul an integer prefix length 0 <= k <= {size}"
    if isinstance(start, (bool, np.bool_)):
        raise TypeError(f"LCP start must be {accepted}, got {start!r}")
    if ul is None or not 0 <= start <= size:
        raise ValueError(f"LCP start must be {accepted}, got {start!r}")
    return int(start)


def solve_lcp(S, rhs: np.ndarray, obstacle: np.ndarray | None,
              start: np.ndarray | int | None = None, ul=None,
              out=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Primal-dual active-set solve of S u - lam = rhs, u >= obstacle,
    lam >= 0, lam . (u - obstacle) = 0.

    Returns (u, lam, number of linear solves).  S (a ``Tridiagonal`` or a
    square dense array) and the obstacle are taken as checked: S by
    ``check_lcp_matrix``, the obstacle finite and of S's size, as a
    trajectory checks them once.  The obstacle None is the zero obstacle
    of the reduced cone problems: the pinned values are zeros, pinning
    never shifts rhs, and the update's vector is lam - u, one pass.  Only
    the float vector rhs is checked here, for its shape against the
    obstacle's (``ValueError``) and finiteness: a non-finite rhs raises
    ``NumericalBreakdownError``, since a trajectory computes it from its
    own states.  ``start`` is a boolean active set (empty if None).
    ``ul`` optionally passes (U^-1 rhs, L, S obstacle, S obstacle without
    its upper terms) for a tridiagonal S = U L factored without row
    interchanges, as ``StepOperators`` gives them; prefix active sets are
    then solved on those factors (``_solve_prefix``), and ``start`` may
    also be an integer k (an int or a numpy integer, not a bool) with
    0 <= k <= H, the prefix [0, k), as ``predict_contact`` gives it.  An
    integer start without ``ul`` or out of that range, and ``ul`` with the
    obstacle None, raise ``ValueError``, a bool scalar ``TypeError``.
    ``out`` may pass two float vectors (u, lam) of S's size, such as a
    trajectory's rows: every iterate is solved into them, and they are
    returned.  Without it, u and lam are fresh arrays.  A third vector in
    ``out`` receives, whichever way the iteration stops, the returned
    iterate's update vector lam + (obstacle - u) (lam - u for None), from
    which a reduced trajectory starts its next step.

    The iteration starts from ``start`` and stops as soon as the updated
    active set {i : lam_i + (obstacle_i - u_i) > tol} reproduces the
    current one, which makes the final iterate feasible and exactly
    complementary.  From an int start k the first update is made in two
    partial passes, lam[:k] > tol everywhere and obstacle[k:] - u[k:] > tol
    nowhere: a prefix iterate has u = obstacle on [0, k) and lam = 0 after
    it, so that is the full update's decision.  Only if it fails is the
    mask of [0, k) built, for the loop to go on from.  The loop picks the
    pinned-set solve of S's kind, and tests the obstacle for zeros, once
    per call.

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
    if obstacle is None:
        if ul is not None:
            raise ValueError("LCP factors need the obstacle they were formed with")
    elif rhs.shape != obstacle.shape:
        raise ValueError("inconsistent LCP dimensions")
    # nan or inf unless rhs is finite; the ufunc's reduce skips ndarray.max's
    # Python wrapper
    scale = float(np.maximum.reduce(np.abs(rhs)))
    if not math.isfinite(scale):
        raise NumericalBreakdownError("LCP right-hand side must be finite")
    tol = TIE_TOL * scale
    u, lam, *update = (np.empty(rhs.size), np.empty(rhs.size)) if out is None else out
    update = update[0] if update else None
    if isinstance(start, (int, np.integer, np.bool_)):
        # the prefix [0, start), certified in two partial passes
        start = _prefix_length(start, rhs.size, ul)
        _solve_prefix(S, rhs, obstacle, start, *ul, u, lam)
        # a nan fails the first test and, skipped by fmax, passes the second,
        # as it does in the full update
        if (np.minimum.reduce(lam[:start], initial=math.inf) > tol
                and not np.fmax.reduce(obstacle[start:] - u[start:], initial=-math.inf) > tol):
            if update is not None:
                _update_vector(u, lam, obstacle, update)
            return u, lam, 1
        active, solves = np.arange(rhs.size) < start, 1
    else:
        active = np.zeros(rhs.size, dtype=bool) if start is None else start
        solves = 0
    pinned = 0.0 if obstacle is None else obstacle
    shift = obstacle is not None and np.count_nonzero(obstacle) > 0
    solve_inactive = _solve_banded if isinstance(S, Tridiagonal) else _solve_dense
    if not solves:
        _solve_pinned(S, rhs, pinned, shift, solve_inactive, ul, u, lam, active)
        solves = 1
    work = np.empty(rhs.size) if update is None else update
    key, seen = active.tobytes(), None  # the revisit check's set from the second update on
    least_index_mode = False
    while True:
        if least_index_mode:
            violated = np.flatnonzero(np.where(active, lam < 0.0, u < pinned))
            if violated.size == 0:
                if update is not None:
                    _update_vector(u, lam, obstacle, update)
                return u, lam, solves
            new_active = active.copy()
            new_active[violated[0]] = not new_active[violated[0]]
        else:
            new_active = _update_vector(u, lam, obstacle, work) > tol
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
        active = new_active
        _solve_pinned(S, rhs, pinned, shift, solve_inactive, ul, u, lam, active)
        solves += 1


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
    """What every step of one trajectory shares: operators, load, obstacle,
    factors and a workspace.

    ``explicit`` is mass/dt - (1 - theta) a(mu), the bands that act on the
    previous state.  ``psi`` is the lifted obstacle, checked finite;
    ``coupling[i]`` = lower[i-1] * psi[i-1] is what pinning node i-1 takes
    off row i (0 at node 0), ``s_psi`` = S psi, and ``s_psi_left`` row i
    of S psi without its upper term, diag[i] psi[i] + coupling[i] (no added
    zero at node 0, so that a -0.0 stays -0.0).  ``coupling`` is read where
    these are built and by ``march_group``, which pins its predicted nodes
    with it; a single step reads ``threshold`` = psi * pivots + coupling,
    ``first_leaving_node``'s per-trajectory threshold.  ``upper_factor``,
    ``lower_factor`` and ``threshold`` are None where ``ul_factor(S)``
    finds no (positive) UL pivots; else the factors are that function's.
    ``S`` has passed ``check_lcp_matrix``.

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
    coupling: np.ndarray
    s_psi: np.ndarray
    s_psi_left: np.ndarray
    upper_factor: np.ndarray | None
    lower_factor: np.ndarray | None
    threshold: np.ndarray | None
    work: np.ndarray = field(init=False, repr=False)   # (3, H): rhs, sweep, scratch
    above: np.ndarray = field(init=False, repr=False)  # (H + 1,), True at H

    def __post_init__(self):
        above = np.zeros(self.psi.size + 1, dtype=bool)
        above[-1] = True
        object.__setattr__(self, "work", np.empty((3, self.psi.size)))
        object.__setattr__(self, "above", above)

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
        prefix [0, k) of ``first_leaving_node``, a Python int, which
        ``solve_lcp`` takes as its start.

        ``swept`` is ``sweep(rhs)``.  Without pivots the guess is None, the
        empty start, which the iteration corrects as it does any wrong guess.
        """
        if self.threshold is None:
            return None
        return int(first_leaving_node(swept, self.threshold, self.above))


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
    """
    n = S.diag.size
    if n < 3:
        return None, None
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
    """Build the loop invariants of a trajectory at parameter ``mu`` against
    the lifted obstacle ``psi``.

    Fails as ``step_bands`` does; a non-finite ``psi`` raises
    ``NumericalBreakdownError``, as a non-finite step right-hand side does.
    """
    S, explicit = step_bands(mu, ops, config)
    if np.count_nonzero(np.isfinite(psi)) < psi.size:
        raise NumericalBreakdownError("LCP obstacle must be finite")
    upper_factor, lower_factor = ul_factor(S)
    coupling = np.zeros(psi.size)
    np.multiply(S.lower, psi[:-1], out=coupling[1:])
    s_psi_left = S.diag * psi
    s_psi_left[1:] += coupling[1:]
    threshold = None if lower_factor is None else psi * lower_factor[0] + coupling
    return StepOperators(S=S, explicit=explicit, f_mu=load_vector(mu, ops.f1, ops.f2),
                         psi=psi, coupling=coupling, s_psi=S @ psi, s_psi_left=s_psi_left,
                         upper_factor=upper_factor, lower_factor=lower_factor,
                         threshold=threshold)


def theta_step(u_prev: np.ndarray, step: StepOperators, out):
    """One backward-time step against ``step.psi``, solved into ``out`` =
    (u, lam) as ``solve_lcp`` does; returns (u_next, lam_next, solver
    iterations)."""
    rhs = step.rhs(u_prev)
    swept = step.sweep(rhs)
    ul = None if swept is None else (swept, step.lower_factor, step.s_psi, step.s_psi_left)
    return solve_lcp(step.S, rhs, step.psi, step.predict_contact(swept), ul, out=out)


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

    Each member has its own ``StepOperators``.  The group stacks their
    arrays into (M, H) blocks, so that each elementwise operation of
    ``theta_step`` runs once for all members, on the same operands, the
    prediction by the same ``first_leaving_node``.  Each of
    the two bidiagonal sweeps runs once, on the members laid end to end with
    a pad node holding 1.0 after each and zero couplings across the pads:
    such a coupling adds -1.0 * 0.0 = -0.0 to a member's node, which
    changes no float.  The lower sweep pads a member's predicted prefix
    [0, k) too, so that node k starts as ``_solve_prefix`` starts it.  A
    pad left other than 1.0 has met a non-finite neighbour, and the group
    gives up.  A member whose predicted prefix the first update does not
    reproduce is solved again from it by ``solve_lcp``.  The states and
    multipliers are rows of one (M, 2L + 1, H) block; member m's
    trajectory is block[m].
    """
    mesh, H, L, M = ops.mesh, ops.dim, config.L, len(params)
    try:
        steps = [step_operators(mu, ops, config, obstacle_data(mesh, mu.K).psi_tilde)
                 for mu in params]
    except AmrbError:
        return None
    if any(step.lower_factor is None for step in steps):
        return None

    def stack(rows):
        return np.array(list(rows))

    explicit_columns = Tridiagonal(*(stack(bands).T  # nodes along axis 0
                                     for bands in zip(*(step.explicit for step in steps))))
    f_mu, psi, threshold, s_psi, s_psi_left = (
        stack(getattr(step, name) for step in steps)
        for name in ("f_mu", "psi", "threshold", "s_psi", "s_psi_left"))
    upper = stack(step.S.upper for step in steps)
    # coupling and pivots with a pad column, 0.0 and 1.0, so that a member
    # predicted to leave no node (k = H) pins its pad to 1.0
    coupling, pivots = np.zeros((M, H + 1)), np.ones((M, H + 1))
    coupling[:, :H] = stack(step.coupling for step in steps)
    pivots[:, :H] = stack(step.lower_factor[0] for step in steps)
    # both factors laid end to end with a pad after each member, in BLAS band
    # storage: Fortran (2, M (H + 1)) arrays, each the transpose of an
    # (M, H + 1, 2) block; the couplings are the upper factor's [..., 0] and
    # the lower's [..., 1], and the unit diagonals the ones left
    upper_pads, lower_pads = np.ones((2, M, H + 1, 2))
    upper_pads[:, 0, 0] = upper_pads[:, H, 0] = 0.0
    upper_pads[:, 1:H, 0] = stack(step.upper_factor[0, 1:] for step in steps)
    upper_group, lower_group = (pads.reshape(-1, 2).T for pads in (upper_pads, lower_pads))
    sub, sub_members = lower_pads[..., 1], np.zeros((M, H + 1))
    sub_members[:, :H] = stack(step.lower_factor[1] for step in steps)  # ends in 0

    block = np.zeros((M, 2 * L + 1, H))
    block[:, 0] = psi
    iterations = np.ones((M, L), dtype=int)
    rhs, work = np.empty((2, M, H))
    # the upward sweep and the sweep down from the predicted prefixes;
    # column H holds their pads
    sweeps = np.ones((2, M, H + 1))
    swept, free = sweeps
    pads = sweeps[:, :, H]
    above = np.ones((M, H + 1), dtype=bool)  # ``first_leaving_node``'s, True at H
    members, nodes = np.arange(M), np.arange(H)
    for n in range(L):
        u, lam = block[:, n + 1], block[:, L + 1 + n]
        band_product(explicit_columns, block[:, n].T, rhs.T, work.T)
        rhs += f_mu
        scale = np.maximum.reduce(np.abs(rhs, out=work), axis=1)
        if not math.isfinite(np.maximum.reduce(scale)):
            return None
        swept[:, :H] = rhs
        dtbsv(1, upper_group, swept.reshape(-1), diag=1, overwrite_x=1)
        k = first_leaving_node(swept[:, :H], threshold, above)
        contact = nodes < k[:, None]
        # ``_solve_prefix`` from every prediction, node k pinned
        np.divide(swept[:, :H], pivots[:, :H], out=free[:, :H])
        free[members, k] = (swept[members, k] - coupling[members, k]) / pivots[members, k]
        np.copyto(free[:, :H], 1.0, where=contact)
        np.copyto(sub, sub_members)
        np.copyto(sub[:, :H], 0.0, where=contact)
        dtbsv(1, lower_group, free.reshape(-1), lower=1, diag=1, overwrite_x=1)
        if np.add.reduce(pads, axis=None) != 2 * M:  # else a pad holds nan
            return None
        np.copyto(u, free[:, :H])
        np.copyto(u, psi, where=contact)
        np.subtract(s_psi, rhs, out=lam, where=contact)  # zero elsewhere from the start
        resum = np.flatnonzero((k > 0) & (k < H))  # row k-1 reads the free u[k]
        i = k[resum] - 1
        lam[resum, i] = s_psi_left[resum, i] + upper[resum, i] * u[resum, i + 1] - rhs[resum, i]
        # the first update of ``solve_lcp``, which certifies the prediction
        np.subtract(psi, u, out=work)
        work += lam
        certified = above[:, :H]
        np.greater(work, (TIE_TOL * scale)[:, None], out=certified)
        np.equal(certified, contact, out=certified)
        if certified.all():
            continue
        for m in np.flatnonzero(~certified.all(axis=1)):
            step = steps[m]
            ul = (swept[m, :H], step.lower_factor, step.s_psi, step.s_psi_left)
            try:
                iterations[m, n] = solve_lcp(step.S, rhs[m], step.psi, contact[m], ul,
                                             out=(u[m], lam[m]))[2]
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

