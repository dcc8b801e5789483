"""Bounded tension distribution by a finite primal active-set method.

The problem: find cable tensions t in the box [t_min, t_max]^m whose net
pull A t equals a desired force f, the columns of A being unit cable
directions. The answer is the Euclidean projection of t_min onto the
intersection of the box and the equilibrium set {t : A t = f}; when the
intersection is empty, it is the box point nearest the equilibrium set,
which renders the nearest reachable force. A force, like a tension bound,
lies below _fields.MAX_MAGNITUDE, so no square a solve forms overflows.

Notation. One SVD A = U S V^T of rank r gives rows = V_r^T, with
orthonormal rows spanning A's row space, and goal = S_r^-1 U_r^T; rows t
= goal f holds exactly when A t is f's part in A's range, so a
rank-deficient A needs no special case. A^+ = rows^T goal. For the
residual r = f - A t, ||goal r|| is the distance from t to the
equilibrium set and A^+ r, the descent, its negative gradient. A
rounding level of a point t is eps ||goal|| (max |f_i| + sum t): the
|A||t| bound on the rounding of f - A t for unit columns and t >= 0
(Higham 2002), carried through A^+.

The loop (_active_set). Each iteration takes the working set of its box
point, steps toward a least-squares solution over its free cables, and
holds the cable that blocks the step, or else tests the set; so it holds
or releases at most one cable. Until an iterate renders f within the
tolerance tol, the loop is bounded-variable least squares (Stark &
Parker 1995), which finds the box point nearest the equilibrium set.
From then on it keeps the force that iterate renders and is the primal
active-set method (Nocedal & Wright, Numerical Optimization, Alg. 16.3)
for the point nearest t_min.

Working sets. A working set holds some cables at a bound and leaves the
rest free. Its optimum holds the held cables there and gives the free
ones the least-squares solution of rows t = goal f nearest t_min. The
set certifies
  * exact (_optimum) when its optimum renders f within tol, every free
    cable lies inside the box by more than the margin, and every held
    cable's multiplier has its bound's sign by more than the margin;
  * nearest (_nearest_optimum) when its optimum misses f by more than
    tol and by more than _FEASIBLE_LEVELS rounding levels, its free
    cables have full column rank and lie inside the box by more than the
    margin, and every held cable's descent points out of the box by more
    than the descent threshold.
The margin is box.rounding plus tol times the block's drift (_Block).
The descent threshold is the larger of its tolerance term, tol / 10, and
_STATIONARY_LEVELS rounding levels of the point tested.

Why a strict certificate has one answer. A strictly certified optimum
meets the KKT conditions of the convex problem with every inequality
strict (Nocedal & Wright, ch. 16), so no other box point and no other
working set meets them. For a nearest set, the nearest point's rendered
force is unique, the strictly outward descents fix the held cables and
full column rank fixes the free ones. So a force certifies exact or
nearest, never both, and with one set at most.

Why answers do not depend on history. A solve tries, in this order, the
exact sets its factorization kept for the bounds, t_min's set
(_floor_residual), the nearest sets kept, and then the loop; the first
answer is the answer, and a kept set's counts 1 iteration. The loop,
once an iterate renders f, steps toward the optimum of the force that
iterate renders, which lies within tol of f; a set that certifies for f
with the tolerance term of the margin certifies for every such force, so
the loop certifies it at the same iteration. A cold solve asks only the
set the loop certifies and keeps it; a kept set answers by the same
function of the same set. So an answer and its iteration count depend on
(A, f, bounds, config) alone, and kept sets change only how fast it
comes. The one exception is the cap: a cold solve that max_iterations
stops reports ITERATION_CAP, where a kept set that certifies answers as
an uncapped solve does. A degenerate nearest point, whose free cables
lack full column rank or whose held descents do not clear the
threshold, answers with the iterate and keeps no set.

Rounding. Products with a cached operator are ndarray.dot calls, and
per-cable work is Python passes over lists of floats. Each pass does the
same float operations in the same order as the array expression it
stands for: a clip keeps the bound on a tie, as np.maximum and
np.minimum return their second operand, and a choice breaks ties toward
the lowest index, as argmin and argmax do. Three passes stand for a
product instead, and each float sum of three products lies within
gamma_3 = 3 eps / (1 - 3 eps) of the exact one, relative to the sum of
the products' magnitudes (Higham 2002, 3.1):
  * a working set's shift p_i . f - q_i groups the products of
    shift_op (goal f - c) otherwise;
  * the force residual (_residual) is a float sum, and the roots of it
    and of numpy's dot differ by at most gamma_3 + eps relative;
  * t_min's descent (_floor_residual) and the loop's BLAS product A^+ r
    differ by at most 3 eps ||A^+|| ||r||, and ||A^+|| = ||goal||. Where
    _floor_residual answers, each float d_i is at most eps/2 t_min,i,
    and eps sum t_max and _STATIONARY_LEVELS levels of any iterate lie
    within the threshold's tolerance term, so the loop's descent at t_min
    is at most 1/2 + 3/_STATIONARY_LEVELS of that term: the loop would
    stop at t_min however either sum rounds.
Every answer of each kind takes the same pass, so an answer still depends
on nothing but the problem.

Caches. Everything that depends on A alone, or on A and the last bounds,
lives in A's one _Factorization (_factorization), and what depends on
the bounds alone in one _Box every matrix shares (_box), so a solve
computes only what depends on the force.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple, Sequence, Union

import numpy as np
from numpy.linalg._umath_linalg import svd_f

from ._fields import force3, integer, real, set_checked
from .geometry import StructureMatrix, TensionBounds, _norms

# Relative singular-value cutoff shared by the pseudoinverse and rank checks.
RANK_REL_TOL = 1e-9

# Residual (newtons) below which a desired force counts as wrench-feasible.
WRENCH_FEASIBLE_RESIDUAL = 1e-7

# The most certified working sets, exact and nearest together, a
# factorization keeps for its bounds.
_MAX_SETS = 8

# In rounding levels (module docstring): a held descent must point out of
# the box by more than _STATIONARY_LEVELS, and a certified point within
# _FEASIBLE_LEVELS of f is taken as rendering it.
_STATIONARY_LEVELS = 16.0
_FEASIBLE_LEVELS = 64.0
# The spacing of floats just above 1.0, twice the unit roundoff.
_EPS = float(np.finfo(float).eps)


class SolveStatus(Enum):
    """Outcome of a tension solve, in decreasing order of success."""

    FEASIBLE_EXACT = "feasible_exact"
    NEAREST_FEASIBLE = "nearest_feasible"
    ITERATION_CAP = "iteration_cap"


BoundsLike = Union[TensionBounds, Sequence[TensionBounds]]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration limit and tolerance for the solve.

    ``max_iterations`` caps the iterations of the solve's active-set
    loop, which holds or releases at most one cable per iteration; most
    solves certify their result in fewer than ten. ``tolerance`` bounds
    the force residual of an exact solution, in newtons, and sets the
    descent threshold that certifies a nearest one (see the module
    docstring).
    """

    max_iterations: int = 50000
    tolerance: float = 1e-8

    # Not a field, and always None: benchmarks/bench.py reads it to choose
    # the start of its QP oracle check, until it takes t_min there itself.
    start = None

    def __post_init__(self):
        set_checked(self, integer, "max_iterations", minimum=1)
        set_checked(self, real, "tolerance", minimum=0.0, strict=True)


@dataclass(frozen=True, slots=True)
class SolveResult:
    """Tensions plus the force they actually render and solve diagnostics.

    ``tensions`` is always box-feasible, whatever the status.
    ``force_residual`` is ||A t - f_desired|| in newtons, always finite,
    as a float norm of the three components (its rounding: the module
    docstring). A NEAREST_FEASIBLE answer's residual lies above the
    tolerance. The fields are slots, so a result has no ``__dict__`` and
    takes no weak reference.
    """

    tensions: np.ndarray
    rendered_force: np.ndarray
    force_residual: float
    status: SolveStatus
    iterations: int


# The setters of SolveResult's slots, in field order: a frozen dataclass
# refuses assignment, and its __init__ sets each field through
# object.__setattr__, at about twice the cost.
_SET_TENSIONS, _SET_RENDERED, _SET_RESIDUAL, _SET_STATUS, _SET_ITERATIONS = (
    getattr(SolveResult, field.name).__set__ for field in fields(SolveResult)
)

_DEFAULT_CONFIG = SolverConfig()


class _Block(NamedTuple):
    """What the loop needs of one free-column block rows[:, free]: its
    left singular vectors u and rank, shift_op = rows^T times the
    pseudoinverse of its Gram matrix, u_r diag(1/s^2) u_r^T, and drift =
    ||goal|| / s_min^2, the most a newton of force error moves the optimum
    of a working set on this block, on any cable or multiplier."""

    u: np.ndarray
    rank: int
    shift_op: np.ndarray
    drift: float


class _WorkingSet(NamedTuple):
    """A certified working set: the free mask and the held vector (t_min
    on each free cable, its bound on each held one), its block's drift
    (_Block), and what its answer reads, one entry per cable: the offset
    q_i, a float, and the force-map row p_i, a float triple, so that
    p_i . f - q_i is the cable's shift, or, on a nearest set's held
    cable, its descent (_working_set)."""

    free: Sequence[bool]
    held: Sequence[float]
    drift: float
    offsets: tuple[float, ...]
    force_map: tuple[tuple[float, float, float], ...]


class _Box(NamedTuple):
    """What a solve needs of its bounds on m cables: t_min, a read-only
    array; rounding, the rounding level of any tension and of any step
    between tensions, 1e-12 times the largest t_max; both bounds as
    tuples of floats; and hi_sum, the sum of the upper bounds."""

    lo: np.ndarray
    rounding: float
    lo_floats: tuple[float, ...]
    hi_floats: tuple[float, ...]
    hi_sum: float


@functools.lru_cache(maxsize=1)
def _box(bounds, m: int) -> _Box:
    """The _Box of bounds, a TensionBounds or a tuple of them, on m cables.

    Only the last box is kept, and equal bounds match whatever object
    carries them. Bounds of the wrong count raise ValueError, and
    lru_cache stores no call that raised.
    """
    if isinstance(bounds, TensionBounds):
        lo, hi = np.full(m, bounds.t_min), np.full(m, bounds.t_max)
    elif len(bounds) != m:
        raise ValueError(f"got {len(bounds)} per-cable bounds for {m} cables")
    else:
        lo = np.array([b.t_min for b in bounds])
        hi = np.array([b.t_max for b in bounds])
    # 0 <= t_min < t_max on every cable, so hi.max() is also the largest |t|
    rounding = float(1e-12 * hi.max())
    hi_floats = tuple(hi.tolist())
    return _Box(_frozen(lo), rounding, tuple(lo.tolist()), hi_floats, sum(hi_floats))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of the float vector arr over bytes, which, unlike
    an array that owns its data, no caller can make writeable again."""
    return np.frombuffer(arr.tobytes())


def _rank(values, largest: float) -> int:
    """How many of the singular values in values, a list of floats, exceed
    RANK_REL_TOL times largest; 0 when largest is 0."""
    if not largest > 0:
        return 0
    cutoff = RANK_REL_TOL * largest
    rank = 0
    for value in values:
        if value > cutoff:
            rank += 1
    return rank


def _svd(M: np.ndarray):
    """np.linalg.svd(M) of a float matrix M, with its bits, and the
    singular values again as a list: (u, sv, vt, values).

    It calls numpy's gufunc svd_f with the signature np.linalg.svd passes
    for a float matrix; svd_f is numpy's private API, under this name
    since numpy 2.0, and pyproject.toml caps numpy below 3 for it. A
    failure to converge, which LAPACK leaves as NaN, raises LinAlgError,
    also where warnings are errors. StructureMatrix rejects NaN and inf,
    so public inputs never reach it."""
    try:
        u, sv, vt = svd_f(M, signature="d->ddd")
    except RuntimeWarning as warning:
        raise np.linalg.LinAlgError("SVD did not converge") from warning
    values = sv.tolist()
    if any(map(math.isnan, values)):
        raise np.linalg.LinAlgError("SVD did not converge")
    return u, sv, vt, values


class _Factorization:
    """A checked structure matrix, as matrix, with everything a solve on
    it reads that does not depend on the force.

    From one SVD: rank, the package's one rank rule, which actuation_rank
    reads; rows, goal and pinv = A^+ (module docstring), pinv_rows, A^+'s
    rows as float triples, rows_t, a C-contiguous rows^T, and goal_norm =
    ||goal||. A _Block per free mask asked for (block), and for the last
    bounds asked for, their _Box, A t_min and the _Kept sets (box). Every
    array held here is read-only, since later solves share it.
    """

    def __init__(self, M: np.ndarray):
        u, sv, vt, values = _svd(M)
        # a view taken of vt after this is read-only too
        vt.setflags(write=False)
        rank = _rank(values, values[0])
        rows = vt[:rank]
        goal = u[:, :rank].T / sv[:rank, None]
        rows_t = np.ascontiguousarray(rows.T)
        pinv = rows_t.dot(goal)
        for arr in (goal, rows_t, pinv):
            arr.setflags(write=False)
        self.matrix, self.rank, self.rows = M, rank, rows
        self.goal, self.rows_t, self.pinv = goal, rows_t, pinv
        self.pinv_rows = tuple(map(tuple, pinv.tolist()))
        # the inverse of the smallest singular value kept
        self.goal_norm = 1.0 / values[rank - 1] if rank else 0.0
        self._blocks: dict[bytes, _Block] = {}
        # (bounds, what box returns): one tuple, assigned at once, so a
        # thread reads all of one bounds' memo or all of another's
        self._box: tuple[object, tuple[_Box, np.ndarray, tuple, _Kept]] | None = None

    def block(self, free) -> _Block:
        """The _Block of rows[:, free], free a list or array of m bools.

        rows has orthonormal rows, so its largest singular value is 1 and
        RANK_REL_TOL is the same relative cutoff as for A. Two threads may
        both compute a missing block; they store identical values.
        """
        # a list of bools and a bool array of the same mask give equal bytes
        key = bytes(free)
        found = self._blocks.get(key)
        if found is None:
            free = np.frombuffer(key, dtype=bool)
            u, sv, _, values = _svd(self.rows.compress(free, axis=1))
            rank = _rank(values, 1.0)
            u_r = u[:, :rank]
            shift_op = self.rows_t.dot((u_r / sv[:rank] ** 2).dot(u_r.T))
            for arr in (u, shift_op):
                arr.setflags(write=False)
            drift = self.goal_norm / values[rank - 1] ** 2 if rank else 0.0
            found = self._blocks[key] = _Block(u, rank, shift_op, drift)
        return found

    def box(self, bounds: BoundsLike) -> tuple[_Box, np.ndarray, tuple, _Kept]:
        """(the _Box of bounds, A t_min read-only, A t_min as three floats,
        the working sets kept under bounds), for the last bounds only.

        The key is the TensionBounds itself or a tuple of them: comparing
        it is cheaper than the hash a _box lookup takes, so only a new
        matrix goes to _box.
        """
        if not isinstance(bounds, TensionBounds):
            bounds = tuple(bounds)
        last = self._box
        # == on a TensionBounds is its dataclass's Python __eq__, so the
        # usual case, the same object again, is told by identity first
        if last is not None and (last[0] is bounds or last[0] == bounds):
            return last[1]
        box = _box(bounds, self.matrix.shape[1])
        a_lo = _frozen(self.matrix.dot(box.lo))
        # a held vector holds its bounds' values, so new bounds keep anew
        found = box, a_lo, tuple(a_lo.tolist()), _Kept()
        self._box = (bounds, found)
        return found


class _Kept:
    """The working sets a factorization's solves certified under one
    bounds object, by (free, held): exact ones in sets and nearest ones in
    nearest_sets, each dict in the order its sets were kept.

    Threads may share a factorization. A solve reads this from the same
    memo as its box, so a set certified under other bounds never answers,
    and keep replaces both dicts with changed copies under a lock, so a
    solve in another thread iterates the dict it read, whole.
    """

    _lock = threading.Lock()

    def __init__(self):
        self.sets: dict[tuple, _WorkingSet] = {}
        self.nearest_sets: dict[tuple, _WorkingSet] = {}
        # whether each kept key is nearest, in the order kept
        self._order: dict[tuple, bool] = {}

    def keep(self, ws: _WorkingSet, nearest: bool) -> None:
        """Remember ws, in nearest_sets if nearest and in sets otherwise,
        unless it is known. The two kinds share _MAX_SETS slots, and the
        oldest set of either kind makes way, so neither kind holds slots
        the other's newer sets would use. A free mask decides the kind, so
        the kinds' keys never meet."""
        key = bytes(ws.free), tuple(ws.held)
        with self._lock:
            if key in self._order:
                return
            order = {**self._order, key: nearest}
            sets, nearest_sets = dict(self.sets), dict(self.nearest_sets)
            (nearest_sets if nearest else sets)[key] = ws
            if len(order) > _MAX_SETS:
                oldest = next(iter(order))
                del (nearest_sets if order.pop(oldest) else sets)[oldest]
            self._order = order
            self.sets, self.nearest_sets = sets, nearest_sets


@functools.lru_cache(maxsize=1)
def _factorize(key: bytes) -> _Factorization:
    """The factorization of the 3 x m matrix whose C-order bytes are key.

    Only the most recent matrix is kept, so consecutive solves on one
    matrix share it, whatever object carries it. Its matrix is a
    read-only array over the bytes of key, not a copy.
    """
    return _Factorization(np.frombuffer(key).reshape(3, len(key) // 24))


def _factorization(A) -> _Factorization:
    """The factorization of A, a StructureMatrix taken as it is, checked
    when it was built, or of the StructureMatrix built from A, which
    checks it. Every entry point that takes a matrix comes here."""
    if not isinstance(A, StructureMatrix):
        A = StructureMatrix(A)
    return _factorize(A.columns.tobytes())


def actuation_rank(A: StructureMatrix | np.ndarray) -> int:
    """Numerical rank of the structure matrix (cutoff RANK_REL_TOL relative
    to the largest singular value). Rank 3 with m >= 4 positively spanning
    columns means the system is redundantly actuated."""
    return _factorization(A).rank


def _worst(free, t, g, lo) -> tuple[int, float]:
    """The held cable whose g points furthest into the box (g at a floor,
    -g at a ceiling; the lowest index on a tie) and that amount, or
    (-1, -inf) when none is held; all four are sequences, one entry per
    cable.

    g is where a held cable would move if it were free: its descent before
    f is rendered, and after it t_min + shift - t, minus its multiplier at
    a floor and its multiplier at a ceiling. A held cable sits exactly on
    a bound, so t <= t_min tells a floor from a ceiling.
    """
    worst, most = -1, -math.inf
    for i, (is_free, ti, gi, lo_i) in enumerate(zip(free, t, g, lo)):
        if not is_free:
            into_box = gi if ti <= lo_i else -gi
            if into_box > most:
                worst, most = i, into_box
    return worst, most


def _move(t, fraction: float, step, lo, hi) -> list[float]:
    """The pass for np.minimum(np.maximum(t + fraction * step, lo), hi),
    from sequences of floats, one entry per cable. A fraction of 1.0
    leaves each step component as it is, so it also stands for t + step."""
    moved = []
    for ti, si, lo_i, hi_i in zip(t, step, lo, hi):
        v = ti + fraction * si
        v = v if v > lo_i else lo_i
        moved.append(v if v < hi_i else hi_i)
    return moved


def _ratio_step(t, step, box: _Box):
    """(the new box point, the blocking cable) of t moved along step, both
    lists of floats, to where the first cable meets a bound; the blocking
    cable is the lowest index on a tie, set exactly on its bound, or -1
    when the whole step is taken, which is _move at fraction 1.0.

    Step components at or below box.rounding block nothing, so a bound
    just released does not block the step at length zero.
    """
    lo, hi, rounding = box.lo_floats, box.hi_floats, box.rounding
    fraction, blocking, bound = 1.0, -1, 0.0
    moved = []
    for i, (ti, si, lo_i, hi_i) in enumerate(zip(t, step, lo, hi)):
        v = ti + si
        v = v if v > lo_i else lo_i
        moved.append(v if v < hi_i else hi_i)
        if abs(si) > rounding:
            edge = hi_i if si > 0 else lo_i
            # the fraction of the step this cable can take
            room = (edge - ti) / si
            if room < fraction:
                fraction, blocking, bound = room, i, edge
    if blocking < 0:
        return moved, -1
    moved = _move(t, fraction, step, lo, hi)
    moved[blocking] = bound
    return moved, blocking


def _below_threshold(fac, box: _Box, root: float, stationary: float) -> bool:
    """Whether _STATIONARY_LEVELS rounding levels of every iterate lie at
    or below the threshold stationary, root being the residual norm of
    any one iterate: max |f_i| <= root + sum t, and sum t <= hi_sum."""
    unit = _EPS * fac.goal_norm
    return _STATIONARY_LEVELS * unit * (root + 2.0 * box.hi_sum) <= stationary


def _floor_residual(fac, box: _Box, f, a_lo, tol: float):
    """||f - A t_min|| when t_min answers f, NEAREST_FEASIBLE, and None
    otherwise; f and a_lo = A t_min are three floats each, and no numpy
    call runs.

    This is the nearest test of the set that holds every cable on its
    floor: its optimum is t_min and its descent A^+ r, r = f - A t_min,
    formed here by one float pass over A^+'s rows. t_min answers when its
    residual exceeds tol, no cable's clip fl(t_min,i + d_i) leaves its
    floor, and the descent threshold is its tolerance term on every
    iterate; the module docstring shows the loop stops there too. The
    residual is _residual's for t_min, bit for bit, since f - A t_min
    negates A t_min - f exactly.
    """
    f0, f1, f2 = f
    a0, a1, a2 = a_lo
    r0, r1, r2 = f0 - a0, f1 - a1, f2 - a2
    root = math.sqrt((r0 * r0 + r1 * r1) + r2 * r2)
    stationary = tol * 0.1
    if root <= tol or _EPS * box.hi_sum > stationary:
        return None
    for (p0, p1, p2), lo_i in zip(fac.pinv_rows, box.lo_floats):
        if lo_i + (p0 * r0 + p1 * r1 + p2 * r2) > lo_i:
            return None
    return root if _below_threshold(fac, box, root, stationary) else None


def _optimum(fac, ws: _WorkingSet, f, box: _Box, tol: float):
    """The exact answer of working set ws for the force f, three floats,
    as (x, A x, ||A x - f||), when ws certifies exact for f (module
    docstring); None otherwise. One pass forms each cable's shift
    p_i . f - q_i and tests it, so no numpy call runs before ws
    certifies. A cable at a bound with a zero multiplier fails."""
    f0, f1, f2 = f
    margin = box.rounding + tol * ws.drift
    t = []
    for is_free, h, (p0, p1, p2), q, lo_i, hi_i in zip(
        ws.free, ws.held, ws.force_map, ws.offsets, box.lo_floats, box.hi_floats
    ):
        s = p0 * f0 + p1 * f1 + p2 * f2 - q
        if is_free:
            # h is lo_i on a free cable
            v = h + s
            if not lo_i + margin < v < hi_i - margin:
                return None
            t.append(v)
        else:
            mu = h - lo_i - s
            if (mu if h <= lo_i else -mu) <= margin:
                return None
            t.append(h)
    found = _rendering(fac, t, f)
    return found if found[2] <= tol else None


def _nearest_optimum(fac, ws: _WorkingSet, f, box: _Box, tol: float):
    """The nearest answer of working set ws for the force f, three floats,
    as (x, A x, ||A x - f||), when ws certifies nearest for f (module
    docstring); None otherwise. One pass forms each free cable's shift
    and each held cable's descent as p_i . f - q_i and tests it, so no
    numpy call runs before ws certifies. A zero descent fails."""
    f0, f1, f2 = f
    margin = box.rounding + tol * ws.drift
    stationary = tol * 0.1
    # the least outward descent of a held cable
    least = math.inf
    t = []
    for is_free, h, (p0, p1, p2), q, lo_i, hi_i in zip(
        ws.free, ws.held, ws.force_map, ws.offsets, box.lo_floats, box.hi_floats
    ):
        s = p0 * f0 + p1 * f1 + p2 * f2 - q
        if is_free:
            v = h + s
            if not lo_i + margin < v < hi_i - margin:
                return None
            t.append(v)
        else:
            out = -s if h <= lo_i else s
            if out <= stationary:
                return None
            least = out if out < least else least
            t.append(h)
    found = _rendering(fac, t, f)
    level = _EPS * fac.goal_norm * (max(map(abs, f)) + sum(t))
    if found[2] > max(tol, _FEASIBLE_LEVELS * level) and least > _STATIONARY_LEVELS * level:
        return found
    return None


def _rendering(fac, t, f):
    """(x, A x, ||A x - f||) of the tensions t, a list of floats, for the
    force f, three floats: what a solve answers with."""
    x = np.array(t)
    rendered = fac.matrix.dot(x)
    return x, rendered, _residual(rendered, f)


def _residual(rendered, f) -> float:
    """||rendered - f|| as one float sum over rendered.tolist(), rendered
    an array of three floats and f three floats: every answer's
    force_residual, and the norm every test of a residual against tol
    reads, so an answer's status and its residual agree."""
    (r0, r1, r2), (f0, f1, f2) = rendered.tolist(), f
    m0, m1, m2 = r0 - f0, r1 - f1, r2 - f2
    return math.sqrt((m0 * m0 + m1 * m1) + m2 * m2)


def _reuse(sets, optimum, fac, f, box: _Box, tol: float):
    """The first answer that optimum, _optimum or _nearest_optimum, gives
    for the force f, three floats, from the dict of kept sets sets, in the
    order they were kept; None if none gives one."""
    for ws in sets.values():
        found = optimum(fac, ws, f, box, tol)
        if found is not None:
            return found
    return None


def _working_set(fac, blk: _Block, free, held, c) -> _WorkingSet:
    """The working set with the list of bools free, whose block is blk,
    and the held vector held, a list of floats, c being rows times held.

    Its offsets are O c and its force map O goal, where O is blk.shift_op
    but, on a nearest set's held cables (blk.rank below A's), the
    operator of their descent, rows^T U_perp U_perp^T, U_perp the
    trailing columns of blk.u."""
    op = blk.shift_op
    if blk.rank < fac.rank:
        # U_perp spans the directions of rows t the free cables cannot reach
        perp = blk.u[:, blk.rank :]
        op = np.where(np.array(free)[:, None], op, fac.rows_t.dot(perp.dot(perp.T)))
    offsets = tuple(op.dot(c).tolist())
    force_map = tuple(map(tuple, op.dot(fac.goal).tolist()))
    return _WorkingSet(free, held, blk.drift, offsets, force_map)


def _nearest_set(fac, box: _Box, t):
    """The nearest working set of the box point t, a list of floats, which
    holds the cables t has on a bound; None when the free cables lack full
    column rank, where no optimum is unique, or reach A's rank."""
    lo, hi = box.lo_floats, box.hi_floats
    free = [lo_i < ti < hi_i for ti, lo_i, hi_i in zip(t, lo, hi)]
    blk = fac.block(free)
    if blk.rank < fac.rank and blk.rank == sum(free):
        held = [lo_i if is_free else ti for is_free, lo_i, ti in zip(free, lo, t)]
        return _working_set(fac, blk, free, held, fac.rows.dot(np.array(held)))
    return None


def _active_set(fac, box: _Box, kept, t, fvec, f, tol: float, budget: int) -> SolveResult:
    """The cold solve of the force fvec, f being its three floats, by the
    active-set loop (module docstring) from t, a list of floats, the
    box-clipped t_min + A^+ (f - A t_min), in at most budget iterations.
    It keeps the set it certifies in kept, the bounds' _Kept.

    Each iteration holds the cables t has at a bound. Until an iterate
    renders f, the step over the free cables is shift_op goal r, formed
    from the residual so that it rounds with the step rather than with
    the tensions; an unblocked step is tested by the descents of the held
    cables. From then on the step is _toward's, to the optimum for rows t
    = target, the target being rows t of the first iterate that rendered
    f; an unblocked step is tested by the multipliers of the held cables,
    to within box.rounding, and the free cables keep A's rank, a held
    cable being released first whenever they lose it. The worst failing
    cable is released. A set that passes is built and asked for its
    answer, so a solve builds at most one.

    Where no set answers, the iterate does: FEASIBLE_EXACT when it renders
    f within tol and ITERATION_CAP otherwise, as when the budget runs out.
    """
    rows, rank = fac.rows, fac.rank
    lo, hi = box.lo_floats, box.hi_floats
    free = [lo_i < ti < hi_i for ti, lo_i, hi_i in zip(t, lo, hi)]
    # root is the force_residual the iterate would answer with
    x, rendered, root = _rendering(fac, t, f)
    residual = fvec - rendered
    # whether an iterate has rendered f, whose force is then the target
    rendering = root <= tol
    target = rows.dot(x) if rendering else None
    # a rounding level is unit (max |f_i| + sum t), unit being set at the
    # first descent test, to 0 where _below_threshold holds
    unit = None
    for k in range(1, budget + 1):
        blk = fac.block(free)
        if not rendering:
            # the least-squares step over the free cables, from t
            toward = blk.shift_op.dot(fac.goal.dot(residual)).tolist()
        elif blk.rank < rank:
            # release the held cable reaching furthest into the missing span
            reach = _norms(blk.u[:, blk.rank :].T @ rows, 0)
            free[int(np.where(free, -1.0, reach).argmax())] = True
            continue
        else:
            held, c, toward = _toward(fac, blk, free, target, t, lo)
        step = [g if is_free else 0.0 for is_free, g in zip(free, toward)]
        t, blocking = _ratio_step(t, step, box)
        if not rendering:
            x, rendered, root = _rendering(fac, t, f)
            residual = fvec - rendered
            if blocking < 0 and root > tol:
                if unit is None:
                    below = _below_threshold(fac, box, root, tol * 0.1)
                    unit = 0.0 if below else _EPS * fac.goal_norm
                level = unit * (max(map(abs, f)) + sum(t))
                worst, into_box = _worst(free, t, fac.pinv.dot(residual).tolist(), lo)
                if into_box > max(tol * 0.1, _STATIONARY_LEVELS * level):
                    free[worst] = True
                    continue
                if _FEASIBLE_LEVELS * level < root:
                    ws = _nearest_set(fac, box, t)
                    found = None if ws is None else _nearest_optimum(fac, ws, f, box, tol)
                    if found is None:
                        # a degenerate point answers with the iterate
                        found = x, rendered, root
                    else:
                        kept.keep(ws, True)
                    return _result(box, *found, SolveStatus.NEAREST_FEASIBLE, k)
            if blocking < 0 or root <= tol:
                # f is rendered, or reached to rounding: from here on the
                # target is the force this iterate renders
                rendering = True
                target = rows.dot(x)
                if blocking < 0 and blk.rank == rank:
                    held, c, toward = _toward(fac, blk, free, target, t, lo)
        if blocking >= 0:
            free[blocking] = False
            continue
        if blk.rank < rank:
            continue
        worst, wrong = _worst(free, t, toward, lo)
        if wrong > box.rounding:
            free[worst] = True
            continue
        ws = _working_set(fac, blk, free, held, c)
        found = _optimum(fac, ws, f, box, tol)
        if found is not None:
            kept.keep(ws, False)
            return _result(box, *found, SolveStatus.FEASIBLE_EXACT, k)
        x, rendered, root = _rendering(fac, t, f)
        # the rounding of the steps can leave a certified point just above
        # a tolerance set near the rounding level of the force
        exact = root <= tol
        status = SolveStatus.FEASIBLE_EXACT if exact else SolveStatus.ITERATION_CAP
        return _result(box, x, rendered, root, status, k)
    return _result(box, *_rendering(fac, t, f), SolveStatus.ITERATION_CAP, budget)


def _toward(fac, blk: _Block, free, target, t, lo):
    """(held, c, toward), lists of floats but c, for the box point t whose
    free cables, of the list free, form blk: the held vector, c = rows
    times it, and t_min + shift - t on every cable, shift = blk.shift_op
    (target - c). On a free cable that is its step to the optimum for
    rows t = target; on a held cable, what _worst reads as its
    multiplier."""
    held = [lo_i if is_free else ti for is_free, lo_i, ti in zip(free, lo, t)]
    c = fac.rows.dot(np.array(held))
    shift = blk.shift_op.dot(target - c).tolist()
    return held, c, [lo_i + s - ti for lo_i, s, ti in zip(lo, shift, t)]


def solve(
    A: StructureMatrix | np.ndarray,
    f,
    bounds: BoundsLike,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Compute box-feasible cable tensions rendering the desired force f.

    The result is:

    * intersection of the box and {t : A t = f} nonempty -> the Euclidean
      projection of t_min onto it, status FEASIBLE_EXACT, with a force
      residual within the tolerance;
    * intersection empty -> the box point nearest the equilibrium set,
      status NEAREST_FEASIBLE, so the nearest reachable force is rendered;
    * otherwise ITERATION_CAP: max_iterations ran out, or the tolerance is
      below what the rounding of the steps lets the residual reach.
      Scaling the force, the bounds and the tolerance together scales the
      answer.

    The returned tensions are always within bounds, whatever the status.
    ``iterations`` counts the active-set loop's iterations, including the
    one that certifies the result, so it is at least 1; it is 1 for an
    answer from a kept working set or at t_min. An answer is the same,
    bit for bit, whatever was solved before, except that a kept set
    lifts an ITERATION_CAP (module docstring).

    Everything that depends on A alone, or on A and the last bounds, is
    cached, so build A once and pass it to every solve at that position.
    A StructureMatrix is taken as it is; anything else is built into one
    first, which checks it. A bad matrix, force or bounds raises
    ValueError, as does a force with a component of
    _fields.MAX_MAGNITUDE or more.
    """
    cfg = config if config is not None else _DEFAULT_CONFIG
    fac = _factorization(A)
    fvec = force3(f, "force")
    box, a_lo, a_floats, kept = fac.box(bounds)
    tol = cfg.tolerance
    floats = fvec.tolist()
    if kept.sets:
        found = _reuse(kept.sets, _optimum, fac, floats, box, tol)
        if found is not None:
            return _result(box, *found, SolveStatus.FEASIBLE_EXACT, 1)
    root = _floor_residual(fac, box, floats, a_floats, tol)
    if root is not None:
        return _result(box, box.lo, a_lo, root, SolveStatus.NEAREST_FEASIBLE, 1)
    if kept.nearest_sets:
        found = _reuse(kept.nearest_sets, _nearest_optimum, fac, floats, box, tol)
        if found is not None:
            return _result(box, *found, SolveStatus.NEAREST_FEASIBLE, 1)
    step = fac.pinv.dot(fvec - a_lo).tolist()
    t = _move(box.lo_floats, 1.0, step, box.lo_floats, box.hi_floats)
    return _active_set(fac, box, kept, t, fvec, floats, tol, cfg.max_iterations)


def _result(box, x, rendered, residual, status, iterations) -> SolveResult:
    """SolveResult(x, rendered, residual, status, iterations), built
    through its slots' setters, with both arrays read-only. An answer at
    t_min passes box.lo and A t_min, which every such answer shares and
    which are frozen already; every other answer's arrays are fresh and
    are frozen here."""
    if x is not box.lo:
        x.setflags(write=False)
        rendered.setflags(write=False)
    result = object.__new__(SolveResult)
    _SET_TENSIONS(result, x)
    _SET_RENDERED(result, rendered)
    _SET_RESIDUAL(result, residual)
    _SET_STATUS(result, status)
    _SET_ITERATIONS(result, iterations)
    return result


def is_wrench_feasible(
    A: StructureMatrix | np.ndarray,
    f,
    bounds: BoundsLike,
    config: SolverConfig | None = None,
) -> bool:
    """True when some box-feasible tension vector renders f within
    WRENCH_FEASIBLE_RESIDUAL newtons."""
    return solve(A, f, bounds, config).force_residual <= WRENCH_FEASIBLE_RESIDUAL
