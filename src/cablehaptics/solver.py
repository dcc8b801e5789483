"""Bounded tension distribution by a finite two-phase active-set method.

The core problem: find cable tensions t in the box [t_min, t_max]^m whose
net pull A @ t equals a desired force f, where the columns of A are unit
cable directions. Cables only pull, so t is never allowed outside the box.
The answer is the Euclidean projection of the minimum-tension start,
t_min on every cable, onto the intersection of the box and the affine
equilibrium set {t : A t = f}, a quadratic program with three equality
rows and box bounds. When the intersection is empty, the answer is the
box point nearest the equilibrium set, which renders the nearest
reachable force.

Phase 1 is bounded-variable least squares (Stark & Parker 1995): it finds
the box point nearest the equilibrium set, which either certifies the
force unreachable or is a feasible point. Phase 2 is the primal active-set
method (Nocedal & Wright, Numerical Optimization, Alg. 16.3), warm-started
from phase 1's bound set, for the feasible point nearest t_min. Each
iteration of either phase holds or releases at most one cable and solves
one small least-squares problem, and each phase ends only when its
optimality conditions check out. The inputs are geometry's types: a
matrix is checked once, when its StructureMatrix is built, and every entry
point takes one as it is and builds one from anything else.

Answers come from working sets. A working set holds some cables at a
bound and leaves the rest free; its optimum holds the held cables there
and gives the free ones the least-squares solution of rows t = goal f,
f itself. A set certifies exact when that optimum renders f within the
tolerance, every free cable lies inside the box and every held cable's
multiplier has its bound's sign; it certifies nearest when the optimum
misses f by more than the tolerance, the free cables have full column
rank and lie inside the box, and every held cable's descent A^+ (f - A t)
points out of the box. Each test is strict: by the rounding level of the
tensions plus what a force error of the tolerance could move the optimum,
and, for a descent, by phase 1's certificate threshold. _optimum and
_nearest_optimum are the one definition of each kind of answer. A
strictly certified optimum is the
problem's unique answer: the KKT conditions of the convex problem hold
with every inequality strict, so no other box point, and no other working
set, meets them (for a nearest set, the held cables are fixed by their
strictly outward descents and the free ones by full column rank). So a
force certifies exact or nearest, never both, and with one set at most.

A cold solve asks for an answer in two places. Phase 2 asks each working set
it builds, phase 1's own first, before it steps toward that set; a set
that certifies for f with the tolerance's margin is one that phase 2's
steps, toward the force phase 1 reached within the tolerance of f, would
certify at the same iteration, so the answer and its iteration count are
the method's own. When phase 1 certifies a nearest point, it asks the set
that point holds; a degenerate point, whose free cables lack full column
rank or whose held descents do not clear the threshold, answers with
phase 1's iterate, and its set is not kept. The set that holds every
cable on its floor needs no block: its optimum is t_min, its descent is
phase 1's start step A^+ (f - A t_min), bit for bit, and a start that the
clip left on t_min has each component at or below eps/2 t_min (see
_floor_residual), so such a solve answers at 1 iteration from the start
it computed anyway, with the box's t_min and the factorization's
A t_min, which every such answer shares.

Each cached factorization keeps the sets its solves certified, exact and
nearest apart (at most _MAX_SETS in all, the oldest of either kind making
way, dropped when the bounds change), and a solve on it tries them in the
order they were certified (_reuse): the exact ones first, then
t_min's set, then the nearest ones, so that a force answered at t_min
pays for no nearest set. The first set that gives an answer is the
answer, at 1 iteration and without either phase. That answer is the one
a cold solve gives, bit for bit, since it is the same set's optimum
computed the same way, so an answer depends on (A, f, bounds, config)
alone and the kept sets change only how fast it comes. The one exception
is the cap: a solve that max_iterations stops before it certifies
reports ITERATION_CAP when cold, but the uncapped answer when a kept set
certifies for its force. Every force takes this one path: a force, like
a tension bound, must lie below _fields.MAX_MAGNITUDE, so no square the
solve forms overflows.

Every SVD, of A and of the free-column blocks the iterations solve on,
comes from one cached factorization of A, together with the operators
built from those SVDs and, for the last bounds, A times t_min and the
kept working sets; consecutive solves on the same matrix share it, so a
solve computes only what depends on the force. _factorization(A) finds it
by the bytes of A's columns, and it holds A itself as a read-only view
over those bytes, so no function takes the matrix beside it. What depends
on the bounds alone (t_min, the rounding level and the float tuples of
both bounds) is one more cached box that every matrix shares.
actuation_rank reads its rank from the same factorization, so the rank
rule lives here alone. Both SVDs call LAPACK through numpy's gufunc svd_f
with the signature np.linalg.svd passes it for a float matrix, which
gives its bits; svd_f is numpy's private API, under this name since numpy
2.0, and pyproject.toml caps numpy below 3 for it. _svd raises
LinAlgError on a NaN singular value, which is what LAPACK's failure to
converge leaves.

Products with a cached operator are ndarray.dot calls, and per-cable work
is Python passes over lists of floats. Each pass does the same float
operations in the same order as the array expression it replaces: its
clip keeps the bound on a tie, as np.maximum and np.minimum return their
second operand, and its choices break ties toward the lowest index, as
argmin and argmax do, so the results are bit for bit the same. The one
exception is a working set's shift, p_i . f - q_i, which groups the same
products otherwise than shift_op (goal f - c) and so differs from it at
the rounding level; every answer from a working set takes it, so an
answer still depends on nothing but the problem. Every answer's arrays
are read-only: _result freezes fresh ones, and t_min and A t_min are
frozen once, when the box and the factorization make them.
"""

from __future__ import annotations

import functools
import math
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
# factorization keeps for its bounds; a lookup that misses tries every one
# of its kind.
_MAX_SETS = 8

# Phase 1's thresholds in units of the rounding level of its iterate,
# eps ||goal|| (max |f_i| + sum t_i): the |A||t| bound on the rounding of
# f - A t for unit columns and t >= 0 (Higham 2002), as A^+ carries it into
# the descent direction d. At 20,000 nearest points of seeded problems
# (m = 3..8, force and bounds scaled by 1e-2 to 1e12) the |d| of a free
# cable, 0 but for rounding, reached 8 levels; stationarity is tested at 16
# levels at least, and a stationary point within 64 levels of f renders it.
# d = A^+ r and rows^T (goal r), the same direction by another product,
# differ by at most 1.1 levels at 11,844 such points.
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

    Every solve starts from t_min on every cable, so the feasible solution
    returned is the one closest to the lowest allowed tensions, minimizing
    energy use. ``max_iterations`` caps the active-set iterations of both
    solve phases together; each iteration holds or releases at most one
    cable, and most solves certify their result in fewer than ten.
    ``tolerance`` bounds the force residual of an exact solution, in
    newtons; a tenth of it is the stationarity threshold of the
    nearest-box-point certificate, unless the rounding of the forces and
    tensions in play lies above that (see _nearest_box_point).
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

    ``tensions`` is always box-feasible, whatever the status. ``force_residual``
    is ||A t - f_desired|| in newtons, always finite. The fields are slots,
    so a result has no ``__dict__`` and takes no weak reference.
    """

    tensions: np.ndarray
    rendered_force: np.ndarray
    force_residual: float
    status: SolveStatus
    iterations: int


# The setters of SolveResult's slots, in field order. _result writes each
# field through its setter: a frozen dataclass refuses assignment, and its
# generated __init__ sets each field by name through object.__setattr__,
# at about twice the cost.
_SET_TENSIONS, _SET_RENDERED, _SET_RESIDUAL, _SET_STATUS, _SET_ITERATIONS = (
    getattr(SolveResult, field.name).__set__ for field in fields(SolveResult)
)

_DEFAULT_CONFIG = SolverConfig()


class _Block(NamedTuple):
    """What the iterations need of one free-column block rows[:, free]:
    its left singular vectors and rank, the shift operator rows^T times
    the pseudoinverse of its Gram matrix, u_r diag(1/s^2) u_r^T, which
    both phases step with, and drift, the most a newton of force residual
    can move the optimum of a working set on this block, on any cable or
    multiplier: ||goal|| times the norm of that pseudoinverse, the largest
    singular value of goal over the block's smallest one squared."""

    u: np.ndarray
    rank: int
    shift_op: np.ndarray
    drift: float


class _WorkingSet(NamedTuple):
    """A working set: the free mask and the held vector (t_min on each
    free cable, its bound on each held one), sequences one entry per
    cable, the _Block of its free cables, c, rows times the held vector,
    which phase 2 steps with, its offsets q = O c, a tuple of floats, one
    per cable, and its force map P = O goal, one float triple per cable,
    which its answer takes each cable's shift or descent from. O is the
    block's shift_op, but on a nearest set's held cables, where the block's
    rank is below A's, the operator of their descent, rows^T U_perp
    U_perp^T. Every set built is asked for an answer, so _working_set
    builds q and P with it, and a block that only phase 1 steps through
    builds neither."""

    free: Sequence[bool]
    held: Sequence[float]
    block: _Block
    c: np.ndarray
    offsets: tuple[float, ...]
    force_map: tuple[tuple[float, float, float], ...]


class _Box(NamedTuple):
    """What a solve needs of its bounds on m cables: the lower bounds
    t_min, the start of every solve, for A times it and as the answer of a
    force answered there (an array over bytes), the rounding level of
    the tensions and of the steps between them, and the lower and upper
    bounds as tuples of floats for the per-cable passes, and the sum of the
    upper bounds, which no sum of tensions passes. It does not depend on
    the matrix, so every matrix shares it."""

    lo: np.ndarray
    rounding: float
    lo_floats: tuple[float, ...]
    hi_floats: tuple[float, ...]
    hi_sum: float


@functools.lru_cache(maxsize=1)
def _box(bounds, m: int) -> _Box:
    """The _Box of bounds, a TensionBounds or a tuple of them, on m cables.

    Only the last box is kept, and a new matrix finds it here, since every
    caller in the package passes one bounds object per run; equal bounds
    match whatever object carries them. Bounds of the wrong count raise
    ValueError, and lru_cache stores no call that raised.
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
    """A read-only copy of the float vector arr, over bytes: a solve may
    answer with it, and unlike an array it owns, no caller can make it
    writeable again."""
    return np.frombuffer(arr.tobytes())


def _rank(values, largest: float) -> int:
    """How many of the singular values in values, a list of floats, exceed
    RANK_REL_TOL times largest; 0 when largest is 0. This is the Python
    pass for int(np.sum(sv > RANK_REL_TOL * largest)), with the same
    comparisons."""
    if not largest > 0:
        return 0
    cutoff = RANK_REL_TOL * largest
    rank = 0
    for value in values:
        if value > cutoff:
            rank += 1
    return rank


def _svd(M: np.ndarray):
    """np.linalg.svd(M) of a float matrix M, by the gufunc it runs, and
    the singular values again as a list of floats: (u, sv, vt, values).
    LAPACK's failure to converge fills every output with NaN, and a NaN
    singular value raises LinAlgError, as np.linalg.svd does. That failure
    also sets the invalid flag, so numpy warns first; where warnings are
    errors, that RuntimeWarning is raised instead, and it becomes the same
    LinAlgError. Public inputs never reach it: StructureMatrix rejects NaN
    and inf first."""
    try:
        u, sv, vt = svd_f(M, signature="d->ddd")
    except RuntimeWarning as warning:
        raise np.linalg.LinAlgError("SVD did not converge") from warning
    values = sv.tolist()
    if any(map(math.isnan, values)):
        raise np.linalg.LinAlgError("SVD did not converge")
    return u, sv, vt, values


class _Factorization:
    """A checked structure matrix, as matrix, with one SVD A = U S V^T of
    it, its rank, the operators built from it alone, a _Block for each
    free-column block of rows = V_r^T asked for so far, and A times t_min
    and the working sets its solves certified (sets, by free mask and held
    vector, exact ones in sets and nearest ones in nearest_sets) for the
    last bounds asked for.

    The rank counts singular values above RANK_REL_TOL times the largest;
    this is the package's one rank rule, and actuation_rank reads it. The
    operators are goal = S_r^-1 U_r^T, which maps a force to the
    right-hand side of rows t = goal f, and its norm goal_norm; the
    pseudoinverse pinv = A^+ = V_r S_r^-1 U_r^T; and rows_t, a
    C-contiguous copy of rows^T. Of V^T only its first rank rows are kept,
    as rows. Every array held here is read-only, since later solves share
    it, and A times t_min, which a solve may answer with, is an array over
    bytes, which no caller can make writeable.
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
        # ||goal||, the inverse of the smallest singular value kept
        self.goal_norm = 1.0 / values[rank - 1] if rank else 0.0
        self._blocks: dict[bytes, _Block] = {}
        # (bounds, (_Box, A times its t_min)) of the last bounds asked for
        self._box: tuple[object, tuple[_Box, np.ndarray]] | None = None
        # the working sets certified under those bounds, by (free, held):
        # exact ones in sets, nearest ones in nearest_sets, and the dict of
        # each kept set by its key in _kept, in the order they were kept
        self.sets: dict[tuple, _WorkingSet] = {}
        self.nearest_sets: dict[tuple, _WorkingSet] = {}
        self._kept: dict[tuple, dict] = {}

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

    def box(self, bounds: BoundsLike) -> tuple[_Box, np.ndarray]:
        """The _Box of bounds on this factorization's m cables, from the
        _box every matrix shares, and the matrix times its t_min, read-only.

        This keeps only the last bounds, keyed as the TensionBounds itself
        or a tuple of them: comparing that key is cheaper than the hash a
        _box lookup takes, so only a new matrix goes to _box.
        """
        if not isinstance(bounds, TensionBounds):
            bounds = tuple(bounds)
        last = self._box
        # == on a TensionBounds is its dataclass's Python __eq__, so the
        # usual case, the same object again, is told by identity first
        if last is not None and (last[0] is bounds or last[0] == bounds):
            return last[1]
        box = _box(bounds, self.matrix.shape[1])
        found = box, _frozen(self.matrix.dot(box.lo))
        self._box = (bounds, found)
        # a held vector holds the old bounds' values
        self.sets, self.nearest_sets, self._kept = {}, {}, {}
        return found

    def keep(self, sets: dict, ws: _WorkingSet) -> None:
        """Remember ws, a working set certified under the last bounds, in
        sets, this factorization's sets or nearest_sets as ws is exact or
        nearest, for the next solves on this matrix, unless it is known.
        The two kinds share _MAX_SETS slots: with that many kept, the
        oldest set goes, whatever its kind, so neither kind holds on to
        slots that the other's newer sets would use. A free mask makes a
        set exact or nearest, so the kinds' keys never meet."""
        key = bytes(ws.free), tuple(ws.held)
        if key not in sets:
            kept = self._kept
            if len(kept) == _MAX_SETS:
                oldest = next(iter(kept))
                kind = kept.pop(oldest)
                del kind[oldest]
            ws.c.setflags(write=False)
            sets[key] = ws
            kept[key] = sets


@functools.lru_cache(maxsize=1)
def _factorize(key: bytes) -> _Factorization:
    """The factorization of the 3 x m matrix whose C-order bytes are key,
    m being their length over 24.

    Only the most recent matrix is kept, so consecutive solves on one
    matrix share its factorization, whatever object carries it, and the
    process holds one factorization however many matrices exist. Its
    matrix is an array over the bytes of key: read-only, and no copy.
    """
    return _Factorization(np.frombuffer(key).reshape(3, len(key) // 24))


def _factorization(A) -> _Factorization:
    """The factorization of A, a StructureMatrix taken as it is, or of the
    StructureMatrix built from A, which checks it."""
    if not isinstance(A, StructureMatrix):
        A = StructureMatrix(A)
    return _factorize(A.columns.tobytes())


def actuation_rank(A: StructureMatrix | np.ndarray) -> int:
    """Numerical rank of the structure matrix (cutoff 1e-9 relative to the
    largest singular value). Rank 3 with m >= 4 positively spanning columns
    means the system is redundantly actuated."""
    return _factorization(A).rank


def _is_nearest_box_point(x, d, lo, hi, tol) -> bool:
    """First-order optimality of x for: minimize distance(t, equilibrium set)
    over the box, where d = P_eq(x) - x is the negative gradient direction.

    The condition is exact for this convex problem: at a lower bound the
    descent direction must not point back into the box (d <= tol), at an
    upper bound it must not point below (d >= -tol), and free components
    must be stationary (|d| <= tol). A point on the way to the minimum, where
    a held cable still has room to move toward the equilibrium set, fails
    it, so the solve keeps iterating instead of stopping there.

    Phase 1 passes tol an order below the solve tolerance, or the rounding
    level of d where that is larger. A point can pass while still
    rendering f within a few times the solve tolerance, so the residual
    decides between an exact and a nearest-feasible result. x, d, lo and
    hi are sequences of floats, one entry per cable.
    """
    # lo < hi, so x < hi holds at a lower bound and x > lo at an upper one
    for xi, di, lo_i, hi_i in zip(x, d, lo, hi):
        if (di > tol and xi < hi_i) or (di < -tol and xi > lo_i):
            return False
    return True


def _release(free, x, d, lo, tol) -> int:
    """Phase 1's choice of cable to release, from the sequences of floats x
    and d and the free mask, one entry per cable.

    Returns -1 while some free cable still moves (|d| > tol). Otherwise the
    held cable whose descent direction points most into the box: d at a
    floor, -d at a ceiling, the lowest index on a tie; -1 if none is held.
    """
    pick, most = -1, -math.inf
    for i, (is_free, xi, di, lo_i) in enumerate(zip(free, x, d, lo)):
        if is_free:
            if abs(di) > tol:
                return -1
        else:
            into_box = di if xi <= lo_i else -di
            if into_box > most:
                pick, most = i, into_box
    return pick


def _worst_multiplier(free, t, shift, lo) -> tuple[int, float]:
    """Phase 2's KKT sign test over the held cables, from sequences of
    floats, one entry per cable.

    The multiplier of a held cable is mu = (t - t_min) - shift; it must be
    >= 0 at a floor and <= 0 at a ceiling. Returns the held cable whose
    multiplier is the most wrong (-mu at a floor, mu at a ceiling; the lowest
    index on a tie) with that amount, or (-1, -inf) if none is held.
    """
    worst, most = -1, -math.inf
    for i, (is_free, ti, shift_i, lo_i) in enumerate(zip(free, t, shift, lo)):
        if not is_free:
            mu = ti - lo_i - shift_i
            wrong = -mu if ti <= lo_i else mu
            if wrong > most:
                worst, most = i, wrong
    return worst, most


def _move(t, fraction: float, step, lo, hi) -> list[float]:
    """t + fraction * step clipped into the box [lo, hi], from sequences of
    floats, one entry per cable: np.minimum(np.maximum(t + fraction * step,
    lo), hi) as one pass, with the same float operations in the same order.
    On a tie each comparison keeps the bound, the second operand, as
    np.maximum and np.minimum do, so a signed zero comes out as theirs
    does. A fraction of 1.0 leaves each step component as it is, so it
    also stands for t + step."""
    moved = []
    for ti, si, lo_i, hi_i in zip(t, step, lo, hi):
        v = ti + fraction * si
        v = v if v > lo_i else lo_i
        moved.append(v if v < hi_i else hi_i)
    return moved


def _ratio_step(t, step, box: _Box):
    """Move t along step, stopping where the first cable meets a bound.

    t and step are lists of floats, one entry per cable. Step components
    at or below box.rounding are ignored: a bound that was just released
    must not block the step at length zero. Returns the new box point, a
    list, and the blocking cable (the lowest index on a tie), or -1 when
    the whole step was taken. One pass finds the fraction of the step to
    take and, on the way, the full step t + step clipped into the box,
    which is _move at fraction 1.0 bit for bit, since 1.0 * s is s. Only a
    blocked step makes a second pass (_move at its fraction), and its
    blocking cable is then set exactly on its bound.
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


def _start(lo, step, hi) -> tuple[list[float], bool]:
    """Phase 1's start, t_min + step clipped into the box [lo, hi], step
    being A^+ (f - A t_min), and whether it leaves every cable on its floor,
    in one pass over sequences of floats, one entry per cable. The start is
    _move(lo, 1.0, step, lo, hi) bit for bit, since 1.0 * s is s, and a
    cable is on its floor exactly where the clip keeps the floor's own
    float, so the flag is tuple(start) == lo: such a start is t_min
    itself."""
    t = []
    on_floor = True
    for lo_i, si, hi_i in zip(lo, step, hi):
        v = lo_i + si
        if v > lo_i:
            on_floor = False
            t.append(v if v < hi_i else hi_i)
        else:
            t.append(lo_i)
    return t, on_floor


def _nearest_box_point(fac, f, box, t, tol, budget):
    """Phase 1: box least squares min ||rows t - goal f|| from t, the
    box-clipped projection of t_min, t_min + A^+ (f - A t_min), a list of
    floats.

    rows = fac.rows has orthonormal rows spanning the row space of A and
    goal = fac.goal = S_r^-1 U_r^T, so the residual r = f - A t gives
    ||goal r|| = ||rows t - goal f||, the distance from t to the
    equilibrium set, and A^+ r = rows^T goal r = P_eq(t) - t, its negative
    gradient. Bounded-variable least squares (Stark & Parker 1995), a
    primal active-set method: cables at a bound are held; each iteration
    takes the minimum-norm least-squares step over the free cables, the
    free set's cached shift operator times goal r with each held cable's
    entry set to 0.0, and stops at the first bound it reaches, which
    holds that cable; once the free cables are stationary, the held cable
    whose descent direction points most into the box is released.

    Returns (t, x, A x, ||f - A x||^2, status, iterations), x the array of
    the iterate t: None once t renders f within tol (a feasible point for
    phase 2), NEAREST_FEASIBLE once _is_nearest_box_point certifies t with
    a residual above that, ITERATION_CAP when the budget runs out.

    Both thresholds follow the magnitudes the iterate holds, so that no
    solve spins where the tolerance lies below the rounding: the
    certificate's threshold is tol / 10 or _STATIONARY_LEVELS rounding
    levels of the iterate, whichever is larger, and a certified point
    within _FEASIBLE_LEVELS levels of f renders f to rounding, so it is
    handed to phase 2 too, never called NEAREST_FEASIBLE. The level is
    eps ||goal|| (max |f_i| + sum t_i). A solve whose 16 levels cannot
    reach tol / 10 on any iterate takes none: its first residual r bounds
    the force by ||r|| + sum t and the tensions by t_max. Where the
    rounding keeps a reachable force above tol, the solve ends
    ITERATION_CAP after phase 2 (see solve), and scaling the force, the
    bounds and the tolerance together scales the answer.
    """
    M, goal, pinv = fac.matrix, fac.goal, fac.pinv
    lo, hi = box.lo_floats, box.hi_floats
    x = np.array(t)
    rendered = M.dot(x)
    residual = f - rendered
    stationary = tol * 0.1
    # the rounding level of an iterate t is unit (max |f_i| + sum t); unit
    # is set at the first iteration that misses f, to 0 when no iterate's
    # 16 levels can reach tol / 10, the usual case
    unit = None
    # most solves return at the first iteration, before the bound set is read
    free = None
    for k in range(1, budget + 1):
        miss = residual.dot(residual)
        if miss <= tol * tol:
            return t, x, rendered, miss, None, k
        if unit is None:
            if _below_threshold(fac, box, math.sqrt(miss), stationary):
                unit = 0.0
            else:
                unit = _EPS * fac.goal_norm
                f_size = max(map(abs, f.tolist()))
        if unit:
            level = unit * (f_size + sum(t))
            stationary = max(tol * 0.1, _STATIONARY_LEVELS * level)
        d = pinv.dot(residual).tolist()
        if _is_nearest_box_point(t, d, lo, hi, stationary):
            if unit and _FEASIBLE_LEVELS * level >= math.sqrt(miss):
                # f is reached to rounding: a feasible point for phase 2
                return t, x, rendered, miss, None, k
            return t, x, rendered, miss, SolveStatus.NEAREST_FEASIBLE, k
        if free is None:
            free = [lo_i < ti < hi_i for ti, lo_i, hi_i in zip(t, lo, hi)]
        released = _release(free, t, d, lo, stationary)
        if released >= 0:
            free[released] = True
        step = fac.block(free).shift_op.dot(goal.dot(residual)).tolist()
        # the held cables stay where they are
        step = [si if is_free else 0.0 for is_free, si in zip(free, step)]
        t, blocking = _ratio_step(t, step, box)
        if blocking >= 0:
            free[blocking] = False
        x = np.array(t)
        rendered = M.dot(x)
        residual = f - rendered
    return t, x, rendered, residual.dot(residual), SolveStatus.ITERATION_CAP, budget


def _below_threshold(fac, box: _Box, root: float, stationary: float) -> bool:
    """Whether 16 rounding levels of every iterate of a solve lie at or
    below phase 1's threshold stationary = tol / 10, root being the norm
    of the solve's first residual r: a level is eps ||goal|| (max |f_i| +
    sum t), max |f_i| <= ||r|| + sum t, and no cable passes t_max. Phase 1
    then tests every iterate at tol / 10 and takes no level."""
    unit = _EPS * fac.goal_norm
    return _STATIONARY_LEVELS * unit * (root + 2.0 * box.hi_sum) <= stationary


def _floor_residual(fac, box: _Box, residual, tol: float):
    """||f - A t_min|| when t_min answers f, residual being f - A t_min and
    the start, t_min + A^+ residual clipped into the box, having left every
    cable on its floor; None otherwise.

    This is the nearest test of the working set that holds every cable on
    its floor, which needs no block: its optimum is t_min, and its held
    descent A^+ (f - A t_min) is the start's step, bit for bit. The clip
    kept each step component at or below eps/2 t_min,i (at or below 0 on a
    zero or subnormal floor), since fl(t_min,i + d_i) = t_min,i, so once
    eps sum t_max lies within phase 1's threshold tol / 10, and 16 rounding
    levels of any iterate do too, phase 1's certificate passes at its
    first iteration. The answer is then phase 1's, NEAREST_FEASIBLE at 1
    iteration, when the residual lies above tol.
    """
    miss = residual.dot(residual)
    stationary = tol * 0.1
    if miss <= tol * tol or _EPS * box.hi_sum > stationary:
        return None
    root = math.sqrt(miss)
    return root if _below_threshold(fac, box, root, stationary) else None


def _shift(blk: _Block, target, c) -> list[float]:
    """blk.shift_op (target - c) as a list of floats, rows^T lam with
    lam = gram_pinv (target - c), for the working set whose free cables
    form blk and whose held vector gives c = rows times it. Its optimum for
    rows t = target is t_min + shift on each free cable, and each held
    cable's multiplier is t - t_min - shift. Phase 2 steps toward it; a
    solve answers with the same optimum for target = goal f, which
    _optimum computes from f in floats."""
    return blk.shift_op.dot(target - c).tolist()


def _optimum(fac, ws: _WorkingSet, f, fvec, box: _Box, tol: float):
    """The answer of exact working set ws, which carries its offsets, for
    the force fvec, f being its three floats: its optimum for rows t =
    goal f, as (x, A x, ||A x - f||), when that optimum certifies strictly
    and renders f within tol; None otherwise. This is the one definition
    of an exact answer from a working set.

    One pass over the cables computes each shift p_i . f - q_i, p_i the
    cable's row of the set's force map and q_i its offset, which is
    shift_op (goal f - c) but for rounding, and tests it as it goes: every
    free cable, t_min + shift, must lie inside the box by more than the
    margin, and every held cable's multiplier held - t_min - shift must
    have its bound's sign by more than the margin (>= 0 at a floor, <= 0
    at a ceiling); a cable exactly at a bound with a zero multiplier is
    neither. No numpy call runs before a set certifies.

    The margin is box.rounding, the rounding level of the tensions, plus
    tol times the block's drift: phase 1 hands phase 2 a box point whose
    force misses f by up to tol, and phase 2 steps toward the optimum of
    that force. A set that certifies with this margin is optimal for every
    such force, so phase 2's steps would certify it as well, and the
    answer is this one whether phase 2 or a kept set asks for it.
    """
    f0, f1, f2 = f
    margin = box.rounding + tol * ws.block.drift
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
    found = _rendering(fac, t, fvec)
    return found if found[2] <= tol else None


def _nearest_optimum(fac, ws: _WorkingSet, f, fvec, box: _Box, tol: float):
    """The answer of nearest working set ws for the force fvec, f being its
    three floats: its optimum, as (x, A x, ||A x - f||), when that optimum
    certifies strictly and misses f by more than tol; None otherwise. This
    is the one definition of a nearest answer from a working set.

    The optimum holds each held cable at its bound and gives the free ones
    the least-squares solution of rows t = goal f, t_min + shift with
    shift = shift_op (goal f - c), which their block of full column rank
    makes unique. Each held cable's descent A^+ (f - A t) at the optimum is
    rows_i^T U_perp U_perp^T (goal f - c), U_perp the trailing columns of
    the block's u, so it is affine in f as well. One pass computes both as
    p_i . f - q_i from the set's force map and offsets, and tests them as
    it goes: every free cable must lie inside the box by more than
    _optimum's margin, and every held cable's descent must point out of
    the box by more than phase 1's certificate threshold, tol / 10 or 16
    rounding levels of the optimum, whichever is larger; a zero descent
    is not enough. The optimum must then miss f by more than tol and by
    more than phase 1's 64 rounding levels, where phase 1 would hand the
    point to phase 2. No numpy call runs before a set certifies.

    A set that certifies is the unique nearest box point's: the nearest
    point's rendered force is unique, the strictly outward descents fix
    every held cable and full column rank fixes the free ones. So the
    answer is this one whether a cold solve or a kept set asks for it, and
    no exact set certifies for the same force.
    """
    f0, f1, f2 = f
    margin = box.rounding + tol * ws.block.drift
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
    found = _rendering(fac, t, fvec)
    level = _EPS * fac.goal_norm * (max(map(abs, f)) + sum(t))
    if found[2] > max(tol, _FEASIBLE_LEVELS * level) and least > _STATIONARY_LEVELS * level:
        return found
    return None


def _rendering(fac, t, fvec):
    """(x, A x, ||A x - f||) of the tensions t, a list of floats, for the
    force f = fvec: what a solve answers with, where phase 1 does not."""
    x = np.array(t)
    rendered = fac.matrix.dot(x)
    miss = rendered - fvec
    return x, rendered, math.sqrt(miss.dot(miss))


def _reuse(sets, optimum, fac, f, fvec, box: _Box, tol: float):
    """The first answer that optimum, _optimum or _nearest_optimum, gives
    for the force fvec from the working sets sets, the exact or nearest
    ones fac keeps, trying them in the order they were certified, or None;
    f is fvec's floats."""
    for ws in sets.values():
        found = optimum(fac, ws, f, fvec, box, tol)
        if found is not None:
            return found
    return None


def _working_set(fac, blk: _Block, free, t, lo) -> _WorkingSet:
    """The working set of the box point t, a list of floats, that leaves
    the cables of the list free free, blk being their block, and holds
    every other cable where t has it, on a bound, with the offsets and
    force map its answer reads: a nearest set when the free cables' rank is
    below A's, whose held cables map to their descents, and an exact set
    otherwise."""
    held = [lo_i if is_free else ti for is_free, lo_i, ti in zip(free, lo, t)]
    c = fac.rows.dot(np.array(held))
    op = blk.shift_op
    if blk.rank < fac.rank:
        # rows^T U_perp U_perp^T on the held cables, U_perp the directions
        # of rows t the free cables cannot reach
        perp = blk.u[:, blk.rank :]
        op = np.where(np.array(free)[:, None], op, fac.rows_t.dot(perp.dot(perp.T)))
    offsets = tuple(op.dot(c).tolist())
    force_map = tuple(map(tuple, op.dot(fac.goal).tolist()))
    return _WorkingSet(free, held, blk, c, offsets, force_map)


def _nearest_set(fac, box: _Box, t):
    """The working set of phase 1's nearest point t, a list of floats,
    which holds the cables t has on a bound: a nearest set, or None when
    the free cables' block lacks full column rank, where no set's optimum
    is unique, or reaches A's rank, where the set answers no unreachable
    force."""
    lo, hi = box.lo_floats, box.hi_floats
    free = [lo_i < ti < hi_i for ti, lo_i, hi_i in zip(t, lo, hi)]
    blk = fac.block(free)
    if blk.rank < fac.rank and blk.rank == sum(free):
        return _working_set(fac, blk, free, t, lo)
    return None


def _min_shift(fac, box, t, x, free, f, fvec, tol, budget):
    """Phase 2: min ||t - t_min||^2 s.t. rows t = rows t0 and the box,
    by the primal active-set method (Nocedal & Wright, Alg. 16.3) from the
    feasible box point t0 = t, holding the cables it has at a bound.
    Phase 1 hands over t0 once it renders f within the tolerance; keeping
    the force t0 renders, rather than f itself, keeps t0 feasible even when
    f lies just outside the renderable set.

    Holding cables W at their bounds and leaving F free, the working-set
    optimum is t_F = t_min_F + rows_F^T lam, where lam solves
    rows_F rows_F^T lam = rows t0 - rows_W t_W - rows_F t_min_F. Each
    iteration steps toward it and holds the first cable that meets a bound
    on the way; once it is reached, the multiplier of each held cable,
    mu = t - t_min - rows^T lam, must be >= 0 at a floor and <= 0 at a
    ceiling (the KKT conditions). If one is not, the most wrong is
    released. The working set always keeps rank(rows_F) = rank(rows): a
    held cable is released first whenever the free ones lose rank. The
    free block's cached shift operator gives rows^T lam in one product
    (_shift), and the trailing columns of its left singular vectors span
    the directions the free cables cannot reach.

    Each working set is asked for its _optimum for the force fvec, f being
    its three floats, before the iteration steps toward it, and the first
    that gives one ends phase 2 with the answer: a set that certifies
    strictly for f is one this iteration would certify for t0's force as
    well (see _optimum), so the answer and its iteration are the ones the
    steps would reach. The first set is phase 1's own, so a solve whose
    phase 1 ends on its answer's set pays for no step and no target
    rows t0, which is formed once a set has failed to answer.

    t0 comes in as phase 1's list t and array x, with free, the list of
    the cables t0 has strictly inside the box, which solve read from t0
    and the iterations update in place. The iterate is a list of floats:
    np.where(free, t_min, t), np.where(free, t_min + shift - t, 0.0) and
    the ratio step are passes with the same float operations. Returns
    (answer, t, working set, iterations): the answer _optimum gave or None,
    t a list, and the working set that answered or that the iterations
    certified, None when the budget ran out first. Every held cable of t
    sits exactly on its bound, so the held vector of the last iteration is
    that working set's.
    """
    rows, rank = fac.rows, fac.rank
    lo = box.lo_floats
    target = None
    for k in range(1, budget + 1):
        blk = fac.block(free)
        if blk.rank < rank:
            # release the held cable reaching furthest into the missing span
            reach = _norms(blk.u[:, blk.rank :].T @ rows, 0)
            free[int(np.where(free, -1.0, reach).argmax())] = True
            continue
        ws = _working_set(fac, blk, free, t, lo)
        found = _optimum(fac, ws, f, fvec, box, tol)
        if found is not None:
            return found, t, ws, k
        if target is None:
            target = rows.dot(x)
        shift = _shift(blk, target, ws.c)
        step = [
            lo_i + shift_i - ti if is_free else 0.0
            for is_free, lo_i, shift_i, ti in zip(free, lo, shift, t)
        ]
        t, blocking = _ratio_step(t, step, box)
        if blocking >= 0:
            free[blocking] = False
            continue
        worst, wrong = _worst_multiplier(free, t, shift, lo)
        if wrong <= box.rounding:
            return None, t, ws, k
        free[worst] = True
    return None, t, None, budget


def solve(
    A: StructureMatrix | np.ndarray,
    f,
    bounds: BoundsLike,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Compute box-feasible cable tensions rendering the desired force f.

    One active-set method in two phases, each holding or releasing at most
    one cable per iteration. Phase 1 (_nearest_box_point) starts from the
    box-clipped equilibrium projection of t_min on every cable and
    minimizes the distance to the equilibrium set {t : A t = f} over the
    box. Phase 2 (_min_shift) starts from the feasible point phase 1
    reaches and finds the box point rendering that force that is nearest
    t_min. The result is:

    * intersection nonempty -> the Euclidean projection of t_min onto the
      intersection, status FEASIBLE_EXACT, with a force residual
      within the tolerance;
    * intersection empty -> the box point nearest the equilibrium set,
      status NEAREST_FEASIBLE, so the nearest reachable force is rendered;
    * otherwise ITERATION_CAP: max_iterations ran out, or the tolerance is
      below what the rounding of the steps lets the residual reach.

    Both phases work on the rank-r system rows t = goal f, with
    rows = V_r^T and goal = S_r^-1 U_r^T from one SVD A = U S V^T; it holds
    exactly when A t = P_range(A) f, so rank-deficient layouts need no
    special case. Everything that depends on A alone, or on A and the
    last bounds, is cached in A's one factorization (see the module
    docstring), so the next solves on the same matrix compute only what
    depends on the force, and the working sets its solves certified
    answer the next forces that share them at 1 iteration: build A once
    and pass it to every solve at that position. A StructureMatrix is
    taken as it is, checked once when it was built; anything else is
    built into one first, so a plain array gets its checks and its bits.
    A bad matrix, force or bounds raises ValueError. ``iterations``
    counts the active-set iterations of both phases, including the one
    that certifies the result, so it is at least 1, and it is 1 for an
    answer from a kept working set or at t_min. A kept set's answer is the
    cold solve's, bit for bit, except that it lifts an ITERATION_CAP: a
    kept set that certifies for f answers FEASIBLE_EXACT or
    NEAREST_FEASIBLE whatever max_iterations is.

    The returned tensions are always within bounds, whatever the status.
    A force with a component of _fields.MAX_MAGNITUDE (1e100 N) or more
    raises ValueError naming it, as TensionBounds does for such a t_max.
    The exact working sets A's factorization keeps answer first, then
    t_min's, from the start phase 1 would take, then the nearest ones
    (_reuse). A cold solve answers with the _optimum of the first working
    set phase 2 builds that gives one, phase 1's own set first, or with the
    _nearest_optimum of the nearest point's set phase 1 ends on, and keeps
    that set.
    """
    cfg = config if config is not None else _DEFAULT_CONFIG
    fac = _factorization(A)
    fvec = force3(f, "force")
    box, a_lo = fac.box(bounds)
    tol = cfg.tolerance
    floats = None
    if fac.sets:
        floats = fvec.tolist()
        found = _reuse(fac.sets, _optimum, fac, floats, fvec, box, tol)
        if found is not None:
            return _result(box, *found, SolveStatus.FEASIBLE_EXACT, 1)
    residual = fvec - a_lo
    t, on_floor = _start(box.lo_floats, fac.pinv.dot(residual).tolist(), box.hi_floats)
    if on_floor:
        root = _floor_residual(fac, box, residual, tol)
        if root is not None:
            return _result(box, box.lo, a_lo, root, SolveStatus.NEAREST_FEASIBLE, 1)
    if fac.nearest_sets:
        if floats is None:
            floats = fvec.tolist()
        found = _reuse(fac.nearest_sets, _nearest_optimum, fac, floats, fvec, box, tol)
        if found is not None:
            return _result(box, *found, SolveStatus.NEAREST_FEASIBLE, 1)
    # phase 1 squares f - A t, which negates A t - f exactly, so a solve it
    # ends needs no second residual
    t, x, rendered, squared, status, iterations = _nearest_box_point(
        fac, fvec, box, t, tol, cfg.max_iterations
    )
    if floats is None:
        floats = fvec.tolist()
    if status is not None:
        if status is SolveStatus.NEAREST_FEASIBLE:
            ws = _nearest_set(fac, box, t)
            found = None if ws is None else _nearest_optimum(fac, ws, floats, fvec, box, tol)
            if found is not None:
                fac.keep(fac.nearest_sets, ws)
                return _result(box, *found, status, iterations)
        # the iteration cap, or a degenerate nearest point: phase 1's iterate
        return _result(box, x, rendered, math.sqrt(squared), status, iterations)
    lo, hi = box.lo_floats, box.hi_floats
    free = [lo_i < ti < hi_i for ti, lo_i, hi_i in zip(t, lo, hi)]
    budget = cfg.max_iterations - iterations + 1
    found, t, ws, more = _min_shift(fac, box, t, x, free, floats, fvec, tol, budget)
    iterations += more - 1
    if found is not None:
        fac.keep(fac.sets, ws)
        return _result(box, *found, SolveStatus.FEASIBLE_EXACT, iterations)
    x, rendered, residual = _rendering(fac, t, fvec)
    # the rounding of phase 2's steps can leave a certified point just
    # above a tolerance set near the rounding level of the force
    exact = ws is not None and residual <= tol
    status = SolveStatus.FEASIBLE_EXACT if exact else SolveStatus.ITERATION_CAP
    return _result(box, x, rendered, residual, status, iterations)


def _result(box, x, rendered, residual, status, iterations) -> SolveResult:
    """The SolveResult of tensions x rendering the force rendered, with
    both arrays read-only, built through its slots' setters: the fields of
    SolveResult(x, rendered, residual, status, iterations) at about half
    the cost of its __init__.

    Here every fresh answer's pair of arrays is frozen. An answer at t_min
    from the start passes box.lo and A t_min instead, which every such
    answer shares and which are frozen already: arrays over bytes, made
    once per box and per factorization, which no caller can make
    writeable. A solve answers with both of them or with neither."""
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
    """True when some box-feasible tension vector renders f within 1e-7 N."""
    return solve(A, f, bounds, config).force_residual <= WRENCH_FEASIBLE_RESIDUAL
