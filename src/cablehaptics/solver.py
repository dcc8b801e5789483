"""Bounded tension distribution by a finite primal active-set method.

The core problem: find cable tensions t in the box [t_min, t_max]^m whose
net pull A @ t equals a desired force f, where the columns of A are unit
cable directions. Cables only pull, so t is never allowed outside the box.
The answer is the Euclidean projection of the minimum-tension start,
t_min on every cable, onto the intersection of the box and the affine
equilibrium set {t : A t = f}, a quadratic program with three equality
rows and box bounds. When the intersection is empty, the answer is the
box point nearest the equilibrium set, which renders the nearest
reachable force.

One active-set loop solves it (_active_set). Each iteration takes the
working set of its box point, steps toward a least-squares solution over
its free cables, holds the cable that blocks the step or else tests the
set, and so holds or releases at most one cable. Until an iterate
renders f the loop is bounded-variable least squares (Stark & Parker
1995), which finds the box point nearest the equilibrium set and so
either certifies the force unreachable or reaches a feasible point. From
then on it keeps the force that iterate renders and is the primal
active-set method (Nocedal & Wright, Numerical Optimization, Alg. 16.3)
for the feasible point nearest t_min. It ends only when a set's
optimality conditions check out. The inputs are geometry's types: a
matrix is checked once, when its StructureMatrix is built, and every
entry point takes one as it is and builds one from anything else.

Answers come from working sets. A working set holds some cables at a
bound and leaves the rest free; its optimum holds the held cables there
and gives the free ones the least-squares solution of rows t = goal f, f
itself. A set certifies exact when that optimum renders f within the
tolerance, every free cable lies inside the box and every held cable's
multiplier has its bound's sign; it certifies nearest when the optimum
misses f by more than the tolerance, the free cables have full column
rank and lie inside the box, and every held cable's descent A^+ (f - A t)
points out of the box. Each test is strict: by the rounding level of
the tensions plus what a force error of the tolerance could move the
optimum, and, for a descent, by the descent test's threshold. _optimum
and _nearest_optimum are the one definition of each kind of answer. A
strictly certified optimum is the problem's unique answer: the KKT
conditions of the convex problem hold with every inequality strict, so
no other box point, and no other working set, meets them (for a nearest
set, the held cables are fixed by their strictly outward descents and
the free ones by full column rank). So a force certifies exact or
nearest, never both, and with one set at most.

A cold solve builds a working set and asks it for an answer only where
the loop's own test certifies the set, so it builds at most one. A set
that certifies for f with the tolerance's margin is one the loop, which
steps toward a force within the tolerance of f, certifies at the same
iteration, so the answer and its iteration count are the method's own. A
certified nearest point asks the set that point holds; a degenerate
point, whose free cables lack full column rank or whose held descents do
not clear the threshold, answers with the iterate, and its set is not
kept. The set that holds every cable on its floor needs no block: its
optimum is t_min and its descent A^+ (f - A t_min), which one float pass
over A^+'s rows forms from the floats of f and of A t_min, asking on each
cable whether the start's clip would leave it on its floor. That pass
rounds otherwise than the loop's BLAS product, by at most
3 eps ||A^+|| ||f - A t_min||, and the conditions under which t_min
answers already cover that (see _floor_residual). Such a solve answers
at 1 iteration with no numpy call, with the box's t_min and the
factorization's A t_min, which every such answer shares.

Each cached factorization keeps the sets its solves certified, exact and
nearest apart (at most _MAX_SETS in all, the oldest of either kind making
way, dropped when the bounds change), and a solve on it tries them in the
order they were certified (_reuse): the exact ones first, then
t_min's set, then the nearest ones, so that a force answered at t_min
pays for no nearest set. The first set that gives an answer is the
answer, at 1 iteration and without the loop. That answer is the one
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
argmin and argmax do, so the results are bit for bit the same. The
exceptions are the three passes that stand for a product: a working
set's shift, p_i . f - q_i, which groups the same products otherwise than
shift_op (goal f - c), t_min's descent (above), and the force
residual, a float sum within a few ulps of numpy's dot (_residual). Each
differs from the product at the rounding level, and every answer of its
kind takes it, so an answer still depends on nothing but the problem. Every
answer's arrays are read-only: _result freezes fresh ones, and t_min and
A t_min are frozen once, when the box and the factorization make them.
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
# factorization keeps for its bounds; a lookup that misses tries every one
# of its kind.
_MAX_SETS = 8

# The descent test's thresholds in units of the rounding level of an
# iterate, eps ||goal|| (max |f_i| + sum t_i): the |A||t| bound on the
# rounding of f - A t for unit columns and t >= 0 (Higham 2002), as A^+
# carries it into the descent direction d. At 20,000 nearest points of
# seeded problems (m = 3..8, force and bounds scaled by 1e-2 to 1e12) the
# |d| of a free cable, 0 but for rounding, reached 8 levels; a held descent
# is tested at 16 levels at least, and a certified point within 64 levels
# of f renders it.
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
    energy use. ``max_iterations`` caps the iterations of the solve's one
    active-set loop; each iteration holds or releases at most one cable,
    and most solves certify their result in fewer than ten.
    ``tolerance`` bounds the force residual of an exact solution, in
    newtons; a tenth of it is the threshold of the nearest-box-point
    certificate, unless the rounding of the forces and tensions in play
    lies above that (see _active_set).
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
    is ||A t - f_desired|| in newtons, always finite: a float norm of the
    three components of A t - f_desired, within a few ulps of numpy's
    sqrt of their dot (2.5 eps relative at most; 2 ulps in every case
    measured). A NEAREST_FEASIBLE answer's residual lies above the
    tolerance. The fields are slots, so a result has no ``__dict__`` and
    takes no weak reference.
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
    the loop steps with, and drift, the most a newton of force residual
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
    which the loop steps with, its offsets q = O c, a tuple of floats, one
    per cable, and its force map P = O goal, one float triple per cable,
    which its answer takes each cable's shift or descent from. O is the
    block's shift_op, but on a nearest set's held cables, where the block's
    rank is below A's, the operator of their descent, rows^T U_perp
    U_perp^T. Every set built is asked for an answer, so _working_set
    builds q and P with it; the loop steps with a block and c alone, and
    builds a set only for the one it certifies."""

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
    and the _Kept working sets its solves certified for the last bounds
    asked for.

    The rank counts singular values above RANK_REL_TOL times the largest;
    this is the package's one rank rule, and actuation_rank reads it. The
    operators are goal = S_r^-1 U_r^T, which maps a force to the
    right-hand side of rows t = goal f, and its norm goal_norm; the
    pseudoinverse pinv = A^+ = V_r S_r^-1 U_r^T, and its rows as float
    triples, pinv_rows; and rows_t, a C-contiguous copy of rows^T. Of V^T
    only its first rank rows are kept, as rows. Every array held here is
    read-only, since later solves share it, and A times t_min, which a
    solve may answer with, is an array over bytes, which no caller can
    make writeable.
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
        # A^+'s rows as float triples, which t_min's answer reads
        self.pinv_rows = tuple(map(tuple, pinv.tolist()))
        # ||goal||, the inverse of the smallest singular value kept
        self.goal_norm = 1.0 / values[rank - 1] if rank else 0.0
        self._blocks: dict[bytes, _Block] = {}
        # (bounds, (_Box, A times its t_min, as an array and as three
        # floats, _Kept)) of the last bounds asked for: one tuple, assigned
        # at once, so a thread reads all of one bounds' memo or all of
        # another's
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
        """The _Box of bounds on this factorization's m cables, from the
        _box every matrix shares, the matrix times its t_min, read-only and
        as a tuple of three floats, and the working sets kept under bounds.

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
        a_lo = _frozen(self.matrix.dot(box.lo))
        # a held vector holds its bounds' values, so new bounds keep anew
        found = box, a_lo, tuple(a_lo.tolist()), _Kept()
        self._box = (bounds, found)
        return found


class _Kept:
    """The working sets a factorization's solves certified under one
    bounds object, by (free, held): exact ones in sets and nearest ones in
    nearest_sets, each dict in the order its sets were kept.

    Threads may share a factorization. A solve reads this with the box of
    the bounds it solves under, in one memo, and keeps its set here, so a
    set certified under other bounds never answers. keep, under a lock,
    replaces both dicts with changed copies rather than change them, so a
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
        for the next solves under these bounds, unless it is known. The two
        kinds share _MAX_SETS slots: with that many kept, the oldest set
        goes, whatever its kind, so neither kind holds on to slots that the
        other's newer sets would use. A free mask makes a set exact or
        nearest, so the kinds' keys never meet."""
        key = bytes(ws.free), tuple(ws.held)
        with self._lock:
            if key in self._order:
                return
            ws.c.setflags(write=False)
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


def _worst(free, t, g, lo) -> tuple[int, float]:
    """A working set's certificate over its held cables, from sequences of
    floats, one entry per cable: the held cable whose g points furthest
    into the box (g at a floor, -g at a ceiling; the lowest index on a
    tie), with that amount, or (-1, -inf) if none is held.

    g is the direction a held cable would move in if it were free: the
    descent A^+ (f - A t) before f is rendered, and after it the step
    t_min + shift - t toward the set's optimum, which is minus the cable's
    multiplier at a floor and the multiplier at a ceiling. Each held cable
    sits exactly on a bound, so t <= t_min tells a floor from a ceiling.
    """
    worst, most = -1, -math.inf
    for i, (is_free, ti, gi, lo_i) in enumerate(zip(free, t, g, lo)):
        if not is_free:
            into_box = gi if ti <= lo_i else -gi
            if into_box > most:
                worst, most = i, into_box
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


def _below_threshold(fac, box: _Box, root: float, stationary: float) -> bool:
    """Whether 16 rounding levels of every iterate of a solve lie at or
    below the descent test's threshold stationary = tol / 10, root being
    the norm of the residual r of any one iterate: a level is eps ||goal||
    (max |f_i| + sum t), max |f_i| <= ||r|| + sum t, and no cable passes
    t_max. The loop then tests every descent at tol / 10 and takes no
    level."""
    unit = _EPS * fac.goal_norm
    return _STATIONARY_LEVELS * unit * (root + 2.0 * box.hi_sum) <= stationary


def _floor_residual(fac, box: _Box, f, a_lo, tol: float):
    """||f - A t_min|| when t_min answers f, f and a_lo = A t_min being
    three floats each; None otherwise. No numpy call runs.

    This is the nearest test of the working set that holds every cable on
    its floor, which needs no block: its optimum is t_min, and its held
    descent is d = A^+ r, r = f - A t_min. One pass over A^+'s rows forms
    each d_i as a float sum and stops at the first cable that
    fl(t_min,i + d_i) lifts off its floor, the start's clip; where none
    does, every d_i lies at or below eps/2 t_min,i (at or below 0 on a
    zero or subnormal floor). The loop forms d with BLAS, and each of the
    two lies within gamma_3 |A^+_i| |r| of the exact product (Higham
    2002, 3.1), so they differ by at most about 3 eps ||A^+|| ||r||, and
    ||A^+|| = ||goal||. Once eps sum t_max lies within the descent test's
    threshold tol / 10, and 16 rounding levels of any iterate,
    16 eps ||goal|| (||r|| + 2 sum t_max), do too, the loop's descent at
    t_min is at most tol / 20 + 3/16 tol / 10, below tol / 10: t_min
    passes the test the loop's first iteration would run on it, however
    the two sums round. The answer is then the loop's, NEAREST_FEASIBLE at
    1 iteration, when the residual lies above tol, which the loop tests on
    the same float sum. Its residual is the float sum _rendering takes for
    t_min, bit for bit, since f - A t_min negates A t_min - f exactly.
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
    """The answer of exact working set ws, which carries its offsets, for
    the force f, three floats: its optimum for rows t = goal f, as
    (x, A x, ||A x - f||), when that optimum certifies strictly and
    renders f within tol; None otherwise. This is the one definition of an
    exact answer from a working set.

    One pass over the cables computes each shift p_i . f - q_i, p_i the
    cable's row of the set's force map and q_i its offset, which is
    shift_op (goal f - c) but for rounding, and tests it as it goes: every
    free cable, t_min + shift, must lie inside the box by more than the
    margin, and every held cable's multiplier held - t_min - shift must
    have its bound's sign by more than the margin (>= 0 at a floor, <= 0
    at a ceiling); a cable exactly at a bound with a zero multiplier is
    neither. No numpy call runs before a set certifies.

    The margin is box.rounding, the rounding level of the tensions, plus
    tol times the block's drift: once an iterate renders f within tol,
    the loop steps toward the optimum of the force that iterate renders.
    A set that certifies with this margin is optimal for every such force,
    so the loop's steps would certify it as well, and the answer is this
    one whether the loop or a kept set asks for it.
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
    found = _rendering(fac, t, f)
    return found if found[2] <= tol else None


def _nearest_optimum(fac, ws: _WorkingSet, f, box: _Box, tol: float):
    """The answer of nearest working set ws for the force f, three floats:
    its optimum, as (x, A x, ||A x - f||), when that optimum certifies
    strictly and misses f by more than tol; None otherwise. This is the
    one definition of a nearest answer from a working set.

    The optimum holds each held cable at its bound and gives the free ones
    the least-squares solution of rows t = goal f, t_min + shift with
    shift = shift_op (goal f - c), which their block of full column rank
    makes unique. Each held cable's descent A^+ (f - A t) at the optimum is
    rows_i^T U_perp U_perp^T (goal f - c), U_perp the trailing columns of
    the block's u, so it is affine in f as well. One pass computes both as
    p_i . f - q_i from the set's force map and offsets, and tests them as
    it goes: every free cable must lie inside the box by more than
    _optimum's margin, and every held cable's descent must point out of
    the box by more than the descent test's threshold, tol / 10 or 16
    rounding levels of the optimum, whichever is larger; a zero descent
    is not enough. The optimum must then miss f by more than tol and by
    more than 64 rounding levels, within which the loop takes a certified
    point as rendering f. No numpy call runs before a set certifies.

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
    """||rendered - f||, rendered an array of three floats and f three
    floats, as one float sum over rendered.tolist(): the force_residual of
    every answer, and the norm every test of a residual against the
    tolerance reads, so an answer's status and its residual agree.
    numpy's math.sqrt(miss.dot(miss)) may differ, since its BLAS kernel
    may group or fuse the products otherwise: each sum of the three
    squares lies within gamma_3 of the exact one (Higham 2002, 3.1), the
    root halves that and rounds once, so the two roots differ by at most
    gamma_3 + eps, about 2.5 eps relative, which is at most 5 ulps. The
    corpus and the seeded reference test measure 2 ulps at most."""
    (r0, r1, r2), (f0, f1, f2) = rendered.tolist(), f
    m0, m1, m2 = r0 - f0, r1 - f1, r2 - f2
    return math.sqrt((m0 * m0 + m1 * m1) + m2 * m2)


def _reuse(sets, optimum, fac, f, box: _Box, tol: float):
    """The first answer that optimum, _optimum or _nearest_optimum, gives
    for the force f, three floats, from the working sets sets, the exact
    or nearest ones kept under the bounds, trying them in the order they
    were certified, or None."""
    for ws in sets.values():
        found = optimum(fac, ws, f, box, tol)
        if found is not None:
            return found
    return None


def _working_set(fac, blk: _Block, free, held, c) -> _WorkingSet:
    """The working set that leaves the cables of the list free free, blk
    being their block, and holds every other cable at its entry of held,
    a list of floats with t_min on each free cable, c being rows times
    held, with the offsets and force map its answer reads: a nearest set
    when the free cables' rank is below A's, whose held cables map to
    their descents, and an exact set otherwise."""
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
    """The working set of the nearest point t, a list of floats, which
    holds the cables t has on a bound: a nearest set, or None when the free
    cables' block lacks full column rank, where no set's optimum is unique,
    or reaches A's rank, where the set answers no unreachable force."""
    lo, hi = box.lo_floats, box.hi_floats
    free = [lo_i < ti < hi_i for ti, lo_i, hi_i in zip(t, lo, hi)]
    blk = fac.block(free)
    if blk.rank < fac.rank and blk.rank == sum(free):
        held = [lo_i if is_free else ti for is_free, lo_i, ti in zip(free, lo, t)]
        return _working_set(fac, blk, free, held, fac.rows.dot(np.array(held)))
    return None


def _active_set(fac, box: _Box, kept, t, fvec, f, tol: float, budget: int) -> SolveResult:
    """The cold solve of the force fvec, f being its three floats, from t,
    the box-clipped projection of t_min, t_min + A^+ (f - A t_min), a list
    of floats: one primal active-set loop of at most budget iterations,
    which keeps the set it certifies in kept, the bounds' _Kept.

    rows = fac.rows has orthonormal rows spanning the row space of A and
    goal = fac.goal = S_r^-1 U_r^T, so for the residual r = f - A t,
    ||goal r|| is the distance from t to the equilibrium set and
    A^+ r = rows^T goal r its negative gradient. Cables at a bound are
    held. Each iteration takes the working set of the box point t, which
    holds the held cables where t has them, and steps toward a
    least-squares solution over its free cables, on the free block's
    shift_op; the ratio step stops at the first bound on the way and holds
    that cable. Until an iterate renders f within tol the step is
    shift_op goal r, to the solution of rows t = goal f nearest t, formed
    from the residual so that it rounds with the step rather than with the
    tensions. From then on it is t_min + shift - t, shift = shift_op
    (target - c), c being rows times the held vector and the target rows t
    of that iterate: to the set's optimum, the solution of rows t = target
    nearest t_min (_toward). Keeping that iterate's force keeps the
    iterates rendering a force the box can render, even when f lies just
    outside the renderable set.

    A step that no cable blocks reaches the set's optimum, and the set's
    certificate runs on its held cables (_worst). Its free cables sit at
    the optimum by construction: a test of them could fail only by
    rounding, and the loop would step to the same point again. Before f
    is rendered this is bounded-variable least squares (Stark & Parker
    1995): no held cable's descent A^+ r may point into the box by more
    than tol / 10 or _STATIONARY_LEVELS rounding levels of the iterate,
    whichever is larger. After it, it is the primal active-set method
    (Nocedal & Wright, Alg. 16.3) for min ||t - t_min||: every held
    cable's multiplier must have its bound's sign, to within box.rounding.
    The worst cable that fails is released. Once f is rendered the free
    cables keep A's rank: a held cable is released first whenever they
    lose it.

    A set is built and asked for an answer only when its certificate
    passes, so a solve builds at most one. A set certified before f is
    rendered answers with its _nearest_optimum, NEAREST_FEASIBLE; a
    degenerate point, whose free cables lack full column rank or whose
    held descents do not clear the threshold, answers with the iterate,
    and its set is not kept. A certified point within _FEASIBLE_LEVELS
    rounding levels of f renders f to rounding, and is taken as rendering
    it. The iteration that first renders f runs the multiplier test at
    once. A set certified for a target rows t answers with its _optimum,
    FEASIBLE_EXACT (see _optimum for why that is the method's own answer);
    where _optimum gives none, the iterate answers, FEASIBLE_EXACT when it
    renders f within tol and ITERATION_CAP otherwise, as when the budget
    runs out.

    A rounding level of an iterate t is eps ||goal|| (max |f_i| + sum t),
    so that no solve spins where the tolerance lies below the rounding; a
    solve whose 16 levels cannot reach tol / 10 on any iterate takes none
    (_below_threshold). Where the rounding keeps a reachable force above
    tol, the solve ends ITERATION_CAP, and scaling the force, the bounds
    and the tolerance together scales the answer.
    """
    M, rows, rank = fac.matrix, fac.rows, fac.rank
    lo, hi = box.lo_floats, box.hi_floats
    free = [lo_i < ti < hi_i for ti, lo_i, hi_i in zip(t, lo, hi)]
    x = np.array(t)
    rendered = M.dot(x)
    residual = fvec - rendered
    # ||residual||, the force_residual the iterate would answer with
    root = _residual(rendered, f)
    # whether an iterate has rendered f, whose force is then the target
    rendering = root <= tol
    target = rows.dot(x) if rendering else None
    # a rounding level is unit (max |f_i| + sum t); unit is set at the
    # first descent test, to 0 when no iterate's 16 levels can reach
    # tol / 10, the usual case
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
            x = np.array(t)
            rendered = M.dot(x)
            residual = fvec - rendered
            root = _residual(rendered, f)
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
        x, rendered, residual = _rendering(fac, t, f)
        # the rounding of the steps can leave a certified point just above
        # a tolerance set near the rounding level of the force
        exact = residual <= tol
        status = SolveStatus.FEASIBLE_EXACT if exact else SolveStatus.ITERATION_CAP
        return _result(box, x, rendered, residual, status, k)
    return _result(box, *_rendering(fac, t, f), SolveStatus.ITERATION_CAP, budget)


def _toward(fac, blk: _Block, free, target, t, lo):
    """(held, c, toward) of the working set of the box point t whose free
    cables, of the list free, form blk: its held vector, t_min on each
    free cable and t on each held one, c = rows times it, and t_min +
    shift - t on every cable, shift = blk.shift_op (target - c), as lists
    of floats. On a free cable that is its step to the set's optimum for
    rows t = target, the least-squares solution nearest t_min, and on a
    held cable minus its multiplier at a floor, its multiplier at a
    ceiling."""
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

    One active-set loop (_active_set), holding or releasing at most one
    cable per iteration, starts from the box-clipped equilibrium
    projection of t_min on every cable. It minimizes the distance to the
    equilibrium set {t : A t = f} over the box until an iterate renders f,
    and then finds the box point rendering that iterate's force that is
    nearest t_min. The result is:

    * intersection nonempty -> the Euclidean projection of t_min onto the
      intersection, status FEASIBLE_EXACT, with a force residual
      within the tolerance;
    * intersection empty -> the box point nearest the equilibrium set,
      status NEAREST_FEASIBLE, so the nearest reachable force is rendered;
    * otherwise ITERATION_CAP: max_iterations ran out, or the tolerance is
      below what the rounding of the steps lets the residual reach.

    The loop works on the rank-r system rows t = goal f, with
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
    counts the loop's iterations, including the one that certifies the
    result, so it is at least 1, and it is 1 for an
    answer from a kept working set or at t_min. A kept set's answer is the
    cold solve's, bit for bit, except that it lifts an ITERATION_CAP: a
    kept set that certifies for f answers FEASIBLE_EXACT or
    NEAREST_FEASIBLE whatever max_iterations is.

    The returned tensions are always within bounds, whatever the status.
    A force with a component of _fields.MAX_MAGNITUDE (1e100 N) or more
    raises ValueError naming it, as TensionBounds does for such a t_max.
    The exact working sets A's factorization keeps for the bounds answer
    first, then t_min's, by a float pass over A^+'s rows
    (_floor_residual), then the nearest ones (_reuse). A cold solve
    answers with the _optimum or _nearest_optimum of the one working set
    the loop certifies, and keeps that set.
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
