"""Bounded tension distribution by a finite two-phase active-set method.

The core problem: find cable tensions t in the box [t_min, t_max]^m whose
net pull A @ t equals a desired force f, where the columns of A are unit
cable directions. Cables only pull, so t is never allowed outside the box.
The answer is the Euclidean projection of a start point onto the
intersection of the box and the affine equilibrium set {t : A t = f}, a
quadratic program with three equality rows and box bounds. When the
intersection is empty, the answer is the box point nearest the
equilibrium set, which renders the nearest reachable force.

Phase 1 is bounded-variable least squares (Stark & Parker 1995): it finds
the box point nearest the equilibrium set, which either certifies the
force unreachable or is a feasible point. Phase 2 is the primal active-set
method (Nocedal & Wright, Numerical Optimization, Alg. 16.3), warm-started
from phase 1's bound set, for the feasible point nearest the start. Each
iteration of either phase holds or releases at most one cable and solves
one small least-squares problem, and each phase ends only when its
optimality conditions check out. The inputs are geometry's types: a
matrix is checked once, when its StructureMatrix is built, and every entry
point takes one as it is and builds one from anything else.

Every SVD, of A and of the free-column blocks the iterations solve on,
comes from one cached factorization of A, together with every operator
that depends on A alone and, for the last bounds and start point, A times
the start; consecutive solves on the same matrix share it, so a solve
computes only what depends on the force. The factorization is a solve's
one handle on its matrix: _factorization(A) finds it by the bytes of A's
columns, and it holds A itself as a read-only view over those bytes, so
no function takes the matrix beside it. What depends on the bounds and
the start alone (the bound arrays, the start, the rounding level and
their float tuples) is one more cached box that every matrix shares, so a
new matrix builds its factorization and computes A times the start, and
nothing else, before it can solve. actuation_rank reads its rank from the
same factorization, so the rank rule lives here alone.

Each iteration does two kinds of work. Products with a cached 3 x m or
m x r operator, and the clip of a step into the box, are one ndarray.dot
or np.minimum(np.maximum(...)) call each: numpy's fixed cost per call is
about a microsecond, and at these sizes one call still beats a Python sum.
Every per-cable decision (the nearest-box-point certificate, the ratio
test and its blocking cable, phase 1's choice of cable to release, phase
2's multiplier sign test) and both rank counts are one Python pass over
tolist() floats, where numpy would spend a call per comparison or mask on
four to eight values.
Each pass does the same float operations in the same order as the array
expressions it replaces and breaks ties toward the lowest index, as
argmin and argmax do, so the results are bit for bit the same.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence, Union

import numpy as np

from ._fields import as_vec3, integer, real, set_checked
from .geometry import StructureMatrix, TensionBounds

# Relative singular-value cutoff shared by the pseudoinverse and rank checks.
RANK_REL_TOL = 1e-9

# Residual (newtons) below which a desired force counts as wrench-feasible.
WRENCH_FEASIBLE_RESIDUAL = 1e-7


class SolveStatus(Enum):
    """Outcome of a tension solve, in decreasing order of success."""

    FEASIBLE_EXACT = "feasible_exact"
    NEAREST_FEASIBLE = "nearest_feasible"
    ITERATION_CAP = "iteration_cap"


BoundsLike = Union[TensionBounds, Sequence[TensionBounds]]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration limits, tolerance and start point for the solve.

    ``start=None`` selects the minimum-tension start (t_min on every cable),
    so the feasible solution returned is the one closest to the lowest
    allowed tensions, minimizing energy use. Pass an explicit vector to
    project a custom start instead.

    ``max_iterations`` caps the active-set iterations of both solve phases
    together; each iteration holds or releases at most one cable, and most
    solves certify their result in fewer than ten. ``tolerance`` bounds
    the force residual of an exact solution, in newtons; a tenth of it is
    the stationarity threshold of the nearest-box-point certificate.
    """

    max_iterations: int = 50000
    tolerance: float = 1e-8
    start: np.ndarray | None = None

    def __post_init__(self):
        set_checked(self, integer, "max_iterations", minimum=1)
        set_checked(self, real, "tolerance", minimum=0.0, strict=True)
        if self.start is not None:
            arr = np.asarray(self.start, dtype=float)
            if arr.ndim != 1 or not np.isfinite(arr).all():
                raise ValueError("start must be a finite 1-d tension vector")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, "start", arr)


@dataclass(frozen=True)
class SolveResult:
    """Tensions plus the force they actually render and solve diagnostics.

    ``tensions`` is always box-feasible, whatever the status. ``force_residual``
    is ||A t - f_desired|| in newtons.
    """

    tensions: np.ndarray
    rendered_force: np.ndarray
    force_residual: float
    status: SolveStatus
    iterations: int


_DEFAULT_CONFIG = SolverConfig()


class _Block(NamedTuple):
    """What the iterations need of one free-column block rows[:, free]:
    the free mask as an array, its left singular vectors and rank, the
    pseudoinverse of its Gram matrix, u_r diag(1/s^2) u_r^T, and phase 1's
    step operator, rows^T times that pseudoinverse with the held cables'
    rows zeroed."""

    free: np.ndarray
    u: np.ndarray
    rank: int
    gram_pinv: np.ndarray
    step: np.ndarray


class _Box(NamedTuple):
    """What a solve needs of its bounds and start point on m cables: the
    lower and upper bound arrays, the start vector, the rounding level of
    the tensions and of the steps between them, and the bounds and start
    again as tuples of floats for the per-cable passes. It does not depend
    on the matrix, so every matrix shares it."""

    lo: np.ndarray
    hi: np.ndarray
    start: np.ndarray
    rounding: float
    lo_floats: tuple[float, ...]
    hi_floats: tuple[float, ...]
    start_floats: tuple[float, ...]

    @classmethod
    def of(cls, lo, hi, start, rounding) -> _Box:
        """The _Box of these arrays, its float tuples copied from them."""
        floats = (tuple(arr.tolist()) for arr in (lo, hi, start))
        return cls(lo, hi, start, rounding, *floats)


@functools.lru_cache(maxsize=1)
def _box(bounds, start: bytes | None, m: int) -> _Box:
    """The _Box of bounds, a TensionBounds or a tuple of them, and the
    bytes of a validated SolverConfig.start, None for the minimum-tension
    start, on m cables.

    Only the last box is kept, and every factorization reads it: every
    caller in the package passes one bounds object per run and no start,
    so a new matrix finds its box here. Equal bounds match whatever object
    carries them. Bounds of the wrong count and a start of the wrong length
    raise ValueError, and lru_cache stores no call that raised.
    """
    if isinstance(bounds, TensionBounds):
        lo, hi = np.full(m, bounds.t_min), np.full(m, bounds.t_max)
    elif len(bounds) != m:
        raise ValueError(f"got {len(bounds)} per-cable bounds for {m} cables")
    else:
        lo = np.array([b.t_min for b in bounds])
        hi = np.array([b.t_max for b in bounds])
    if start is None:
        start = lo
    else:
        # an array over the bytes of the key is read-only
        start = np.frombuffer(start)
        if len(start) != m:
            raise ValueError(f"start has {len(start)} entries for {m} cables")
    rounding = float(1e-12 * np.maximum(hi, np.abs(start)).max())
    lo.setflags(write=False)
    hi.setflags(write=False)
    return _Box.of(lo, hi, start, rounding)


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


class _Factorization:
    """A checked structure matrix, as matrix, with one SVD A = U S V^T of
    it, its rank, the operators built from it alone, a _Block for each
    free-column block of rows = V_r^T asked for so far, and A times the
    start of the last _Box asked for.

    The rank counts singular values above RANK_REL_TOL times the largest;
    this is the package's one rank rule, and actuation_rank reads it. The
    operators are goal = S_r^-1 U_r^T, which maps a force to the
    right-hand side of rows t = goal f; the pseudoinverse
    pinv = A^+ = V_r S_r^-1 U_r^T; and rows_t, a C-contiguous copy of
    rows^T. Of V^T only its first rank rows are kept, as rows. Every array
    held here is read-only, since later solves share it.
    """

    def __init__(self, M: np.ndarray):
        u, sv, vt = np.linalg.svd(M)
        # a view taken of vt after this is read-only too
        vt.setflags(write=False)
        values = sv.tolist()
        rank = _rank(values, values[0])
        rows = vt[:rank]
        goal = u[:, :rank].T / sv[:rank, None]
        rows_t = np.ascontiguousarray(rows.T)
        pinv = rows_t @ goal
        for arr in (goal, rows_t, pinv):
            arr.setflags(write=False)
        self.matrix, self.rank, self.rows = M, rank, rows
        self.goal, self.rows_t, self.pinv = goal, rows_t, pinv
        self._blocks: dict[bytes, _Block] = {}
        # (key, (_Box, A times its start)) of the last box asked for
        self._box: tuple[tuple, tuple[_Box, np.ndarray]] | None = None

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
            # an array over the bytes of key is read-only
            free = np.frombuffer(key, dtype=bool)
            u, sv, _ = np.linalg.svd(self.rows.compress(free, axis=1))
            rank = _rank(sv.tolist(), 1.0)
            u_r = u[:, :rank]
            gram_pinv = (u_r / sv[:rank] ** 2) @ u_r.T
            step = self.rows_t @ gram_pinv
            step[~free] = 0.0
            for arr in (u, gram_pinv, step):
                arr.setflags(write=False)
            found = self._blocks[key] = _Block(free, u, rank, gram_pinv, step)
        return found

    def box(self, bounds: BoundsLike, start: np.ndarray | None) -> tuple[_Box, np.ndarray]:
        """The _Box of bounds and a validated SolverConfig.start on this
        factorization's m cables, and the matrix times the box's start.

        The box itself comes from _box, which every matrix shares, so a new
        matrix computes only the product, read-only. Like _box, this keeps
        only the last bounds and start: shared bounds key it as the frozen
        TensionBounds itself and per-cable bounds as a tuple of them, and a
        custom start keys it by its bytes. Comparing that key is cheaper
        than the hash a _box lookup takes of the bounds, so a solve on a
        known matrix reads this memo and only a new matrix goes to _box.
        """
        if not isinstance(bounds, TensionBounds):
            bounds = tuple(bounds)
        key = (bounds, None if start is None else start.tobytes())
        last = self._box
        if last is not None and last[0] == key:
            return last[1]
        box = _box(*key, self.matrix.shape[1])
        a_start = self.matrix @ box.start
        a_start.setflags(write=False)
        found = box, a_start
        self._box = (key, found)
        return found


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

    Callers pass tol an order below the solve tolerance. A point can pass
    while still rendering f within a few times the solve tolerance, so the
    residual decides between an exact and a nearest-feasible result. x, d,
    lo and hi are sequences of floats, one entry per cable.
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


def _worst_multiplier(free, t, start, shift, lo) -> tuple[int, float]:
    """Phase 2's KKT sign test over the held cables, from sequences of
    floats, one entry per cable.

    The multiplier of a held cable is mu = (t - start) - shift; it must be
    >= 0 at a floor and <= 0 at a ceiling. Returns the held cable whose
    multiplier is the most wrong (-mu at a floor, mu at a ceiling; the lowest
    index on a tie) with that amount, or (-1, -inf) if none is held.
    """
    worst, most = -1, -math.inf
    for i, (is_free, ti, si, shift_i, lo_i) in enumerate(zip(free, t, start, shift, lo)):
        if not is_free:
            mu = ti - si - shift_i
            wrong = -mu if ti <= lo_i else mu
            if wrong > most:
                worst, most = i, wrong
    return worst, most


def _ratio_step(t, step, box: _Box):
    """Move t along step, stopping where the first cable meets a bound.

    Step components at or below box.rounding are ignored: a bound that was
    just released must not block the step at length zero. Returns the new
    box point and the blocking cable (the lowest index on a tie), or -1
    when the whole step was taken.
    """
    rounding = box.rounding
    fraction, blocking, bound = 1.0, -1, 0.0
    for i, (ti, si, lo_i, hi_i) in enumerate(
        zip(t.tolist(), step.tolist(), box.lo_floats, box.hi_floats)
    ):
        if abs(si) > rounding:
            edge = hi_i if si > 0 else lo_i
            # the fraction of the step this cable can take
            room = (edge - ti) / si
            if room < fraction:
                fraction, blocking, bound = room, i, edge
    if blocking < 0:
        return np.minimum(np.maximum(t + step, box.lo), box.hi), -1
    t = np.minimum(np.maximum(t + fraction * step, box.lo), box.hi)
    t[blocking] = bound
    return t, blocking


def _nearest_box_point(fac, f, box, t, tol, budget):
    """Phase 1: box least squares min ||rows t - goal f|| from the box point t.

    rows = fac.rows has orthonormal rows spanning the row space of A and
    goal = fac.goal = S_r^-1 U_r^T, so the residual r = f - A t gives
    ||goal r|| = ||rows t - goal f||, the distance from t to the
    equilibrium set, and rows^T goal r = P_eq(t) - t, its negative
    gradient. Bounded-variable least squares (Stark & Parker 1995), a
    primal active-set method: cables at a bound are held; each iteration
    takes the minimum-norm least-squares step over the free cables, the
    free set's cached step operator times goal r, and stops at the first
    bound it reaches, which holds that cable; once the free cables are
    stationary, the held cable whose descent direction points most into
    the box is released.

    Returns (t, A t, status, iterations): status NEAREST_FEASIBLE once
    _is_nearest_box_point certifies t with a residual above tol, None once
    t renders f within tol (a feasible point for phase 2), ITERATION_CAP
    when the budget runs out.
    """
    M, goal, rows_t = fac.matrix, fac.goal, fac.rows_t
    lo, hi = box.lo_floats, box.hi_floats
    stationary = tol * 0.1
    # most solves return at the first iteration, before the bound set is read
    free = None
    for k in range(1, budget + 1):
        rendered = M.dot(t)
        residual = f - rendered
        if residual.dot(residual) <= tol * tol:
            return t, rendered, None, k
        gap = goal.dot(residual)
        x, d = t.tolist(), rows_t.dot(gap).tolist()
        if _is_nearest_box_point(x, d, lo, hi, stationary):
            return t, rendered, SolveStatus.NEAREST_FEASIBLE, k
        if free is None:
            free = [lo_i < xi < hi_i for xi, lo_i, hi_i in zip(x, lo, hi)]
        released = _release(free, x, d, lo, stationary)
        if released >= 0:
            free[released] = True
        t, blocking = _ratio_step(t, fac.block(free).step.dot(gap), box)
        if blocking >= 0:
            free[blocking] = False
    return t, M.dot(t), SolveStatus.ITERATION_CAP, budget


def _min_shift(fac, box, t, budget):
    """Phase 2: min ||t - start||^2 s.t. rows t = rows t0 and the box,
    by the primal active-set method (Nocedal & Wright, Alg. 16.3) from the
    feasible box point t0 = t, holding the cables it has at a bound.
    Phase 1 hands over t0 once it renders f within the tolerance; keeping
    the force t0 renders, rather than f itself, keeps t0 feasible even when
    f lies just outside the renderable set.

    Holding cables W at their bounds and leaving F free, the working-set
    optimum is t_F = start_F + rows_F^T lam, where lam solves
    rows_F rows_F^T lam = rows t0 - rows_W t_W - rows_F start_F. Each
    iteration steps toward it and holds the first cable that meets a bound
    on the way; once it is reached, the multiplier of each held cable,
    mu = t - start - rows^T lam, must be >= 0 at a floor and <= 0 at a
    ceiling (the KKT conditions). If one is not, the most wrong is
    released. The working set always keeps rank(rows_F) = rank(rows): a
    held cable is released first whenever the free ones lose rank. The
    free block's cached Gram pseudoinverse gives lam in one product, and the
    trailing columns of its left singular vectors span the directions the
    free cables cannot reach.

    Returns (t, certified, iterations).
    """
    rows, start = fac.rows, box.start
    target = rows.dot(t)
    free = [lo_i < ti < hi_i for ti, lo_i, hi_i in zip(t.tolist(), box.lo_floats, box.hi_floats)]
    for k in range(1, budget + 1):
        blk = fac.block(free)
        if blk.rank < len(rows):
            # release the held cable reaching furthest into the missing span
            reach = np.linalg.norm(blk.u[:, blk.rank :].T @ rows, axis=0)
            free[int(np.where(blk.free, -1.0, reach).argmax())] = True
            continue
        lam = blk.gram_pinv.dot(target - rows.dot(np.where(blk.free, start, t)))
        shift = fac.rows_t.dot(lam)
        t, blocking = _ratio_step(t, np.where(blk.free, start + shift - t, 0.0), box)
        if blocking >= 0:
            free[blocking] = False
            continue
        worst, wrong = _worst_multiplier(
            free, t.tolist(), box.start_floats, shift.tolist(), box.lo_floats
        )
        if wrong <= box.rounding:
            return t, True, k
        free[worst] = True
    return t, False, budget


def solve(
    A: StructureMatrix | np.ndarray,
    f,
    bounds: BoundsLike,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Compute box-feasible cable tensions rendering the desired force f.

    One active-set method in two phases, each holding or releasing at most
    one cable per iteration. Phase 1 (_nearest_box_point) starts from the box-clipped
    equilibrium projection of the configured start point (default: t_min
    on every cable) and minimizes the distance to the equilibrium set
    {t : A t = f} over the box. Phase 2 (_min_shift) starts from the
    feasible point phase 1 reaches and finds the box point rendering that
    force that is nearest the start point. The result is:

    * intersection nonempty -> the Euclidean projection of the start point
      onto the intersection, status FEASIBLE_EXACT, with a force residual
      within the tolerance;
    * intersection empty -> the box point nearest the equilibrium set,
      status NEAREST_FEASIBLE, so the nearest reachable force is rendered;
    * otherwise ITERATION_CAP: max_iterations ran out, or the tolerance is
      below what the rounding of the steps lets the residual reach.

    Both phases work on the rank-r system rows t = goal f, with
    rows = V_r^T and goal = S_r^-1 U_r^T from one SVD A = U S V^T; it holds
    exactly when A t = P_range(A) f, so rank-deficient layouts need no
    special case. That SVD and every operator built from A alone (goal,
    the pseudoinverse A^+ that projects the start, rows^T) are computed
    once per matrix, and so is, per free set an iteration meets, the SVD
    of the free-column block with its Gram pseudoinverse and phase 1's
    step operator, and, for the last bounds and start point, A times the
    start. All of it is held, with A, in the one factorization that
    _factorization(A) finds; the bound arrays of the last bounds and start
    point are built once and shared by every matrix. The next solves on
    the same matrix reuse all of it and compute only what depends on the
    force, so build A once and pass it to every solve at that position. A
    StructureMatrix is taken as it is, checked once when it was built;
    anything else is built into one first, so a plain array gets its
    checks and its bits. A bad matrix, start or bounds raises ValueError.
    ``iterations`` counts the active-set iterations of both phases,
    including the one that certifies the result, so it is at least 1.

    The returned tensions are always within bounds, whatever the status.
    """
    cfg = config if config is not None else _DEFAULT_CONFIG
    fac = _factorization(A)
    fvec = as_vec3(f)
    tol = cfg.tolerance
    box, a_start = fac.box(bounds, cfg.start)

    x = np.minimum(np.maximum(box.start + fac.pinv.dot(fvec - a_start), box.lo), box.hi)
    x, rendered, status, iterations = _nearest_box_point(fac, fvec, box, x, tol, cfg.max_iterations)
    if status is None:
        x, certified, more = _min_shift(fac, box, x, cfg.max_iterations - iterations + 1)
        iterations += more - 1
        rendered = fac.matrix.dot(x)

    miss = rendered - fvec
    residual = math.sqrt(miss.dot(miss))
    if status is None:
        # the rounding of phase 2's steps can leave a certified point just
        # above a tolerance set near the rounding level of the force
        exact = certified and residual <= tol
        status = SolveStatus.FEASIBLE_EXACT if exact else SolveStatus.ITERATION_CAP
    x.setflags(write=False)
    rendered.setflags(write=False)
    return SolveResult(
        tensions=x,
        rendered_force=rendered,
        force_residual=residual,
        status=status,
        iterations=iterations,
    )


def is_wrench_feasible(
    A: StructureMatrix | np.ndarray,
    f,
    bounds: BoundsLike,
    config: SolverConfig | None = None,
) -> bool:
    """True when some box-feasible tension vector renders f within 1e-7 N."""
    return solve(A, f, bounds, config).force_residual <= WRENCH_FEASIBLE_RESIDUAL
