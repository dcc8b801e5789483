"""Bounded tension distribution: a Dykstra warm start plus a certified exact finish.

The core problem: find cable tensions t in the box [t_min, t_max]^m whose
net pull A @ t equals a desired force f, where the columns of A are unit
cable directions. Cables only pull, so t is never allowed outside the box.
Dykstra's algorithm projects alternately onto the box and onto the affine
equilibrium set {t : A t = f}, with a correction term on the box side, and
converges to the Euclidean projection of the start point onto their
intersection. When the intersection is empty it converges to the box point
nearest the equilibrium set, which renders the nearest reachable force.

Dykstra contracts slowly when a bound face is nearly parallel to the
equilibrium set, so it serves only as a warm start. At fixed sweep
checkpoints the solve reads candidate active sets (which cables sit at a
bound) off the iterate, solves each one exactly, and returns the first
result whose optimality conditions check out: the active-set finish of
bounded tension distribution (Gouttefarde et al., T-RO 2015; Goldfarb &
Idnani 1983). When the force is unreachable, the finish is a
bounded-variable least-squares active-set method (Stark & Parker 1995)
started from the iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from .geometry import StructureMatrix

# Relative singular-value cutoff shared by the pseudoinverse and rank checks.
RANK_REL_TOL = 1e-9

# Residual (newtons) below which a desired force counts as wrench-feasible.
WRENCH_FEASIBLE_RESIDUAL = 1e-7

# The exact finish is first tried after this many Dykstra sweeps, then after
# twice as many each time it fails to certify, up to the iteration cap.
FINISH_FIRST_SWEEP = 10

# Cables within this distance of a bound (newtons) form the candidate active
# set of the exact finish.
FINISH_BOUND_MARGIN = 1e-2

# Times the feasible finish re-reads each candidate's active set from its
# own solution before giving up on the feasible case.
FINISH_REREADS = 1


class SolveStatus(Enum):
    """Outcome of a tension solve, in decreasing order of success."""

    FEASIBLE_EXACT = "feasible_exact"
    NEAREST_FEASIBLE = "nearest_feasible"
    ITERATION_CAP = "iteration_cap"


@dataclass(frozen=True)
class TensionBounds:
    """Allowable tension range for a cable, in newtons.

    Defaults are the hardware limits of one module: 0.5 N keeps the cable
    taut, 6.0 N is the motor's maximum steady-state pull.
    """

    t_min: float = 0.5
    t_max: float = 6.0

    def __post_init__(self):
        if not (np.isfinite(self.t_min) and np.isfinite(self.t_max)):
            raise ValueError("tension bounds must be finite")
        if not 0.0 <= self.t_min < self.t_max:
            raise ValueError(
                f"need 0 <= t_min < t_max, got [{self.t_min}, {self.t_max}]"
            )


BoundsLike = Union[TensionBounds, Sequence[TensionBounds]]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration limits, tolerance and start point for the solve.

    ``start=None`` selects the minimum-tension start (t_min on every cable),
    so the feasible solution returned is the one closest to the lowest
    allowed tensions, minimizing energy use. Pass an explicit vector to
    project a custom start instead.

    ``max_iterations`` caps the Dykstra sweeps. The exact finish normally
    certifies the solution at sweep 10 or 20; the cap only binds when no
    active set read off the iterate certifies, in which case Dykstra runs on
    as a plain projection method. ``tolerance`` bounds the force residual of
    an exact solution, in newtons, and the sweep-to-sweep displacement at
    which Dykstra stops by itself.
    """

    max_iterations: int = 50000
    tolerance: float = 1e-8
    start: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive")
        if self.start is not None:
            arr = np.asarray(self.start, dtype=float)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
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


def _matrix(A) -> np.ndarray:
    """Accept a StructureMatrix or a plain (3, m) array of unit columns."""
    M = np.asarray(getattr(A, "columns", A), dtype=float)
    if M.ndim != 2 or M.shape[0] != 3 or M.shape[1] < 1:
        raise ValueError(f"expected a 3 x m structure matrix, got shape {M.shape}")
    return M


def _force(f) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if arr.shape != (3,) or not np.all(np.isfinite(arr)):
        raise ValueError(f"desired force must be a finite 3-vector, got {f!r}")
    return arr


def _bound_arrays(bounds: BoundsLike, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Expand shared or per-cable bounds into (lo, hi) arrays of length m."""
    if isinstance(bounds, TensionBounds):
        return np.full(m, bounds.t_min), np.full(m, bounds.t_max)
    per_cable = tuple(bounds)
    if len(per_cable) != m:
        raise ValueError(f"got {len(per_cable)} per-cable bounds for {m} cables")
    lo = np.array([b.t_min for b in per_cable])
    hi = np.array([b.t_max for b in per_cable])
    return lo, hi


def project_box(t, bounds: BoundsLike) -> np.ndarray:
    """Clamp each tension into its allowable range. Idempotent."""
    arr = np.asarray(t, dtype=float)
    lo, hi = _bound_arrays(bounds, arr.shape[-1])
    return np.clip(arr, lo, hi)


def svd_rank_pinv(M: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Numerical rank, pseudoinverse and null-space basis of M from one SVD.

    Singular values at or below RANK_REL_TOL times the largest count as
    zero, so the three always agree. For a structure matrix A the
    pseudoinverse A^+ = A^T (A A^T)^+ gives the equilibrium projection
    t - A^+ (A t - f), which at rank-deficient geometries targets the
    nearest consistent right-hand side, P_range(A) f. The null-space basis
    has one row per basis vector.
    """
    u, sv, vt = np.linalg.svd(M)
    rank = int(np.sum(sv > RANK_REL_TOL * sv[0])) if sv[0] > 0 else 0
    pinv = (vt[:rank].T / sv[:rank]) @ u[:, :rank].T
    return rank, pinv, vt[rank:]


def project_equilibrium(t, A: StructureMatrix | np.ndarray, f) -> np.ndarray:
    """Euclidean projection of t onto the equilibrium set {t : A t = f}.

    If f is outside the column space of A (possible only when A is
    rank-deficient), the projection targets the nearest consistent
    right-hand side, i.e. f projected onto range(A).
    """
    M = _matrix(A)
    arr = np.asarray(t, dtype=float)
    _, pinv, _ = svd_rank_pinv(M)
    return arr - pinv @ (M @ arr - _force(f))


def null_space_basis(A: StructureMatrix | np.ndarray) -> np.ndarray:
    """Orthonormal basis of {v : A v = 0}, one row per basis vector.

    These are the internal tension redistributions that leave the rendered
    force unchanged; the returned array has shape (m - rank, m).
    """
    return svd_rank_pinv(_matrix(A))[2]


def _is_nearest_box_point(x, d, lo, hi, tol) -> bool:
    """First-order optimality of x for: minimize distance(t, equilibrium set)
    over the box, where d = P_eq(x) - x is the negative gradient direction.

    The condition is exact for this convex problem: at a lower bound the
    descent direction must not point back into the box (d <= tol), at an
    upper bound it must not point below (d >= -tol), and free components
    must be stationary (|d| <= tol). During Dykstra correction-drain
    plateaus, where the iterate sits still for many sweeps while the box
    correction unwinds, the component about to be released violates the
    condition, so the solve correctly keeps iterating instead of stopping
    at a non-optimal point.

    Callers pass tol an order below the solve tolerance. A point can pass
    while still rendering f within a few times the solve tolerance, so the
    residual decides between an exact and a nearest-feasible result.
    """
    at_lo = x <= lo
    at_hi = x >= hi
    free = ~(at_lo | at_hi)
    if np.any(d[at_lo] > tol):
        return False
    if np.any(d[at_hi] < -tol):
        return False
    return not np.any(np.abs(d[free]) > tol)


def _candidate_active_sets(x, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Active sets to try, read off the Dykstra iterate x.

    Returns (held, bound): row c of ``held`` marks the cables candidate c
    holds at a bound, and ``bound`` is the bound nearest each cable. The
    first candidate holds every cable within FINISH_BOUND_MARGIN of a bound;
    the others release one, then two, of those k cables, so there are
    1 + k + k(k-1)/2 candidates rather than 2^k.
    """
    below, above = x - lo, hi - x
    bound = np.where(below <= above, lo, hi)
    near = np.flatnonzero(np.minimum(below, above) <= FINISH_BOUND_MARGIN)
    single = np.eye(len(near), dtype=bool)
    first, second = np.triu_indices(len(near), 1)
    released = np.vstack(
        [np.zeros(len(near), dtype=bool), single, single[first] | single[second]]
    )
    held = np.zeros((len(released), len(x)), dtype=bool)
    held[:, near] = ~released
    return held, bound


def _exact_finish(M, pinv, f, lo, hi, start, x, tol):
    """Certified exact solution for an active set near the iterate x.

    Returns (tensions, status), or None when nothing certifies.

    Feasible case, min ||t - s||^2 s.t. A t = f and the box, with s the
    start: holding cables N at their bounds b_N and leaving F free, the
    KKT conditions give t_F = s_F + A_F^T lam, where the 3x3 system
    A_F A_F^T lam = f - A_N b_N - A_F s_F fixes the equilibrium multipliers
    lam. The candidate is t = clip(s + A^T lam): the clip keeps it inside
    the box and gives every bound multiplier t_i - s_i - a_i^T lam the sign
    its bound requires, so t satisfies every KKT condition except, possibly,
    A t = f. It is accepted as FEASIBLE_EXACT when ||A t - f|| <= tol, which
    a wrong active set does not reach. The active sets tried are those of
    _candidate_active_sets, then the ones read back off each candidate's
    s + A^T lam (the cables it pushes out of the box are held): one Newton
    step on lam, which catches a cable that Dykstra holds far from the bound
    it ends at.

    Infeasible case: _nearest_box_point.
    """
    held, bound = _candidate_active_sets(x, lo, hi)
    for _ in range(FINISH_REREADS + 1):
        gram = (M * ~held[:, None, :]) @ M.T
        # An exactly singular A_F A_F^T (too few or coplanar free cables)
        # fixes no multipliers; near-singular ones fail the residual check.
        solvable = np.flatnonzero(np.linalg.det(gram) != 0.0)
        if not solvable.size:
            break
        rhs = f - np.where(held, bound, start)[solvable] @ M.T
        lam = np.linalg.solve(gram[solvable], rhs[..., None])[..., 0]
        z = start + lam @ M
        t = np.clip(z, lo, hi)
        certified = np.flatnonzero(np.linalg.norm(t @ M.T - f, axis=1) <= tol)
        if certified.size:
            return t[certified[0]].copy(), SolveStatus.FEASIBLE_EXACT
        held, bound = (z <= lo) | (z >= hi), t
    return _nearest_box_point(M, pinv, f, lo, hi, x, tol)


def _nearest_box_point(M, pinv, f, lo, hi, x, tol):
    """Box least squares in the (A A^T)^+ metric, warm-started from x.

    Minimizes ||A^+ (A t - f)||, the distance from t to the equilibrium
    set, over the box by bounded-variable least squares (Stark & Parker
    1995), a primal active-set method. Cables at a bound are held; each step
    minimizes over the free cables and stops at the first bound it reaches,
    which holds that cable; once the free cables are stationary, the held
    cable whose descent direction points most into the box is released.

    Returns (t, NEAREST_FEASIBLE) once _is_nearest_box_point certifies t and
    its residual is above tol (a box point that renders f within tol is an
    exact solution, never a nearest-feasible one). Returns None when the
    residual falls to tol or the step budget runs out.
    """
    stationary = tol * 0.1
    metric = pinv @ M
    t = x.copy()
    held = (t <= lo) | (t >= hi)
    for _ in range(3 * len(t)):
        d = pinv @ (f - M @ t)  # P_eq(t) - t, the steepest descent direction
        if np.linalg.norm(M @ t - f) <= tol:
            return None
        if _is_nearest_box_point(t, d, lo, hi, stationary):
            return t, SolveStatus.NEAREST_FEASIBLE
        if np.all(np.abs(d[~held]) <= stationary):
            into_box = np.where(held, np.where(t <= lo, d, -d), 0.0)
            held[np.argmax(into_box)] = False
        free = np.flatnonzero(~held)
        step = np.zeros_like(t)
        free_block = metric[np.ix_(free, free)]
        step[free] = np.linalg.pinv(free_block, rcond=RANK_REL_TOL) @ d[free]
        # the fraction of the step each cable can take before it meets a bound
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(step > 0, (hi - t) / step, (lo - t) / step)
        room[step == 0] = np.inf
        alpha = min(1.0, float(np.min(room)))
        t = np.clip(t + alpha * step, lo, hi)
        blocked = room <= alpha
        t[blocked] = np.where(step > 0, hi, lo)[blocked]
        held |= blocked
    return None


def solve(
    A: StructureMatrix | np.ndarray,
    f,
    bounds: BoundsLike,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Compute box-feasible cable tensions rendering the desired force f.

    Runs Dykstra's alternating projections between the equilibrium set
    {t : A t = f} and the tension box from the configured start point
    (default: t_min on every cable), keeping the correction term for the
    box only (projections onto an affine set need none). After sweeps 10,
    20, 40, ... it tries the certified exact finish (_exact_finish). The
    result is:

    * intersection nonempty -> the Euclidean projection of the start point
      onto the intersection, status FEASIBLE_EXACT, with a force residual
      within the tolerance;
    * intersection empty -> the box point nearest the equilibrium set,
      status NEAREST_FEASIBLE, so the nearest reachable force is rendered;
    * otherwise ITERATION_CAP after max_iterations sweeps.

    ``iterations`` counts the Dykstra sweeps run before the solve stopped,
    whether Dykstra converged by itself or the finish certified its result.
    In the worst case no active set certifies and the solve is plain
    Dykstra, as slow as the geometry makes it.

    The returned tensions are always within bounds, whatever the status.
    """
    cfg = config if config is not None else SolverConfig()
    M = _matrix(A)
    m = M.shape[1]
    fvec = _force(f)
    lo, hi = _bound_arrays(bounds, m)
    tol = cfg.tolerance

    _, pinv, _ = svd_rank_pinv(M)

    def project_eq(t):
        return t - pinv @ (M @ t - fvec)

    if cfg.start is None:
        start = lo
    elif cfg.start.shape != (m,):
        raise ValueError(f"start has {cfg.start.shape[0]} entries for {m} cables")
    else:
        start = cfg.start
    x = start.copy()

    correction = np.zeros(m)
    status = SolveStatus.ITERATION_CAP
    iterations = cfg.max_iterations
    checkpoint = FINISH_FIRST_SWEEP
    for k in range(1, cfg.max_iterations + 1):
        y = project_eq(x)
        shifted = y + correction
        x_new = np.clip(shifted, lo, hi)
        correction = shifted - x_new
        displacement = np.max(np.abs(x_new - x))
        x = x_new
        if displacement <= tol:
            residual = float(np.linalg.norm(M @ x - fvec))
            if residual <= tol:
                status = SolveStatus.FEASIBLE_EXACT
                iterations = k
                break
            if _is_nearest_box_point(x, project_eq(x) - x, lo, hi, tol * 0.1):
                status = SolveStatus.NEAREST_FEASIBLE
                iterations = k
                break
        if k == checkpoint:
            finished = _exact_finish(M, pinv, fvec, lo, hi, start, x, tol)
            if finished is not None:
                x, status = finished
                iterations = k
                break
            checkpoint *= 2

    rendered = M @ x
    x.setflags(write=False)
    rendered.setflags(write=False)
    return SolveResult(
        tensions=x,
        rendered_force=rendered,
        force_residual=float(np.linalg.norm(rendered - fvec)),
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
