"""Independent reference solvers used to check the active-set solver.

The main oracle solves  min ||t - start||^2  s.t.  A t = f,  lo <= t <= hi
by exact active-set enumeration: every bound-activity pattern is tried, the
equality-constrained subproblem for the free variables is solved through
its KKT system, and the best box-feasible candidate wins. The true
minimizer's own activity pattern is always among the patterns, and the
subproblem is strictly convex, so the enumeration is exact. Patterns are
grouped by free-variable mask: each KKT matrix is factored once, solved for
all lower/upper assignments of the fixed variables at once, and the
candidates' box, constraint and objective checks run on the whole batch,
keeping 3^m enumeration fast through m = 8.

The nearest-point oracle minimizes ||A^+ (A t - f)||, the solver's metric
for a force it cannot render, over the box by the same enumeration: for
each free mask it solves the least-squares subproblem of every lower/upper
assignment of the fixed variables at once, through one pseudoinverse of
the weighted free block, and keeps the best box-feasible candidate. The
minimizer's rendered force is unique, and some minimizer has linearly
independent free columns, at most rank(A) of them, so its pattern's
least-squares solution is exact and among the candidates.

None of this shares code with the production solver: subproblems go
through numpy's KKT solves/lstsq/pinv, not the solver's SVD-based
active-set steps.
"""

from __future__ import annotations

import itertools

import numpy as np

CONSTRAINT_TOL = 1e-9
BOX_TOL = 1e-9


def min_shift_qp(A, f, lo, hi, start):
    """Exact minimizer of ||t - start||^2 subject to A t = f and the box.

    Returns None when no box point satisfies the equality constraints.
    """
    A = np.asarray(A, dtype=float)
    f = np.asarray(f, dtype=float)
    m = A.shape[1]
    lo_arr = np.broadcast_to(np.asarray(lo, dtype=float), (m,))
    hi_arr = np.broadcast_to(np.asarray(hi, dtype=float), (m,))
    start = np.asarray(start, dtype=float)
    indices = np.arange(m)

    best = None
    best_objective = np.inf
    for free_bits in itertools.product((False, True), repeat=m):
        free = np.array(free_bits)
        F = indices[free]
        N = indices[~free]
        n_free = len(F)
        # one row per lower/upper assignment of the fixed variables
        at_upper = np.array(
            list(itertools.product((False, True), repeat=len(N))), dtype=bool
        ).reshape(2 ** len(N), len(N))
        candidates = np.empty((len(at_upper), m))
        candidates[:, N] = np.where(at_upper, hi_arr[N], lo_arr[N])

        if n_free:
            A_free = A[:, F]
            kkt = np.zeros((n_free + 3, n_free + 3))
            kkt[:n_free, :n_free] = 2.0 * np.eye(n_free)
            kkt[:n_free, n_free:] = A_free.T
            kkt[n_free:, :n_free] = A_free
            rhs = np.zeros((n_free + 3, len(candidates)))
            rhs[:n_free, :] = 2.0 * start[F][:, None]
            rhs[n_free:, :] = (f - candidates[:, N] @ A[:, N].T).T
            try:
                solution = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                solution, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            candidates[:, F] = solution[:n_free].T

        t_free = candidates[:, F]
        ok = np.all((t_free >= lo_arr[F] - BOX_TOL) & (t_free <= hi_arr[F] + BOX_TOL), axis=1)
        ok &= np.linalg.norm(candidates @ A.T - f, axis=1) <= CONSTRAINT_TOL
        if not np.any(ok):
            continue
        objectives = np.where(ok, np.sum((candidates - start) ** 2, axis=1), np.inf)
        j = int(np.argmin(objectives))
        if objectives[j] < best_objective:
            best_objective = float(objectives[j])
            best = np.clip(candidates[j], lo_arr, hi_arr)
    return best


def nearest_point_qp(A, f, lo, hi):
    """A minimizer of ||A^+ (A t - f)|| over the box lo <= t <= hi."""
    A = np.asarray(A, dtype=float)
    f = np.asarray(f, dtype=float)
    m = A.shape[1]
    lo_arr = np.broadcast_to(np.asarray(lo, dtype=float), (m,))
    hi_arr = np.broadcast_to(np.asarray(hi, dtype=float), (m,))
    weight = np.linalg.pinv(A)
    rank = np.linalg.matrix_rank(A)
    indices = np.arange(m)

    best = None
    best_objective = np.inf
    for free_bits in itertools.product((False, True), repeat=m):
        free = np.array(free_bits)
        F = indices[free]
        N = indices[~free]
        if len(F) > rank:
            # no more than rank columns are independent
            continue
        at_upper = np.array(
            list(itertools.product((False, True), repeat=len(N))), dtype=bool
        ).reshape(2 ** len(N), len(N))
        candidates = np.empty((len(at_upper), m))
        candidates[:, N] = np.where(at_upper, hi_arr[N], lo_arr[N])
        if len(F):
            # the weighted residual of the fixed cables, one column each
            rest = weight @ (f[:, None] - A[:, N] @ candidates[:, N].T)
            candidates[:, F] = (np.linalg.pinv(weight @ A[:, F]) @ rest).T
        t_free = candidates[:, F]
        ok = np.all((t_free >= lo_arr[F] - BOX_TOL) & (t_free <= hi_arr[F] + BOX_TOL), axis=1)
        if not np.any(ok):
            continue
        objectives = np.linalg.norm((candidates @ A.T - f) @ weight.T, axis=1)
        objectives = np.where(ok, objectives, np.inf)
        j = int(np.argmin(objectives))
        if objectives[j] < best_objective:
            best_objective = float(objectives[j])
            best = np.clip(candidates[j], lo_arr, hi_arr)
    return best


def random_rank3_directions(rng, m):
    """m unit cable directions (rows) with a numerically rank-3 span."""
    while True:
        dirs = rng.normal(size=(m, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        singular = np.linalg.svd(dirs.T, compute_uv=False)
        if singular[2] > 1e-6 * singular[0]:
            return dirs
