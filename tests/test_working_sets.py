"""The working sets a cached factorization keeps change only the speed of a
solve, never its answer.

An exact solve answers with the optimum of its working set for f itself
(solver._optimum), when that optimum certifies strictly, and a factorization
keeps each such set for the next solves on its matrix. A solve that finds a
kept set certifying for its force answers at one iteration, without either
phase. The answer (tensions, rendered force, residual and status) must not
depend on which sets were kept, so it must not depend on the order of the
solves: the corpus below is solved forward, reversed and with every cache
cleared before each solve, and the three must agree bit for bit.
"""

import itertools
import operator
from collections import Counter

import numpy as np
import pytest

from cablehaptics import (
    ModuleAnchor,
    ModuleLayout,
    SolveStatus,
    SolverConfig,
    TensionBounds,
    solve,
    structure_matrix,
)
from cablehaptics import solver
from cablehaptics.cli import WORKSPACE_DIRECTIONS, WORKSPACE_PROBE_FORCE
from cablehaptics.simulation import default_validation_layout, sphere_samples

from qp_oracle import min_shift_qp

VALIDATION_LAYOUT, VALIDATION_EE = default_validation_layout()
CUBE = ModuleLayout(
    tuple(
        ModuleAnchor(f"c{k + 1}", np.array(corner))
        for k, corner in enumerate(
            [(x, y, z) for z in (0.0, 2.0) for y in (-1.0, 1.0) for x in (-1.0, 1.0)]
        )
    ),
    TensionBounds(0.5, 6.0),
)


# forces far beyond any box but the widest, below the package's limit of
# 1e100 N, solved on the validation pose among ordinary forces, so that they
# meet the sets those kept; no set certifies on the 1e99 N box, whose
# rounding level is about 1e87 N
HUGE_FORCES = [(0.0, 0.0, 1e90), (-1e90, 3e89, 1e90)]
HUGE_BOUNDS = [TensionBounds(0.5, 6.0), TensionBounds(0.5, 1e99)]
# the status, iterations and residual of each, by force and t_max, however
# it is reached; at 1e99 N both forces are reachable, but only to the
# rounding of 1e90 N, far above the tolerance, so both end ITERATION_CAP
HUGE_RESULTS = {
    (HUGE_FORCES[0], 6.0): (SolveStatus.NEAREST_FEASIBLE, 1, 1e90),
    (HUGE_FORCES[1], 6.0): (SolveStatus.NEAREST_FEASIBLE, 1, 1.445683229480096e90),
    (HUGE_FORCES[0], 1e99): (SolveStatus.ITERATION_CAP, 4, 1.130782121458166e75),
    (HUGE_FORCES[1], 1e99): (SolveStatus.ITERATION_CAP, 3, 3.326210554704422e75),
}


def clear_caches():
    solver._factorize.cache_clear()
    solver._box.cache_clear()


def answer(result):
    """Everything a solve returns but its iteration count, as bytes."""
    return (
        result.tensions.tobytes(),
        result.rendered_force.tobytes(),
        np.float64(result.force_residual).tobytes(),
        result.status,
    )


def corpus(seed=19, seeded_matrices=220):
    """(A, f, bounds) solves, several per matrix: the validation sphere, the
    workspace probes of points inside and at the edge of the default
    layout's reach, seeded matrices with m = 3..8, a quarter of them of
    rank 2 with forces in their plane and one just off it, half of them
    with per-cable bounds, -0.0 floors, and for two thirds of them forces
    close to one another, and last HUGE_FORCES on the validation pose."""
    cases = []
    A = structure_matrix(VALIDATION_LAYOUT, VALIDATION_EE)
    cases += [(A, f, VALIDATION_LAYOUT.bounds) for f in sphere_samples(182, 1.5)]
    for point in [(0.0, 0.0, 0.3), (0.2, -0.1, 0.6), (0.0, -0.5, 0.1), (0.5, 0.5, 1.5)]:
        A = structure_matrix(VALIDATION_LAYOUT, np.array(point))
        probes = WORKSPACE_DIRECTIONS * WORKSPACE_PROBE_FORCE
        cases += [(A, f, VALIDATION_LAYOUT.bounds) for f in probes]
    rng = np.random.default_rng(seed)
    for k in range(seeded_matrices):
        m = 3 + k % 6
        if k % 4 == 0:
            angles = rng.uniform(0.0, 2 * np.pi, m)
            M = np.vstack([np.cos(angles), np.sin(angles), np.zeros(m)])
        else:
            M = rng.normal(size=(3, m))
        M = M / np.linalg.norm(M, axis=0)
        floors = np.where(rng.random(m) < 0.3, -0.0, rng.uniform(0.0, 1.0, m))
        if k % 2:
            bounds = TensionBounds(float(floors[0]), float(rng.uniform(2.0, 8.0)))
        else:
            bounds = tuple(
                TensionBounds(float(lo), float(lo + rng.uniform(0.5, 8.0))) for lo in floors
            )
        scale = 10.0 ** rng.uniform(-1.0, 0.7)
        forces = rng.normal(scale=scale, size=(int(rng.integers(2, 9)), 3))
        if k % 3:
            # a force and small changes to it, as a haptic hold asks for
            forces = forces[0] + 0.05 * (forces - forces[0])
        if k % 4 == 0:
            # in the plane of a rank-2 layout, but for the last force, which
            # leaves it by a little
            forces[:, 2] = 0.0
            forces[-1, 2] = 1e-6
        cases += [(M, f, bounds) for f in forces]
    return cases + huge_cases()


def huge_cases():
    """HUGE_FORCES on each of HUGE_BOUNDS at the validation pose, between
    ordinary forces."""
    A = structure_matrix(VALIDATION_LAYOUT, VALIDATION_EE)
    around = sphere_samples(12, 1.5)
    forces = [*around[:6], *map(np.array, HUGE_FORCES), *around[6:]]
    return [(A, f, bounds) for bounds in HUGE_BOUNDS for f in forces]


CORPUS = corpus()


def solve_all(cases, order, config=None):
    """The results of cases solved in order ('forward', 'reversed' or
    'cleared', forward with every cache cleared first), in case order."""
    clear_caches()
    indices = range(len(cases))
    if order == "reversed":
        indices = reversed(indices)
    results = [None] * len(cases)
    for i in indices:
        if order == "cleared":
            clear_caches()
        A, f, bounds = cases[i]
        results[i] = solve(A, f, bounds, config)
    return results


@pytest.fixture
def reuse_log(monkeypatch):
    """The answers solver._reuse gave, None for each lookup that missed."""
    log = []
    reuse = solver._reuse

    def spy(*args):
        found = reuse(*args)
        log.append(found)
        return found

    monkeypatch.setattr(solver, "_reuse", spy)
    return log


def test_answers_do_not_depend_on_the_order_of_solves(reuse_log):
    cold = solve_all(CORPUS, "cleared")
    assert not reuse_log
    cold_answers = [answer(r) for r in cold]
    for order in ("forward", "reversed"):
        results = solve_all(CORPUS, order)
        assert [answer(r) for r in results] == cold_answers, order
        assert all(r.iterations <= c.iterations for r, c in zip(results, cold))
    # kept sets answered a good share of both passes, and the corpus has
    # every status, and cables on a zero floor
    hits = sum(found is not None for found in reuse_log)
    assert hits > len(CORPUS) // 2
    assert {r.status for r in cold} == set(SolveStatus)
    assert any((r.tensions == 0.0).any() for r in cold)


@pytest.mark.parametrize("order", ["cleared", "forward", "reversed"])
def test_huge_forces_meet_the_kept_sets_and_keep_their_results(monkeypatch, order):
    tried = set()
    optimum = solver._optimum

    def spy(fac, ws, g, fvec, box, tol):
        if np.abs(fvec).max() >= 1e90:
            tried.add(box.hi_floats[0])
        return optimum(fac, ws, g, fvec, box, tol)

    monkeypatch.setattr(solver, "_optimum", spy)
    cases = huge_cases()
    results = solve_all(cases, order)
    got = {
        (tuple(f.tolist()), bounds.t_max): (r.status, r.iterations, r.force_residual)
        for (_, f, bounds), r in zip(cases, results)
        if tuple(f.tolist()) in HUGE_FORCES
    }
    assert got == HUGE_RESULTS
    # a huge force goes through _optimum like any other: from phase 1's
    # working set on the 1e99 N box, and from the kept sets on the 6 N box
    # wherever earlier solves kept some
    assert tried == ({1e99} if order == "cleared" else {6.0, 1e99})


def test_phase_1_working_set_spares_cold_solves_phase_2(monkeypatch):
    # a cold exact solve tries phase 1's working set before phase 2, and on
    # the validation sphere that set certifies for all but one force
    runs = []
    min_shift = solver._min_shift

    def spy(*args):
        runs.append(args)
        return min_shift(*args)

    monkeypatch.setattr(solver, "_min_shift", spy)
    A = structure_matrix(VALIDATION_LAYOUT, VALIDATION_EE)
    iterations = Counter()
    for f in sphere_samples(182, 1.5):
        clear_caches()
        iterations[solve(A, f, VALIDATION_LAYOUT.bounds).iterations] += 1
    assert len(runs) <= 1
    assert iterations == {2: 32, 3: 120, 4: 30}


def test_a_force_just_off_a_rank_2_plane_is_not_rendered_by_a_kept_set():
    angles = [0.3, 1.9, 3.4, 4.8]
    M = np.vstack([np.cos(angles), np.sin(angles), np.zeros(4)])
    bounds = TensionBounds(0.5, 6.0)
    clear_caches()
    in_plane = solve(M, [0.4, -0.3, 0.0], bounds)
    assert in_plane.status is SolveStatus.FEASIBLE_EXACT
    assert solver._factorization(M).sets
    # the kept set's optimum renders the force's projection onto the plane
    off = solve(M, [0.4, -0.3, 1e-6], bounds)
    assert off.status is SolveStatus.NEAREST_FEASIBLE
    clear_caches()
    assert answer(off) == answer(solve(M, [0.4, -0.3, 1e-6], bounds))


# phase 1 stops once it renders f within the tolerance, so phase 2 may end
# on the working set of a force up to the tolerance away; a kept set must
# then certify with room for that, or it answers where a cold solve does not
@pytest.mark.parametrize("tolerance", [1e-8, 1e-3, 0.5])
def test_answers_do_not_depend_on_the_order_of_solves_at_any_tolerance(tolerance):
    config = SolverConfig(tolerance=tolerance)
    cases = CORPUS[:286]
    cold = [answer(r) for r in solve_all(cases, "cleared", config)]
    for order in ("forward", "reversed"):
        assert [answer(r) for r in solve_all(cases, order, config)] == cold, order


def test_reused_answers_agree_with_the_qp_oracle(monkeypatch):
    reused = []
    reuse = solver._reuse

    def spy(fac, g, fvec, box, tol):
        found = reuse(fac, g, fvec, box, tol)
        if found is not None:
            reused.append((fac.matrix, fvec, box, found[0]))
        return found

    monkeypatch.setattr(solver, "_reuse", spy)
    solve_all(CORPUS, "forward")
    assert len(reused) > 400
    for M, f, box, tensions in reused:
        expected = min_shift_qp(M, f, box.lo, box.hi_floats, box.lo)
        assert expected is not None
        np.testing.assert_allclose(tensions, expected, rtol=0.0, atol=1e-5)


def test_a_cable_on_its_floor_with_a_zero_multiplier_solves_cold(reuse_log):
    # t* = t_min + A^T y - mu with y along x: the vertical cable m4 is
    # orthogonal to y, so it rests on its floor with multiplier zero, while
    # m2 and m3 rest there with positive multipliers. No working set holds
    # t* strictly, so the solve must not take its answer from a kept set.
    A = structure_matrix(VALIDATION_LAYOUT, VALIDATION_EE)
    M = A.columns
    assert M[0, 3] == M[1, 3] == 0.0
    t_star = np.array([0.5 + 2.0 * M[0, 0], 0.5, 0.5, 0.5])
    f = M @ t_star
    clear_caches()
    cold = solve(A, f, VALIDATION_LAYOUT.bounds)
    assert cold.status is SolveStatus.FEASIBLE_EXACT
    np.testing.assert_allclose(cold.tensions, t_star, rtol=0.0, atol=1e-12)
    # the cold solve kept nothing, since its set certifies only loosely
    assert not solver._factorization(A).sets
    clear_caches()
    for g in sphere_samples(182, 1.5):
        solve(A, g, VALIDATION_LAYOUT.bounds)
    kept = dict(solver._factorization(A).sets)
    assert len(kept) >= 3
    del reuse_log[:]
    warm = solve(A, f, VALIDATION_LAYOUT.bounds)
    assert reuse_log == [None]
    assert answer(warm) == answer(cold) and warm.iterations == cold.iterations
    assert solver._factorization(A).sets == kept


def matrix_groups(cases):
    """cases split into runs that share a matrix and bounds."""
    key = lambda case: (id(case[0]), id(case[2]))  # noqa: E731
    return [list(group) for _, group in itertools.groupby(cases, key=key)]


@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_a_kept_set_lifts_only_an_iteration_cap(cap):
    config = SolverConfig(max_iterations=cap)
    cases = CORPUS[::2]
    capped = [answer(r) for r in solve_all(cases, "cleared", config)]
    uncapped = [answer(r) for r in solve_all(cases, "cleared")]
    # each capped solve again, after the uncapped solves of every force on
    # its matrix have kept their sets
    warm = []
    clear_caches()
    for group in matrix_groups(cases):
        for A, f, bounds in group:
            solve(A, f, bounds)
        warm += [answer(solve(A, f, bounds, config)) for A, f, bounds in group]
    lifted = 0
    for got, cold, full in zip(warm, capped, uncapped):
        if got != cold:
            assert cold[3] is SolveStatus.ITERATION_CAP
            assert got == full and got[3] is SolveStatus.FEASIBLE_EXACT
            lifted += 1
    assert lifted > 0
    assert sum(cold[3] is SolveStatus.ITERATION_CAP for cold in capped) > lifted


def test_many_sets_keep_the_lookup_bounded(monkeypatch):
    # an 8-cable layout off centre certifies far more sets than are kept
    A = structure_matrix(CUBE, np.array([0.3, -0.2, 0.7]))
    forces = sphere_samples(500, 1.5)
    cold, certified = [], set()
    for f in forces:
        clear_caches()
        cold.append(answer(solve(A, f, CUBE.bounds)))
        certified |= set(solver._factorization(A).sets)
    assert len(certified) > 3 * solver._MAX_SETS

    evaluated = []
    optimum = solver._optimum

    def evaluate(fac, ws, *args):
        evaluated.append(ws)
        return optimum(fac, ws, *args)

    lookups = []
    reuse = solver._reuse

    def lookup(fac, *args):
        del evaluated[:]
        kept = list(fac.sets.values())
        found = reuse(fac, *args)
        # the sets evaluated are the first of those kept, in their order
        in_order = len(evaluated) <= len(kept) and all(map(operator.is_, evaluated, kept))
        lookups.append((found is not None, in_order, len(evaluated), len(kept)))
        return found

    monkeypatch.setattr(solver, "_optimum", evaluate)
    monkeypatch.setattr(solver, "_reuse", lookup)
    clear_caches()
    first = [answer(solve(A, f, CUBE.bounds)) for f in forces]
    second_pass = len(lookups)
    second = [answer(solve(A, f, CUBE.bounds)) for f in forces]
    assert first == second == cold
    # a lookup evaluates each kept set at most once, in the order they were
    # kept, and never more than _MAX_SETS of them; a miss evaluates them all
    assert all(in_order and sets <= solver._MAX_SETS for _, in_order, _, sets in lookups)
    misses = [(n, sets) for hit, _, n, sets in lookups if not hit]
    assert misses and all(n == sets for n, sets in misses)
    # the sets kept, the oldest making way for new ones, still answer most
    # forces of a second pass
    assert sum(hit for hit, *_ in lookups[second_pass:]) > 0.6 * len(forces)
