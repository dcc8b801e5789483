"""The working sets a cached factorization keeps change only the speed of a
solve, never its answer.

A solve answers with the optimum of its working set for f itself, exact
or nearest (solver._optimum), when that optimum certifies strictly, and a factorization keeps each such set for
the next solves on its matrix. A solve that finds a kept set certifying
for its force answers at one iteration, without either phase. The answer
(tensions, rendered force, residual and status) must not depend on which
sets were kept, so it must not depend on the order of the solves: the
corpus below is solved forward, reversed and with every cache cleared
before each solve, and the three must agree bit for bit.
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

from qp_oracle import min_shift_qp, nearest_point_qp

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
    (HUGE_FORCES[1], 1e99): (SolveStatus.ITERATION_CAP, 2, 7.436558338274357e74),
}


def kept_of(A):
    """The _Kept working sets of A's factorization under its last bounds."""
    return solver._factorization(A)._box[1][3]


def answer(result):
    """Everything a solve returns but its iteration count, as bytes."""
    return (
        result.tensions.tobytes(),
        result.rendered_force.tobytes(),
        np.float64(result.force_residual).tobytes(),
        result.status,
    )


# points of the README workspace grid, (-1, -1, 0.1) to (1, 1, 1.5) at
# 11 x 11 x 8, whose probes end on nearest sets with free cables
README_AXES = (np.linspace(-1.0, 1.0, 11), np.linspace(-1.0, 1.0, 11), np.linspace(0.1, 1.5, 8))
README_POINTS = [(0, 0, 0), (2, 7, 1), (5, 5, 3), (9, 3, 6), (10, 10, 7), (4, 8, 2)]
# a rank-2 layout, four cables in the horizontal plane
PLANAR = np.vstack([np.cos([0.3, 1.9, 3.4, 4.8]), np.sin([0.3, 1.9, 3.4, 4.8]), np.zeros(4)])


def corpus(seed=19, seeded_matrices=220):
    """(A, f, bounds) solves, several per matrix: the validation sphere, the
    workspace probes of points inside and at the edge of the default
    layout's reach and of README grid points, a sphere beyond the
    validation pose's reach, forces beyond a rank-2 layout's reach in its
    plane, seeded matrices with m = 3..8, a quarter of them of rank 2 with
    forces in their plane and one just off it, half of them with per-cable
    bounds, -0.0 floors, and for two thirds of them forces close to one
    another, and last HUGE_FORCES on the validation pose."""
    cases = []
    A = structure_matrix(VALIDATION_LAYOUT, VALIDATION_EE)
    cases += [(A, f, VALIDATION_LAYOUT.bounds) for f in sphere_samples(182, 1.5)]
    probes = WORKSPACE_DIRECTIONS * WORKSPACE_PROBE_FORCE
    points = [(0.0, 0.0, 0.3), (0.2, -0.1, 0.6), (0.0, -0.5, 0.1), (0.5, 0.5, 1.5)]
    points += [[axis[i] for axis, i in zip(README_AXES, index)] for index in README_POINTS]
    for point in points:
        A = structure_matrix(VALIDATION_LAYOUT, np.array(point))
        cases += [(A, f, VALIDATION_LAYOUT.bounds) for f in probes]
    A = structure_matrix(VALIDATION_LAYOUT, VALIDATION_EE)
    cases += [(A, f, VALIDATION_LAYOUT.bounds) for f in sphere_samples(60, 20.0)]
    angles = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    in_plane = 20.0 * np.vstack([np.cos(angles), np.sin(angles), np.zeros(40)]).T
    cases += [(PLANAR, f, TensionBounds(0.5, 6.0)) for f in in_plane]
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
    solver._clear_caches()
    indices = range(len(cases))
    if order == "reversed":
        indices = reversed(indices)
    results = [None] * len(cases)
    for i in indices:
        if order == "cleared":
            solver._clear_caches()
        A, f, bounds = cases[i]
        results[i] = solve(A, f, bounds, config)
    return results


@pytest.fixture
def reuse_log(monkeypatch):
    """(nearest, answer) of each solver._reuse lookup, the answer None for
    each that missed."""
    log = []
    reuse = solver._reuse

    def spy(sets, fac, *args):
        found = reuse(sets, fac, *args)
        log.append((sets is kept_of(fac.matrix).nearest_sets, found))
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
    # kept sets answered a good share of both passes, exact and nearest
    # answers both, and the corpus has every status, and cables on a zero
    # floor
    hits = Counter(nearest for nearest, found in reuse_log if found is not None)
    assert hits[False] > len(CORPUS) // 2 and hits[True] > 300, hits
    assert {r.status for r in cold} == set(SolveStatus)
    assert any((r.tensions == 0.0).any() for r in cold)


@pytest.mark.parametrize("order", ["cleared", "forward", "reversed"])
def test_huge_forces_meet_the_kept_sets_and_keep_their_results(monkeypatch, order):
    tried = set()

    def spy(optimum):
        def asked(fac, ws, g, box, tol):
            if max(map(abs, g)) >= 1e90:
                tried.add(box.hi_floats[0])
            return optimum(fac, ws, g, box, tol)

        return asked

    monkeypatch.setattr(solver, "_optimum", spy(solver._optimum))
    cases = huge_cases()
    results = solve_all(cases, order)
    got = {
        (tuple(f.tolist()), bounds.t_max): (r.status, r.iterations, r.force_residual)
        for (_, f, bounds), r in zip(cases, results)
        if tuple(f.tolist()) in HUGE_FORCES
    }
    assert got == HUGE_RESULTS
    # a huge force is asked for like any other: from the set its
    # certificate passes on both boxes, nearest on the 6 N box, and from
    # the kept sets wherever earlier solves kept some
    assert tried == {6.0, 1e99}


def test_phase_1_working_set_spares_cold_solves_phase_2(monkeypatch):
    # the iteration whose iterate first renders f tests that set's
    # multipliers at once, and on the validation sphere the first set
    # tested after f is rendered answers every force: no solve steps
    # toward the force an iterate renders a second time
    targets = []
    toward = solver._toward

    def spy(*args):
        targets.append(args)
        return toward(*args)

    monkeypatch.setattr(solver, "_toward", spy)
    A = structure_matrix(VALIDATION_LAYOUT, VALIDATION_EE)
    iterations, rendered = Counter(), Counter()
    for f in sphere_samples(182, 1.5):
        solver._clear_caches()
        del targets[:]
        iterations[solve(A, f, VALIDATION_LAYOUT.bounds).iterations] += 1
        rendered[len(targets)] += 1
    assert rendered == {1: 182}
    assert iterations == {1: 32, 2: 120, 3: 29, 4: 1}


def test_each_working_set_a_cold_solve_builds_is_asked_for_its_answer_once(
    monkeypatch, reuse_log
):
    # the loop tests each set it builds as it builds it, and nothing else
    # asks a cold solve's sets for an answer
    built, asked = [], []
    working_set = solver._working_set

    def build(fac, box, blk, *args):
        ws = working_set(fac, box, blk, *args)
        # a set is nearest where its free block's rank is below A's
        assert ws.nearest is (blk.rank < fac.rank)
        built.append((ws, ws.nearest))
        return ws

    def spy(optimum):
        def ask(fac, ws, *args):
            asked.append(ws)
            return optimum(fac, ws, *args)

        return ask

    monkeypatch.setattr(solver, "_working_set", build)
    monkeypatch.setattr(solver, "_optimum", spy(solver._optimum))
    sets_per_solve = Counter()
    nearest_sets = Counter()
    for A, f, bounds in CORPUS:
        solver._clear_caches()
        del built[:], asked[:]
        result = solve(A, f, bounds)
        assert len(asked) == len(built)
        assert all(ask is ws for ask, (ws, _) in zip(asked, built))
        sets_per_solve[len(built)] += 1
        if result.status is SolveStatus.NEAREST_FEASIBLE:
            # the nearest point's set, unless the answer is t_min's or
            # degenerate
            assert len(built) <= 1 and all(nearest for _, nearest in built)
            nearest_sets[len(built)] += 1
        else:
            assert not any(nearest for _, nearest in built)
    assert not reuse_log
    # a set is built only once its certificate passes, so a cold solve
    # builds at most one, and most build one
    assert sets_per_solve[1] > len(CORPUS) // 4
    assert max(sets_per_solve) == 1
    assert nearest_sets[0] > 100 and nearest_sets[1] > 100, nearest_sets


def test_a_force_just_off_a_rank_2_plane_is_not_rendered_by_a_kept_set():
    angles = [0.3, 1.9, 3.4, 4.8]
    M = np.vstack([np.cos(angles), np.sin(angles), np.zeros(4)])
    bounds = TensionBounds(0.5, 6.0)
    solver._clear_caches()
    in_plane = solve(M, [0.4, -0.3, 0.0], bounds)
    assert in_plane.status is SolveStatus.FEASIBLE_EXACT
    assert kept_of(M).sets
    # the kept set's optimum renders the force's projection onto the plane,
    # but misses the force by more than the tolerance, and the set reaches
    # the layout's rank, so it cannot answer nearest either
    off = solve(M, [0.4, -0.3, 1e-6], bounds)
    assert off.status is SolveStatus.NEAREST_FEASIBLE
    solver._clear_caches()
    assert answer(off) == answer(solve(M, [0.4, -0.3, 1e-6], bounds))


# once an iterate renders f within the tolerance, the loop steps toward the
# force that iterate renders, so it may end on the working set of a force
# up to the tolerance away; a kept set must then certify with room for
# that, or it answers where a cold solve does not
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

    def spy(sets, fac, g, box, tol):
        found = reuse(sets, fac, g, box, tol)
        if found is not None:
            nearest = sets is kept_of(fac.matrix).nearest_sets
            reused.append((nearest, fac.matrix, np.array(g), box, found))
        return found

    monkeypatch.setattr(solver, "_reuse", spy)
    solve_all(CORPUS, "forward")
    kinds = Counter(nearest for nearest, *_ in reused)
    assert kinds[False] > 400 and kinds[True] > 300, kinds
    for nearest, M, f, box, (tensions, rendered, _) in reused:
        if nearest:
            expected = nearest_point_qp(M, f, box.lo, box.hi_floats)
            np.testing.assert_allclose(rendered, M @ expected, rtol=0.0, atol=1e-9)
        else:
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
    solver._clear_caches()
    cold = solve(A, f, VALIDATION_LAYOUT.bounds)
    assert cold.status is SolveStatus.FEASIBLE_EXACT
    np.testing.assert_allclose(cold.tensions, t_star, rtol=0.0, atol=1e-12)
    # the cold solve kept nothing, since its set certifies only loosely
    assert not kept_of(A).sets
    solver._clear_caches()
    for g in sphere_samples(182, 1.5):
        solve(A, g, VALIDATION_LAYOUT.bounds)
    kept = dict(kept_of(A).sets)
    assert len(kept) >= 3
    del reuse_log[:]
    warm = solve(A, f, VALIDATION_LAYOUT.bounds)
    # the exact sets; the sphere kept no nearest set to look up next
    assert reuse_log == [(False, None)]
    assert answer(warm) == answer(cold) and warm.iterations == cold.iterations
    assert kept_of(A).sets == kept


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
    solver._clear_caches()
    for group in matrix_groups(cases):
        for A, f, bounds in group:
            solve(A, f, bounds)
        warm += [answer(solve(A, f, bounds, config)) for A, f, bounds in group]
    lifted = Counter()
    for got, cold, full in zip(warm, capped, uncapped):
        if got != cold:
            assert cold[3] is SolveStatus.ITERATION_CAP
            assert got == full and got[3] is not SolveStatus.ITERATION_CAP
            lifted[got[3]] += 1
    # kept exact and kept nearest sets both lift caps
    assert lifted[SolveStatus.FEASIBLE_EXACT] > 0 and lifted[SolveStatus.NEAREST_FEASIBLE] > 0
    assert sum(cold[3] is SolveStatus.ITERATION_CAP for cold in capped) > sum(lifted.values())


def test_many_sets_keep_the_lookup_bounded(monkeypatch):
    # an 8-cable layout off centre certifies far more sets than are kept
    A = structure_matrix(CUBE, np.array([0.3, -0.2, 0.7]))
    forces = sphere_samples(500, 1.5)
    cold, certified = [], set()
    for f in forces:
        solver._clear_caches()
        cold.append(answer(solve(A, f, CUBE.bounds)))
        certified |= set(kept_of(A).sets)
    assert len(certified) > 3 * solver._MAX_SETS

    evaluated = []

    def spy(optimum):
        def evaluate(fac, ws, *args):
            evaluated.append(ws)
            return optimum(fac, ws, *args)

        return evaluate

    lookups = []
    reuse = solver._reuse

    def lookup(sets, fac, *args):
        del evaluated[:]
        kept = list(sets.values())
        found = reuse(sets, fac, *args)
        # the sets evaluated are the first of those kept, in their order
        in_order = len(evaluated) <= len(kept) and all(map(operator.is_, evaluated, kept))
        lookups.append((found is not None, in_order, len(evaluated), len(kept)))
        return found

    monkeypatch.setattr(solver, "_optimum", spy(solver._optimum))
    monkeypatch.setattr(solver, "_reuse", lookup)
    solver._clear_caches()
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


# two parallel cables, c1 and c2, beside three that span the rest
PARALLEL = np.array(
    [[1.0, 1.0, 0.0, 0.0, -(3**-0.5)], [0, 0, 1, 0, -(3**-0.5)], [0, 0, 0, 1, -(3**-0.5)]]
)
# three opposed pairs of cables along the axes
OPPOSED = np.array([[1.0, -1.0, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]])


@pytest.mark.parametrize(
    "M, f, others",
    [
        # the parallel cables end free: their block has rank 1, so no
        # working set's optimum is unique
        (PARALLEL, [3.0, 40.0, -30.0], [[2.0, 50.0, 50.0], [1.0, 20.0, 20.0]]),
        # every cable ends on a bound, and the four cables across the force
        # have a zero descent: the point is nearest, but not strictly
        (OPPOSED, [0.0, 0.0, 100.0], [[30.0, 40.0, 100.0], [-20.0, 25.0, 80.0]]),
    ],
)
def test_a_degenerate_nearest_point_is_never_kept(M, f, others):
    bounds = TensionBounds(0.5, 6.0)
    solver._clear_caches()
    cold = solve(M, f, bounds)
    assert cold.status is SolveStatus.NEAREST_FEASIBLE
    # the iterate answers with the residual its status was decided on
    assert cold.force_residual > SolverConfig().tolerance
    assert not kept_of(M).nearest_sets
    # the same force after others that keep nearest sets on the matrix
    for g in others:
        solve(M, g, bounds)
    kept = dict(kept_of(M).nearest_sets)
    assert kept
    warm = solve(M, f, bounds)
    assert answer(warm) == answer(cold) and warm.iterations == cold.iterations
    assert kept_of(M).nearest_sets == kept
    np.testing.assert_allclose(warm.rendered_force, M @ nearest_point_qp(M, f, 0.5, 6.0), atol=1e-9)


def test_exact_and_nearest_sets_share_the_slots():
    slots = solver._Kept()

    def kept(k, nearest):
        # the two kinds' free masks differ, as a block's rank decides them
        free = [nearest, False, False]
        return solver._WorkingSet(free, [float(k)] * 3, nearest, 0.0, (), ())

    def keep(k, nearest):
        slots.keep(kept(k, nearest))

    def held(sets):
        return [key[1][0] for key in sets]

    n = solver._MAX_SETS
    for k in range(n):
        keep(k, True)
    # the slots are full of nearest sets: an exact one displaces the oldest
    keep(100, False)
    assert held(slots.sets) == [100.0] and held(slots.nearest_sets) == list(range(1, n))
    # the oldest set goes, whatever its kind and the new one's
    keep(200, True)
    assert held(slots.sets) == [100.0] and held(slots.nearest_sets) == [*range(2, n), 200.0]
    for k in range(300, 300 + n - 2):
        keep(k, False)
    assert held(slots.sets) == [100.0, *range(300, 300 + n - 2)]
    assert held(slots.nearest_sets) == [200.0]
    keep(400, True)
    assert held(slots.sets) == list(range(300, 300 + n - 2))
    assert held(slots.nearest_sets) == [200.0, 400.0]
    # a known set is not kept twice, and keeps its place
    keep(300, False)
    assert held(slots.sets) == list(range(300, 300 + n - 2))
    keep(500, False)
    assert held(slots.sets) == [*range(300, 300 + n - 2), 500.0]
    assert held(slots.nearest_sets) == [400.0]
    # keep replaces a dict rather than changing it, so a lookup in another
    # thread iterates the one it read, whole
    read = [slots.sets, slots.nearest_sets]
    copies = list(map(dict, read))
    keep(600, True)
    assert [slots.sets, slots.nearest_sets] != read and list(map(dict, read)) == copies


@pytest.mark.parametrize("order", [1, -1])
def test_a_mixed_sphere_keeps_the_exact_hits_of_exact_sets_alone(monkeypatch, reuse_log, order):
    # a 7 N sphere about an 8-cable layout off centre: 437 exact and 63
    # nearest forces certify 52 sets between them, so the kinds contend
    # for the slots
    A = structure_matrix(CUBE, np.array([0.3, -0.2, 0.7]))
    forces = sphere_samples(500, 7.0)[::order]
    cold = []
    for f in forces:
        solver._clear_caches()
        cold.append(answer(solve(A, f, CUBE.bounds)))
    assert Counter(status for *_, status in cold)[SolveStatus.NEAREST_FEASIBLE] > 50
    del reuse_log[:]
    solver._clear_caches()
    assert [answer(solve(A, f, CUBE.bounds)) for f in forces] == cold
    hits = Counter(nearest for nearest, found in reuse_log if found is not None)
    # the same solves on a factorization that keeps exact sets alone
    keep = solver._Kept.keep

    def keep_exact(kept, ws):
        if not ws.nearest:
            keep(kept, ws)

    monkeypatch.setattr(solver._Kept, "keep", keep_exact)
    del reuse_log[:]
    solver._clear_caches()
    assert [answer(solve(A, f, CUBE.bounds)) for f in forces] == cold
    alone = sum(found is not None for _, found in reuse_log)
    # sharing the slots costs the exact sets few hits, and the nearest sets
    # answer more than that: 253 + 35 and 257 + 36 against 280 alone
    assert hits[False] > 0.85 * alone and hits[False] + hits[True] > alone, (hits, alone)
