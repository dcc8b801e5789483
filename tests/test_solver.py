import copy
import dataclasses
import gc
import itertools
import math
import pickle
import sys
import threading
import time
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from cablehaptics import (
    SolveStatus,
    SolverConfig,
    StructureMatrix,
    TensionBounds,
    actuation_rank,
    is_wrench_feasible,
    solve,
    structure_matrix,
)
from cablehaptics import solver
from cablehaptics.cli import WORKSPACE_DIRECTIONS, WORKSPACE_PROBE_FORCE
from cablehaptics.geometry import ModuleAnchor, ModuleLayout
from cablehaptics.simulation import default_validation_layout, sphere_samples

from qp_oracle import min_shift_qp, nearest_point_qp, random_rank3_directions

BOUNDS = TensionBounds()
IDENTITY = StructureMatrix(np.eye(3))


def default_matrix():
    layout, ee = default_validation_layout()
    return structure_matrix(layout, ee)


class TestTensionBounds:
    def test_defaults_are_hardware_limits(self):
        assert BOUNDS.t_min == 0.5
        assert BOUNDS.t_max == 6.0

    @pytest.mark.parametrize("t_min,t_max", [(-0.1, 6.0), (6.0, 6.0), (2.0, 1.0)])
    def test_rejects_bad_ranges(self, t_min, t_max):
        with pytest.raises(ValueError):
            TensionBounds(t_min, t_max)

    @pytest.mark.parametrize("zero", [-0.0, np.float64(-0.0), 0.0, 0])
    def test_a_zero_floor_is_stored_as_positive_zero(self, zero):
        bounds = TensionBounds(zero, 6.0)
        assert type(bounds.t_min) is float and math.copysign(1.0, bounds.t_min) == 1.0
        assert bounds == TensionBounds(0.0, 6.0)

    def test_negative_zero_floor_after_a_zero_floor_solves_as_cold(self):
        # equal bounds share a box and the working sets kept under it, so
        # a -0.0 floor must solve as a 0.0 floor does, with or without them
        A = default_matrix()
        forces = sphere_samples(51, 1.5)
        solver._clear_caches()
        for f in forces:
            solve(A, f, TensionBounds(0.0, 6.0))
        warm = [solve(A, f, TensionBounds(-0.0, 6.0)) for f in forces]
        cold = []
        for f in forces:
            solver._clear_caches()
            cold.append(solve(A, f, TensionBounds(-0.0, 6.0)))
        _assert_same_answers(warm, cold)
        # some cable sits on the zero floor, where its sign would show
        assert any((result.tensions == 0.0).any() for result in cold)


def _floors(lows, t_max=6.0):
    """Per-cable bounds with these floors: the start t_min a solve projects."""
    return tuple(TensionBounds(lo, t_max) for lo in lows)


def _interior_projection_case(seed, m):
    """A random rank-3 matrix whose cables all lie within a half-space, floors
    in [0.5, 2] and a force whose projection of t_min shifts every cable up
    by at most 1, so no floor binds and the projection stays below t_max 6.
    The shift A^T y lies in the row space of A, so it is the minimum-norm
    one."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=3)
    dirs = random_rank3_directions(rng, m)
    dirs *= np.sign(dirs @ y)[:, None]
    A = dirs.T
    floors = rng.uniform(0.5, 2.0, size=m)
    shift = A.T @ y
    shift /= max(1.0, shift.max())
    return A, A @ (floors + shift), _floors(floors)


class TestSolveAsProjection:
    """Where the bounds do not bind, solve returns the Euclidean projection
    of t_min onto the equilibrium set {t : A t = f}: t_min shifted by the
    minimum-norm least-squares solution of A d = f - A t_min. On a layout
    whose cables span space positively (the default one), some cable of
    every nonzero such shift falls below its floor, so there the bounds do
    not bind only for a force that t_min already renders."""

    @pytest.mark.parametrize(
        "A, f, bounds",
        [
            pytest.param(np.eye(3), [1.0, 3.0, 0.5], _floors([0.5, 2.0, 0.3]), id="identity"),
            pytest.param(np.array([[1.0], [0.0], [0.0]]), [2.0, 0.0, 0.0], _floors([0.5]), id="single-cable"),
            pytest.param(
                default_matrix().columns,
                default_matrix().columns @ [1.0, 2.5, 0.7, 4.0],
                _floors([1.0, 2.5, 0.7, 4.0]),
                id="default-layout",
            ),
            pytest.param(*_interior_projection_case(21, 6), id="random-six"),
        ],
    )
    def test_unbinding_bounds_give_the_equilibrium_projection(self, A, f, bounds):
        A, f = np.asarray(A), np.asarray(f)
        lo = np.array([b.t_min for b in bounds])
        result = solve(A, f, bounds)
        shift, *_ = np.linalg.lstsq(A, f - A @ lo, rcond=None)
        # no floor binds
        assert np.all(shift > -1e-12)
        assert result.status is SolveStatus.FEASIBLE_EXACT
        np.testing.assert_allclose(result.tensions, lo + shift, atol=1e-9)
        np.testing.assert_allclose(A @ result.tensions, f, atol=1e-9)


class TestSolve:
    def test_interior_unique_solution(self):
        result = solve(IDENTITY, [1.0, 1.0, 1.0], BOUNDS)
        assert result.status is SolveStatus.FEASIBLE_EXACT
        np.testing.assert_allclose(result.tensions, [1.0, 1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(result.rendered_force, [1.0, 1.0, 1.0], atol=1e-9)
        assert result.force_residual <= 1e-8

    def test_unreachable_direction_rests_at_t_min(self):
        result = solve(IDENTITY, [-1.0, 0.0, 0.0], BOUNDS)
        assert result.status is SolveStatus.NEAREST_FEASIBLE
        np.testing.assert_allclose(result.tensions, [0.5, 0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(result.rendered_force, [0.5, 0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(
            result.force_residual, np.linalg.norm([1.5, 0.5, 0.5]), atol=1e-9
        )

    @pytest.mark.parametrize("force", [(0.0, 1.5, 0.0), (0.0, 0.0, 1.5)])
    def test_default_layout_matches_qp_oracle(self, force):
        A = default_matrix()
        result = solve(A, force, BOUNDS)
        expected = min_shift_qp(
            A.columns, np.array(force), BOUNDS.t_min, BOUNDS.t_max, np.full(4, BOUNDS.t_min)
        )
        assert expected is not None
        np.testing.assert_allclose(result.tensions, expected, atol=1e-6)

    def test_custom_start_projects_that_start(self):
        # per-cable floors set a start other than a shared t_min
        rng = np.random.default_rng(17)
        A = random_rank3_directions(rng, 5).T
        t_star = rng.uniform(1.0, 5.0, size=5)
        f = A @ t_star
        floors = rng.uniform(0.5, 3.0, size=5)
        result = solve(A, f, _floors(floors))
        expected = min_shift_qp(A, f, floors, 6.0, floors)
        np.testing.assert_allclose(result.tensions, expected, atol=1e-6)

    def test_per_cable_bounds_respected(self):
        per_cable = (
            TensionBounds(0.5, 6.0),
            TensionBounds(2.0, 6.0),
            TensionBounds(0.5, 6.0),
        )
        result = solve(IDENTITY, [1.0, 1.0, 1.0], per_cable)
        # cable 1 cannot drop to 1.0, so the result saturates at its floor
        assert result.status is SolveStatus.NEAREST_FEASIBLE
        np.testing.assert_allclose(result.tensions, [1.0, 2.0, 1.0], atol=1e-9)

    def test_box_feasibility_always_holds(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            m = int(rng.integers(3, 9))
            A = random_rank3_directions(rng, m).T
            f = rng.normal(scale=4.0, size=3)  # frequently infeasible
            result = solve(A, f, BOUNDS, SolverConfig(max_iterations=300))
            assert np.all(result.tensions >= BOUNDS.t_min - 1e-12)
            assert np.all(result.tensions <= BOUNDS.t_max + 1e-12)

    def test_minimum_tension_start_beats_null_space_perturbations(self):
        A = default_matrix()
        f = np.array([0.3, -0.4, 0.8])
        result = solve(A, f, BOUNDS)
        assert result.status is SolveStatus.FEASIBLE_EXACT
        t_min_vec = np.full(4, BOUNDS.t_min)
        base_distance = np.linalg.norm(result.tensions - t_min_vec)
        basis = np.linalg.svd(A.columns)[2][3:]
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 100:
            shift = rng.normal(scale=0.8, size=basis.shape[0]) @ basis
            other = result.tensions + shift
            if np.any(other < BOUNDS.t_min) or np.any(other > BOUNDS.t_max):
                continue
            assert np.linalg.norm(A.columns @ other - f) <= 1e-7
            assert base_distance <= np.linalg.norm(other - t_min_vec) + 1e-9
            checked += 1

    def test_deterministic_bitwise(self):
        A = default_matrix()
        f = np.array([0.7, -0.2, 1.1])
        first = solve(A, f, BOUNDS)
        second = solve(A, f, BOUNDS)
        assert first.status is second.status
        assert first.iterations == second.iterations
        assert first.force_residual == second.force_residual
        np.testing.assert_array_equal(first.tensions, second.tensions)
        np.testing.assert_array_equal(first.rendered_force, second.rendered_force)

    def test_iteration_cap_status(self):
        A = default_matrix()
        result = solve(A, [0.0, 0.0, 1.5], BOUNDS, SolverConfig(max_iterations=1))
        assert result.status is SolveStatus.ITERATION_CAP
        assert result.iterations == 1

    def test_phase_2_budget_runs_out(self):
        # the second iterate renders f on a free block short of A's rank,
        # so the third releases a cable for rank and the fourth would
        # certify the projection: three are too few
        layout, ee = default_validation_layout()
        A = structure_matrix(layout, ee)
        result = solve(A, sphere_samples(182, 1.5)[0], layout.bounds, SolverConfig(max_iterations=3))
        assert result.status is SolveStatus.ITERATION_CAP
        assert result.iterations == 3
        assert np.all(result.tensions >= BOUNDS.t_min) and np.all(result.tensions <= BOUNDS.t_max)
        assert result.rendered_force.tobytes() == A.columns.dot(result.tensions).tobytes()

    def test_rank_deficient_matrix_is_total(self):
        A = StructureMatrix(np.array([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]]))
        result = solve(A, [0.0, 0.0, 1.0], BOUNDS)
        # force off the reachable line: solver still returns a box point
        assert result.status is SolveStatus.NEAREST_FEASIBLE
        assert np.all(result.tensions >= 0.5) and np.all(result.tensions <= 6.0)

    @pytest.mark.parametrize(
        "force",
        [
            (0.0, 0.0, 9.99e99),
            (-9.99e99, 3e99, 9.99e99),
            (1e99, -1e99, 0.0),
            (-9.9e99, 9.9e99, 9.9e99),
        ],
    )
    def test_huge_force_reports_its_finite_residual(self, force):
        A = default_matrix()
        # below the 1e100 N limit the square of the miss cannot overflow,
        # so nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve(A, force, BOUNDS)
        assert result.status is SolveStatus.NEAREST_FEASIBLE
        assert np.all(result.tensions >= BOUNDS.t_min) and np.all(result.tensions <= BOUNDS.t_max)
        assert result.rendered_force.tobytes() == A.columns.dot(result.tensions).tobytes()
        miss = (result.rendered_force - np.array(force)).tolist()
        assert result.force_residual == math.hypot(*miss)
        assert result.force_residual == pytest.approx(math.hypot(*force), rel=1e-12)


class TestExactFinish:
    def test_workspace_probe_rendered_within_tolerance_is_exact(self):
        # A probe of the README workspace box (5x5x4 grid) on the bench
        # layout that a plain projection method reports as nearest_feasible
        # while rendering the force within 1.7e-8 N.
        layout, _ = default_validation_layout()
        A = structure_matrix(layout, [0.0, -0.5, 0.1])
        f = WORKSPACE_DIRECTIONS[0] * WORKSPACE_PROBE_FORCE
        result = solve(A, f, layout.bounds)
        assert result.status is SolveStatus.FEASIBLE_EXACT
        expected = min_shift_qp(
            A.columns, f, BOUNDS.t_min, BOUNDS.t_max, np.full(4, BOUNDS.t_min)
        )
        assert expected is not None
        np.testing.assert_allclose(result.tensions, expected, atol=1e-5)

    def test_default_sphere_finishes_within_twenty_iterations(self):
        A = default_matrix()
        samples = sphere_samples(182, 1.5)
        results = [solve(A, f, BOUNDS) for f in samples]
        assert all(r.status is SolveStatus.FEASIBLE_EXACT for r in results)
        assert max(r.iterations for r in results) <= 20
        # sample 134 ends with cable 4 just above its floor, at 0.500113 N,
        # so a solve that held that cable there would miss the QP's answer
        expected = min_shift_qp(
            A.columns, samples[134], BOUNDS.t_min, BOUNDS.t_max, np.full(4, BOUNDS.t_min)
        )
        np.testing.assert_allclose(results[134].tensions, expected, atol=1e-9)

    @staticmethod
    def cube_matrix(corner_order, ee):
        # 8 modules on the corners of the cube [-1, 1] x [-1, 1] x [0, 2]
        corners = {
            "c1": (-1, -1, 0), "c2": (1, -1, 0), "c3": (-1, 1, 0), "c4": (1, 1, 0),
            "c5": (-1, -1, 2), "c6": (1, -1, 2), "c7": (-1, 1, 2), "c8": (1, 1, 2),
        }
        layout = ModuleLayout(
            tuple(ModuleAnchor(c, np.array(corners[c], dtype=float)) for c in corner_order)
        )
        return structure_matrix(layout, ee).columns

    def test_plateau_with_a_cable_far_from_its_final_bound(self):
        # A press into a haptic wall whose solution holds cable 1 at its 6 N
        # ceiling, far from the 4.4 N where an alternating projection method
        # lingers on its way there.
        A = self.cube_matrix(
            ("c5", "c8", "c4", "c6", "c7", "c1", "c3", "c2"),
            [0.020500971251990352, -0.023176632973985707, 0.998936766192378],
        )
        f = np.array([-0.061502913755971056, 10.988936985190046, -1.9723385567245064])
        result = solve(A, f, BOUNDS)
        assert result.status is SolveStatus.FEASIBLE_EXACT
        assert result.iterations <= 20
        expected = min_shift_qp(A, f, BOUNDS.t_min, BOUNDS.t_max, np.full(8, BOUNDS.t_min))
        np.testing.assert_allclose(result.tensions, expected, atol=1e-9)

    def test_infeasible_plateau_finishes_early(self):
        # Unreachable by about 3 mN, where an alternating projection method
        # stalls until its iteration cap.
        A = self.cube_matrix(
            ("c4", "c5", "c6", "c1", "c2", "c7", "c8", "c3"),
            [-0.24568177622959309, -0.019027537529106284, 0.9844073414487795],
        )
        f = np.array([0.7370453286887791, 10.812872457705865, -1.928750282493916])
        result = solve(A, f, BOUNDS)
        assert result.status is SolveStatus.NEAREST_FEASIBLE
        assert result.iterations <= 20
        root = np.linalg.cholesky(np.linalg.inv(A @ A.T)).T
        reference = lsq_linear(
            root @ A, root @ f, bounds=(BOUNDS.t_min, BOUNDS.t_max), tol=1e-14
        )
        min_residual = float(np.linalg.norm(root @ (A @ reference.x - f)))
        residual = float(np.linalg.norm(root @ (result.rendered_force - f)))
        assert residual <= min_residual + 1e-9

    def test_facet_forces_are_exact_within_twenty_iterations(self):
        # f = A t* with two cables of t* at a bound: the free cables cannot
        # span the force space, and on a facet of the renderable set the
        # solution is a single point, so the active-set steps are degenerate.
        A = default_matrix().columns
        start = np.full(4, BOUNDS.t_min)
        rng = np.random.default_rng(2024)
        for _ in range(400):
            t_star = rng.uniform(BOUNDS.t_min, BOUNDS.t_max, size=4)
            pair = rng.choice(4, size=2, replace=False)
            t_star[pair] = np.where(rng.random(2) < 0.5, BOUNDS.t_min, BOUNDS.t_max)
            f = A @ t_star
            result = solve(A, f, BOUNDS)
            assert result.status is SolveStatus.FEASIBLE_EXACT
            assert result.iterations <= 20
            expected = min_shift_qp(A, f, BOUNDS.t_min, BOUNDS.t_max, start)
            np.testing.assert_allclose(result.tensions, expected, atol=1e-9)

    @pytest.mark.parametrize(
        "columns,force",
        [
            # antagonistic pair along x: rank 1
            (np.array([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]]), [1.0, 0.0, 0.0]),
            # four cables in the xy plane: rank 2
            (
                np.vstack(
                    [np.cos([0.3, 1.9, 3.4, 4.8]), np.sin([0.3, 1.9, 3.4, 4.8]), np.zeros(4)]
                ),
                [0.7, -0.4, 0.0],
            ),
        ],
    )
    def test_reachable_force_at_rank_below_three_is_exact(self, columns, force):
        result = solve(columns, force, BOUNDS)
        assert result.status is SolveStatus.FEASIBLE_EXACT
        m = columns.shape[1]
        expected = min_shift_qp(
            columns, np.array(force), BOUNDS.t_min, BOUNDS.t_max, np.full(m, BOUNDS.t_min)
        )
        assert expected is not None
        np.testing.assert_allclose(result.tensions, expected, atol=1e-6)

    def test_infeasible_residual_is_the_box_least_squares_minimum(self):
        # The nearest box point minimizes the distance to the equilibrium
        # set, i.e. the force error in the (A A^T)^-1 metric; lsq_linear
        # gives that minimum independently.
        rng = np.random.default_rng(4242)
        checked = 0
        for _ in range(60):
            m = int(rng.integers(3, 9))
            A = random_rank3_directions(rng, m).T
            f = rng.normal(scale=rng.uniform(2.0, 12.0), size=3)
            root = np.linalg.cholesky(np.linalg.inv(A @ A.T)).T
            reference = lsq_linear(
                root @ A, root @ f, bounds=(BOUNDS.t_min, BOUNDS.t_max), tol=1e-14
            )
            min_residual = float(np.linalg.norm(root @ (A @ reference.x - f)))
            if min_residual <= 1e-6:
                continue
            result = solve(A, f, BOUNDS)
            assert result.status is SolveStatus.NEAREST_FEASIBLE
            residual = float(np.linalg.norm(root @ (result.rendered_force - f)))
            assert residual <= min_residual + 1e-9
            checked += 1
        assert checked >= 20


class TestNearestOracle:
    def test_nearest_answers_match_the_oracle(self):
        # unreachable forces on seeded layouts, m = 3..8, every third planar
        # (rank 2) with forces in its plane, every other with per-cable
        # bounds; four forces close to one another per matrix, so kept
        # nearest sets answer some; the rendered force is unique where the
        # tensions need not be
        rng = np.random.default_rng(31)
        statuses = Counter()
        for k in range(60):
            m = 3 + k % 6
            if k % 3 == 0:
                angles = rng.uniform(0.0, 2 * np.pi, m)
                A = np.vstack([np.cos(angles), np.sin(angles), np.zeros(m)])
            else:
                A = random_rank3_directions(rng, m).T
            if k % 2:
                lo, hi = BOUNDS.t_min, BOUNDS.t_max
                bounds = BOUNDS
            else:
                lo = rng.uniform(0.0, 1.0, m)
                hi = lo + rng.uniform(0.5, 6.0, m)
                bounds = [TensionBounds(float(a), float(b)) for a, b in zip(lo, hi)]
            forces = rng.normal(size=3) * rng.uniform(8.0, 40.0) + rng.normal(size=(4, 3))
            if k % 3 == 0:
                forces[:, 2] = 0.0
            solver._clear_caches()
            for f in forces:
                result = solve(A, f, bounds)
                statuses[result.status, result.iterations == 1] += 1
                if result.status is SolveStatus.FEASIBLE_EXACT:
                    continue
                assert result.status is SolveStatus.NEAREST_FEASIBLE
                assert result.force_residual > SolverConfig().tolerance
                expected = A @ nearest_point_qp(A, f, lo, hi)
                np.testing.assert_allclose(result.rendered_force, expected, rtol=0.0, atol=1e-9)
        assert statuses[SolveStatus.NEAREST_FEASIBLE, True] > 100
        assert statuses[SolveStatus.NEAREST_FEASIBLE, False] > 20, statuses


def _eye_with(row, col, value):
    A = np.eye(3)
    A[row, col] = value
    return A


class TestNonFiniteMatrix:
    """A plain array is built into a StructureMatrix, which checks it, so a
    bad one never reaches the factorization."""

    @pytest.mark.parametrize(
        "A, message",
        [
            pytest.param(_eye_with(1, 1, np.nan), "non-finite", id="nan"),
            pytest.param(_eye_with(2, 0, np.inf), "non-finite", id="inf"),
            pytest.param(np.eye(3)[:2], "expected shape", id="wrong-shape"),
            pytest.param(2.0 * np.eye(3), "unit vectors", id="non-unit-columns"),
        ],
    )
    def test_bad_plain_array_rejected_by_every_entry_point(self, A, message):
        solver._clear_caches()
        with pytest.raises(ValueError, match=message):
            solve(A, [1.0, 1.0, 1.0], BOUNDS)
        with pytest.raises(ValueError, match=message):
            is_wrench_feasible(A, [1.0, 1.0, 1.0], BOUNDS)
        with pytest.raises(ValueError, match=message):
            actuation_rank(A)
        # a rejected matrix leaves no factorization behind
        assert solver._last_factorization is None


def _plain_array_cases():
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(8):
        directions = random_rank3_directions(rng, int(rng.integers(3, 9)))
        cases += [(directions, f) for f in rng.normal(scale=4.0, size=(3, 3))]
    return cases


class TestPlainArrayInput:
    """A plain array gets exactly the bits of its StructureMatrix, whatever
    its memory layout."""

    @pytest.mark.parametrize(
        "as_plain",
        [
            pytest.param(lambda directions: directions.T, id="transposed-view"),
            pytest.param(lambda directions: np.ascontiguousarray(directions.T), id="c-order"),
            pytest.param(lambda directions: directions.T.tolist(), id="nested-list"),
        ],
    )
    def test_same_bits_as_its_structure_matrix(self, as_plain):
        for directions, f in _plain_array_cases():
            plain = as_plain(directions)
            built = StructureMatrix(plain)
            got = solve(plain, f, BOUNDS)
            # the second solve on these bytes may answer from a kept set
            _assert_same_answers([solve(built, f, BOUNDS)], [got])
            assert is_wrench_feasible(plain, f, BOUNDS) == is_wrench_feasible(built, f, BOUNDS)
            assert actuation_rank(plain) == actuation_rank(built)


def _outcome(result):
    """A solve's answer: everything it returns but its iteration count."""
    return (
        result.tensions.tobytes(),
        result.rendered_force.tobytes(),
        result.status,
        result.force_residual,
    )


def _assert_same_answers(results, cold):
    """Each result gives its cold counterpart's answer bit for bit, in at
    most as many iterations: a working set the matrix kept answers in one."""
    assert [_outcome(r) for r in results] == [_outcome(r) for r in cold]
    assert all(r.iterations <= c.iterations for r, c in zip(results, cold))


def _holds_box(bounds, m):
    """Whether the shared box slot holds the box of these arguments."""
    hits = solver._box.cache_info().hits
    solver._box(bounds, m)
    return solver._box.cache_info().hits == hits + 1


def _two_matrices():
    layout, _ = default_validation_layout()
    return default_matrix(), structure_matrix(layout, (0.5, 0.5, 1.5))


def _four_and_six_cables():
    return default_matrix(), random_rank3_directions(np.random.default_rng(21), 6).T


def _sphere_cases():
    A = default_matrix()
    return [(A, f, BOUNDS) for f in sphere_samples(182, 1.5)]


def _workspace_cases():
    layout, _ = default_validation_layout()
    cases = []
    for point in [(0.0, -0.5, 0.1), (0.5, 0.5, 1.5), (-1.0, 0.0, 1.5)]:
        A = structure_matrix(layout, point)
        cases += [(A, d * WORKSPACE_PROBE_FORCE, layout.bounds) for d in WORKSPACE_DIRECTIONS]
    return cases


def _coplanar_cases():
    angles = [0.3, 1.9, 3.4, 4.8]
    A = np.vstack([np.cos(angles), np.sin(angles), np.zeros(4)])
    rng = np.random.default_rng(8)
    return [(A, f, BOUNDS) for f in rng.normal(scale=2.0, size=(40, 3))]


PER_CABLE = tuple(
    TensionBounds(lo, hi) for lo, hi in [(0.2, 3.0), (0.5, 6.0), (1.0, 2.5), (0.0, 8.0)]
)


# Per-cable floors are how a caller sets a start other than a shared t_min.
CUSTOM_START = _floors([1.0, 2.5, 0.7, 4.0])
PER_CABLE_CUSTOM_START = tuple(
    TensionBounds(lo, b.t_max) for lo, b in zip([0.3, 2.0, 1.2, 0.4], PER_CABLE)
)


def _per_cable_cases():
    rng = np.random.default_rng(13)
    A = random_rank3_directions(rng, 6).T
    per_cable = tuple(
        TensionBounds(lo, lo + width)
        for lo, width in zip(rng.uniform(0.0, 1.0, 6), rng.uniform(1.0, 6.0, 6))
    )
    return [(A, f, per_cable) for f in rng.normal(scale=4.0, size=(60, 3))]


class TestFactorizationCache:
    @staticmethod
    def run(cases, cold):
        results = []
        for A, f, bounds in cases:
            if cold:
                solver._clear_caches()
            results.append(solve(A, f, bounds))
        return results

    @pytest.mark.parametrize(
        "cases", [_sphere_cases, _workspace_cases, _coplanar_cases, _per_cable_cases]
    )
    def test_warm_solves_equal_cold_solves(self, cases):
        cases = cases()
        _assert_same_answers(self.run(cases, cold=False), self.run(cases, cold=True))

    def test_workspace_probes_cover_both_outcomes(self):
        statuses = {result.status for result in self.run(_workspace_cases(), cold=False)}
        assert statuses == {SolveStatus.FEASIBLE_EXACT, SolveStatus.NEAREST_FEASIBLE}

    def test_interleaved_matrices_equal_cold_solves(self):
        A1 = default_matrix()
        layout, _ = default_validation_layout()
        A2 = structure_matrix(layout, (0.5, 0.5, 1.5))
        forces = sphere_samples(20, 1.5)
        cases = [(A, f, BOUNDS) for f in forces for A in (A1, A2, A1)]
        _assert_same_answers(self.run(cases, cold=False), self.run(cases, cold=True))

    def test_cached_arrays_are_read_only(self):
        M = default_matrix().columns
        solve(M, [0.0, 0.0, 1.5], BOUNDS)
        solve(M, [0.0, 0.0, 1.5], PER_CABLE)
        fac = solver._factorization(M)
        blk = fac.block(np.array([True, False, True, True]))
        cached = (fac.matrix, fac.rows, blk.u)
        operators = (fac.goal, fac.pinv, fac.rows_t, blk.shift_op)
        boxes = []
        for bounds in (BOUNDS, PER_CABLE):
            box, a_lo, _, _ = fac.box(bounds)
            boxes += [box.lo, a_lo]
        # the working sets kept for the last bounds
        for f in ([0.0, 0.0, 1.5], [0.0, -1.0, 0.5]):
            solve(M, f, PER_CABLE)
        sets = fac.box(PER_CABLE)[3].sets
        assert len(sets) == 2
        for arr in cached + operators + tuple(boxes):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # the float data _optimum reads: a tuple of float triples and a
        # tuple of floats per kept set, which no later solve can change
        m = M.shape[1]
        for ws in sets.values():
            assert type(ws.force_map) is tuple and len(ws.force_map) == m
            for row in ws.force_map:
                assert type(row) is tuple and list(map(type, row)) == [float] * 3
            assert ws.force_map == tuple(map(tuple, fac.block(ws.free).shift_op.dot(fac.goal).tolist()))
            assert type(ws.offsets) is tuple and list(map(type, ws.offsets)) == [float] * m
        # and the float data t_min's answer reads: A^+'s rows as a tuple of
        # float triples, and A t_min's floats as a tuple, in each bounds' memo
        assert type(fac.pinv_rows) is tuple and len(fac.pinv_rows) == m
        for row in fac.pinv_rows:
            assert type(row) is tuple and list(map(type, row)) == [float] * 3
        assert fac.pinv_rows == tuple(map(tuple, fac.pinv.tolist()))
        for bounds in (BOUNDS, PER_CABLE):
            _, a_lo, a_floats, _ = fac.box(bounds)
            assert type(a_floats) is tuple and a_floats == tuple(a_lo.tolist())

    @pytest.mark.parametrize(
        "columns",
        [
            pytest.param(default_matrix().columns, id="default-layout"),
            pytest.param(random_rank3_directions(np.random.default_rng(5), 7).T, id="random-seven"),
            pytest.param(np.array([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]]), id="antagonistic-pair"),
        ],
    )
    def test_rows_are_an_orthonormal_basis_of_the_row_space(self, columns):
        fac = solver._factorization(columns)
        assert fac.rows.shape == (actuation_rank(columns), columns.shape[1])
        np.testing.assert_allclose(fac.rows @ fac.rows.T, np.eye(fac.rank), atol=1e-12)
        # projecting A's rows onto the span of rows leaves them unchanged
        np.testing.assert_allclose(columns @ fac.rows.T @ fac.rows, columns, atol=1e-12)

    def test_one_factorization_held_after_many_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            columns = random_rank3_directions(rng, 4).T
            solve(columns, [0.0, 0.0, 1.0], BOUNDS)
        gc.collect()
        held = [obj for obj in gc.get_objects() if isinstance(obj, solver._Factorization)]
        assert held == [solver._factorization(columns)]

    def test_clearing_forgets_the_same_matrix_object(self):
        A = default_matrix()
        solve(A, [0.0, 0.0, 1.5], BOUNDS)
        fac = solver._factorization(A)
        # the same object again is found by identity
        assert solver._factorization(A) is fac
        solver._clear_caches()
        solve(A, [0.0, 0.0, 1.5], BOUNDS)
        assert solver._factorization(A) is not fac

    def test_equal_matrices_share_one_factorization(self):
        A = default_matrix()
        fac = solver._factorization(A)
        again = default_matrix()
        assert again is not A
        assert solver._factorization(again) is fac
        # the slot now holds the newer object, which identity finds
        assert solver._last_factorization[0] is again
        assert solver._factorization(A) is fac

    @pytest.mark.parametrize(
        "bounds",
        [BOUNDS, PER_CABLE, list(PER_CABLE), TensionBounds(0.5, 6.0), CUSTOM_START],
        ids=["shared", "per-cable-tuple", "per-cable-list", "equal-bounds", "custom-start"],
    )
    def test_bounds_and_start_cache_equals_cold_solves(self, bounds):
        A = default_matrix()
        forces = list(sphere_samples(30, 1.5)) + [np.array([0.0, 0.0, 40.0])]
        solver._clear_caches()
        # fill the box cache with other shared and per-cable bounds on the
        # same matrix, and with BOUNDS itself, which an equal TensionBounds
        # must share
        solve(A, forces[0], TensionBounds(0.2, 3.0))
        solve(A, forces[0], BOUNDS)
        solve(A, forces[0], PER_CABLE[::-1])
        warm = [solve(A, f, bounds) for f in forces]
        cold = []
        for f in forces:
            solver._clear_caches()
            cold.append(solve(A, f, bounds))
        _assert_same_answers(warm, cold)
        assert {result.status for result in warm} == {
            SolveStatus.FEASIBLE_EXACT,
            SolveStatus.NEAREST_FEASIBLE,
        }

    def test_bounds_and_start_cache_stays_small(self):
        A = default_matrix()
        solver._clear_caches()
        for k in range(100):
            per_cable = tuple(TensionBounds(b.t_min + k / 100, b.t_max) for b in PER_CABLE)
            solve(A, [0.0, 0.0, 1.5], per_cable)
        fac = solver._factorization(A)
        # one box is held, keyed by the last bounds, and it is the box every
        # matrix shares, keyed by the cable count too
        key, (box, *_) = fac._box
        assert key == per_cable
        np.testing.assert_array_equal(box.lo, [b.t_min for b in per_cable])
        assert solver._box.cache_info().currsize == 1
        assert solver._box(per_cable, 4) is box

    @pytest.mark.parametrize(
        "matrices, bounds",
        [
            (_two_matrices, PER_CABLE),
            (_two_matrices, list(PER_CABLE)),
            (_two_matrices, CUSTOM_START),
            (_two_matrices, PER_CABLE_CUSTOM_START),
            (_four_and_six_cables, BOUNDS),
        ],
        ids=[
            "per-cable-tuple",
            "per-cable-list",
            "custom-start",
            "per-cable-custom-start",
            "four-and-six-cables",
        ],
    )
    def test_alternating_matrices_equal_cold_solves(self, matrices, bounds):
        A1, A2 = matrices()
        forces = list(sphere_samples(20, 1.5)) + [np.array([0.0, 0.0, 40.0])]
        solver._clear_caches()
        warm = [solve(A, f, bounds) for f in forces for A in (A1, A2)]
        cold = []
        for f in forces:
            for A in (A1, A2):
                solver._clear_caches()
                cold.append(solve(A, f, bounds))
        _assert_same_answers(warm, cold)
        assert {result.status for result in warm} == {
            SolveStatus.FEASIBLE_EXACT,
            SolveStatus.NEAREST_FEASIBLE,
        }

    @pytest.mark.parametrize(
        "bounds, message",
        [(PER_CABLE[:3], "got 3 per-cable bounds")],
        ids=["wrong-count-of-bounds"],
    )
    def test_bad_box_after_a_matrix_switch_leaves_the_cache_usable(self, bounds, message):
        A1, A2 = _two_matrices()
        f = [0.0, 0.0, 1.5]
        solver._clear_caches()
        before = [solve(A, f, BOUNDS) for A in (A1, A2)]
        for A in (A1, A2, A1):
            with pytest.raises(ValueError, match=message):
                solve(A, f, bounds)
            # the call that raised stored nothing: the last good box is held
            assert _holds_box(BOUNDS, 4)
        # and the last matrix's factorization, which the bad box left in place
        assert solver._last_factorization[0] is A1
        _assert_same_answers([solve(A, f, BOUNDS) for A in (A1, A2)], before)

    def test_shared_box_and_each_a_start_are_read_only(self):
        A1, A2 = _two_matrices()
        for bounds in (BOUNDS, PER_CABLE, CUSTOM_START):
            solver._clear_caches()
            boxes = []
            for A in (A1, A2):
                M = A.columns
                fac = solver._factorization(A)
                box, a_lo, _, _ = fac.box(bounds)
                boxes.append(box)
                assert a_lo.tobytes() == (M @ box.lo).tobytes()
                for arr in (box.lo, a_lo):
                    with pytest.raises(ValueError):
                        arr[0] = 0.0
                    # arrays over bytes: a solve may answer with them
                    with pytest.raises(ValueError):
                        arr.setflags(write=True)
            # the second matrix found the first one's box
            assert boxes[0] is boxes[1]
            assert solver._box.cache_info().currsize == 1

    def test_non_finite_matrix_after_a_cached_one(self):
        A = default_matrix().columns
        bad = A.copy()
        bad[0, 1] = np.nan
        solver._clear_caches()
        before = solve(A, [0.0, 0.0, 1.5], BOUNDS)
        fac = solver._last_factorization[2]
        with pytest.raises(ValueError, match="non-finite"):
            solve(bad, [0.0, 0.0, 1.5], BOUNDS)
        # the rejected matrix left the slot as it was, and A's bytes find it
        assert solver._last_factorization[2] is fac
        _assert_same_answers([solve(A, [0.0, 0.0, 1.5], BOUNDS)], [before])
        assert solver._last_factorization[2] is fac

    def test_threads_alternating_bounds_get_single_thread_answers(self):
        # four threads solve on one matrix, each switching between two
        # bounds objects at every solve, so that the memo of the last
        # bounds, A t_min's floats and the kept sets with it, changes under
        # the others; a short switch interval makes them interleave. Which
        # sets are kept then depends on the interleaving, so iterations
        # may vary, but no answer may. They also switch between A and an
        # equal matrix of another object, so that the matrix slot changes
        # under them too, between a find by identity and one by bytes
        layout, _ = default_validation_layout()
        A = structure_matrix(layout, (0.3, 0.2, 1.0))
        twins = (A, StructureMatrix(np.array(A.columns)))
        both = (TensionBounds(0.5, 6.0), TensionBounds(0.2, 3.0))
        forces = [*sphere_samples(16, 1.0), *sphere_samples(16, 2.0)]
        expected = {}
        for b, bounds in enumerate(both):
            for i, f in enumerate(forces):
                solver._clear_caches()
                expected[b, i] = _outcome(solve(A, f, bounds))
        statuses = Counter(status for _, _, status, _ in expected.values())
        lows = [np.full(4, bounds.t_min).tobytes() for bounds in both]
        at_t_min = sum(out[0] == lows[b] for (b, _), out in expected.items())
        # 19 exact answers and 45 nearest, 3 of those at t_min
        assert statuses[SolveStatus.FEASIBLE_EXACT] > 10 and statuses[SolveStatus.NEAREST_FEASIBLE] > 10
        assert at_t_min >= 2
        errors, solved = [], Counter()

        def work(k):
            deadline = time.monotonic() + 1.0
            turn = k
            while time.monotonic() < deadline:
                for i, f in enumerate(forces):
                    b = (i + turn) % 2
                    try:
                        got = _outcome(solve(twins[(i // 3 + k) % 2], f, both[b]))
                    except Exception as error:  # a thread's exception is lost unless kept
                        errors.append(repr(error))
                        return
                    if got != expected[b, i]:
                        errors.append((k, b, i))
                    solved[k] += 1
                turn += 1

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,), daemon=True) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert not errors, errors[:5]
        assert len(solved) == 4 and min(solved.values()) >= len(forces)


def _seeded_floors(rng, m):
    """A shared floor, per-cable floors and -0.0 floors (which
    TensionBounds stores as 0.0) for m cables."""
    return [
        TensionBounds(0.5, 6.0),
        _floors(rng.uniform(0.0, 2.0, size=m)),
        _floors([-0.0] * m, 4.0),
        _floors([-0.0 if j % 2 else 0.25 for j in range(m)], 4.0),
    ]


def _t_min_answers():
    """The README-box probes on the bench layout that phase 1 answers at
    t_min, with their matrix and bounds: the unreachable ones whose start
    leaves every cable on its floor."""
    layout, _ = default_validation_layout()
    lo = np.full(len(layout), layout.bounds.t_min)
    found = []
    for point in [(0.0, -0.5, 0.1), (0.5, 0.5, 1.5), (-1.0, 0.0, 1.5), (0.3, 0.2, 0.8)]:
        A = structure_matrix(layout, point)
        for d in WORKSPACE_DIRECTIONS:
            f = d * WORKSPACE_PROBE_FORCE
            result = solve(A, f, layout.bounds)
            if result.tensions.tobytes() == lo.tobytes() and result.iterations == 1:
                found.append((A, f, layout.bounds, result))
    return found


_EPS = float(np.finfo(float).eps)
_START_TOLERANCES = (0.5, 1e-3, 1e-8, 1e-12, 1e-13, 1e-14)


def _starts_at_t_min(seed=24, matrices=600):
    """(A, f, bounds) of seeded problems whose phase-1 start is t_min: m =
    3..8, a fifth of rank 2 with forces in their plane, shared, per-cable
    and -0.0 floors, and forces from 0.01 to 10 N."""
    rng = np.random.default_rng(seed)
    found = []
    for k in range(matrices):
        m = 3 + k % 6
        if k % 5 == 0:
            angles = rng.uniform(0.0, 2.0 * np.pi, m)
            M = np.vstack([np.cos(angles), np.sin(angles), np.zeros(m)])
        else:
            M = rng.normal(size=(3, m))
        A = StructureMatrix(M / np.linalg.norm(M, axis=0))
        bounds = _seeded_floors(rng, m)[k % 4]
        fac = solver._factorization(A)
        box, a_lo, _, _ = fac.box(bounds)
        lo, hi = box.lo_floats, box.hi_floats
        for f in rng.normal(scale=10.0 ** rng.uniform(-2.0, 1.0), size=(6, 3)):
            if k % 5 == 0:
                f[2] = 0.0
            step = fac.pinv.dot(f - a_lo).tolist()
            if tuple(solver._move(lo, 1.0, step, lo, hi)) == lo:
                found.append((A, f, bounds))
    return found


def _certificate_spy(monkeypatch):
    """A list that counts the calls of _worst, a working set's certificate
    pass, from now on."""
    calls = []
    real = solver._worst

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_worst", spy)
    return calls


class TestAnswersAtTMin:
    """A probe whose descent at t_min, A^+ (f - A t_min), would leave every
    cable on its floor is answered by one float pass over A^+'s rows from
    the floats of f and of A t_min; the answer shares the box's t_min and
    the factorization's A t_min."""

    @pytest.mark.parametrize("m", range(3, 9))
    def test_a_times_t_min_is_the_product_of_the_floats(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(5):
            A = StructureMatrix(random_rank3_directions(rng, m).T)
            for bounds in _seeded_floors(rng, m):
                fac = solver._factorization(A)
                box, a_lo, a_floats, _ = fac.box(bounds)
                assert a_lo.tobytes() == fac.matrix.dot(np.array(box.lo_floats)).tobytes()
                assert box.lo.tobytes() == np.array(box.lo_floats).tobytes()
                # the floats t_min's answer reads are the arrays' own
                assert a_floats == tuple(a_lo.tolist()) and list(map(type, a_floats)) == [float] * 3
                assert fac.pinv_rows == tuple(map(tuple, fac.pinv.tolist()))

    def test_a_probe_at_t_min_renders_t_min(self):
        answers = _t_min_answers()
        assert len(answers) >= 40
        for A, f, bounds, result in answers:
            t = np.full(A.columns.shape[1], bounds.t_min)
            assert result.status is SolveStatus.NEAREST_FEASIBLE
            assert result.iterations == 1
            assert result.tensions.tobytes() == t.tobytes()
            assert result.rendered_force.tobytes() == A.columns.dot(t).tobytes()
            # the float sum _rendering takes, not numpy's dot
            m0, m1, m2 = (result.rendered_force - f).tolist()
            assert result.force_residual == math.sqrt((m0 * m0 + m1 * m1) + m2 * m2)
            # t_min is the box point nearest t_min rendering its own force
            expected = min_shift_qp(A.columns, result.rendered_force, bounds.t_min, bounds.t_max, t)
            np.testing.assert_allclose(result.tensions, expected, atol=1e-5)
        # the answers on one matrix share one t_min and one A t_min
        first, second = [r for a, _, _, r in answers if a is answers[0][0]][:2]
        assert np.shares_memory(first.tensions, second.tensions)
        assert np.shares_memory(first.rendered_force, second.rendered_force)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_the_force_of_t_min_is_exact_at_t_min(self, m):
        rng = np.random.default_rng(200 + m)
        A = StructureMatrix(random_rank3_directions(rng, m).T)
        for bounds in _seeded_floors(rng, m):
            box, a_lo, _, _ = solver._factorization(A).box(bounds)
            for cold in (True, False):
                if cold:
                    solver._clear_caches()
                result = solve(A, a_lo.copy(), bounds)
                assert result.status is SolveStatus.FEASIBLE_EXACT
                assert result.tensions.tobytes() == box.lo.tobytes()
                assert result.force_residual <= SolverConfig().tolerance

    def test_a_shared_answer_cannot_be_made_writeable(self):
        A, f, bounds, result = _t_min_answers()[0]
        before = _outcome(result)
        for arr in (result.tensions, result.rendered_force):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.setflags(write=True)
            with pytest.raises(ValueError):
                arr[0] = 100.0
        assert _outcome(solve(A, f, bounds)) == before

    def test_the_first_direction_at_t_min_is_the_start_step(self, monkeypatch):
        # the first descent d = A+ r is the start's step to the bit, and
        # the clip kept each t_min,i + s_i on t_min,i, so s_i <= eps/2
        # t_min,i: where the rule fires, the certificate would pass
        calls = _certificate_spy(monkeypatch)
        cases = _starts_at_t_min()
        fired = passed = 0
        for A, f, bounds in cases:
            fac = solver._factorization(A)
            box, a_lo, _, _ = fac.box(bounds)
            lo = box.lo_floats
            residual = f - a_lo
            step = fac.pinv.dot(residual).tolist()
            for s_i, lo_i in zip(step, lo):
                # a zero floor (and a -0.0 one, stored as 0.0) allows no rise
                assert s_i <= (0.5 * _EPS * lo_i if lo_i > 0.0 else 0.0)
            miss = residual.dot(residual)
            root = math.sqrt(miss)
            # the tiniest tolerance leaves every start to the certificate
            for tol in (*_START_TOLERANCES, 1e-300):
                if miss <= tol * tol:
                    continue
                stationary = tol * 0.1
                unit = 16.0 * _EPS * fac.goal_norm * (root + 2.0 * box.hi_sum) <= stationary
                rule = unit and _EPS * box.hi_sum <= stationary
                del calls[:]
                # cold, so that the loop runs and no kept set answers
                solver._clear_caches()
                result = solve(A, f, bounds, SolverConfig(max_iterations=1, tolerance=tol))
                assert bool(calls) is not rule
                if rule:
                    fired += 1
                    assert result.status is SolveStatus.NEAREST_FEASIBLE
                    assert result.iterations == 1
                    assert result.tensions.tobytes() == box.lo.tobytes()
                else:
                    passed += 1
                    free, x, d = calls[0][:3]
                    assert not any(free)
                    assert np.array(x).tobytes() == np.array(lo).tobytes()
                    assert np.array(d).tobytes() == np.array(step).tobytes()
                    # the rule's threshold, eps sum t_max, is one d passes
                    assert solver._worst(free, lo, d, lo)[1] <= _EPS * box.hi_sum
        # the tolerances leave cases on both sides of the rule
        assert len(cases) >= 500 and fired >= 1000 and passed >= 1000

    def test_readme_probes_at_t_min_make_no_certificate_pass(self, monkeypatch):
        layout, _ = default_validation_layout()
        lo = np.full(len(layout), layout.bounds.t_min).tobytes()
        calls = _certificate_spy(monkeypatch)
        at_t_min = 0
        for point in itertools.product(*map(np.linspace, (-1, -1, 0.1), (1, 1, 1.5), (5, 5, 4))):
            A = structure_matrix(layout, point)
            for d in WORKSPACE_DIRECTIONS:
                del calls[:]
                result = solve(A, d * WORKSPACE_PROBE_FORCE, layout.bounds)
                if result.tensions.tobytes() == lo and result.iterations == 1:
                    assert result.status is SolveStatus.NEAREST_FEASIBLE
                    assert not calls
                    at_t_min += 1
        # 2,193 of the 2,600 probes of the bench's workspace pass
        assert at_t_min >= 2000

    def test_a_tiny_tolerance_still_makes_the_certificate_pass(self, monkeypatch):
        answers = _t_min_answers()
        calls = _certificate_spy(monkeypatch)
        for A, f, bounds, default in answers:
            solver._clear_caches()
            del calls[:]
            result = solve(A, f, bounds, SolverConfig(tolerance=1e-14))
            assert len(calls) == 1
            assert result.status is SolveStatus.NEAREST_FEASIBLE and result.iterations == 1
            assert _outcome(result)[:2] == _outcome(default)[:2]

    def test_a_near_degenerate_matrix_answers_without_the_certificate_pass(self, monkeypatch):
        # three cables 1.7e-4 off a plane: ||goal|| is 5,858, and the start's
        # 14.5 N residual keeps 16 rounding levels below tol / 10; the rule
        # does not depend on ||goal||, so it fires here too
        angles = np.radians([0.0, 45.0, 90.0])
        M = np.vstack([np.cos(angles), np.sin(angles), 1e-4 * np.array([1.0, -1.0, 1.0])])
        A = StructureMatrix(M / np.linalg.norm(M, axis=0))
        f = -A.columns.dot(np.full(3, 6.0))
        calls = _certificate_spy(monkeypatch)
        result = solve(A, f, TensionBounds(0.0, 0.2))
        assert not calls
        assert result.status is SolveStatus.NEAREST_FEASIBLE and result.iterations == 1
        assert result.tensions.tolist() == [0.0, 0.0, 0.0]
        assert result.rendered_force.tolist() == [0.0, 0.0, 0.0]
        assert result.force_residual == math.sqrt(f.dot(f))


def _answers_of_every_path():
    """One result of each way a solve answers, by name: phase 1 at the
    t_min start, phase 1 nearest-feasible away from it, phase 2's exact
    answer, a kept working set's answer and phase 2's iteration cap."""
    A = default_matrix()
    fac = solver._factorization(A)
    box, *_ = fac.box(BOUNDS)
    _, _, bounds, at_t_min = _t_min_answers()[0]
    assert bounds == BOUNDS and at_t_min.tensions is box.lo
    solver._clear_caches()
    nearest = solve(A, [0.0, 0.0, 100.0], BOUNDS)
    assert nearest.status is SolveStatus.NEAREST_FEASIBLE
    assert nearest.tensions.tobytes() != box.lo.tobytes()
    solver._clear_caches()
    exact = solve(A, [0.3, -0.4, 1.2], BOUNDS)
    assert exact.status is SolveStatus.FEASIBLE_EXACT and exact.iterations > 1
    kept = solve(A, [0.3, -0.4, 1.2], BOUNDS)
    assert kept.iterations == 1 and _outcome(kept) == _outcome(exact)
    solver._clear_caches()
    capped = solve(A, sphere_samples(182, 1.5)[0], BOUNDS, SolverConfig(max_iterations=3))
    assert capped.status is SolveStatus.ITERATION_CAP and capped.iterations == 3
    return dict(zip(PATHS, (at_t_min, nearest, exact, kept, capped)))


PATHS = ["t_min", "phase-1 nearest", "phase-2 exact", "kept set", "iteration cap"]
FIELD_NAMES = ["tensions", "rendered_force", "force_residual", "status", "iterations"]


class TestResultConstructor:
    """A solve builds its SolveResult through the slots, not through the
    generated __init__; the result must be the one the public constructor
    builds from the same values, on every path a solve answers by."""

    @pytest.mark.parametrize("path", PATHS)
    def test_a_solve_builds_the_public_result(self, path):
        result = _answers_of_every_path()[path]
        values = [getattr(result, name) for name in FIELD_NAMES]
        public = solver.SolveResult(*values)
        assert [field.name for field in dataclasses.fields(result)] == FIELD_NAMES
        assert dataclasses.fields(result) == dataclasses.fields(public)
        assert repr(result) == repr(public)
        assert result == public
        for name in FIELD_NAMES:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, name, None)
        assert not hasattr(result, "__dict__") and not hasattr(public, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(result)
        for copied in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert type(copied) is solver.SolveResult
            assert _outcome(copied) == _outcome(result)
            assert copied.iterations == result.iterations
            assert repr(copied) == repr(result)
        # the copies' arrays are the caller's own, writeable as numpy makes
        # them; the result's own are read-only
        for arr in (result.tensions, result.rendered_force):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 100.0


LO, HI, TOL = 0.5, 6.0, 1e-3


class TestWorkingSetCertificate:
    """_worst: the held cable whose descent, or step toward its set's
    optimum, points furthest into the box; a set certifies when that
    amount is at most the threshold."""

    @pytest.mark.parametrize(
        "x, g, certified",
        [
            (LO, 0.01, False),  # floor, g points back into the box
            (LO, -0.01, True),  # floor, g points out of the box
            (LO, TOL, True),  # floor, exactly tol into the box
            (HI, -0.01, False),  # ceiling, g points back into the box
            (HI, 0.01, True),  # ceiling, g points out of the box
            (HI, -TOL, True),  # ceiling, exactly tol into the box
        ],
    )
    def test_one_held_cable(self, x, g, certified):
        worst, amount = solver._worst([False], [x], [g], [LO])
        assert worst == 0 and (amount <= TOL) is certified

    @pytest.mark.parametrize("g_free", [0.0, 0.01, -1.0])
    def test_free_cables_do_not_count(self, g_free):
        # a free cable sits at its set's optimum, whatever its g
        x, lo = [LO, HI, 3.0], [LO] * 3
        assert solver._worst([False, False, True], x, [-1.0, 1.0, g_free], lo) == (0, -1.0)
        assert solver._worst([True] * 3, x, [1.0, -1.0, g_free], lo) == (-1, -math.inf)

    @pytest.mark.parametrize("x, lo", [(0.0, -0.0), (-0.0, 0.0)])
    def test_a_zero_floor_of_either_sign_is_a_floor(self, x, lo):
        # t <= t_min holds across the signs of zero, so g counts as at a floor
        assert solver._worst([False], [x], [0.5], [lo]) == (0, 0.5)
        assert solver._worst([False], [x], [-0.5], [lo]) == (0, -0.5)

    def test_the_worst_held_cable_is_released_first(self):
        x, lo = [LO, HI, LO, HI], [LO] * 4
        assert solver._worst([False] * 4, x, [0.5, -2.0, 2.0, 0.0], lo) == (1, 2.0)


class TestRatioStep:
    @pytest.mark.parametrize(
        "t, step, expected, blocking",
        [
            # full step inside the box
            ([1.0, 2.0, 3.0], [0.5, -0.5, 0.25], [1.5, 1.5, 3.25], -1),
            # full step that ends exactly on the ceiling
            ([5.0, 2.0], [1.0, 1.0], [6.0, 3.0], -1),
            # blocked at the ceiling halfway
            ([5.0, 2.0], [2.0, 1.0], [6.0, 2.5], 0),
            # blocked at the floor halfway
            ([2.0, 1.0], [0.25, -1.0], [2.125, 0.5], 1),
            # components at or below the rounding level never block
            ([LO, LO, 3.0], [-1e-13, -1e-12, 1.0], [LO, LO, 4.0], -1),
            # a component just above it does, at length zero
            ([LO, 3.0], [-2e-12, 1.0], [LO, 3.0], 0),
            # cables 1 and 2 both block at half the step: the lower index wins
            ([3.0, 1.0, 5.0], [1.0, -1.0, 2.0], [3.5, LO, HI], 1),
        ],
    )
    def test_step(self, t, step, expected, blocking):
        before = list(t)
        lo, hi = np.full(len(t), LO), np.full(len(t), HI)
        box = solver._Box(lo, 1e-12, tuple(lo.tolist()), tuple(hi.tolist()), float(hi.sum()))
        moved, blocked = solver._ratio_step(t, step, box)
        assert blocked == blocking
        np.testing.assert_array_equal(moved, expected)
        np.testing.assert_array_equal(t, before)
        if blocking >= 0:
            bound = HI if step[blocking] > 0 else LO
            assert moved[blocking] == bound


class TestSolverConfigValidation:
    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)

    def test_two_fields_and_no_start_to_set(self):
        fields = [field.name for field in dataclasses.fields(SolverConfig)]
        assert fields == ["max_iterations", "tolerance"]
        assert SolverConfig().start is None
        with pytest.raises(TypeError):
            SolverConfig(start=np.ones(4))


class TestWrenchFeasible:
    def test_reachable_interior_force(self):
        assert is_wrench_feasible(IDENTITY, [1.0, 1.0, 1.0], BOUNDS)

    def test_negative_tension_required(self):
        assert not is_wrench_feasible(IDENTITY, [-1.0, 0.0, 0.0], BOUNDS)

    def test_exceeds_t_max(self):
        assert not is_wrench_feasible(IDENTITY, [10.0, 0.5, 0.5], BOUNDS)

    def test_redundant_layouts_reach_all_directions_at_low_force(self):
        layouts = []
        default_layout, default_ee = default_validation_layout()
        layouts.append((default_layout, default_ee))
        octahedron = ModuleLayout(
            tuple(
                ModuleAnchor(f"m{k}", np.array(p, dtype=float))
                for k, p in enumerate(
                    [
                        (1, 0, 0), (-1, 0, 0),
                        (0, 1, 0), (0, -1, 0),
                        (0, 0, 1), (0, 0, -1),
                    ]
                )
            )
        )
        layouts.append((octahedron, np.zeros(3)))
        cube = ModuleLayout(
            tuple(
                ModuleAnchor(f"m{k}", np.array(p, dtype=float))
                for k, p in enumerate(
                    [
                        (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                        (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
                    ]
                )
            )
        )
        layouts.append((cube, np.zeros(3)))
        directions = sphere_samples(182, 0.1)
        for layout, ee in layouts:
            A = structure_matrix(layout, ee)
            assert all(is_wrench_feasible(A, f, layout.bounds) for f in directions)
