"""Answers that must not depend on how a problem is written down.

Relabelling the cables and rotating the frame change the bits of the
matrix but not the problem, so the status must stay and the tensions may
move only by rounding. Scaling the force, the bounds and the tolerance by
one factor scales the answer. With the default tolerance, which does not
scale, phase 1's thresholds follow the rounding level of the tensions in
play, so no solve spins: a reachable force that the rounding keeps above
the tolerance reports ITERATION_CAP in a few iterations, never
NEAREST_FEASIBLE, and an unreachable one stays NEAREST_FEASIBLE. The
problems are seeded: m = 3..8, a fifth of them planar (rank 2, forces in
their plane), half with per-cable bounds, and forces from 0.1 to about
16 N, so both outcomes occur.
"""

import numpy as np
import pytest

from cablehaptics import (
    SolverConfig,
    SolveStatus,
    TensionBounds,
    solve,
    structure_matrix,
)
from cablehaptics.simulation import default_validation_layout, sphere_samples

EXACT, NEAREST, CAP = (
    SolveStatus.FEASIBLE_EXACT,
    SolveStatus.NEAREST_FEASIBLE,
    SolveStatus.ITERATION_CAP,
)


def problems(seed, count):
    """(matrix, force, bounds) triples, bounds a TensionBounds or a tuple."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        m = 3 + k % 6
        planar = k % 5 == 0
        if planar:
            angles = rng.uniform(0.0, 2.0 * np.pi, m)
            M = np.vstack([np.cos(angles), np.sin(angles), np.zeros(m)])
        else:
            M = rng.normal(size=(3, m))
        M = M / np.linalg.norm(M, axis=0)
        floors = rng.uniform(0.0, 1.0, m)
        if k % 2:
            bounds = TensionBounds(float(floors[0]), float(floors[0] + rng.uniform(0.5, 8.0)))
        else:
            bounds = tuple(
                TensionBounds(float(lo), float(lo + rng.uniform(0.5, 8.0))) for lo in floors
            )
        f = rng.normal(scale=10.0 ** rng.uniform(-1.0, 1.2), size=3)
        if planar:
            f[2] = 0.0
        cases.append((M, f, bounds))
    return cases


def scaled(bounds, s):
    if isinstance(bounds, TensionBounds):
        return TensionBounds(bounds.t_min * s, bounds.t_max * s)
    return tuple(scaled(b, s) for b in bounds)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


INVARIANCE_CASES = problems(seed=2103, count=3000)


def test_problems_have_both_outcomes():
    statuses = [solve(M, f, b).status for M, f, b in INVARIANCE_CASES]
    assert statuses.count(EXACT) > 500 and statuses.count(NEAREST) > 500
    assert CAP not in statuses


def test_relabelling_the_cables_moves_no_status_and_only_rounding():
    rng = np.random.default_rng(7)
    worst = 0.0
    for M, f, bounds in INVARIANCE_CASES:
        order = rng.permutation(M.shape[1])
        relabelled = bounds if isinstance(bounds, TensionBounds) else tuple(bounds[i] for i in order)
        base = solve(M, f, bounds)
        moved = solve(M[:, order], f, relabelled)
        assert moved.status == base.status
        worst = max(worst, float(np.abs(moved.tensions - base.tensions[order]).max()))
    assert worst <= 1e-11


def test_rotating_the_frame_moves_no_status_and_only_rounding():
    rng = np.random.default_rng(8)
    worst = 0.0
    for M, f, bounds in INVARIANCE_CASES:
        R = random_rotation(rng)
        base = solve(M, f, bounds)
        turned = solve(R @ M, R @ f, bounds)
        assert turned.status == base.status
        worst = max(worst, float(np.abs(turned.tensions - base.tensions).max()))
    assert worst <= 1e-11


SCALE_CASES = problems(seed=2104, count=600)
SCALE_BASE = [solve(M, f, b) for M, f, b in SCALE_CASES]


@pytest.mark.parametrize("s", [10.0**e for e in range(-3, 11)])
def test_scaled_problems_keep_their_answers(s):
    for (M, f, bounds), base in zip(SCALE_CASES, SCALE_BASE):
        big = scaled(bounds, s)
        result = solve(M, f * s, big, SolverConfig(tolerance=1e-8 * s))
        assert result.status == base.status
        assert np.abs(result.tensions / s - base.tensions).max() <= 1e-12
        # the tolerance stays 1e-8 N, below the rounding of large tensions
        result = solve(M, f * s, big)
        assert result.iterations <= 4 * M.shape[1]
        if base.status == EXACT:
            assert result.status in (EXACT, CAP)
        else:
            assert result.status == NEAREST


def test_unreachable_forces_on_a_wide_box_end_nearest_feasible():
    # 1e9 N against tensions of up to 1e8 N: the rounding of the descent
    # direction lies far above a tenth of the default tolerance
    layout, ee = default_validation_layout()
    A = structure_matrix(layout, ee)
    bounds = TensionBounds(0.5, 1e8)
    for f in sphere_samples(60, 1e9):
        result = solve(A, f, bounds, SolverConfig(max_iterations=1000))
        assert result.status == NEAREST
        assert result.iterations <= 4 * len(layout)
