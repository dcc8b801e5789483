"""One limit bounds every force, tension and radius: _fields.MAX_MAGNITUDE,
1e100 N. Each enters through a check that refuses a size at or above it
with a ValueError naming the field, and below it no norm, square, dot
product or mean the package forms overflows, so solves and validation runs
need no overflow handling of their own."""

import numpy as np
import pytest

from cablehaptics import (
    IdealPlant,
    NoisyPlant,
    SolveStatus,
    SolverConfig,
    TensionBounds,
    ValidationProtocol,
    angle_error,
    default_validation_layout,
    is_wrench_feasible,
    magnitude_error,
    run_validation,
    solve,
    structure_matrix,
)
from cablehaptics.cli import main
from cablehaptics.geometry import ModuleLayout

BELOW = 0.999e100
LARGEST = float(np.finfo(float).max)
LAYOUT, EE = default_validation_layout()
A = structure_matrix(LAYOUT, EE)


def seeded_problems(seed=23, matrices=1200):
    """(M, forces, bounds, config) with m = 3..8, a quarter of the matrices
    of rank 2, half with per-cable bounds, floors up to 0.9 t_max, and
    forces and bounds up to BELOW, at tolerances 1e-8 and 1e-8 times the
    problem's scale."""
    rng = np.random.default_rng(seed)
    for k in range(matrices):
        m = 3 + k % 6
        if k % 4 == 0:
            angles = rng.uniform(0.0, 2 * np.pi, m)
            M = np.vstack([np.cos(angles), np.sin(angles), np.zeros(m)])
        else:
            M = rng.normal(size=(3, m))
        M = M / np.linalg.norm(M, axis=0)
        scale = 10.0 ** rng.uniform(90.0, 100.0)
        top = min(scale * rng.uniform(1.0, 8.0), BELOW)
        floors = rng.uniform(0.0, 0.9, m) * top
        if k % 2:
            bounds = TensionBounds(float(floors[0]), top)
        else:
            bounds = tuple(
                TensionBounds(float(lo), float(min(lo + rng.uniform(0.1, 1.0) * top, BELOW)))
                for lo in floors
            )
        forces = np.clip(rng.normal(scale=scale * rng.uniform(0.3, 3.0), size=(5, 3)), -BELOW, BELOW)
        if k % 4 == 0:
            forces[:, 2] = 0.0
        config = SolverConfig(tolerance=1e-8 * (scale if k % 3 else 1.0))
        yield M, forces, bounds, config


def test_solves_just_below_the_limit_raise_no_floating_point_error():
    statuses = set()
    with np.errstate(all="raise"):
        for M, forces, bounds, config in seeded_problems():
            for f in forces:
                result = solve(M, f, bounds, config)
                statuses.add(result.status)
                assert np.isfinite(result.tensions).all()
                assert np.isfinite(result.rendered_force).all()
                assert np.isfinite(result.force_residual)
    assert statuses == set(SolveStatus)


@pytest.mark.parametrize(
    "plant",
    [IdealPlant(), NoisyPlant(force_noise_std=BELOW, tension_bias=BELOW, frame_rotation_z=0.1)],
    ids=["ideal", "noisy"],
)
def test_validation_just_below_the_limit_raises_no_floating_point_error(plant):
    layout = ModuleLayout(LAYOUT.anchors, TensionBounds(0.5, BELOW))
    protocol = ValidationProtocol(sphere_radius=BELOW, sample_count=24, samples_per_hold=5)
    with np.errstate(all="raise"):
        report = run_validation(layout, EE, protocol, plant)
    aggregates = [
        report.mean_angle_error,
        report.max_angle_error,
        report.mean_measured_magnitude,
        report.mean_magnitude_error,
        report.fraction_within_45deg,
    ]
    assert np.isfinite(aggregates).all()
    for r in report.records:
        assert np.isfinite(r.measured).all()
        assert np.isfinite([r.angle_error, r.magnitude_error]).all()


# (id, call with the value, field named): each entry point that takes a
# force, tension or radius, fed a value of the given size
ENTRY_POINTS = [
    ("solve", lambda v: solve(A, [0.0, 0.0, v], LAYOUT.bounds), "force"),
    ("solve-negative", lambda v: solve(A, [-v, 0.0, 0.0], LAYOUT.bounds), "force"),
    ("is_wrench_feasible", lambda v: is_wrench_feasible(A, [0.0, v, 0.0], LAYOUT.bounds), "force"),
    ("t_max", lambda v: TensionBounds(0.5, v), "t_max"),
    ("sphere_radius", lambda v: ValidationProtocol(sphere_radius=v), "sphere_radius"),
    ("force_noise_std", lambda v: NoisyPlant(force_noise_std=v), "force_noise_std"),
    ("tension_bias", lambda v: NoisyPlant(tension_bias=v), "tension_bias"),
    ("negative-tension_bias", lambda v: NoisyPlant(tension_bias=-v), "tension_bias"),
    ("angle_error-a", lambda v: angle_error([v, 0.0, 0.0], [1.0, 0.0, 0.0]), "a"),
    ("angle_error-b", lambda v: angle_error([1.0, 0.0, 0.0], [0.0, -v, 0.0]), "b"),
    ("magnitude_error-a", lambda v: magnitude_error([0.0, 0.0, v], [1.0, 0.0, 0.0]), "a"),
    ("magnitude_error-b", lambda v: magnitude_error([1.0, 0.0, 0.0], [v, 0.0, 0.0]), "b"),
]


@pytest.mark.parametrize("value", [1e100, 1e200, LARGEST], ids=["limit", "1e200", "largest"])
@pytest.mark.parametrize(
    "call, name", [e[1:] for e in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_sizes_at_or_above_the_limit_are_refused_naming_the_field(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be below 1e\\+100 N in size, got "):
        call(value)


@pytest.mark.parametrize(
    "call", [e[1] for e in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_sizes_just_below_the_limit_are_taken(call):
    call(BELOW)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--force=0,0,1e200"],
        ["validate", "--radius", "1e200", "--samples", "4", "--ticks", "2", "--out"],
    ],
    ids=["solve", "validate"],
)
def test_cli_refuses_sizes_above_the_limit_and_writes_nothing(tmp_path, capsys, argv):
    # solve writes no file; validate would write into --out
    out = tmp_path / "out"
    if argv[-1] == "--out":
        argv = [*argv, str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "must be below 1e+100 N in size" in captured.err
    assert not out.exists()

