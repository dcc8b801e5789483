"""One limit bounds every number and vector a caller hands the package:
_fields.MAX_MAGNITUDE, 1e100. Each enters through a check that refuses a
size at or above it with a ValueError naming the field, and below it no
norm, square, dot product or mean the package forms overflows, so solves,
material forces and validation runs need no overflow handling of their
own."""

import warnings

import numpy as np
import pytest

from cablehaptics import (
    ActuatorParams,
    Damper,
    EndEffectorState,
    Friction,
    IdealPlant,
    InvalidTension,
    Magnetic,
    NoisyPlant,
    SolveStatus,
    SolverConfig,
    Spring,
    TensionBounds,
    ValidationProtocol,
    Vibration,
    angle_error,
    command_for_tension,
    default_validation_layout,
    is_wrench_feasible,
    magnitude_error,
    run_validation,
    solve,
    sphere_samples,
    structure_matrix,
)
from cablehaptics.cli import main
from cablehaptics.geometry import ModuleAnchor, ModuleLayout
from cablehaptics.simulation import align_z_rotation, report_summary

BELOW = 0.999e100
# between BELOW and the limit, for bounds that must lie above a field at BELOW
HIGHER, HIGHEST = 0.9995e100, 0.9999e100
ZERO, UP = [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]
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


def summary_echoing(ee):
    """The summary of a two-sample ideal run that echoes ee as its end effector."""
    protocol = ValidationProtocol(sample_count=2, samples_per_hold=1)
    report = run_validation(LAYOUT, EE, protocol, IdealPlant())
    return report_summary(report, protocol, IdealPlant(), LAYOUT, ee)


# (id, call with the value, field named): each entry point that takes a
# number or vector from a caller, fed a value of the given size
ENTRY_POINTS = [
    ("solve", lambda v: solve(A, [0.0, 0.0, v], LAYOUT.bounds), "force"),
    ("solve-negative", lambda v: solve(A, [-v, 0.0, 0.0], LAYOUT.bounds), "force"),
    ("is_wrench_feasible", lambda v: is_wrench_feasible(A, [0.0, v, 0.0], LAYOUT.bounds), "force"),
    ("t_max", lambda v: TensionBounds(0.5, v), "t_max"),
    ("t_min", lambda v: TensionBounds(v, HIGHER), "t_min"),
    ("tolerance", lambda v: SolverConfig(tolerance=v), "tolerance"),
    ("end-effector", lambda v: structure_matrix(LAYOUT, [v, 0.0, 0.0]), "end effector"),
    ("summary-end-effector", lambda v: summary_echoing([0.0, v, 0.0]), "end effector"),
    ("sphere_radius", lambda v: ValidationProtocol(sphere_radius=v), "sphere_radius"),
    ("sphere_samples-radius", lambda v: sphere_samples(4, v), "radius"),
    ("force_noise_std", lambda v: NoisyPlant(force_noise_std=v), "force_noise_std"),
    ("frame_rotation_z", lambda v: NoisyPlant(frame_rotation_z=-v), "frame_rotation_z"),
    ("tension_bias", lambda v: NoisyPlant(tension_bias=v), "tension_bias"),
    ("negative-tension_bias", lambda v: NoisyPlant(tension_bias=-v), "tension_bias"),
    (
        "motor_max_force",
        lambda v: ActuatorParams(motor_max_force=v, brake_max_force=HIGHER),
        "motor_max_force",
    ),
    ("brake_max_force", lambda v: ActuatorParams(brake_max_force=v), "brake_max_force"),
    (
        "min_taut_force",
        lambda v: ActuatorParams(min_taut_force=v, motor_max_force=HIGHER, brake_max_force=HIGHEST),
        "min_taut_force",
    ),
    ("force_per_amp", lambda v: ActuatorParams(force_per_amp=v), "force_per_amp"),
    ("desired_tension", lambda v: command_for_tension(v, True), "desired_tension"),
    ("angle_error-a", lambda v: angle_error([v, 0.0, 0.0], [1.0, 0.0, 0.0]), "a"),
    ("angle_error-b", lambda v: angle_error([1.0, 0.0, 0.0], [0.0, -v, 0.0]), "b"),
    ("magnitude_error-a", lambda v: magnitude_error([0.0, 0.0, v], [1.0, 0.0, 0.0]), "a"),
    ("magnitude_error-b", lambda v: magnitude_error([1.0, 0.0, 0.0], [v, 0.0, 0.0]), "b"),
    ("anchor", lambda v: ModuleAnchor("m0", [0.0, v, 0.0]), "position"),
    ("position", lambda v: EndEffectorState([0.0, 0.0, -v], ZERO), "position"),
    ("velocity", lambda v: EndEffectorState(ZERO, [v, 0.0, 0.0]), "velocity"),
    ("time", lambda v: EndEffectorState(ZERO, ZERO, v), "time"),
    ("target", lambda v: Magnetic([v, 0.0, 0.0], 3.0, 6.0), "target"),
    ("gain", lambda v: Magnetic(ZERO, v, 6.0), "gain"),
    ("magnetic-max_force", lambda v: Magnetic(ZERO, 3.0, v), "max_force"),
    ("surface_point", lambda v: Spring([0.0, 0.0, v], UP, 400.0), "surface_point"),
    ("stiffness", lambda v: Spring(ZERO, UP, v), "stiffness"),
    ("damper-coefficient", lambda v: Damper(v), "coefficient"),
    ("friction-coefficient", lambda v: Friction(v, 2.0, UP), "coefficient"),
    ("friction-max_force", lambda v: Friction(1.5, v, UP), "max_force"),
    ("amplitude", lambda v: Vibration(v, 50.0, UP), "amplitude"),
    ("frequency", lambda v: Vibration(0.3, v, UP), "frequency"),
]


@pytest.mark.parametrize("value", [1e100, 1e200, LARGEST], ids=["limit", "1e200", "largest"])
@pytest.mark.parametrize(
    "call, name", [e[1:] for e in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_sizes_at_or_above_the_limit_are_refused_naming_the_field(call, name, value):
    # command_for_tension raises the check's message as its own InvalidTension
    error = InvalidTension if name == "desired_tension" else ValueError
    with pytest.raises(error, match=f"^{name} must be below 1e\\+100 in size, got "):
        call(value)


@pytest.mark.parametrize(
    "call", [e[1] for e in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_sizes_just_below_the_limit_are_taken(call):
    call(BELOW)


# (id, call with the count, field named): each integer a caller hands the
# package, which would otherwise reach a float conversion that overflows
# (a noisy hold's sqrt(ticks)) or a loop of that length
COUNTS = [
    ("sample_count", lambda n: ValidationProtocol(sample_count=n), "sample_count"),
    ("samples_per_hold", lambda n: ValidationProtocol(samples_per_hold=n), "samples_per_hold"),
    ("max_iterations", lambda n: SolverConfig(max_iterations=n), "max_iterations"),
    ("seed", lambda n: NoisyPlant(seed=n), "seed"),
    ("sphere_samples-n", lambda n: sphere_samples(n, 1.0), "n"),
]


# int(1e100) is the limit's own value; 10**100 lies just below that float
@pytest.mark.parametrize("value", [int(1e100), 10**400], ids=["limit", "401-digits"])
@pytest.mark.parametrize("call, name", [e[1:] for e in COUNTS], ids=[e[0] for e in COUNTS])
def test_counts_at_or_above_the_limit_are_refused_naming_the_field(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be below 1e\\+100 in size, got "):
        call(value)


# sphere_samples would allocate its count, so only the stored fields
@pytest.mark.parametrize("call", [e[1] for e in COUNTS[:4]], ids=[e[0] for e in COUNTS[:4]])
def test_counts_just_below_the_limit_are_taken(call):
    call(10**100 - 1)


# (id, call, refusal): a value Python cannot print, an int of more than
# 4300 digits, is refused by a message that names its field all the same
UNPRINTABLE = [
    (
        "samples_per_hold",
        lambda: ValidationProtocol(samples_per_hold=10**5000),
        "samples_per_hold must be below 1e+100 in size, got <int of about 5001 digits>",
    ),
    (
        "t_max",
        lambda: TensionBounds(0.5, 10**5000),
        "t_max must be a finite real number, got <int of about 5001 digits>",
    ),
    (
        "basis-vector",
        lambda: align_z_rotation([[10**5000, 0, 0]], [[1, 0, 0]]),
        "basis vector must be a finite 3-vector, got [<int of about 5001 digits>, 0, 0]",
    ),
]


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "warnings-as-errors"])
@pytest.mark.parametrize(
    "call, message", [e[1:] for e in UNPRINTABLE], ids=[e[0] for e in UNPRINTABLE]
)
def test_an_int_too_long_to_print_is_refused_naming_the_field(call, message, strict):
    with warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            call()
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "coefficient, speed",
    [(2.0, 0.5e100), (BELOW, BELOW)],
    ids=["limit", "largest"],
)
def test_a_friction_force_at_or_above_the_limit_is_refused_before_squaring(coefficient, speed):
    # an uncapped force of 1e100 exactly, and the largest the fields allow,
    # about 1e200, whose square would overflow
    state = EndEffectorState(ZERO, [speed, 0.0, 0.0])
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="^friction force must be below 1e\\+100 in size"):
            Friction(coefficient, 2.0, UP).force(state)
        # just below the limit the force is capped at max_force
        capped = Friction(2.0, 2.0, UP).force(EndEffectorState(ZERO, [BELOW / 2.0, 0.0, 0.0]))
    assert capped.tolist() == [-2.0, 0.0, 0.0]


GRID = ["--grid-res", "1,1,1", "--out"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["solve", "--force=0,0,1e200"], "force"),
        (["validate", "--radius", "1e200", "--samples", "4", "--ticks", "2", "--out"], "sphere_radius"),
        (["solve", "--ee=1e200,0,0", "--force", "0,0,1"], "end effector"),
        (["validate", "--ee=1e200,0,0", "--samples", "4", "--ticks", "2", "--out"], "end effector"),
        (["workspace", "--grid-min=1e200,0,0", "--grid-max", "1e200,0,0", *GRID], "--grid-min"),
        (["workspace", "--grid-min=0,0,0", "--grid-max", "0,0,1e200", *GRID], "--grid-max"),
        (
            ["validate", "--plant", "noisy", "--ticks", str(10**400), "--samples", "4", "--out"],
            "samples_per_hold",
        ),
    ],
    ids=[
        "solve",
        "validate",
        "solve-ee",
        "validate-ee",
        "workspace-min",
        "workspace-max",
        "validate-ticks",
    ],
)
def test_cli_refuses_sizes_above_the_limit_and_writes_nothing(tmp_path, capsys, argv, named):
    # solve writes no file; validate and workspace would write into --out
    out = tmp_path / "out"
    if argv[-1] == "--out":
        argv = [*argv, str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named} must be below 1e+100 in size")
    assert not out.exists()
