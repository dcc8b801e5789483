"""Force-sphere validation harness and its error metrics.

Replays the bench protocol against a plant model: command force vectors
spread over a sphere, hold each one, average the measured force over the
hold, and score angle and magnitude errors per sample. The Ideal plant
renders exactly what the solved tensions produce; the Noisy plant models a
sensor with per-tick Gaussian force noise, a fixed Z rotation between the
sensor frame and the module frame, and a constant tension bias, and draws
each hold's mean from its sampling distribution: three standard normals
per hold, read from a table that one generator, seeded with the plant's
seed and the hold's block of 256, fills for 256 holds at a time.
Forces, tensions and radii of _fields.MAX_MAGNITUDE (1e100 N) or more are
refused where they enter, so no norm, dot product or mean overflows.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np

from ._fields import as_vec3, force3, integer, real, set_checked, vec3
from .config import layout_to_dict
from .errors import DegenerateInput, ZeroVector
from .geometry import ModuleAnchor, ModuleLayout, StructureMatrix, structure_matrix
from .solver import WRENCH_FEASIBLE_RESIDUAL, SolverConfig, solve

# Error statistics measured on a physical four-module rig with a calibrated
# force sensor, reported alongside simulated metrics for side-by-side
# comparison. The ideal simulation does not reproduce them; they reflect
# sensor mounting and rig effects, not the solver.
HARDWARE_REFERENCE = {
    "mean_angle_error_deg": 14.0,
    "mean_measured_magnitude_n": 1.84,
    "commanded_magnitude_n": 1.5,
    "mean_magnitude_error_n": 0.58,
    "angle_threshold_deg": 45.0,
}

# A force with a smaller norm (N) has no direction to score.
_ZERO_NORM = 1e-12

# Holds per noise table: hold i of a NoisyPlant reads row i % _TABLE_HOLDS
# of the table of chunk i // _TABLE_HOLDS. A table costs one generator and
# its draws, about 16 us; a generator per hold cost about 10 of a hold's
# 15 us, and a hold from a kept table takes 3 us (2-vCPU Xeon, numpy 2.4).
_TABLE_HOLDS = 256

VALIDATION_CSV_HEADER = (
    "cx",
    "cy",
    "cz",
    "mx",
    "my",
    "mz",
    "angle_err_deg",
    "mag_err_N",
    "feasible",
)


@dataclass(frozen=True)
class ValidationProtocol:
    """Sphere radius (N), sample count, and sensor ticks averaged per hold.

    Defaults replicate the bench protocol: 182 force vectors on a 1.5 N
    sphere, each held 1 s and averaged over a 1000 Hz sensor, i.e. 1000
    ticks. A plant takes samples_per_hold as the number of ticks its
    measurement averages; NoisyPlant draws that average in one step, so a
    hold costs the same time and memory at any count.
    """

    sphere_radius: float = 1.5
    sample_count: int = 182
    samples_per_hold: int = 1000

    def __post_init__(self):
        set_checked(self, real, "sphere_radius", minimum=0.0, strict=True)
        set_checked(self, integer, "sample_count", "samples_per_hold", minimum=1)


@dataclass(frozen=True)
class IdealPlant:
    """Renders exactly the net force of the solved tensions."""

    def measure_hold(
        self, A: StructureMatrix, tensions: np.ndarray, ticks: int, sample_index: int
    ) -> np.ndarray:
        return A.columns.dot(tensions)


@dataclass(frozen=True)
class NoisyPlant:
    """A sensor with per-tick Gaussian force noise, a sensor-frame Z
    rotation, and a constant per-cable tension bias.

    Each tick reads the rotated, biased force plus independent
    N(0, force_noise_std^2) noise on each axis, and a hold measures the
    mean of its ticks. That mean is the true force plus N(0,
    force_noise_std^2 / ticks) noise on each axis, exactly, so a hold draws
    it directly: three standard normals scaled by force_noise_std /
    sqrt(ticks), whatever the tick count, in constant time and memory.
    Hold i reads its three as row i % 256 of a table of 256 x 3 standard
    normals from the generator seeded with ``[seed, i // 256]``, so a
    hold's noise depends on (seed, i) alone: runs are reproducible and
    independent of evaluation order, and no two seeds share a stream. The
    last table is kept, so consecutive holds build one per 256. Each float
    field must lie below _fields.MAX_MAGNITUDE (1e100) in size.
    """

    force_noise_std: float = 0.0
    frame_rotation_z: float = 0.0
    tension_bias: float = 0.0
    seed: int = 42

    def __post_init__(self):
        set_checked(self, real, "force_noise_std", minimum=0.0)
        set_checked(self, real, "frame_rotation_z")
        set_checked(self, real, "tension_bias")
        set_checked(self, integer, "seed", minimum=0)
        rotation = rotation_z(self.frame_rotation_z)
        rotation.setflags(write=False)
        # not a field: built once here from frame_rotation_z, so equality,
        # repr and asdict still read the four fields alone
        object.__setattr__(self, "_rotation", rotation)

    def measure_hold(
        self, A: StructureMatrix, tensions: np.ndarray, ticks: int, sample_index: int
    ) -> np.ndarray:
        true_force = self._rotation.dot(A.columns.dot(tensions + self.tension_bias))
        chunk, row = divmod(sample_index, _TABLE_HOLDS)
        # the mean of ticks i.i.d. N(0, std^2) draws is N(0, std^2 / ticks)
        scale = self.force_noise_std / math.sqrt(ticks)
        return true_force + _noise_table(self.seed, chunk)[row] * scale


@functools.lru_cache(maxsize=1)
def _noise_table(seed: int, chunk: int) -> np.ndarray:
    """The read-only (_TABLE_HOLDS, 3) standard normals of holds
    chunk * _TABLE_HOLDS onward of a NoisyPlant with this seed. Only the
    last table is kept: a validation run reads its holds in order."""
    table = np.random.default_rng([seed, chunk]).standard_normal((_TABLE_HOLDS, 3))
    table.setflags(write=False)
    return table


PlantModel = Union[IdealPlant, NoisyPlant]


@dataclass(frozen=True)
class SampleRecord:
    """One commanded force vs. the hold-averaged measurement."""

    commanded: np.ndarray
    measured: np.ndarray
    angle_error: float
    magnitude_error: float
    feasible: bool


@dataclass(frozen=True)
class ValidationReport:
    """Per-sample records plus the aggregate error statistics."""

    records: tuple[SampleRecord, ...]
    mean_angle_error: float
    max_angle_error: float
    mean_measured_magnitude: float
    mean_magnitude_error: float
    fraction_within_45deg: float


def sphere_samples(n: int, radius: float) -> np.ndarray:
    """n force vectors of the given norm spread near-uniformly over a sphere.

    Uses the deterministic Fibonacci lattice (golden-angle spiral), so the
    output is identical for identical (n, radius).
    """
    n = integer(n, "n", 1)
    radius = real(radius, "radius", 0.0, strict=True)
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    ring = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    points = np.column_stack([ring * np.cos(phi), ring * np.sin(phi), z])
    points /= np.linalg.norm(points, axis=1)[:, None]
    return points * radius


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a float 3-vector, as np.linalg.norm computes it."""
    return math.sqrt(v.dot(v))


def _angle(a: np.ndarray, b: np.ndarray, na: float, nb: float) -> float:
    """Angle in degrees between float 3-vectors a and b of norms na and nb,
    both above _ZERO_NORM."""
    cosine = min(max(a.dot(b) / (na * nb), -1.0), 1.0)
    return float(np.degrees(np.arccos(cosine)))


def angle_error(a, b) -> float:
    """Angle in degrees between two force vectors, in [0, 180]. Each must
    lie below _fields.MAX_MAGNITUDE (1e100 N) on every axis."""
    av = force3(a, "a")
    bv = force3(b, "b")
    na = _norm(av)
    nb = _norm(bv)
    if na <= _ZERO_NORM or nb <= _ZERO_NORM:
        raise ZeroVector("angle undefined for a (near-)zero vector")
    return _angle(av, bv, na, nb)


def magnitude_error(a, b) -> float:
    """Absolute difference of the two vectors' norms, in newtons. Each must
    lie below _fields.MAX_MAGNITUDE (1e100 N) on every axis."""
    return abs(_norm(force3(a, "a")) - _norm(force3(b, "b")))


def rotation_z(theta: float) -> np.ndarray:
    """Rotation matrix about the Z axis by theta radians, a real number
    below _fields.MAX_MAGNITUDE in size, taken as a float."""
    theta = real(theta, "theta")
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def align_z_rotation(desired_basis, measured_basis) -> float:
    """Z rotation (radians) minimizing sum_i ||Rz(theta) measured_i - desired_i||^2.

    Closed form over the XY components: with C = sum(dx*mx + dy*my) and
    S = sum(dy*mx - dx*my), the minimizer is atan2(S, C). Raises
    ValueError for mismatched shapes or an entry that is not a real
    number, is NaN or inf, or is of _fields.MAX_MAGNITUDE or more in size,
    ZeroVector for a (near) zero basis vector, and DegenerateInput when
    every vector's XY projection is (near) zero, since a Z rotation is then
    unobservable.
    """
    # each row is checked before any conversion to float, which would raise
    # OverflowError for an int beyond the float range
    d = np.atleast_2d(np.asarray(desired_basis))
    m = np.atleast_2d(np.asarray(measured_basis))
    if d.shape != m.shape or d.shape[1] != 3 or d.shape[0] < 1:
        raise ValueError(f"basis shapes must match as (k, 3), got {d.shape} and {m.shape}")
    d = np.array([vec3(v, "basis vector") for v in d])
    m = np.array([vec3(v, "basis vector") for v in m])
    if np.any(np.linalg.norm(d, axis=1) <= 1e-12) or np.any(
        np.linalg.norm(m, axis=1) <= 1e-12
    ):
        raise ZeroVector("basis vectors must be nonzero")
    xy_norms = np.maximum(
        np.linalg.norm(d[:, :2], axis=1), np.linalg.norm(m[:, :2], axis=1)
    )
    if np.all(xy_norms <= 1e-9):
        raise DegenerateInput("all XY projections are ~0; Z rotation unobservable")
    c_sum = float(np.sum(d[:, 0] * m[:, 0] + d[:, 1] * m[:, 1]))
    s_sum = float(np.sum(d[:, 1] * m[:, 0] - d[:, 0] * m[:, 1]))
    return float(np.arctan2(s_sum, c_sum))


def default_validation_layout(
    triangle_circumradius: float = 1.0,
) -> tuple[ModuleLayout, np.ndarray]:
    """The bench arrangement: three modules in an equilateral triangle on
    the floor, the end effector 0.3 m above the triangle's center, and a
    fourth module 2 m directly above the end effector.

    The circumradius is a default; pass your rig's value or load a layout
    file to match real hardware. Returns (layout, end-effector position).
    """
    angles = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    anchors = [
        ModuleAnchor(
            f"m{k + 1}",
            np.array(
                [
                    triangle_circumradius * np.cos(angles[k]),
                    triangle_circumradius * np.sin(angles[k]),
                    0.0,
                ]
            ),
        )
        for k in range(3)
    ]
    anchors.append(ModuleAnchor("m4", np.array([0.0, 0.0, 2.3])))
    return ModuleLayout(tuple(anchors)), np.array([0.0, 0.0, 0.3])


def run_validation(
    layout: ModuleLayout,
    ee,
    protocol: ValidationProtocol,
    plant: PlantModel,
    config: SolverConfig | None = None,
) -> ValidationReport:
    """Command every sphere sample, solve tensions, measure through the
    plant, and score each sample.

    A sample is marked feasible when the solve's force residual is within
    the wrench-feasibility threshold. A (near-)zero commanded force raises
    ZeroVector, since no angle is defined for it. If a plant ever returns a
    (near-)zero measured force, its angle error is recorded as 180
    degrees. The radius, the bounds and the plant's noise and bias all lie
    below _fields.MAX_MAGNITUDE, so every norm, angle and mean is finite.
    """
    A = structure_matrix(layout, ee)
    commanded = sphere_samples(protocol.sample_count, protocol.sphere_radius)
    records = []
    norms = []
    for index, force in enumerate(commanded):
        result = solve(A, force, layout.bounds, config)
        measured = as_vec3(
            plant.measure_hold(A, result.tensions, protocol.samples_per_hold, index),
            "measured force",
        )
        commanded_norm = _norm(force)
        measured_norm = _norm(measured)
        if commanded_norm <= _ZERO_NORM:
            raise ZeroVector("angle undefined for a (near-)zero vector")
        if measured_norm <= _ZERO_NORM:
            angle = 180.0
        else:
            angle = _angle(force, measured, commanded_norm, measured_norm)
        norms.append(measured_norm)
        records.append(
            SampleRecord(
                commanded=force,
                measured=measured,
                angle_error=angle,
                magnitude_error=abs(commanded_norm - measured_norm),
                feasible=result.force_residual <= WRENCH_FEASIBLE_RESIDUAL,
            )
        )

    angles = np.array([r.angle_error for r in records])
    return ValidationReport(
        records=tuple(records),
        mean_angle_error=float(np.mean(angles)),
        max_angle_error=float(np.max(angles)),
        mean_measured_magnitude=float(np.mean(norms)),
        mean_magnitude_error=float(np.mean([r.magnitude_error for r in records])),
        fraction_within_45deg=float(np.mean(angles <= 45.0)),
    )


def write_report_csv(report: ValidationReport, path) -> None:
    """One CSV row per sample: commanded xyz, measured xyz, errors, feasible."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(VALIDATION_CSV_HEADER)
        # csv writes a float as its repr
        writer.writerows(
            r.commanded.tolist()
            + r.measured.tolist()
            + [r.angle_error, r.magnitude_error, "true" if r.feasible else "false"]
            for r in report.records
        )


def report_summary(
    report: ValidationReport,
    protocol: ValidationProtocol,
    plant: PlantModel,
    layout: ModuleLayout,
    ee,
) -> dict:
    """JSON-ready summary: aggregates, protocol, plant, and layout echo,
    plus the hardware reference statistics for comparison."""
    plant_type = "ideal" if isinstance(plant, IdealPlant) else "noisy"
    return {
        "aggregates": {
            "mean_angle_error_deg": report.mean_angle_error,
            "max_angle_error_deg": report.max_angle_error,
            "mean_measured_magnitude_n": report.mean_measured_magnitude,
            "mean_magnitude_error_n": report.mean_magnitude_error,
            "fraction_within_45deg": report.fraction_within_45deg,
            "sample_count": len(report.records),
            "feasible_count": sum(1 for r in report.records if r.feasible),
        },
        "hardware_reference": dict(HARDWARE_REFERENCE),
        "protocol": {
            "sphere_radius_n": protocol.sphere_radius,
            "sample_count": protocol.sample_count,
            "samples_per_hold": protocol.samples_per_hold,
        },
        "plant": {"type": plant_type, **asdict(plant)},
        "layout": {**layout_to_dict(layout), "end_effector": list(force3(ee, "end effector"))},
    }


def write_report_json(summary: dict, path) -> None:
    """Write summary as indented JSON with sorted keys. It is serialized
    first, so a summary JSON cannot hold, NaN and infinities included,
    raises ValueError before path is touched."""
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as handle:
        handle.write(text + "\n")
