"""Every numeric and vector field of the frozen input dataclasses is checked
and stored in one form: a Python float, a Python int, or a read-only float
3-vector. Stored numbers therefore serialize to JSON whatever numeric type
the caller passed."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from cablehaptics import (
    ActuatorParams,
    Damper,
    EndEffectorState,
    Friction,
    Magnetic,
    NoisyPlant,
    SolverConfig,
    Spring,
    TensionBounds,
    ValidationProtocol,
    Vibration,
    default_validation_layout,
    run_validation,
)
from cablehaptics._fields import as_vec3
from cablehaptics.simulation import report_summary, write_report_json

# Each class with the keyword arguments that build it; fields not given
# keep their defaults.
BUILDS = [
    (TensionBounds, {}),
    (SolverConfig, {}),
    (ActuatorParams, {}),
    (ValidationProtocol, {}),
    (NoisyPlant, {}),
    (EndEffectorState, {"position": [0.1, -0.2, 0.3], "velocity": [0.5, 0.0, -0.5], "time": 0.25}),
    (Magnetic, {"target": [0.0, 0.0, 0.5], "gain": 3.0, "max_force": 6.0}),
    (Spring, {"surface_point": [0.0, 0.0, 0.2], "normal": [0.0, 0.0, 1.0], "stiffness": 400.0}),
    (Damper, {"coefficient": 2.0}),
    (Friction, {"coefficient": 1.5, "max_force": 2.0, "tangent_plane_normal": [0.0, 1.0, 0.0]}),
    (Vibration, {"amplitude": 0.3, "frequency": 50.0, "direction": [1.0, 0.0, 0.0]}),
]

# The kind of each field, read from its annotation, so a field added later
# is covered without editing this table.
KINDS = {"float": "real", "int": "int", "np.ndarray": "vec3"}

FIELDS = [
    (cls, kwargs, field.name, KINDS[field.type])
    for cls, kwargs in BUILDS
    for field in dataclasses.fields(cls)
    if field.type in KINDS
]

# bool is an int subclass, but True for a number is a typo here (YAML 1.1
# reads yes, no, on and off as bools).
BAD_VALUES = {
    "real": ["1.5", None, [1.0], np.nan, np.inf, -np.inf, 10**400, True, False, np.True_],
    "int": ["3", None, 2.5, np.float64(3.0), np.nan, 10**400, True, False, np.True_],
    "vec3": ["abc", None, 1.0, [1.0, 2.0], [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]],
}


def field_id(case):
    cls, _, name, _ = case
    return f"{cls.__name__}.{name}"


def build(cls, kwargs, name, value):
    return cls(**{**kwargs, name: value})


def valid_value(cls, kwargs, name):
    return kwargs.get(name, next(f.default for f in dataclasses.fields(cls) if f.name == name))


def test_the_table_covers_every_field_but_the_start_vector():
    every = {(cls, f.name) for cls, _ in BUILDS for f in dataclasses.fields(cls)}
    assert every == {(cls, name) for cls, _, name, _ in FIELDS}
    # the start vector is no field: every solve starts at t_min
    assert (SolverConfig, "start") not in every


@pytest.mark.parametrize("cls, kwargs, name, kind", FIELDS, ids=map(field_id, FIELDS))
def test_numpy_inputs_are_stored_in_the_normal_form(cls, kwargs, name, kind):
    value = valid_value(cls, kwargs, name)
    if kind == "int":
        stored = getattr(build(cls, kwargs, name, np.int64(value)), name)
        assert type(stored) is int and stored == value
    elif kind == "real":
        cast = np.float32(value)
        stored = getattr(build(cls, kwargs, name, cast), name)
        assert type(stored) is float and stored == float(cast)
    else:
        cast = np.asarray(value, dtype=np.float32)
        stored = getattr(build(cls, kwargs, name, cast), name)
        assert type(stored) is np.ndarray and stored.dtype == np.float64
        assert not stored.flags.writeable
        np.testing.assert_array_equal(stored, cast)
        cast[0] += 1.0  # the field holds a copy
        np.testing.assert_array_equal(stored, np.asarray(value, dtype=np.float32))


@pytest.mark.parametrize("cls, kwargs, name, kind", FIELDS, ids=map(field_id, FIELDS))
def test_non_numeric_and_non_finite_values_are_rejected_naming_the_field(cls, kwargs, name, kind):
    for bad in BAD_VALUES[kind]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build(cls, kwargs, name, bad)


def test_tension_bounds_of_the_wrong_type_name_the_field():
    with pytest.raises(ValueError, match="^t_min must be a finite real number"):
        TensionBounds("a", 6)


def summary_json(tmp_path, protocol, plant):
    layout, ee = default_validation_layout()
    report = run_validation(layout, ee, protocol, plant)
    path = tmp_path / f"{id(protocol)}.json"
    write_report_json(report_summary(report, protocol, plant, layout, ee), path)
    return path.read_bytes()


def test_summary_json_with_numpy_typed_protocol_and_plant(tmp_path):
    numpy_typed = summary_json(
        tmp_path,
        ValidationProtocol(
            sphere_radius=np.float32(1.5), sample_count=np.int64(3), samples_per_hold=np.int32(4)
        ),
        NoisyPlant(
            force_noise_std=np.float32(0.25),
            frame_rotation_z=np.float64(0.125),
            tension_bias=np.float32(0.0625),
            seed=np.int64(7),
        ),
    )
    plain = summary_json(
        tmp_path,
        ValidationProtocol(sphere_radius=1.5, sample_count=3, samples_per_hold=4),
        NoisyPlant(force_noise_std=0.25, frame_rotation_z=0.125, tension_bias=0.0625, seed=7),
    )
    assert numpy_typed == plain
    summary = json.loads(plain)
    assert summary["protocol"] == {"sample_count": 3, "samples_per_hold": 4, "sphere_radius_n": 1.5}
    assert summary["plant"]["seed"] == 7


@pytest.mark.parametrize(
    "value, error",
    [(object(), TypeError), (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError)],
    ids=["object", "nan", "inf", "-inf"],
)
def test_unserializable_summary_leaves_the_earlier_file(tmp_path, value, error):
    # strict JSON has no NaN or Infinity, so a summary holding one is not
    # written either
    path = tmp_path / "validation_summary.json"
    path.write_bytes(b'{"earlier": true}\n')
    with pytest.raises(error):
        write_report_json({"aggregates": {"count": value}}, path)
    assert path.read_bytes() == b'{"earlier": true}\n'


def with_entry(index, value):
    vector = [0.5, -1.0, 2.0]
    vector[index] = value
    return vector


# (id, input, accepted): a non-finite entry at each index, shapes that are
# not (3,), and inputs that pass, as as_vec3 took them before its
# finiteness check became a Python pass.
AS_VEC3 = [
    *(
        (f"{name}-at-{index}", with_entry(index, bad), False)
        for index in range(3)
        for name, bad in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf))
    ),
    ("scalar", 1.0, False),
    ("empty", [], False),
    ("two", [1.0, 2.0], False),
    ("four", [1.0, 2.0, 3.0, 4.0], False),
    ("row", np.zeros((1, 3)), False),
    ("column", np.zeros((3, 1)), False),
    ("nan-in-row", [[np.nan, 0.0, 0.0]], False),
    ("list", [0.5, -1.0, 2.0], True),
    ("int-tuple", (1, 2, 3), True),
    ("float32", np.array([0.1, 0.2, 0.3], dtype=np.float32), True),
    ("largest-float", [np.finfo(float).max, -np.finfo(float).max, 0.0], True),
    ("uint8", np.array([1, 2, 3], dtype=np.uint8), True),
    ("bools", [True, False, True], True),
    ("big-endian", np.array([0.5, -1.0, 2.0], dtype=">f8"), True),
    # a complex or non-numeric vector is refused, not converted: numpy
    # would drop the imaginary part, and read a string as its number
    ("complex-array", np.array([0.5 + 0.3j, 0.0, 0.0]), False),
    ("complex-in-list", [0.5 + 0.3j, 0.0, 0.0], False),
    ("real-complex", np.array([0.5, 0.0, 0.0], dtype=complex), False),
    ("strings", ["0.5", "0", "0"], False),
    ("objects", np.array([0.5, 0.0, 0.0], dtype=object), False),
]


@pytest.mark.parametrize("value, accepted", [c[1:] for c in AS_VEC3], ids=[c[0] for c in AS_VEC3])
def test_as_vec3_accepts_finite_3_vectors_alone(value, accepted):
    if accepted:
        got = as_vec3(value, "measured force")
        assert got.dtype == np.float64 and got.shape == (3,)
        assert got.tobytes() == np.asarray(value, dtype=float).tobytes()
    else:
        message = f"measured force must be a finite 3-vector, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_vec3(value, "measured force")


COMPLEX_FORCES = [
    pytest.param(np.array([0.5 + 0.3j, 0.0, 0.0]), id="array"),
    pytest.param([0.5 + 0.3j, 0.0, 0.0], id="list"),
]


@pytest.mark.parametrize("value", COMPLEX_FORCES)
def test_complex_vectors_raise_the_documented_value_error(value):
    from cablehaptics import angle_error, solve, structure_matrix

    layout, ee = default_validation_layout()
    A = structure_matrix(layout, ee)
    with pytest.raises(ValueError, match="^force must be a finite 3-vector"):
        solve(A, value, layout.bounds)
    with pytest.raises(ValueError, match="^position must be a finite 3-vector"):
        EndEffectorState(position=value, velocity=[0.0, 0.0, 0.0], time=0.0)
    with pytest.raises(ValueError, match="^a must be a finite 3-vector"):
        angle_error(value, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="^b must be a finite 3-vector"):
        angle_error([1.0, 0.0, 0.0], value)


# vectors no field takes, each refused with the field's name and the value
NOT_VEC3 = [
    pytest.param([1.0, 2.0, math.nan], "[1.0, 2.0, nan]", id="nan"),
    pytest.param([1.0, 2.0], "[1.0, 2.0]", id="two"),
    pytest.param([1, [2, 3]], "[1, [2, 3]]", id="ragged"),
]


@pytest.mark.parametrize("value, shown", NOT_VEC3)
def test_a_vector_that_is_not_a_finite_3_vector_is_refused_by_name(value, shown):
    from cablehaptics import angle_error, magnitude_error, solve, structure_matrix

    layout, ee = default_validation_layout()
    A = structure_matrix(layout, ee)
    calls = [
        ("force", lambda: solve(A, value, layout.bounds)),
        ("end effector", lambda: structure_matrix(layout, value)),
        ("a", lambda: angle_error(value, [1.0, 0.0, 0.0])),
        ("b", lambda: angle_error([1.0, 0.0, 0.0], value)),
        ("a", lambda: magnitude_error(value, [1.0, 0.0, 0.0])),
        ("position", lambda: EndEffectorState(position=value, velocity=[0.0] * 3, time=0.0)),
        ("measured force", lambda: as_vec3(value, "measured force")),
    ]
    for name, call in calls:
        message = f"{name} must be a finite 3-vector, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
