import re
import warnings

import numpy as np
import pytest

from cablehaptics import (
    DegenerateInput,
    IdealPlant,
    ModuleAnchor,
    ModuleLayout,
    NoisyPlant,
    SolverConfig,
    ValidationProtocol,
    ZeroVector,
    actuation_rank,
    align_z_rotation,
    angle_error,
    default_validation_layout,
    magnitude_error,
    rotation_z,
    run_validation,
    solve,
    sphere_samples,
    structure_matrix,
)
from cablehaptics.solver import WRENCH_FEASIBLE_RESIDUAL


class TestSphereSamples:
    def test_single_sample_has_requested_norm(self):
        points = sphere_samples(1, 1.5)
        assert points.shape == (1, 3)
        np.testing.assert_allclose(np.linalg.norm(points[0]), 1.5, atol=1e-12)

    def test_two_samples_on_opposite_hemispheres(self):
        points = sphere_samples(2, 1.0)
        np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-12)
        assert points[0, 2] * points[1, 2] < 0.0

    def test_bench_count_norms_and_balance(self):
        points = sphere_samples(182, 1.5)
        np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.5, atol=1e-12)
        # near-uniform spread: the vector mean nearly cancels
        assert np.linalg.norm(points.mean(axis=0)) < 0.05 * 1.5

    def test_deterministic_bitwise(self):
        np.testing.assert_array_equal(sphere_samples(182, 1.5), sphere_samples(182, 1.5))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sphere_samples(0, 1.0)
        with pytest.raises(ValueError):
            sphere_samples(5, 0.0)
        with pytest.raises(ValueError, match="n must be an integer"):
            sphere_samples(2.5, 1.5)


class TestAngleError:
    def test_orthogonal_is_90(self):
        assert angle_error([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0)

    def test_scale_invariant(self):
        assert angle_error([1, 0, 0], [2, 0, 0]) == pytest.approx(0.0)

    def test_opposite_is_180(self):
        assert angle_error([1, 0, 0], [-1, 0, 0]) == pytest.approx(180.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            angle_error([0, 0, 0], [1, 0, 0])

    def test_range_under_roundoff(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = rng.normal(size=3)
            assert 0.0 <= angle_error(v, 1.000000001 * v) <= 180.0

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ([1e99, 0.0, 0.0], [1.0, 0.0, 0.0], 0.0),
            ([1e99, 0.0, 0.0], [0.0, 1e99, 0.0], 90.0),
            ([9.99e99, 9.99e99, 0.0], [9.99e99, 0.0, 0.0], 45.0),
            ([-9.99e99, 0.0, 0.0], [9.99e99, 1e-300, 0.0], 180.0),
        ],
    )
    def test_huge_vectors_neither_overflow_nor_warn(self, a, b, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert angle_error(a, b) == pytest.approx(expected)


class TestMagnitudeError:
    def test_bench_average_magnitudes(self):
        # measured averaging 1.84 N against the commanded 1.5 N
        a = 1.84 * np.array([1.0, 0.0, 0.0])
        b = 1.5 * np.array([0.0, 1.0, 0.0])
        assert magnitude_error(a, b) == pytest.approx(0.34, abs=1e-12)

    def test_equal_vectors(self):
        assert magnitude_error([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_equal_norms_different_directions(self):
        assert magnitude_error([3.0, 4.0, 0.0], [0.0, 0.0, 5.0]) == pytest.approx(0.0)

    def test_huge_vectors_neither_overflow_nor_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert magnitude_error([1e99, 0.0, 0.0], [0.0, 0.0, 2e99]) == pytest.approx(1e99)
            assert magnitude_error([3e99, 4e99, 0.0], [0.0, 0.0, 5e99]) == pytest.approx(0.0)


class TestRotationZ:
    def test_a_float_angle_gives_its_cos_and_sin(self):
        theta = 0.087
        expected = np.array(
            [[np.cos(theta), -np.sin(theta), 0.0], [np.sin(theta), np.cos(theta), 0.0], [0, 0, 1.0]]
        )
        assert rotation_z(theta).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "theta",
        [np.float32(0.1), np.float64(0.1), np.int64(2), 2],
        ids=["float32", "float64", "int64", "int"],
    )
    def test_any_real_angle_is_taken_as_a_float(self, theta):
        got = rotation_z(theta)
        assert got.dtype == np.float64
        assert got.tobytes() == rotation_z(float(theta)).tobytes()

    @pytest.mark.parametrize(
        "theta, message",
        [
            (np.nan, "theta must be a finite real number, got nan"),
            (-np.inf, "theta must be a finite real number, got -inf"),
            (True, "theta must be a finite real number, got True"),
            ("0.5", "theta must be a finite real number, got '0.5'"),
            (1e100, "theta must be below 1e+100 in size, got 1e+100"),
        ],
        ids=["nan", "-inf", "bool", "string", "huge"],
    )
    def test_an_angle_that_is_not_a_finite_real_number_is_refused(self, theta, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rotation_z(theta)


class TestAlignZRotation:
    BASIS = np.eye(3)

    def test_identical_bases_give_zero(self):
        assert align_z_rotation(self.BASIS, self.BASIS) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "desired, measured",
        [(np.eye(3)[:2], np.eye(3)), ([[1.0, 0.0]], [[1.0, 0.0]])],
        ids=["fewer-vectors", "two-components"],
    )
    def test_mismatched_shapes_rejected(self, desired, measured):
        with pytest.raises(ValueError, match="basis shapes must match"):
            align_z_rotation(desired, measured)

    def test_recovers_synthetic_rotation(self):
        theta = np.radians(30.0)
        measured = (rotation_z(-theta) @ self.BASIS.T).T
        assert align_z_rotation(self.BASIS, measured) == pytest.approx(theta, abs=1e-12)

    def test_recovers_across_full_range(self):
        for theta in np.linspace(-np.pi, np.pi, 37, endpoint=False):
            measured = (rotation_z(-theta) @ self.BASIS.T).T
            recovered = align_z_rotation(self.BASIS, measured)
            wrapped = (recovered - theta + np.pi) % (2.0 * np.pi) - np.pi
            assert abs(wrapped) <= 1e-9

    def test_noise_keeps_estimate_within_one_degree(self):
        rng = np.random.default_rng(42)
        theta = np.radians(30.0)
        hits = 0
        for _ in range(100):
            measured = (rotation_z(-theta) @ self.BASIS.T).T + rng.normal(
                0.0, 0.01, size=(3, 3)
            )
            recovered = align_z_rotation(self.BASIS, measured)
            if abs(np.degrees(recovered - theta)) <= 1.0:
                hits += 1
        assert hits >= 95

    def test_degenerate_when_no_xy_signal(self):
        axis = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(DegenerateInput):
            align_z_rotation(axis, axis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["desired", "measured"])
    def test_non_finite_basis_rejected(self, side, bad):
        broken, intact = np.array([[bad, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]])
        pair = (broken, intact) if side == "desired" else (intact, broken)
        with pytest.raises(ValueError, match="finite"):
            align_z_rotation(*pair)

    def test_zero_basis_vector_rejected(self):
        with pytest.raises(ZeroVector):
            align_z_rotation(np.zeros((1, 3)), np.ones((1, 3)))

    @pytest.mark.parametrize("side", ["desired", "measured"])
    def test_entries_at_or_above_the_limit_rejected_without_warning(self, side):
        # scaled by 1e200 the sums overflow and the angle would read 45 deg
        desired, measured = [[1e200, 2e200, 0.0]], [[1e200, 0.0, 0.0]]
        if side == "measured":
            desired, measured = measured, desired
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^basis vector must be below 1e\\+100 in size"):
                align_z_rotation(desired, measured)
            angle = np.degrees(align_z_rotation([[1.0, 2.0, 0.0]], [[1.0, 0.0, 0.0]]))
        assert angle == pytest.approx(63.43494882292201, abs=1e-12)


    @pytest.mark.parametrize("side", ["desired", "measured"])
    def test_an_int_beyond_the_float_range_is_refused_naming_the_vector(self, side):
        huge, intact = [[10**400, 0, 0]], [[1, 0, 0]]
        pair = (huge, intact) if side == "desired" else (intact, huge)
        with pytest.raises(ValueError, match="^basis vector must be a finite 3-vector"):
            align_z_rotation(*pair)

class TestDefaultValidationLayout:
    def test_four_modules_rank_three(self):
        layout, ee = default_validation_layout()
        assert len(layout) == 4
        assert actuation_rank(structure_matrix(layout, ee)) == 3

    def test_triangle_equidistant(self):
        layout, _ = default_validation_layout()
        a, b, c = (anchor.position for anchor in layout.anchors[:3])
        sides = [np.linalg.norm(a - b), np.linalg.norm(b - c), np.linalg.norm(c - a)]
        np.testing.assert_allclose(sides, sides[0], atol=1e-12)

    def test_overhead_module_two_meters_above_ee(self):
        layout, ee = default_validation_layout()
        np.testing.assert_allclose(
            layout.anchors[3].position - ee, [0.0, 0.0, 2.0], atol=1e-15
        )

    def test_circumradius_configurable(self):
        layout, _ = default_validation_layout(triangle_circumradius=2.5)
        np.testing.assert_allclose(np.linalg.norm(layout.anchors[0].position), 2.5)


@pytest.fixture(scope="module")
def report():
    layout, ee = default_validation_layout()
    return run_validation(layout, ee, ValidationProtocol(), IdealPlant())


class TestRunValidationIdeal:

    def test_every_sample_within_45_degrees(self, report):
        assert report.fraction_within_45deg == 1.0

    def test_feasible_samples_render_almost_exactly(self, report):
        feasible = [r for r in report.records if r.feasible]
        assert len(feasible) == len(report.records)
        assert max(r.angle_error for r in feasible) <= 0.5
        assert max(r.magnitude_error for r in feasible) <= 0.01

    def test_aggregates_recomputable_from_records(self, report):
        angles = np.array([r.angle_error for r in report.records])
        magnitudes = [np.linalg.norm(r.measured) for r in report.records]
        assert report.mean_angle_error == float(np.mean(angles))
        assert report.max_angle_error == float(np.max(angles))
        assert report.mean_measured_magnitude == float(np.mean(magnitudes))
        assert report.mean_magnitude_error == float(
            np.mean([r.magnitude_error for r in report.records])
        )
        assert report.fraction_within_45deg == float(np.mean(angles <= 45.0))

    def test_single_module_reports_unreachable_equator_sample(self):
        layout = ModuleLayout((ModuleAnchor("top", np.array([0.0, 0.0, 2.0])),))
        report = run_validation(
            layout,
            np.zeros(3),
            ValidationProtocol(sphere_radius=1.5, sample_count=1, samples_per_hold=10),
            IdealPlant(),
        )
        # the lone Fibonacci sample lies on the equator; the single cable can
        # only pull straight up, so it rests at t_min and renders (0, 0, 0.5)
        record = report.records[0]
        np.testing.assert_allclose(record.commanded, [1.5, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(record.measured, [0.0, 0.0, 0.5], atol=1e-9)
        assert record.angle_error == pytest.approx(90.0)
        assert record.magnitude_error == pytest.approx(1.0)
        assert not record.feasible

    def test_single_module_renders_cable_axis_exactly(self):
        layout = ModuleLayout((ModuleAnchor("top", np.array([0.0, 0.0, 2.0])),))
        A = structure_matrix(layout, np.zeros(3))
        result = solve(A, [0.0, 0.0, 1.5], layout.bounds)
        np.testing.assert_allclose(result.rendered_force, [0.0, 0.0, 1.5], atol=1e-9)
        assert result.force_residual <= WRENCH_FEASIBLE_RESIDUAL


class TestRunValidationNoisy:
    PROTOCOL = ValidationProtocol(sample_count=24, samples_per_hold=50)

    def test_noise_produces_finite_errors(self):
        layout, ee = default_validation_layout()
        plant = NoisyPlant(
            force_noise_std=0.3, frame_rotation_z=np.radians(5.0), tension_bias=0.1
        )
        report = run_validation(layout, ee, self.PROTOCOL, plant)
        assert report.mean_angle_error > 0.0
        assert np.isfinite(report.mean_angle_error)
        assert np.isfinite(report.mean_magnitude_error)
        assert all(np.all(np.isfinite(r.measured)) for r in report.records)

    def test_same_seed_is_bitwise_reproducible(self):
        layout, ee = default_validation_layout()
        plant = NoisyPlant(force_noise_std=0.2, seed=7)
        first = run_validation(layout, ee, self.PROTOCOL, plant)
        second = run_validation(layout, ee, self.PROTOCOL, plant)
        for a, b in zip(first.records, second.records):
            np.testing.assert_array_equal(a.measured, b.measured)
        assert first.mean_angle_error == second.mean_angle_error

    def test_different_seeds_differ(self):
        layout, ee = default_validation_layout()
        first = run_validation(
            layout, ee, self.PROTOCOL, NoisyPlant(force_noise_std=0.2, seed=1)
        )
        second = run_validation(
            layout, ee, self.PROTOCOL, NoisyPlant(force_noise_std=0.2, seed=2)
        )
        assert first.mean_angle_error != second.mean_angle_error

    def test_frame_rotation_shows_up_as_angle_error(self):
        layout, ee = default_validation_layout()
        plant = NoisyPlant(frame_rotation_z=np.radians(10.0))
        report = run_validation(layout, ee, self.PROTOCOL, plant)
        # rotating the sensor frame misaligns measured vs commanded
        assert report.mean_angle_error > 1.0


class TestProtocolValidation:
    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            ValidationProtocol(sample_count=0)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            ValidationProtocol(sphere_radius=-1.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            NoisyPlant(force_noise_std=-0.1)


class TestIntegerFields:
    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (SolverConfig, "max_iterations", 2.5),
            (SolverConfig, "max_iterations", "10"),
            (SolverConfig, "max_iterations", 0),
            (ValidationProtocol, "sample_count", 2.5),
            (ValidationProtocol, "sample_count", 0),
            (ValidationProtocol, "samples_per_hold", 1.0),
            (ValidationProtocol, "samples_per_hold", 0),
            (NoisyPlant, "seed", -3),
            (NoisyPlant, "seed", 4.2),
            (NoisyPlant, "seed", None),
        ],
    )
    def test_rejected_at_construction_naming_the_field(self, cls, field, value):
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (SolverConfig, "max_iterations", np.int64(3)),
            (ValidationProtocol, "sample_count", np.int32(2)),
            (ValidationProtocol, "samples_per_hold", 1),
            (NoisyPlant, "seed", 0),
        ],
    )
    def test_integer_types_accepted(self, cls, field, value):
        assert getattr(cls(**{field: value}), field) == value
