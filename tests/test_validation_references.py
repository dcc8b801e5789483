"""The validation harness against the numpy expressions it replaced.

``NoisyPlant.measure_hold`` keeps its Z rotation from construction and
draws each hold's mean from its sampling distribution, reading hold i's
standard normals as row i % 256 of a table seeded with [seed, i // 256];
``run_validation``
scores each sample from the arrays it holds instead of checking them
again. The references below are the earlier forms: the rotation built per
hold, and the angle and magnitude errors from ``np.linalg.norm`` and
``np.clip``. The new forms must agree with them bit for bit. The hold mean
has two references: the closed form, one N(0, std^2 / ticks) draw per axis
added to the true force, which it must match bit for bit, and the mean of
the hold's noisy ticks, ``(true_force + noise).mean(axis=0)``, the
measurement it models, which it must match in distribution. The cases are
seeded and cover every hold length from 1 to 2000 ticks, zero noise, zero
and negative angles and biases, and angles at 0 and 180 degrees.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from cablehaptics import (
    IdealPlant,
    NoisyPlant,
    ValidationProtocol,
    ZeroVector,
    angle_error,
    default_validation_layout,
    magnitude_error,
    rotation_z,
    run_validation,
    structure_matrix,
)


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def true_force(plant, A, tensions):
    return rotation_z(plant.frame_rotation_z) @ (A.columns @ (tensions + plant.tension_bias))


def reference_hold(plant, A, tensions, ticks, sample_index):
    """The hold mean drawn from its distribution, N(0, std^2 / ticks) per
    axis around the true force: hold i's three standard normals are row
    i % 256 of the 256 x 3 that the generator seeded with [seed, i // 256]
    draws, scaled by std / sqrt(ticks)."""
    chunk, row = divmod(sample_index, 256)
    normals = np.random.default_rng([plant.seed, chunk]).standard_normal((256, 3))[row]
    return true_force(plant, A, tensions) + normals * (plant.force_noise_std / math.sqrt(ticks))


def per_tick_hold(plant, A, tensions, ticks, sample_index):
    """The measurement the plant models: the mean of ticks sensor readings,
    each the true force plus N(0, std^2) noise per axis."""
    rng = np.random.default_rng(plant.seed + sample_index)
    draws = true_force(plant, A, tensions) + rng.normal(
        0.0, plant.force_noise_std, size=(ticks, 3)
    )
    return draws.mean(axis=0)


def reference_angle(a, b) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    cosine = np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0)
    return float(np.degrees(np.arccos(cosine)))


def reference_magnitude(a, b) -> float:
    return float(abs(np.linalg.norm(a) - np.linalg.norm(b)))


def random_plant(rng) -> NoisyPlant:
    return NoisyPlant(
        force_noise_std=float(rng.choice([0.0, 1e-3, 0.3, 2.5])),
        frame_rotation_z=float(rng.choice([0.0, -0.0, 0.087, -1.3, np.pi])),
        tension_bias=float(rng.choice([0.0, 0.1, -0.4])),
        seed=int(rng.integers(0, 2**31)),
    )


def test_hold_mean_matches_the_mean_of_the_noisy_ticks():
    rng = np.random.default_rng(2026)
    layout, ee = default_validation_layout()
    A = structure_matrix(layout, ee)
    for ticks in range(1, 2001):
        plant = random_plant(rng)
        tensions = rng.uniform(0.5, 6.0, len(layout))
        index = int(rng.integers(0, 1000))
        measured = plant.measure_hold(A, tensions, ticks, index)
        expected = reference_hold(plant, A, tensions, ticks, index)
        assert same_bits(measured, expected), (ticks, plant)
        if plant.force_noise_std == 0.0:
            assert np.array_equal(measured, true_force(plant, A, tensions)), (ticks, plant)


def test_hold_mean_has_the_distribution_of_the_mean_of_the_ticks():
    layout, ee = default_validation_layout()
    A = structure_matrix(layout, ee)
    tensions = np.linspace(0.5, 6.0, len(layout))
    std, ticks, holds = 0.3, 1000, 3000
    plant = NoisyPlant(force_noise_std=std, frame_rotation_z=0.087, tension_bias=0.1, seed=5)
    # the per-tick sample comes from seeds the closed-form one never uses
    ticked = NoisyPlant(force_noise_std=std, frame_rotation_z=0.087, tension_bias=0.1, seed=10**6)
    drawn = np.array([plant.measure_hold(A, tensions, ticks, i) for i in range(holds)])
    averaged = np.array([per_tick_hold(ticked, A, tensions, ticks, i) for i in range(holds)])
    for axis in range(3):
        assert stats.ks_2samp(drawn[:, axis], averaged[:, axis]).pvalue > 1e-3, axis
        spread = drawn[:, axis].std(ddof=1)
        assert abs(spread / (std / math.sqrt(ticks)) - 1.0) < 0.05, (axis, spread)


def test_a_hold_of_any_length_takes_constant_memory():
    layout, ee = default_validation_layout()
    A = structure_matrix(layout, ee)
    plant = NoisyPlant(force_noise_std=0.3, seed=3)
    # the mean of 10**12 ticks drawn one by one would need 24 TB of draws
    measured = plant.measure_hold(A, np.full(len(layout), 2.0), 10**12, 0)
    assert measured.shape == (3,) and np.isfinite(measured).all()


def noisy_holds(seed, indices):
    """The hold of each index, as bytes, for one plant and one tension
    vector, measured in the order given."""
    layout, ee = default_validation_layout()
    A = structure_matrix(layout, ee)
    plant = NoisyPlant(force_noise_std=0.3, frame_rotation_z=0.087, tension_bias=0.1, seed=seed)
    tensions = np.linspace(0.5, 6.0, len(layout))
    return {i: plant.measure_hold(A, tensions, 1000, i).tobytes() for i in indices}


@pytest.mark.parametrize("seed", [0, 42, 255, 256])
def test_adjacent_seeds_share_no_hold(seed):
    # a generator seeded with seed + index would give seed's hold i + 1 to
    # seed + 1's hold i
    first = set(noisy_holds(seed, range(600)).values())
    second = set(noisy_holds(seed + 1, range(600)).values())
    assert len(first) == len(second) == 600
    assert not first & second


def test_a_hold_does_not_depend_on_the_order_of_the_holds():
    forward = noisy_holds(42, range(600))
    shuffled = list(range(600))
    np.random.default_rng(3).shuffle(shuffled)
    assert noisy_holds(42, reversed(range(600))) == forward
    assert noisy_holds(42, shuffled) == forward
    # a hold alone, after another seed's table was built
    noisy_holds(7, [300])
    assert noisy_holds(42, [599]) == {599: forward[599]}


def test_a_far_hold_index_draws_a_finite_mean():
    layout, ee = default_validation_layout()
    A = structure_matrix(layout, ee)
    plant = NoisyPlant(force_noise_std=0.3, seed=3)
    measured = plant.measure_hold(A, np.full(len(layout), 2.0), 1000, 10**15)
    assert measured.shape == (3,) and np.isfinite(measured).all()
    assert not np.array_equal(measured, plant.measure_hold(A, np.full(len(layout), 2.0), 1000, 0))


def test_cached_rotation_is_read_only_and_not_a_field():
    plant = NoisyPlant(force_noise_std=0.3, frame_rotation_z=0.087, tension_bias=0.1)
    assert same_bits(plant._rotation, rotation_z(0.087))
    assert not plant._rotation.flags.writeable
    with pytest.raises(ValueError):
        plant._rotation[0, 0] = 2.0
    assert set(dataclasses.asdict(plant)) == {
        "force_noise_std",
        "frame_rotation_z",
        "tension_bias",
        "seed",
    }
    assert repr(plant) == (
        "NoisyPlant(force_noise_std=0.3, frame_rotation_z=0.087, tension_bias=0.1, seed=42)"
    )
    assert plant == NoisyPlant(force_noise_std=0.3, frame_rotation_z=0.087, tension_bias=0.1)
    assert plant != NoisyPlant(force_noise_std=0.3, frame_rotation_z=0.088, tension_bias=0.1)


def test_errors_match_the_norm_and_clip_forms():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(3000):
        a = rng.normal(size=3) * 10.0 ** rng.integers(-6, 4)
        kind = rng.integers(0, 5)
        if kind == 0:
            b = a * rng.uniform(0.1, 10.0)  # parallel: cosine rounds to 1
        elif kind == 1:
            b = -a * rng.uniform(0.1, 10.0)  # antiparallel: cosine rounds to -1
        elif kind == 2:
            b = a + rng.normal(size=3) * 1e-9
        else:
            b = rng.normal(size=3) * 10.0 ** rng.integers(-6, 4)
        cases.append((a, b))
    clipped = 0
    for a, b in cases:
        assert same_bits(angle_error(a, b), reference_angle(a, b))
        assert same_bits(magnitude_error(a, b), reference_magnitude(a, b))
        assert type(angle_error(a, b)) is float and type(magnitude_error(a, b)) is float
        clipped += abs(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))) > 1.0
    assert clipped > 10


VALIDATION_CASES = [
    (IdealPlant(), ValidationProtocol(sample_count=182, samples_per_hold=1)),
    (
        NoisyPlant(force_noise_std=0.3, frame_rotation_z=0.087, tension_bias=0.1, seed=42),
        ValidationProtocol(sample_count=64, samples_per_hold=50),
    ),
    (NoisyPlant(frame_rotation_z=np.pi), ValidationProtocol(sample_count=16, samples_per_hold=3)),
    (
        NoisyPlant(force_noise_std=4.0, tension_bias=-0.4, seed=9),
        ValidationProtocol(sphere_radius=40.0, sample_count=32, samples_per_hold=1),
    ),
]


@pytest.mark.parametrize("plant, protocol", VALIDATION_CASES)
def test_every_record_matches_the_public_metrics(plant, protocol):
    layout, ee = default_validation_layout()
    report = run_validation(layout, ee, protocol, plant)
    for r in report.records:
        assert same_bits(r.angle_error, angle_error(r.commanded, r.measured))
        assert same_bits(r.angle_error, reference_angle(r.commanded, r.measured))
        assert same_bits(r.magnitude_error, magnitude_error(r.commanded, r.measured))
        assert same_bits(r.magnitude_error, reference_magnitude(r.commanded, r.measured))
        assert type(r.angle_error) is float and type(r.magnitude_error) is float
    assert same_bits(
        report.mean_measured_magnitude,
        float(np.mean([np.linalg.norm(r.measured) for r in report.records])),
    )


@dataclasses.dataclass(frozen=True)
class FixedPlant:
    """Measures the same force on every hold."""

    force: tuple

    def measure_hold(self, A, tensions, ticks, sample_index):
        return np.array(self.force)


@pytest.mark.parametrize("force", [(0.0, 0.0, 0.0), (1e-13, 0.0, -1e-13), (-0.0, 0.0, 0.0)])
def test_a_near_zero_measurement_scores_180_degrees(force):
    layout, ee = default_validation_layout()
    protocol = ValidationProtocol(sample_count=5, samples_per_hold=1)
    report = run_validation(layout, ee, protocol, FixedPlant(force))
    for r in report.records:
        assert r.angle_error == 180.0
        assert same_bits(r.magnitude_error, reference_magnitude(r.commanded, r.measured))
    assert report.fraction_within_45deg == 0.0


def test_a_near_zero_commanded_force_raises():
    layout, ee = default_validation_layout()
    protocol = ValidationProtocol(sphere_radius=1e-13, sample_count=3, samples_per_hold=1)
    with pytest.raises(ZeroVector):
        run_validation(layout, ee, protocol, FixedPlant((0.0, 0.0, 1.0)))
    # the commanded force counts first, so a plant that also measures about
    # 0 N cannot score it 180 degrees instead
    with pytest.raises(ZeroVector):
        run_validation(layout, ee, protocol, FixedPlant((0.0, 0.0, 0.0)))
    with pytest.raises(ZeroVector):
        angle_error([1e-13, 0.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ZeroVector):
        angle_error([1.0, 0.0, 0.0], [0.0, 1e-13, 0.0])
    assert magnitude_error([1e-13, 0.0, 0.0], [0.0, 2.0, 0.0]) == 2.0 - 1e-13


@pytest.mark.parametrize("force", [(np.nan, 0.0, 0.0), (np.inf, -np.inf, 1.0)])
def test_a_non_finite_measurement_raises(force):
    layout, ee = default_validation_layout()
    protocol = ValidationProtocol(sample_count=2, samples_per_hold=1)
    with pytest.raises(ValueError, match="^measured force must be a finite 3-vector"):
        run_validation(layout, ee, protocol, FixedPlant(force))
