import itertools

import numpy as np
import pytest

from cablehaptics import (
    Composite,
    Damper,
    EndEffectorState,
    Friction,
    Magnetic,
    Spring,
    Vibration,
    evaluate,
)


def state(position=(0.0, 0.0, 0.0), velocity=(0.0, 0.0, 0.0), time=0.0):
    return EndEffectorState(np.array(position, float), np.array(velocity, float), time)


class TestDamper:
    def test_opposes_velocity(self):
        force = evaluate(Damper(2.0), state(velocity=(0.5, 0.0, 0.0)))
        np.testing.assert_allclose(force, [-1.0, 0.0, 0.0])

    def test_zero_at_rest(self):
        np.testing.assert_allclose(evaluate(Damper(2.0), state()), np.zeros(3))

    def test_dissipative_for_random_velocities(self):
        rng = np.random.default_rng(2)
        damper = Damper(3.7)
        for _ in range(50):
            v = rng.normal(size=3)
            assert np.dot(evaluate(damper, state(velocity=v)), v) <= 0.0


class TestSpring:
    WALL = Spring(np.zeros(3), np.array([0.0, 1.0, 0.0]), 100.0)

    def test_penetration_pushes_out(self):
        force = evaluate(self.WALL, state(position=(0.0, -0.01, 0.0)))
        np.testing.assert_allclose(force, [0.0, 1.0, 0.0], atol=1e-12)

    def test_no_force_outside(self):
        force = evaluate(self.WALL, state(position=(0.0, 0.01, 0.0)))
        np.testing.assert_allclose(force, np.zeros(3))

    def test_continuous_at_surface(self):
        eps = 1e-9
        inside = evaluate(self.WALL, state(position=(0.0, -eps, 0.0)))
        outside = evaluate(self.WALL, state(position=(0.0, eps, 0.0)))
        assert np.linalg.norm(inside - outside) <= 1e-6

    def test_requires_unit_normal(self):
        with pytest.raises(ValueError):
            Spring(np.zeros(3), np.array([0.0, 2.0, 0.0]), 100.0)


class TestVibration:
    BUZZ = Vibration(0.5, 100.0, np.array([0.0, 0.0, 1.0]))

    def test_zero_at_time_zero(self):
        np.testing.assert_allclose(evaluate(self.BUZZ, state(time=0.0)), np.zeros(3))

    def test_peak_at_quarter_period(self):
        force = evaluate(self.BUZZ, state(time=1.0 / 400.0))
        np.testing.assert_allclose(force, [0.0, 0.0, 0.5], atol=1e-12)

    def test_amplitude_caps_magnitude(self):
        for t in np.linspace(0.0, 0.05, 101):
            force = evaluate(self.BUZZ, state(time=t))
            assert np.linalg.norm(force) <= 0.5 + 1e-12


class TestMagnetic:
    def test_linear_attraction_toward_target(self):
        magnet = Magnetic(np.array([1.0, 0.0, 0.0]), 3.0, 6.0)
        np.testing.assert_allclose(evaluate(magnet, state()), [3.0, 0.0, 0.0])

    def test_cap_engages_far_away(self):
        magnet = Magnetic(np.array([3.0, 0.0, 0.0]), 3.0, 6.0)
        # gain * distance = 9 N, capped at 6 N
        np.testing.assert_allclose(evaluate(magnet, state()), [6.0, 0.0, 0.0])

    def test_zero_at_target(self):
        magnet = Magnetic(np.zeros(3), 3.0, 6.0)
        np.testing.assert_allclose(evaluate(magnet, state()), np.zeros(3))

    def test_magnitude_never_exceeds_cap(self):
        rng = np.random.default_rng(4)
        magnet = Magnetic(np.array([0.2, -0.1, 0.4]), 5.0, 2.5)
        for _ in range(50):
            force = evaluate(magnet, state(position=rng.normal(scale=3.0, size=3)))
            assert np.linalg.norm(force) <= 2.5 + 1e-12


class TestFriction:
    RUB = Friction(2.0, 1.5, np.array([0.0, 0.0, 1.0]))

    def test_resists_tangential_motion(self):
        force = evaluate(self.RUB, state(velocity=(0.25, 0.0, 0.0)))
        np.testing.assert_allclose(force, [-0.5, 0.0, 0.0])

    def test_ignores_normal_velocity(self):
        force = evaluate(self.RUB, state(velocity=(0.0, 0.0, 3.0)))
        np.testing.assert_allclose(force, np.zeros(3))

    def test_capped_and_dissipative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            v = rng.normal(scale=5.0, size=3)
            force = evaluate(self.RUB, state(velocity=v))
            assert np.linalg.norm(force) <= 1.5 + 1e-12
            assert np.dot(force, v) <= 1e-12


def reference_magnetic(magnet, position):
    """Magnetic.force with the norm taken by np.linalg.norm."""
    offset = magnet.target - position
    dist = float(np.linalg.norm(offset))
    if dist <= 1e-12:
        return np.zeros(3)
    return min(magnet.gain * dist, magnet.max_force) * (offset / dist)


def reference_friction(rub, velocity):
    """Friction.force with the norm taken by np.linalg.norm."""
    n = rub.tangent_plane_normal
    f = -rub.coefficient * (velocity - np.dot(velocity, n) * n)
    mag = float(np.linalg.norm(f))
    if mag > rub.max_force:
        f = f * (rub.max_force / mag)
    return f


def test_magnet_and_friction_norms_are_bit_identical_to_np_linalg_norm():
    rng = np.random.default_rng(15)
    magnet = Magnetic(np.array([0.2, -0.1, 0.4]), 5.0, 2.5)
    rub = Friction(2.0, 1.5, np.array([0.6, 0.0, 0.8]))
    capped = set()
    for _ in range(500):
        s = state(rng.normal(scale=0.6, size=3), rng.normal(scale=0.6, size=3))
        got = evaluate(magnet, s)
        assert got.tobytes() == reference_magnetic(magnet, s.position).tobytes()
        got = evaluate(rub, s)
        assert got.tobytes() == reference_friction(rub, s.velocity).tobytes()
        capped.add(np.dot(got, got) > 1.5**2 * (1 - 1e-12))
    assert capped == {True, False}


class TestComposite:
    CHILDREN = (
        Damper(2.0),
        Magnetic(np.array([1.0, 0.0, 0.0]), 3.0, 6.0),
        Vibration(0.5, 100.0, np.array([0.0, 0.0, 1.0])),
    )

    def test_sums_children(self):
        s = state(velocity=(0.5, 0.0, 0.0), time=1.0 / 400.0)
        total = evaluate(Composite(self.CHILDREN), s)
        expected = sum(evaluate(child, s) for child in self.CHILDREN)
        np.testing.assert_allclose(total, expected, atol=1e-12)

    def test_permutation_invariant(self):
        s = state(position=(0.2, -0.1, 0.3), velocity=(0.4, 0.1, -0.2), time=0.003)
        reference = evaluate(Composite(self.CHILDREN), s)
        for perm in itertools.permutations(self.CHILDREN):
            np.testing.assert_allclose(
                evaluate(Composite(tuple(perm)), s), reference, atol=1e-12
            )

    def test_two_dampers_equal_one(self):
        s = state(velocity=(0.3, -0.7, 0.1))
        combined = evaluate(Composite((Damper(1.0), Damper(2.0))), s)
        np.testing.assert_allclose(combined, evaluate(Damper(3.0), s), atol=1e-12)

    def test_empty_composite_is_zero(self):
        np.testing.assert_allclose(evaluate(Composite(()), state()), np.zeros(3))


class TestValidation:
    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            Magnetic(np.zeros(3), -1.0, 6.0)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Damper(-0.5)

    def test_non_finite_state_rejected(self):
        with pytest.raises(ValueError):
            state(position=(np.nan, 0.0, 0.0))

    def test_non_finite_time_rejected(self):
        with pytest.raises(ValueError):
            state(time=np.inf)
