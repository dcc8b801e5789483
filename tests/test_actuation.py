import dataclasses

import numpy as np
import pytest

from cablehaptics import (
    ActuatorCommand,
    ActuatorMode,
    ActuatorParams,
    InvalidTension,
    TensionBounds,
    command_for_tension,
)

AMP_CAP = 2.0  # motor_max_force / force_per_amp with default params


class TestCommandForTension:
    @pytest.mark.parametrize("paying_out", [True, False])
    def test_bench_anchor_point_half_amp(self, paying_out):
        # 1.5 N of tension is exactly 0.5 A of motor current
        command = command_for_tension(1.5, paying_out)
        assert command.mode is ActuatorMode.MOTOR
        assert command.motor_current == 0.5
        assert not command.brake_engaged

    def test_zero_demand_keeps_cable_taut(self):
        command = command_for_tension(0.0, False)
        assert command.mode is ActuatorMode.MOTOR
        np.testing.assert_allclose(command.motor_current, 0.5 / 3.0)

    def test_high_demand_while_paying_out_brakes(self):
        command = command_for_tension(50.0, True)
        assert command.mode is ActuatorMode.BRAKE
        assert command.motor_current == 0.0
        assert command.brake_engaged

    def test_high_demand_against_reel_in_saturates_motor(self):
        # the one-way brake cannot resist reel-in
        command = command_for_tension(50.0, False)
        assert command.mode is ActuatorMode.MOTOR
        assert command.motor_current == AMP_CAP
        assert not command.brake_engaged

    def test_exactly_motor_max_stays_on_motor(self):
        for paying_out in (True, False):
            command = command_for_tension(6.0, paying_out)
            assert command.mode is ActuatorMode.MOTOR
            assert command.motor_current == AMP_CAP

    def test_negative_tension_rejected(self):
        with pytest.raises(InvalidTension):
            command_for_tension(-0.1, True)

    def test_non_finite_tension_rejected(self):
        with pytest.raises(InvalidTension):
            command_for_tension(np.nan, False)

    @pytest.mark.parametrize("bad", ["a", "2.0", None, [2.0], np.inf])
    def test_non_number_tension_rejected_naming_the_argument(self, bad):
        with pytest.raises(InvalidTension, match="desired_tension"):
            command_for_tension(bad, True)

    @pytest.mark.parametrize("tension", [np.float32(2.0), np.float64(2.0), np.int64(2), 2])
    def test_numpy_tension_computed_in_double_precision(self, tension):
        command = command_for_tension(tension, False)
        assert type(command.motor_current) is float
        assert command.motor_current == 2.0 / 3.0


class TestBrakeEngaged:
    """brake_engaged is read off the mode, so the two cannot disagree."""

    @pytest.mark.parametrize(
        "tension, paying_out, mode",
        [
            (0.0, True, ActuatorMode.MOTOR),  # floor
            (1.5, False, ActuatorMode.MOTOR),  # motor
            (6.0, True, ActuatorMode.MOTOR),  # motor at its limit
            (50.0, True, ActuatorMode.BRAKE),  # brake
            (50.0, False, ActuatorMode.MOTOR),  # saturation against reel-in
        ],
    )
    def test_every_policy_branch(self, tension, paying_out, mode):
        command = command_for_tension(tension, paying_out)
        assert command.mode is mode
        assert command.brake_engaged is (mode is ActuatorMode.BRAKE)

    def test_not_a_field(self):
        assert [f.name for f in dataclasses.fields(ActuatorCommand)] == ["mode", "motor_current"]
        with pytest.raises(TypeError):
            ActuatorCommand(ActuatorMode.MOTOR, 0.5, True)
        with pytest.raises(AttributeError):
            command_for_tension(1.5, False).brake_engaged = True


class TestDefaultParams:
    @pytest.mark.parametrize(
        "tension, paying_out",
        [
            (0.0, False),  # floor
            (0.3, True),  # floor
            (1.5, False),  # motor
            (6.0, True),  # motor at its limit
            (6.5, False),  # saturation against reel-in
            (50.0, False),  # saturation against reel-in
            (6.5, True),  # brake
            (300.0, True),  # brake beyond its rating
        ],
    )
    def test_default_equals_explicit_default(self, tension, paying_out):
        explicit = command_for_tension(tension, paying_out, ActuatorParams())
        assert command_for_tension(tension, paying_out) == explicit


class TestPolicyProperties:
    TENSIONS = np.linspace(0.0, 200.0, 2001)

    def test_current_never_exceeds_cap(self):
        for tension in self.TENSIONS:
            for paying_out in (True, False):
                command = command_for_tension(float(tension), paying_out)
                assert command.motor_current <= AMP_CAP + 1e-15

    def test_motor_tension_never_below_taut_floor(self):
        for tension in self.TENSIONS:
            command = command_for_tension(float(tension), False)
            if command.mode is ActuatorMode.MOTOR:
                assert command.motor_current * 3.0 >= 0.5 - 1e-12

    def test_brake_only_while_paying_out(self):
        for tension in self.TENSIONS:
            assert command_for_tension(float(tension), False).mode is ActuatorMode.MOTOR
            if command_for_tension(float(tension), True).mode is ActuatorMode.BRAKE:
                assert tension > 6.0

    def test_motor_current_monotone_in_demand(self):
        currents = [
            command_for_tension(float(tension), False).motor_current
            for tension in self.TENSIONS
        ]
        assert all(b >= a - 1e-15 for a, b in zip(currents, currents[1:]))


class TestActuatorParams:
    def test_defaults(self):
        params = ActuatorParams()
        assert params.motor_max_force == 6.0
        assert params.brake_max_force == 186.0
        assert params.min_taut_force == 0.5
        assert params.force_per_amp == 3.0

    def test_default_motor_range_is_the_default_solver_box(self):
        params, bounds = ActuatorParams(), TensionBounds()
        assert (params.min_taut_force, params.motor_max_force) == (bounds.t_min, bounds.t_max)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ActuatorParams(motor_max_force=200.0)
        with pytest.raises(ValueError):
            ActuatorParams(min_taut_force=0.0)

    def test_force_per_amp_positive(self):
        with pytest.raises(ValueError):
            ActuatorParams(force_per_amp=0.0)

    def test_custom_ratio_scales_current(self):
        params = ActuatorParams(force_per_amp=1.5)
        assert command_for_tension(1.5, False, params).motor_current == 1.0
