"""Hybrid motor-brake command policy for a single cable module.

Each module renders tension two ways: its motor pulls actively up to a
steady-state limit, and a passive one-way brake resists cable pay-out with
far higher force. The policy picks the motor whenever it can deliver the
demand, and falls back to the brake only for demands beyond the motor when
the cable is paying out; the brake cannot act against reel-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ._fields import real, set_checked
from .errors import InvalidTension
from .geometry import TensionBounds


class ActuatorMode(Enum):
    MOTOR = "motor"
    BRAKE = "brake"


@dataclass(frozen=True)
class ActuatorParams:
    """Per-module force limits and the motor's force-per-current ratio.

    Defaults match one module's hardware: the motor's steady-state pull and
    the floor that keeps the cable taut are the default TensionBounds
    (6 N and 0.5 N), the brake holds 186 N before it slips, and the motor
    gives 3 N of tension per ampere of current.
    """

    motor_max_force: float = TensionBounds.t_max
    brake_max_force: float = 186.0
    min_taut_force: float = TensionBounds.t_min
    force_per_amp: float = 3.0

    def __post_init__(self):
        set_checked(self, real, "motor_max_force", "brake_max_force", "min_taut_force")
        set_checked(self, real, "force_per_amp", minimum=0.0, strict=True)
        if not 0.0 < self.min_taut_force < self.motor_max_force < self.brake_max_force:
            raise ValueError(
                "need 0 < min_taut_force < motor_max_force < brake_max_force, got "
                f"{self.min_taut_force}, {self.motor_max_force}, {self.brake_max_force}"
            )


_DEFAULT_PARAMS = ActuatorParams()


@dataclass(frozen=True)
class ActuatorCommand:
    """What one module should do: drive the motor at a current, or brake."""

    mode: ActuatorMode
    motor_current: float

    @property
    def brake_engaged(self) -> bool:
        """Whether the brake holds the cable: the mode is BRAKE."""
        return self.mode is ActuatorMode.BRAKE


def command_for_tension(
    desired_tension: float,
    cable_paying_out: bool,
    params: ActuatorParams | None = None,
) -> ActuatorCommand:
    """Convert a commanded tension (newtons) into an actuator command.

    Demands within the motor's range run the motor, never below the
    taut-keeping floor. Demands beyond it engage the brake while the cable
    pays out; against reel-in the one-way brake cannot act, so the motor
    saturates at its maximum instead.
    """
    p = params if params is not None else _DEFAULT_PARAMS
    try:
        tension = real(desired_tension, "desired_tension", minimum=0.0)
    except ValueError as exc:
        raise InvalidTension(str(exc)) from None
    if tension <= p.motor_max_force:
        current = max(tension, p.min_taut_force) / p.force_per_amp
        return ActuatorCommand(ActuatorMode.MOTOR, current)
    if cable_paying_out:
        return ActuatorCommand(ActuatorMode.BRAKE, 0.0)
    return ActuatorCommand(ActuatorMode.MOTOR, p.motor_max_force / p.force_per_amp)
