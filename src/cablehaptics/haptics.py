"""Virtual-material force models.

Each model maps an end-effector state (position, velocity, time) to the
desired 3D force handed to the tension solver. Models are evaluated at
discrete states and keep no internal state; time stepping belongs to the
caller. Standard haptic-rendering primitives cover the usual material
behaviors: attraction (Magnetic), stiffness (Spring), damping (Damper),
friction (Friction), vibration (Vibration), and their sums (Composite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._fields import force3, real, set_checked, vec3


@dataclass(frozen=True)
class EndEffectorState:
    """Snapshot of the end effector: position (m), velocity (m/s), time (s).

    Time is expected to be non-decreasing across a session; each snapshot
    only validates its own fields. Each component, and the time, must lie
    below _fields.MAX_MAGNITUDE (1e100) in size, as must every material's
    parameters and points, so no material force overflows.
    """

    position: np.ndarray
    velocity: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        set_checked(self, vec3, "position", "velocity")
        set_checked(self, real, "time")


@dataclass(frozen=True)
class Magnetic:
    """Attraction toward a target point: gain newtons per meter of distance,
    capped at max_force."""

    target: np.ndarray
    gain: float
    max_force: float

    def __post_init__(self):
        set_checked(self, vec3, "target")
        set_checked(self, real, "gain", "max_force", minimum=0.0)

    def force(self, state: EndEffectorState) -> np.ndarray:
        offset = self.target - state.position
        dist = math.sqrt(offset.dot(offset))
        if dist <= 1e-12:
            return np.zeros(3)
        return min(self.gain * dist, self.max_force) * (offset / dist)


@dataclass(frozen=True)
class Spring:
    """One-sided penalty spring against a plane: pushes along the normal
    with stiffness * penetration depth, zero when not penetrating."""

    surface_point: np.ndarray
    normal: np.ndarray
    stiffness: float

    def __post_init__(self):
        set_checked(self, vec3, "surface_point")
        set_checked(self, vec3, "normal", unit=True)
        set_checked(self, real, "stiffness", minimum=0.0)

    def force(self, state: EndEffectorState) -> np.ndarray:
        depth = -float(np.dot(state.position - self.surface_point, self.normal))
        if depth <= 0.0:
            return np.zeros(3)
        return self.stiffness * depth * self.normal


@dataclass(frozen=True)
class Damper:
    """Viscous resistance: f = -coefficient * velocity."""

    coefficient: float

    def __post_init__(self):
        set_checked(self, real, "coefficient", minimum=0.0)

    def force(self, state: EndEffectorState) -> np.ndarray:
        return -self.coefficient * state.velocity


@dataclass(frozen=True)
class Friction:
    """Velocity-proportional resistance within a tangent plane, capped at
    max_force. Velocity along the plane normal is ignored. An uncapped
    force of _fields.MAX_MAGNITUDE or more raises ValueError before it is
    squared, where it could overflow."""

    coefficient: float
    max_force: float
    tangent_plane_normal: np.ndarray

    def __post_init__(self):
        set_checked(self, real, "coefficient", "max_force", minimum=0.0)
        set_checked(self, vec3, "tangent_plane_normal", unit=True)

    def force(self, state: EndEffectorState) -> np.ndarray:
        n = self.tangent_plane_normal
        v_tangent = state.velocity - np.dot(state.velocity, n) * n
        f = force3(-self.coefficient * v_tangent, "friction force")
        mag = math.sqrt(f.dot(f))
        if mag > self.max_force:
            f = f * (self.max_force / mag)
        return f


@dataclass(frozen=True)
class Vibration:
    """Sinusoidal force along a fixed direction:
    amplitude * sin(2 pi frequency t) * direction."""

    amplitude: float
    frequency: float
    direction: np.ndarray

    def __post_init__(self):
        set_checked(self, real, "amplitude", "frequency", minimum=0.0)
        set_checked(self, vec3, "direction", unit=True)

    def force(self, state: EndEffectorState) -> np.ndarray:
        return (
            self.amplitude
            * np.sin(2.0 * np.pi * self.frequency * state.time)
            * self.direction
        )


@dataclass(frozen=True)
class Composite:
    """Vector sum of child materials; order does not matter."""

    children: tuple["MaterialModel", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    def force(self, state: EndEffectorState) -> np.ndarray:
        total = np.zeros(3)
        for child in self.children:
            total += child.force(state)
        return total


MaterialModel = Union[Magnetic, Spring, Damper, Friction, Vibration, Composite]


def evaluate(model: MaterialModel, state: EndEffectorState) -> np.ndarray:
    """Force (newtons) the material exerts on the end effector at ``state``."""
    return model.force(state)
