"""Bounded-tension force distribution for modular cable-driven haptics.

Modules:

- geometry: anchor layouts, cable directions, structure matrix
- solver: active-set tension distribution within box bounds, actuation rank
- haptics: virtual-material force models
- actuation: hybrid motor-brake command policy
- simulation: force-sphere validation harness and error metrics
- config: YAML layout/material files, trajectory CSV
- cli: ``cablehaptics`` command-line entry point
"""

from .actuation import ActuatorCommand, ActuatorMode, ActuatorParams, command_for_tension
from .errors import (
    CableHapticsError,
    ConfigError,
    DegenerateGeometry,
    DegenerateInput,
    InvalidTension,
    ZeroVector,
)
from .geometry import (
    ModuleAnchor,
    ModuleLayout,
    StructureMatrix,
    TensionBounds,
    cable_directions,
    structure_matrix,
)
from .haptics import (
    Composite,
    Damper,
    EndEffectorState,
    Friction,
    Magnetic,
    MaterialModel,
    Spring,
    Vibration,
    evaluate,
)
from .simulation import (
    HARDWARE_REFERENCE,
    IdealPlant,
    NoisyPlant,
    PlantModel,
    SampleRecord,
    ValidationProtocol,
    ValidationReport,
    align_z_rotation,
    angle_error,
    default_validation_layout,
    magnitude_error,
    rotation_z,
    run_validation,
    sphere_samples,
)
from .solver import (
    SolveResult,
    SolveStatus,
    SolverConfig,
    actuation_rank,
    is_wrench_feasible,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ActuatorCommand",
    "ActuatorMode",
    "ActuatorParams",
    "CableHapticsError",
    "Composite",
    "ConfigError",
    "Damper",
    "DegenerateGeometry",
    "DegenerateInput",
    "EndEffectorState",
    "Friction",
    "HARDWARE_REFERENCE",
    "IdealPlant",
    "InvalidTension",
    "Magnetic",
    "MaterialModel",
    "ModuleAnchor",
    "ModuleLayout",
    "NoisyPlant",
    "PlantModel",
    "SampleRecord",
    "SolveResult",
    "SolveStatus",
    "SolverConfig",
    "Spring",
    "StructureMatrix",
    "TensionBounds",
    "ValidationProtocol",
    "ValidationReport",
    "Vibration",
    "ZeroVector",
    "actuation_rank",
    "align_z_rotation",
    "angle_error",
    "cable_directions",
    "command_for_tension",
    "default_validation_layout",
    "evaluate",
    "is_wrench_feasible",
    "magnitude_error",
    "rotation_z",
    "run_validation",
    "solve",
    "sphere_samples",
    "structure_matrix",
]
