"""Module anchor layouts, tension bounds, cable directions, and the
structure matrix: the input types the solver takes.

The cable model is ideal: a massless, inextensible, frictionless straight
line from the end effector to each anchor, pulling the end effector toward
the anchor. The end effector is a point, so the structure matrix maps m
cable tensions to a 3-DoF net force and nothing else (no torques).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._fields import force3, real, set_checked, vec3
from .errors import DegenerateGeometry

# Anchors closer together than this are rejected as duplicates (meters).
COINCIDENT_ANCHOR_TOL = 1e-9

# The end effector must keep this distance from every anchor (meters);
# below it the cable direction is numerically meaningless.
DEGENERATE_EE_TOL = 1e-6


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """np.linalg.norm(x, axis=axis) of a float array x, by the two ufuncs
    it runs for one, without its Python wrapper: a structure matrix is new
    at almost every position, so this runs cold, where the wrapper cost
    about as much as the arithmetic."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


@dataclass(frozen=True)
class TensionBounds:
    """Allowable tension range for a cable, in newtons.

    Defaults are the hardware limits of one module: 0.5 N keeps the cable
    taut, 6.0 N is the motor's maximum steady-state pull. A floor of -0.0
    is stored as 0.0: the two compare and hash equal, so bounds that hold
    either must give the same tensions, zero signs included. t_max, and
    with it t_min, must lie below _fields.MAX_MAGNITUDE (1e100 N).
    """

    t_min: float = 0.5
    t_max: float = 6.0

    def __post_init__(self):
        set_checked(self, real, "t_min", minimum=0.0)
        set_checked(self, real, "t_max")
        if self.t_min == 0.0:
            object.__setattr__(self, "t_min", 0.0)
        if not self.t_min < self.t_max:
            raise ValueError(
                f"need 0 <= t_min < t_max, got [{self.t_min}, {self.t_max}]"
            )


@dataclass(frozen=True)
class ModuleAnchor:
    """One cable module's anchor point in the world frame (meters)."""

    id: str
    position: np.ndarray

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ValueError(f"id must be a string, got {self.id!r}")
        set_checked(self, vec3, "position")


@dataclass(frozen=True)
class ModuleLayout:
    """Ordered anchors plus tension bounds, shared or per module.

    ``bounds`` is a single TensionBounds applied to every cable, or a
    sequence with one entry per anchor.
    """

    anchors: tuple[ModuleAnchor, ...]
    bounds: TensionBounds | tuple[TensionBounds, ...] = field(
        default_factory=TensionBounds
    )

    def __post_init__(self):
        anchors = tuple(self.anchors)
        if not anchors:
            raise ValueError("a layout needs at least one anchor")
        ids = [a.id for a in anchors]
        if len(set(ids)) != len(ids):
            raise ValueError(f"anchor ids must be unique, got {ids}")
        for i in range(len(anchors)):
            for j in range(i + 1, len(anchors)):
                gap = np.linalg.norm(anchors[i].position - anchors[j].position)
                if gap <= COINCIDENT_ANCHOR_TOL:
                    raise ValueError(
                        f"anchors {ids[i]!r} and {ids[j]!r} coincide ({gap:.1e} m apart)"
                    )
        object.__setattr__(self, "anchors", anchors)
        positions = np.array([a.position for a in anchors])
        positions.setflags(write=False)
        # not a field: built once here from the anchors, so equality,
        # repr and hashing still read the anchors alone
        object.__setattr__(self, "_positions", positions)
        if not isinstance(self.bounds, TensionBounds):
            per_cable = tuple(self.bounds)
            if len(per_cable) != len(anchors):
                raise ValueError(
                    f"got {len(per_cable)} per-module bounds for {len(anchors)} anchors"
                )
            object.__setattr__(self, "bounds", per_cable)

    def __len__(self) -> int:
        return len(self.anchors)

    @property
    def anchor_positions(self) -> np.ndarray:
        """Anchor positions stacked as a read-only (m, 3) array, built once
        per layout."""
        return self._positions


@dataclass(frozen=True)
class StructureMatrix:
    """3 x m matrix whose columns are unit vectors from the end effector
    toward each anchor; A @ t is the net force the tensions t exert. The
    one place a matrix is checked (shape, NaN and inf, unit columns); the
    columns are kept as a read-only C-ordered copy."""

    columns: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != 3 or cols.shape[1] < 1:
            raise ValueError(f"expected shape (3, m), got {cols.shape}")
        norms = _norms(cols, 0)
        # a NaN or inf entry makes its column's norm NaN or inf, which fails
        # the unit test too, so finiteness is read only to pick the message
        for norm in norms.tolist():
            if not abs(norm - 1.0) <= 1e-12:
                if not np.isfinite(cols).all():
                    raise ValueError("structure matrix has non-finite entries")
                raise ValueError(f"columns must be unit vectors, norms {norms}")
        cols = cols.copy()
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)


def cable_directions(layout: ModuleLayout, ee) -> np.ndarray:
    """Unit direction from the end effector toward each anchor, one per row.

    Raises DegenerateGeometry when the end effector sits within 1e-6 m of
    an anchor.
    """
    p = force3(ee, "end effector")
    offsets = layout.anchor_positions - p
    norms = _norms(offsets, 1)
    for norm in norms.tolist():
        if norm <= DEGENERATE_EE_TOL:
            bad = layout.anchors[int(np.argmin(norms))].id
            raise DegenerateGeometry(
                f"end effector within {DEGENERATE_EE_TOL} m of anchor {bad!r}"
            )
    return offsets / norms[:, None]


def structure_matrix(layout: ModuleLayout, ee) -> StructureMatrix:
    """Build the structure matrix for a layout at an end-effector position."""
    return StructureMatrix(cable_directions(layout, ee).T)

