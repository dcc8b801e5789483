"""Layout and material config files (YAML) and trajectory CSV loading.

Layout schema::

    anchors:
    - id: m1
      position: [1.0, 0.0, 0.0]
    bounds:          # shared for every cable...
      t_min: 0.5
      t_max: 6.0
    # ...or a list with one entry per anchor for per-module limits.

Material schema (``type`` selects the model; fields as in haptics)::

    type: composite
    children:
    - {type: damper, coefficient: 2.0}
    - {type: magnetic, target: [0.0, 0.0, 0.5], gain: 3.0, max_force: 6.0}

Trajectory CSV: header ``t,x,y,z`` with optional ``vx,vy,vz`` columns;
missing velocities are finite-differenced from the positions.
"""

from __future__ import annotations

import csv
import dataclasses

import numpy as np
import yaml

from .errors import ConfigError
from .geometry import ModuleAnchor, ModuleLayout
from .haptics import (
    Composite,
    Damper,
    Friction,
    Magnetic,
    MaterialModel,
    Spring,
    Vibration,
)
from .solver import TensionBounds

_MATERIAL_TYPES = {
    name: (cls, tuple(field.name for field in dataclasses.fields(cls)))
    for name, cls in (
        ("magnetic", Magnetic),
        ("spring", Spring),
        ("damper", Damper),
        ("friction", Friction),
        ("vibration", Vibration),
    )
}

# libyaml's parser where PyYAML was built with it; both build the same
# objects through SafeLoader's constructor and resolver.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(path) -> dict:
    try:
        with open(path) as handle:
            data = yaml.load(handle, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    return data


def _bounds_from_dict(raw, context: str) -> TensionBounds:
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: bounds entry must be a mapping")
    try:
        return TensionBounds(raw["t_min"], raw["t_max"])
    except KeyError as exc:
        raise ConfigError(f"{context}: bounds need t_min and t_max") from exc
    except ValueError as exc:
        raise ConfigError(f"{context}: bad bounds: {exc}") from exc


def layout_from_dict(data: dict, context: str = "layout") -> ModuleLayout:
    raw_anchors = data.get("anchors")
    if not isinstance(raw_anchors, list) or not raw_anchors:
        raise ConfigError(f"{context}: 'anchors' must be a non-empty list")
    anchors = []
    for k, entry in enumerate(raw_anchors):
        if not isinstance(entry, dict) or "position" not in entry:
            raise ConfigError(f"{context}: anchor {k} needs a 'position'")
        try:
            anchors.append(
                ModuleAnchor(str(entry.get("id", f"m{k + 1}")), entry["position"])
            )
        except ValueError as exc:
            raise ConfigError(f"{context}: anchor {k}: {exc}") from exc
    raw_bounds = data.get("bounds")
    bounds: TensionBounds | tuple[TensionBounds, ...]
    if raw_bounds is None:
        bounds = TensionBounds()
    elif isinstance(raw_bounds, list):
        bounds = tuple(
            _bounds_from_dict(b, f"{context}: bounds[{k}]")
            for k, b in enumerate(raw_bounds)
        )
    else:
        bounds = _bounds_from_dict(raw_bounds, context)
    try:
        return ModuleLayout(tuple(anchors), bounds)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def layout_to_dict(layout: ModuleLayout) -> dict:
    if isinstance(layout.bounds, TensionBounds):
        bounds: object = {"t_min": layout.bounds.t_min, "t_max": layout.bounds.t_max}
    else:
        bounds = [{"t_min": b.t_min, "t_max": b.t_max} for b in layout.bounds]
    return {
        "anchors": [
            {"id": a.id, "position": [float(v) for v in a.position]}
            for a in layout.anchors
        ],
        "bounds": bounds,
    }


def load_layout(path) -> ModuleLayout:
    return layout_from_dict(_load_yaml(path), context=str(path))


def save_layout(layout: ModuleLayout, path) -> None:
    with open(path, "w") as handle:
        yaml.safe_dump(layout_to_dict(layout), handle, sort_keys=False)


def material_from_dict(data: dict, context: str = "material") -> MaterialModel:
    if not isinstance(data, dict) or "type" not in data:
        raise ConfigError(f"{context}: material entry needs a 'type'")
    kind = str(data["type"]).lower()
    if kind == "composite":
        children = data.get("children")
        if not isinstance(children, list):
            raise ConfigError(f"{context}: composite needs a 'children' list")
        return Composite(
            tuple(
                material_from_dict(c, f"{context}: children[{k}]")
                for k, c in enumerate(children)
            )
        )
    if kind not in _MATERIAL_TYPES:
        known = ", ".join(sorted(_MATERIAL_TYPES) + ["composite"])
        raise ConfigError(f"{context}: unknown material type {kind!r} (known: {known})")
    cls, fields = _MATERIAL_TYPES[kind]
    missing = [name for name in fields if name not in data]
    if missing:
        raise ConfigError(f"{context}: {kind} is missing {missing}")
    try:
        return cls(**{name: data[name] for name in fields})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: bad {kind}: {exc}") from exc


def load_material(path) -> MaterialModel:
    return material_from_dict(_load_yaml(path), context=str(path))


def load_trajectory(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read (times, positions, velocities) from a trajectory CSV.

    Rows are ``t,x,y,z`` or ``t,x,y,z,vx,vy,vz``; when velocity columns are
    absent they are computed by finite differences over t (central in the
    interior, one-sided at the ends).
    """
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ConfigError(f"{path}: empty trajectory")
    header = [cell.strip().lower() for cell in rows[0]]
    if header[:4] != ["t", "x", "y", "z"]:
        raise ConfigError(f"{path}: header must start with t,x,y,z, got {rows[0]}")
    has_velocity = header[4:7] == ["vx", "vy", "vz"]
    expected = 7 if has_velocity else 4
    data = []
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != expected:
            raise ConfigError(f"{path}: line {k}: expected {expected} columns, got {len(row)}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ConfigError(f"{path}: line {k}: {exc}") from exc
    if not data:
        raise ConfigError(f"{path}: no data rows")
    table = np.array(data)
    if not np.all(np.isfinite(table)):
        raise ConfigError(f"{path}: trajectory contains non-finite values")
    times = table[:, 0]
    positions = table[:, 1:4]
    if has_velocity:
        velocities = table[:, 4:7]
    elif len(times) == 1:
        velocities = np.zeros((1, 3))
    else:
        if np.any(np.diff(times) <= 0):
            raise ConfigError(f"{path}: times must be strictly increasing to difference velocities")
        velocities = np.gradient(positions, times, axis=0)
    return times, positions, velocities
