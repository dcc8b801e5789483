"""Seeded input generator for the benchmark workloads.

Each workload gets a layout YAML, a material YAML and a trajectory CSV in a
directory of its own. The seed decides every generated value; the program
under test only ever sees the files.

* ``validate`` and ``workspace_map`` use the four-module bench layout with
  its anchors listed in a seeded order. Relabelling cables leaves the
  tension problem unchanged, so every seed does the same amount of solver
  work, while the files (and the order the solver sees columns in) differ.
* ``haptic_loop`` uses an eight-cable cube-corner layout on the documented
  0.5-6.0 N box (anchors in a seeded order), the README composite material
  and a seeded 1 kHz trajectory that moves through free space and presses
  into the material's wall at seeded sites and depths.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from cablehaptics.config import save_layout
from cablehaptics.geometry import ModuleAnchor, ModuleLayout
from cablehaptics.simulation import default_validation_layout
from cablehaptics.solver import TensionBounds

# README workspace bounding box.
WORKSPACE_GRID_MIN = (-1.0, -1.0, 0.1)
WORKSPACE_GRID_MAX = (1.0, 1.0, 1.5)

# README noisy plant.
NOISY_PLANT = {"noise_std": 0.3, "frame_rot_z": 0.087, "tension_bias": 0.1}

# Haptic loop: 1 kHz ticks on the documented module box (0.5-6.0 N) and the
# README composite material, whose spring wall is the plane y = 0 facing +y.
TICK_DT = 1e-3
CUBE_BOUNDS = TensionBounds(0.5, 6.0)
HAPTIC_MATERIAL = {
    "type": "composite",
    "children": [
        {"type": "magnetic", "target": [0.0, 0.0, 0.5], "gain": 3.0, "max_force": 6.0},
        {"type": "damper", "coefficient": 2.0},
        {"type": "spring", "surface_point": [0, 0, 0], "normal": [0, 1, 0], "stiffness": 400.0},
        {
            "type": "friction",
            "coefficient": 1.5,
            "max_force": 2.0,
            "tangent_plane_normal": [0, 1, 0],
        },
        {"type": "vibration", "amplitude": 0.5, "frequency": 100.0, "direction": [0, 0, 1]},
    ],
}
WALL_NORMAL = np.array([0.0, 1.0, 0.0])
# The site region is cut into a SITE_GRID of equal cells, and the trajectory
# presses at one seeded site in each cell, visiting the cells row by row in
# alternating directions, so every seed covers the whole region. At each
# site it makes one seeded excursion in free space in front of the wall,
# returns to just in front of the site, then taps the wall TAPS times
# (press, hold, withdraw along the wall normal). The tap depths are
# stratified the same way: one seeded depth in each of TAPS equal slices of
# TAP_DEPTH, in a seeded order. Every move has a fixed length in ticks, so
# every seed gives the same tick count.
SITE_X = (-0.5, 0.5)  # metres; the cube spans -1..1 in x and 0..2 in z
SITE_Z = (0.5, 1.5)
SITE_GRID = (4, 4)  # cells along x and z
TAP_DEPTH = (0.01, 0.05)  # metres past the wall surface: 4 to 20 N of spring
TAPS = 4
TRANSIT_TICKS = 300
EXCURSION = 0.05  # metres per axis around a site
EXCURSION_TICKS = 100
PRESS_TICKS = 60
HOLD_TICKS = 60
WALL_CLEARANCE = 0.03  # metres in front of the wall where presses start


@dataclass(frozen=True)
class Sizes:
    """How much work one pass of each workload does."""

    validate_samples: int = 182
    validate_ticks: int = 1000
    workspace_res: tuple[int, int, int] = (5, 5, 4)
    haptic_sites: int = SITE_GRID[0] * SITE_GRID[1]
    haptic_ticks: int | None = None  # cut the trajectory short


FULL = Sizes()
TINY = Sizes(
    validate_samples=8, validate_ticks=20, workspace_res=(2, 2, 2), haptic_sites=1, haptic_ticks=600
)


@dataclass(frozen=True)
class Inputs:
    """Paths of the generated files plus the values passed as CLI flags."""

    layout: Path
    material: Path
    trajectory: Path
    ee: tuple[float, float, float]
    plant_seed: int
    sizes: Sizes


def _shuffled(anchors, rng) -> tuple[ModuleAnchor, ...]:
    return tuple(anchors[k] for k in rng.permutation(len(anchors)))


def cube_layout() -> ModuleLayout:
    """Eight modules on the corners of a 2 m x 2 m x 2 m frame."""
    corners = [(x, y, z) for z in (0.0, 2.0) for y in (-1.0, 1.0) for x in (-1.0, 1.0)]
    anchors = tuple(ModuleAnchor(f"c{k + 1}", np.array(c)) for k, c in enumerate(corners))
    return ModuleLayout(anchors, CUBE_BOUNDS)


def _ease(a: np.ndarray, b: np.ndarray, ticks: int) -> list[np.ndarray]:
    """Cosine-eased move from rest at a to rest at b, ending at b."""
    s = (1.0 - np.cos(np.pi * np.arange(1, ticks + 1) / ticks)) / 2.0
    return list(a + (b - a) * s[:, None])


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One seeded value in each of n equal slices of [lo, hi], in order."""
    return lo + (np.arange(n) + rng.uniform(size=n)) * (hi - lo) / n


def press_sites(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """The first ``count`` sites of the tour: one seeded site per grid cell,
    row by row, every other row right to left."""
    nx, nz = SITE_GRID
    width = (SITE_X[1] - SITE_X[0]) / nx
    height = (SITE_Z[1] - SITE_Z[0]) / nz
    sites = []
    for row in range(nz):
        for col in range(nx) if row % 2 == 0 else reversed(range(nx)):
            x = SITE_X[0] + (col + rng.uniform()) * width
            z = SITE_Z[0] + (row + rng.uniform()) * height
            sites.append(np.array([x, 0.0, z]))
    return sites[:count]


def haptic_trajectory(rng: np.random.Generator, sites: int) -> np.ndarray:
    """(ticks, 3) positions: excursions in free space and wall presses."""
    tour = press_sites(rng, sites)
    pos = np.array([0.0, 0.2, 1.0])  # frame centre, in front of the wall
    path: list[np.ndarray] = []
    for site in tour:
        outside = site + WALL_CLEARANCE * WALL_NORMAL
        path += _ease(pos, outside, TRANSIT_TICKS)
        target = outside + rng.uniform(-EXCURSION, EXCURSION, 3)
        target[1] = outside[1] + abs(target[1] - outside[1])
        path += _ease(outside, target, EXCURSION_TICKS)
        path += _ease(target, outside, EXCURSION_TICKS)
        pos = outside
        for depth in rng.permutation(_stratified(rng, *TAP_DEPTH, TAPS)):
            press = site - depth * WALL_NORMAL
            path += _ease(outside, press, PRESS_TICKS)
            path += [press] * HOLD_TICKS
            path += _ease(press, outside, PRESS_TICKS)
    return np.array(path)


def generate(workload: str, seed: int, directory: Path, sizes: Sizes = FULL) -> Inputs:
    """Write the workload's input files for ``seed`` into ``directory``."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    directory.mkdir(parents=True, exist_ok=True)
    layout_path = directory / "layout.yaml"
    material_path = directory / "material.yaml"
    trajectory_path = directory / "trajectory.csv"
    if workload == "haptic_loop":
        base = cube_layout()
        ee = (0.0, 0.0, 1.0)
    else:
        base, ee_arr = default_validation_layout()
        ee = tuple(float(v) for v in ee_arr)
    save_layout(ModuleLayout(_shuffled(base.anchors, rng), base.bounds), layout_path)
    with open(material_path, "w") as handle:
        yaml.safe_dump(HAPTIC_MATERIAL, handle, sort_keys=False)
    positions = haptic_trajectory(rng, sizes.haptic_sites)[: sizes.haptic_ticks]
    with open(trajectory_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "x", "y", "z"])
        for k, p in enumerate(positions):
            writer.writerow([repr(k * TICK_DT)] + [repr(float(v)) for v in p])
    return Inputs(
        layout=layout_path,
        material=material_path,
        trajectory=trajectory_path,
        ee=ee,  # type: ignore[arg-type]
        plant_seed=int(rng.integers(0, 2**31 - 1)),
        sizes=sizes,
    )
