"""Command-line interface: solve, validate, workspace, material.

Exit codes: 0 success (for ``solve``: an exact solution), 1 configuration
or geometry errors, 2 nearest-feasible solve, 3 iteration cap hit.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import load_layout, load_material, load_trajectory
from .errors import CableHapticsError
from .geometry import ModuleLayout, structure_matrix
from .haptics import EndEffectorState, evaluate
from .simulation import (
    IdealPlant,
    NoisyPlant,
    PlantModel,
    ValidationProtocol,
    default_validation_layout,
    report_summary,
    run_validation,
    write_report_csv,
    write_report_json,
)
from .solver import SolveStatus, SolverConfig, is_wrench_feasible, solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEAREST = 2
EXIT_ITERATION_CAP = 3

STATUS_EXIT_CODES = {
    SolveStatus.FEASIBLE_EXACT: EXIT_OK,
    SolveStatus.NEAREST_FEASIBLE: EXIT_NEAREST,
    SolveStatus.ITERATION_CAP: EXIT_ITERATION_CAP,
}

# Probe force (newtons) for workspace mapping: every nonzero direction on
# the 3 x 3 x 3 offset stencil, 26 in total.
WORKSPACE_PROBE_FORCE = 0.1
WORKSPACE_DIRECTIONS = np.array(
    [
        np.array(d) / np.linalg.norm(d)
        for d in itertools.product((-1.0, 0.0, 1.0), repeat=3)
        if any(d)
    ]
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, resolved from flags and config files."""

    layout: ModuleLayout
    ee: np.ndarray
    solver: SolverConfig
    protocol: ValidationProtocol
    plant: PlantModel
    out_dir: Path


def _parse_vec3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'x,y,z', got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}: {exc}") from exc


def _parse_grid_res(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'nx,ny,nz', got {text!r}")
    try:
        res = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad resolution {text!r}: {exc}") from exc
    if any(r < 1 for r in res):
        raise argparse.ArgumentTypeError("resolution must be >= 1 per axis")
    return res  # type: ignore[return-value]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cablehaptics",
        description="Bounded-tension force distribution for cable-driven haptics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--layout",
            help="layout YAML; defaults to the built-in four-module bench layout",
        )
        p.add_argument(
            "--ee",
            type=_parse_vec3,
            default=None,
            help="end-effector position 'x,y,z' (default: 0,0,0.3 with the built-in layout)",
        )
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument(
            "--max-iterations",
            type=int,
            default=50000,
            help="cap on the solver's active-set iterations per solve (default: 50000)",
        )
        p.add_argument("--tolerance", type=float, default=1e-8)

    p_solve = sub.add_parser("solve", help="tensions for one desired force")
    add_common(p_solve)
    p_solve.add_argument("--force", type=_parse_vec3, required=True, help="'fx,fy,fz' in newtons")

    p_validate = sub.add_parser("validate", help="run the force-sphere protocol")
    add_common(p_validate)
    p_validate.add_argument("--plant", choices=("ideal", "noisy"), default="ideal")
    p_validate.add_argument("--samples", type=int, default=182, help="force vectors on the sphere")
    p_validate.add_argument("--radius", type=float, default=1.5, help="sphere radius in newtons")
    p_validate.add_argument("--ticks", type=int, default=1000, help="measurements averaged per hold")
    p_validate.add_argument("--seed", type=int, default=42, help="noisy-plant RNG seed")
    p_validate.add_argument("--noise-std", type=float, default=0.0, help="force noise std (N)")
    p_validate.add_argument(
        "--frame-rot-z", type=float, default=0.0, help="sensor frame Z rotation (rad)"
    )
    p_validate.add_argument("--tension-bias", type=float, default=0.0, help="per-cable bias (N)")

    p_workspace = sub.add_parser("workspace", help="map wrench-feasible fractions over a grid")
    add_common(p_workspace)
    p_workspace.add_argument("--grid-min", type=_parse_vec3, required=True)
    p_workspace.add_argument("--grid-max", type=_parse_vec3, required=True)
    p_workspace.add_argument("--grid-res", type=_parse_grid_res, required=True)

    p_material = sub.add_parser("material", help="render a material along a trajectory")
    add_common(p_material)
    p_material.add_argument("--material", required=True, help="material YAML")
    p_material.add_argument("--trajectory", required=True, help="trajectory CSV (t,x,y,z[,vx,vy,vz])")

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    if args.layout is not None:
        layout = load_layout(args.layout)
        default_ee = np.zeros(3)
    else:
        layout, default_ee = default_validation_layout()
    ee = args.ee if args.ee is not None else default_ee
    solver = SolverConfig(max_iterations=args.max_iterations, tolerance=args.tolerance)
    if getattr(args, "plant", "ideal") == "noisy":
        plant: PlantModel = NoisyPlant(
            force_noise_std=args.noise_std,
            frame_rotation_z=args.frame_rot_z,
            tension_bias=args.tension_bias,
            seed=args.seed,
        )
    else:
        plant = IdealPlant()
    protocol = ValidationProtocol(
        sphere_radius=getattr(args, "radius", 1.5),
        sample_count=getattr(args, "samples", 182),
        samples_per_hold=getattr(args, "ticks", 1000),
    )
    return RunConfig(
        layout=layout,
        ee=ee,
        solver=solver,
        protocol=protocol,
        plant=plant,
        out_dir=Path(args.out),
    )


def cmd_solve(config: RunConfig, force: np.ndarray) -> int:
    A = structure_matrix(config.layout, config.ee)
    result = solve(A, force, config.layout.bounds, config.solver)
    payload = {
        "status": result.status.value,
        "tensions": [float(t) for t in result.tensions],
        "rendered_force": [float(v) for v in result.rendered_force],
        "force_residual": result.force_residual,
        "iterations": result.iterations,
    }
    print(json.dumps(payload, indent=2))
    return STATUS_EXIT_CODES[result.status]


def cmd_validate(config: RunConfig) -> int:
    report = run_validation(
        config.layout, config.ee, config.protocol, config.plant, config.solver
    )
    config.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = config.out_dir / "validation.csv"
    json_path = config.out_dir / "validation_summary.json"
    write_report_csv(report, csv_path)
    summary = report_summary(report, config.protocol, config.plant, config.layout, config.ee)
    write_report_json(summary, json_path)
    print(f"wrote {csv_path} and {json_path}")
    print(
        "fraction_within_45deg="
        f"{summary['aggregates']['fraction_within_45deg']:.4f} "
        f"mean_angle_error_deg={summary['aggregates']['mean_angle_error_deg']:.4f}"
    )
    return EXIT_OK


def cmd_workspace(config: RunConfig, grid_min, grid_max, grid_res) -> int:
    if np.any(grid_max < grid_min):
        raise CableHapticsError("grid max must be >= grid min on every axis")
    axes = [np.linspace(grid_min[k], grid_max[k], grid_res[k]) for k in range(3)]
    config.out_dir.mkdir(parents=True, exist_ok=True)
    path = config.out_dir / "workspace.csv"
    probes = WORKSPACE_DIRECTIONS * WORKSPACE_PROBE_FORCE
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "z", "feasible_fraction"])
        for x, y, z in itertools.product(*axes):
            point = np.array([x, y, z])
            try:
                A = structure_matrix(config.layout, point)
            except CableHapticsError:
                # On/inside an anchor: no direction is renderable there.
                fraction = 0.0
            else:
                feasible = sum(
                    is_wrench_feasible(A, f, config.layout.bounds, config.solver)
                    for f in probes
                )
                fraction = feasible / len(probes)
            writer.writerow(
                [repr(float(x)), repr(float(y)), repr(float(z)), repr(fraction)]
            )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_material(config: RunConfig, material_path, trajectory_path) -> int:
    material = load_material(material_path)
    times, positions, velocities = load_trajectory(trajectory_path)
    m = len(config.layout)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    path = config.out_dir / "material.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["t", "px", "py", "pz", "fx", "fy", "fz"]
            + [f"tension_{k}" for k in range(m)]
        )
        for t, pos, vel in zip(times, positions, velocities):
            state = EndEffectorState(position=pos, velocity=vel, time=float(t))
            force = evaluate(material, state)
            A = structure_matrix(config.layout, pos)
            result = solve(A, force, config.layout.bounds, config.solver)
            writer.writerow(
                [repr(float(t))]
                + [repr(float(v)) for v in pos]
                + [repr(float(v)) for v in force]
                + [repr(float(v)) for v in result.tensions]
            )
    print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "solve":
            return cmd_solve(config, args.force)
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "workspace":
            return cmd_workspace(config, args.grid_min, args.grid_max, args.grid_res)
        if args.command == "material":
            return cmd_material(config, args.material, args.trajectory)
        parser.error(f"unknown command {args.command!r}")
    except (CableHapticsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
