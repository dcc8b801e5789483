"""Command-line interface: solve, validate, workspace, material.

Exit codes: 0 success (for ``solve``: an exact solution), 1 usage,
configuration or geometry errors, 2 nearest-feasible solve, 3 iteration
cap hit.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from ._fields import vec3
from .config import load_layout, load_material, load_trajectory
from .errors import CableHapticsError, DegenerateGeometry
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


def _split3(text: str, convert, form: str, what: str) -> list:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected '{form}', got {text!r}")
    try:
        return [convert(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}: {exc}") from exc


def _parse_vec3(text: str) -> list[float]:
    return _split3(text, float, "x,y,z", "vector")


def _parse_grid_res(text: str) -> tuple[int, int, int]:
    res = tuple(_split3(text, int, "nx,ny,nz", "resolution"))
    if any(r < 1 for r in res):
        raise argparse.ArgumentTypeError("resolution must be >= 1 per axis")
    return res  # type: ignore[return-value]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cablehaptics",
        description="Bounded-tension force distribution for cable-driven haptics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, run, help: str, *, ee: bool = False, out: bool = True):
        """Register subcommand name with handler run, with --ee and --out
        only where the handler reads them; return its add_argument."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--layout", help="layout YAML; defaults to the built-in four-module bench layout")
        if ee:
            p.add_argument(
                "--ee",
                type=_parse_vec3,
                help="end-effector position 'x,y,z' (default: 0,0,0.3 with the built-in layout)",
            )
        if out:
            p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument(
            "--max-iterations",
            type=int,
            default=SolverConfig.max_iterations,
            help="cap on the solver's active-set iterations per solve (default: %(default)s)",
        )
        p.add_argument(
            "--tolerance",
            type=float,
            default=SolverConfig.tolerance,
            help="force residual in newtons within which a solve counts as exact "
            "(default: %(default)s)",
        )
        return p.add_argument

    add = add_command("solve", cmd_solve, "tensions for one desired force", ee=True, out=False)
    add("--force", type=_parse_vec3, required=True, help="'fx,fy,fz' in newtons")

    add = add_command("validate", cmd_validate, "run the force-sphere protocol", ee=True)
    add("--plant", choices=("ideal", "noisy"), default="ideal")
    add("--samples", type=int, default=ValidationProtocol.sample_count, help="force vectors on the sphere")
    add("--radius", type=float, default=ValidationProtocol.sphere_radius, help="sphere radius in newtons")
    add(
        "--ticks",
        type=int,
        default=ValidationProtocol.samples_per_hold,
        help="measurements averaged per hold",
    )
    add("--seed", type=int, default=NoisyPlant.seed, help="noisy-plant RNG seed")
    add("--noise-std", type=float, default=NoisyPlant.force_noise_std, help="force noise std (N)")
    add(
        "--frame-rot-z",
        type=float,
        default=NoisyPlant.frame_rotation_z,
        help="sensor frame Z rotation (rad)",
    )
    add("--tension-bias", type=float, default=NoisyPlant.tension_bias, help="per-cable bias (N)")

    add = add_command("workspace", cmd_workspace, "map wrench-feasible fractions over a grid")
    add("--grid-min", type=_parse_vec3, required=True)
    add("--grid-max", type=_parse_vec3, required=True)
    add("--grid-res", type=_parse_grid_res, required=True)

    add = add_command("material", cmd_material, "render a material along a trajectory")
    add("--material", required=True, help="material YAML")
    add("--trajectory", required=True, help="trajectory CSV (t,x,y,z[,vx,vy,vz])")

    return parser


def _layout(args: argparse.Namespace) -> tuple[ModuleLayout, np.ndarray]:
    """The --layout file and the origin, or else the built-in bench layout
    and the bench's end effector."""
    if args.layout is None:
        return default_validation_layout()
    return load_layout(args.layout), np.zeros(3)


def _layout_and_ee(args: argparse.Namespace) -> tuple[ModuleLayout, np.ndarray | list[float]]:
    """_layout(args), with --ee in place of its end effector when given."""
    layout, ee = _layout(args)
    return layout, ee if args.ee is None else args.ee


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(max_iterations=args.max_iterations, tolerance=args.tolerance)


def cmd_solve(args: argparse.Namespace) -> int:
    layout, ee = _layout_and_ee(args)
    A = structure_matrix(layout, ee)
    result = solve(A, args.force, layout.bounds, _solver_config(args))
    payload = {
        "status": result.status.value,
        "tensions": [float(t) for t in result.tensions],
        "rendered_force": [float(v) for v in result.rendered_force],
        "force_residual": result.force_residual,
        "iterations": result.iterations,
    }
    # a force or bound of 1e100 N or more was refused above, so the residual
    # is finite; allow_nan=False keeps the output strict JSON regardless
    print(json.dumps(payload, indent=2, allow_nan=False))
    return STATUS_EXIT_CODES[result.status]


def cmd_validate(args: argparse.Namespace) -> int:
    layout, ee = _layout_and_ee(args)
    solver_config = _solver_config(args)
    if args.plant == "noisy":
        plant: PlantModel = NoisyPlant(
            force_noise_std=args.noise_std,
            frame_rotation_z=args.frame_rot_z,
            tension_bias=args.tension_bias,
            seed=args.seed,
        )
    else:
        plant = IdealPlant()
    protocol = ValidationProtocol(
        sphere_radius=args.radius, sample_count=args.samples, samples_per_hold=args.ticks
    )
    report = run_validation(layout, ee, protocol, plant, solver_config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "validation.csv"
    json_path = out_dir / "validation_summary.json"
    write_report_csv(report, csv_path)
    summary = report_summary(report, protocol, plant, layout, ee)
    write_report_json(summary, json_path)
    print(f"wrote {csv_path} and {json_path}")
    print(
        "fraction_within_45deg="
        f"{summary['aggregates']['fraction_within_45deg']:.4f} "
        f"mean_angle_error_deg={summary['aggregates']['mean_angle_error_deg']:.4f}"
    )
    return EXIT_OK


def cmd_workspace(args: argparse.Namespace) -> int:
    layout, _ = _layout(args)
    solver_config = _solver_config(args)
    grid_min, grid_max = vec3(args.grid_min, "--grid-min"), vec3(args.grid_max, "--grid-max")
    if np.any(grid_max < grid_min):
        raise CableHapticsError("grid max must be >= grid min on every axis")
    axes = [np.linspace(*axis).tolist() for axis in zip(grid_min, grid_max, args.grid_res)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "workspace.csv"
    probes = WORKSPACE_DIRECTIONS * WORKSPACE_PROBE_FORCE
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "z", "feasible_fraction"])
        for x, y, z in itertools.product(*axes):
            point = np.array([x, y, z])
            try:
                A = structure_matrix(layout, point)
            except CableHapticsError:
                # On/inside an anchor: no direction is renderable there.
                fraction = 0.0
            else:
                feasible = sum(is_wrench_feasible(A, f, layout.bounds, solver_config) for f in probes)
                fraction = feasible / len(probes)
            writer.writerow([x, y, z, fraction])
    print(f"wrote {path}")
    return EXIT_OK


def cmd_material(args: argparse.Namespace) -> int:
    layout, _ = _layout(args)
    solver_config = _solver_config(args)
    material = load_material(args.material)
    times, positions, velocities = load_trajectory(args.trajectory)
    # every row is solved before anything is written, so a row that fails
    # (a position, velocity, time or material force of 1e100 or more, or an
    # end effector on an anchor) leaves no partial material.csv
    rows = []
    for k, (t, pos, vel) in enumerate(zip(times, positions, velocities), start=1):
        try:
            state = EndEffectorState(position=pos, velocity=vel, time=t)
            force = evaluate(material, state)
            A = structure_matrix(layout, pos)
            result = solve(A, force, layout.bounds, solver_config)
        except (DegenerateGeometry, ValueError) as exc:
            raise type(exc)(f"{args.trajectory}: row {k} (t={float(t)}): {exc}") from exc
        rows.append([float(t)] + pos.tolist() + force.tolist() + result.tensions.tolist())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "material.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["t", "px", "py", "pz", "fx", "fy", "fz"]
            + [f"tension_{k}" for k in range(len(layout))]
        )
        writer.writerows(rows)
    print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, solve's nearest-feasible code,
        # and 0 after --help
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.run(args)
    # OverflowError: a number beyond the float range, such as a --ticks
    # count above 1.8e308 for the noisy plant
    except (CableHapticsError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
