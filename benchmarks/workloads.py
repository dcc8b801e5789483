"""The three benchmark workloads and the checks on their outputs.

Every workload runs in passes. A pass is the unit ``wall_s`` times; the
operations inside it (solves or control ticks) are the unit the tick
latencies and ``attempted`` / ``failed`` count. Checks run after each pass,
outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from cablehaptics import actuation, cli, geometry, haptics, simulation, solver
from cablehaptics.errors import CableHapticsError
from cablehaptics.haptics import EndEffectorState
from cablehaptics.solver import SolverConfig, SolveStatus, TensionBounds

import gen_inputs
from spans import SolveLog, rebound


@dataclass
class PassResult:
    """What one pass did: wall time, operations, failures and their reasons."""

    wall_s: float
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def bound_arrays(bounds, m: int) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(bounds, TensionBounds):
        return np.full(m, bounds.t_min), np.full(m, bounds.t_max)
    return np.array([b.t_min for b in bounds]), np.array([b.t_max for b in bounds])


def check_solve(record) -> str | None:
    """The solver's output contract for one call; None when it holds."""
    A, f, bounds, cfg, result = record
    M = np.asarray(getattr(A, "columns", A))
    tol = (cfg or SolverConfig()).tolerance
    t = np.asarray(result.tensions)
    lo, hi = bound_arrays(bounds, M.shape[1])
    if result.status is SolveStatus.ITERATION_CAP:
        return f"iteration cap after {result.iterations} sweeps"
    if np.any(t < lo) or np.any(t > hi):
        return "tensions outside the box"
    if not np.allclose(result.rendered_force, M @ t, rtol=0.0, atol=1e-9):
        return "rendered_force differs from A @ tensions"
    residual = float(np.linalg.norm(M @ t - np.asarray(f, dtype=float)))
    if result.status is SolveStatus.FEASIBLE_EXACT and (
        result.force_residual > tol or residual > tol * (1 + 1e-6)
    ):
        return f"feasible_exact with residual {residual:.3e} > {tol:.1e}"
    return None


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class Workload:
    """Common pass bookkeeping; subclasses implement ``_run`` and ``_check``.

    ``loaded`` is what set-up read through ``cablehaptics.config``: the
    layout, the material and the trajectory (None where unused).
    """

    name = ""
    # Whether the slice timer may close a slice after any solve; a workload
    # whose ticks hold more than a solve closes slices between ticks itself.
    CHECKPOINT_PER_SOLVE = True

    def __init__(self, inputs: gen_inputs.Inputs, log: SolveLog, loaded: tuple):
        self.inputs = inputs
        self.log = log
        self.layout = loaded[0]
        self.first_records: list[tuple] | None = None
        self._digest: str | None = None

    def run_pass(self, out_dir: Path, tracer=None, timer=None) -> PassResult:
        """One timed pass, then its checks.

        With a ``timer`` (untraced passes only), the timer's checkpoint runs
        between operations and the wall time excludes the timer's own
        sampling.
        """
        self.log.take()
        if timer is not None and self.CHECKPOINT_PER_SOLVE:
            self.log.checkpoint = timer.checkpoint
        try:
            with rebound(self.log, tracer):
                t0 = perf_counter()
                if tracer is not None:
                    with tracer.span("bench.pass"):
                        attempted, errors = self._run(out_dir, tracer, None)
                else:
                    attempted, errors = self._run(out_dir, None, timer)
                wall = perf_counter() - t0
                if timer is not None:
                    timer.stop()
                    wall = timer.raw_s
        finally:
            self.log.checkpoint = None
        result = PassResult(wall_s=wall, attempted=attempted)
        for message in errors:
            result.fail(message)
        records = self.log.take()
        if self.first_records is None:
            self.first_records = records
        for record in records:
            problem = check_solve(record)
            if problem is not None:
                result.fail(problem)
        self._check(out_dir, records, result)
        return result

    def _same_as_first_pass(self, digest: str, result: PassResult) -> None:
        if self._digest is None:
            self._digest = digest
        elif digest != self._digest:
            result.fail("outputs differ from the first pass with the same inputs")

    def _main(self, argv: list[str], tracer, written: list[Path] = ()) -> int:
        """``cablehaptics.cli.main`` with its stdout captured.

        When traced, the ``cli.main`` span's value is the bytes the command
        itself printed or wrote (``written``).
        """
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            if tracer is None:
                return cli.main(argv)
            with tracer.span("cli.main") as idx:
                code = cli.main(argv)
        tracer.value[idx] = len(buffer.getvalue().encode()) + sum(
            p.stat().st_size for p in written
        )
        return code

    def _run(self, out_dir: Path, tracer, timer) -> tuple[int, list[str]]:
        raise NotImplementedError

    def _check(self, out_dir: Path, records, result: PassResult) -> None:
        raise NotImplementedError

    def warm_up(self, out_dir: Path) -> None:
        """Untimed run of a small instance, so lazy imports and caches fill."""

    def tick_latencies(self) -> array:
        return self.log.latency_s


class Validate(Workload):
    """``cablehaptics validate`` with the ideal plant, then the noisy one."""

    name = "validate"

    def _argv(self, out: Path, plant: str, samples: int, ticks: int) -> list[str]:
        x, y, z = self.inputs.ee
        argv = [
            "validate",
            "--layout", str(self.inputs.layout),
            f"--ee={x!r},{y!r},{z!r}",
            "--samples", str(samples),
            "--ticks", str(ticks),
            "--out", str(out),
        ]
        if plant == "noisy":
            noisy = gen_inputs.NOISY_PLANT
            argv += [
                "--plant", "noisy",
                "--seed", str(self.inputs.plant_seed),
                "--noise-std", repr(noisy["noise_std"]),
                "--frame-rot-z", repr(noisy["frame_rot_z"]),
                "--tension-bias", repr(noisy["tension_bias"]),
            ]
        return argv

    def warm_up(self, out_dir: Path) -> None:
        for plant in ("ideal", "noisy"):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(self._argv(out_dir / f"warm_{plant}", plant, 2, 10))

    def _run(self, out_dir, tracer, timer):
        sizes = self.inputs.sizes
        errors = []
        for plant in ("ideal", "noisy"):
            argv = self._argv(out_dir / plant, plant, sizes.validate_samples, sizes.validate_ticks)
            code = self._main(argv, tracer)
            if code != 0:
                errors.append(f"validate --plant {plant} exited {code}")
        return 2 * sizes.validate_samples, errors

    def _check(self, out_dir, records, result):
        n = self.inputs.sizes.validate_samples
        if len(records) != 2 * n:
            result.fail(f"expected {2 * n} solves, saw {len(records)}")
        files = []
        for plant in ("ideal", "noisy"):
            csv_path = out_dir / plant / "validation.csv"
            json_path = out_dir / plant / "validation_summary.json"
            files += [csv_path, json_path]
            with open(csv_path, newline="") as handle:
                rows = list(csv.reader(handle))
            if tuple(rows[0]) != simulation.VALIDATION_CSV_HEADER or len(rows) != n + 1:
                result.fail(f"{plant} validation.csv has a bad header or {len(rows) - 1} rows")
            aggregates = json.loads(json_path.read_text())["aggregates"]
            if plant == "ideal" and not (
                aggregates["fraction_within_45deg"] == 1.0
                and aggregates["feasible_count"] == aggregates["sample_count"] == n
            ):
                result.fail(
                    "ideal run: fraction_within_45deg "
                    f"{aggregates['fraction_within_45deg']}, "
                    f"{aggregates['feasible_count']} of {n} feasible"
                )
        self._same_as_first_pass(_digest(*files), result)


class WorkspaceMap(Workload):
    """``cablehaptics workspace`` over the README box at a coarse resolution."""

    name = "workspace_map"

    def _argv(self, out: Path, res) -> list[str]:
        def vec(v):
            return ",".join(repr(float(c)) for c in v)

        return [
            "workspace",
            "--layout", str(self.inputs.layout),
            f"--grid-min={vec(gen_inputs.WORKSPACE_GRID_MIN)}",
            f"--grid-max={vec(gen_inputs.WORKSPACE_GRID_MAX)}",
            "--grid-res", ",".join(str(r) for r in res),
            "--out", str(out),
        ]

    def warm_up(self, out_dir: Path) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self._argv(out_dir / "warm", (1, 1, 1)))

    def _run(self, out_dir, tracer, timer):
        argv = self._argv(out_dir, self.inputs.sizes.workspace_res)
        code = self._main(argv, tracer, written=[out_dir / "workspace.csv"])
        errors = [] if code == 0 else [f"workspace exited {code}"]
        nx, ny, nz = self.inputs.sizes.workspace_res
        return nx * ny * nz * len(cli.WORKSPACE_DIRECTIONS), errors

    def _check(self, out_dir, records, result):
        """Each row's fraction must follow from the probes' own residuals."""
        path = out_dir / "workspace.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        lo = np.array(gen_inputs.WORKSPACE_GRID_MIN)
        hi = np.array(gen_inputs.WORKSPACE_GRID_MAX)
        res = self.inputs.sizes.workspace_res
        axes = [np.linspace(lo[k], hi[k], res[k]) for k in range(3)]
        points = list(itertools.product(*axes))
        if len(rows) != len(points):
            result.fail(f"workspace.csv has {len(rows)} rows for {len(points)} points")
            return
        probes = len(cli.WORKSPACE_DIRECTIONS)
        cursor = 0
        for row, point in zip(rows, points):
            try:
                geometry.structure_matrix(self.layout, np.array(point))
            except CableHapticsError:
                expected = 0.0
            else:
                batch = records[cursor : cursor + probes]
                cursor += probes
                feasible = sum(
                    r[4].force_residual <= solver.WRENCH_FEASIBLE_RESIDUAL for r in batch
                )
                expected = feasible / probes
            if float(row[3]) != expected:
                result.fail(f"point {point}: fraction {row[3]} != {expected}")
        if cursor != len(records):
            result.fail(f"{len(records)} solves for {cursor} probes")
        self._same_as_first_pass(_digest(path), result)


class HapticLoop(Workload):
    """Closed-loop 1 kHz control, one client: each tick starts when the last
    one ends. A tick is state -> material force -> structure matrix ->
    tensions -> one actuator command per cable."""

    name = "haptic_loop"
    CHECKPOINT_PER_SOLVE = False

    def __init__(self, inputs, log, loaded):
        super().__init__(inputs, log, loaded)
        _, self.material, (self.times, self.positions, self.velocities) = loaded
        self.tick_latency_s = array("d")
        self._commands: list[tuple] = []

    def _tick(self, t, pos, vel):
        state = EndEffectorState(position=pos, velocity=vel, time=t)
        force = haptics.evaluate(self.material, state)
        A = geometry.structure_matrix(self.layout, pos)
        result = solver.solve(A, force, self.layout.bounds)
        # A cable pays out when the end effector moves away from its anchor.
        paying_out = (A.columns.T @ vel) < 0.0
        return [
            actuation.command_for_tension(float(tension), bool(out))
            for tension, out in zip(result.tensions, paying_out)
        ]

    def warm_up(self, out_dir: Path) -> None:
        for t, pos, vel in zip(self.times[:20], self.positions[:20], self.velocities[:20]):
            self._tick(float(t), pos, vel)

    def tick_latencies(self) -> array:
        return self.tick_latency_s

    def _run(self, out_dir, tracer, timer):
        latency = self.tick_latency_s
        errors = []
        commands = []
        tick = self._tick
        for t, pos, vel in zip(self.times.tolist(), self.positions, self.velocities):
            try:
                if tracer is None:
                    t0 = perf_counter()
                    cmds = tick(t, pos, vel)
                    latency.append(perf_counter() - t0)
                    if timer is not None:
                        timer.checkpoint()
                else:
                    with tracer.span("bench.tick"):
                        cmds = tick(t, pos, vel)
            except (CableHapticsError, ValueError) as exc:
                errors.append(f"tick at t={t}: {exc!r}")
                continue
            commands.append(cmds)
        self._commands = commands
        return len(self.times), errors

    def _check(self, out_dir, records, result):
        m = len(self.layout)
        if len(records) != len(self._commands):
            result.fail(f"{len(records)} solves for {len(self._commands)} ticks")
        params = actuation.ActuatorParams()
        for record, cmds in zip(records, self._commands):
            tensions = record[4].tensions
            if len(cmds) != m:
                result.fail(f"{len(cmds)} commands for {m} cables")
            for tension, cmd in zip(tensions, cmds):
                if cmd.brake_engaged and tension <= params.motor_max_force:
                    result.fail(f"brake engaged for {tension} N, within the motor's range")
                expected = max(tension, params.min_taut_force) / params.force_per_amp
                if tension <= params.motor_max_force and abs(cmd.motor_current - expected) > 1e-12:
                    result.fail(f"motor current {cmd.motor_current} A for {tension} N")
                if cmd.motor_current > params.motor_max_force / params.force_per_amp:
                    result.fail(f"motor current {cmd.motor_current} A above the cap")
        digest = hashlib.sha256(
            b"".join(np.asarray(r[4].tensions).tobytes() for r in records)
        ).hexdigest()
        self._same_as_first_pass(digest, result)


WORKLOADS = {cls.name: cls for cls in (Validate, HapticLoop, WorkspaceMap)}
