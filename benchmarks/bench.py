"""cablehaptics benchmark: one workload, timed, checked, optionally traced.

Run from the repository root::

    python3 benchmarks/bench.py --workload validate --seed 1 --seconds 30 --trace 0

``haptic_loop`` runs too but is not declared in BENCHMARK.json: with the
current solver some seeds stop a solve at the iteration cap, and the run
exits 1 (see README.md).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics derived from
the spans. Either way the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it give every metric with its unit and sample count, the environment, and
any failed check. The exit code is 0 when every output check passes, 1 when
one fails and 2 when the package cannot be imported from ``src/``.

The benchmark imports the package from the ``src/`` directory next to this
one, pins BLAS to one thread in its own process, and writes only under
``.bench_out/`` at the repository root: its generated inputs and the CLI's
outputs (removed at exit), a result JSON per run, and the spans of a traced
run.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

if __name__ == "__main__":
    # Before numpy loads, so its BLAS starts with one thread.
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = "1"

import argparse
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

SETUP_REPEATS = 5
ORACLE_SAMPLES = 4  # per solve status, feasible_exact and nearest_feasible
ORACLE_TOL = 1e-5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "tick_p50_us": "us",
    "tick_p99_us": "us",
    "peak_rss_mb": "MB",
}


class ImportFailure(RuntimeError):
    """The package (or the repository around the benchmark) is missing."""


def import_package() -> None:
    """Import cablehaptics from ``src/`` next to the benchmark, nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    try:
        import cablehaptics
        from cablehaptics import cli  # noqa: F401
    except ImportError as exc:
        raise ImportFailure(f"cannot import cablehaptics from {SRC}: {exc}") from exc
    if not Path(cablehaptics.__file__).resolve().is_relative_to(SRC):
        raise ImportFailure(f"cablehaptics came from {cablehaptics.__file__}, not {SRC}")
    if not (ROOT / "tests" / "qp_oracle.py").is_file():
        raise ImportFailure(f"no QP oracle at {ROOT / 'tests' / 'qp_oracle.py'}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("validate", "haptic_loop", "workspace_map")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to run passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    import yaml

    sha, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
            ).stdout.strip()

        try:
            sha = git("rev-parse", "HEAD") or None
            dirty = bool(git("status", "--porcelain"))
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def load_inputs(workload: str, directory: Path) -> tuple:
    """Set-up's share of the program's work: read the generated inputs the
    workload needs through ``cablehaptics.config``. Returns (layout,
    material, trajectory), None where the workload does not use one."""
    from cablehaptics import config

    layout = config.load_layout(directory / "layout.yaml")
    if workload != "haptic_loop":
        return layout, None, None
    return (
        layout,
        config.load_material(directory / "material.yaml"),
        config.load_trajectory(directory / "trajectory.csv"),
    )


def build(args, inputs, log, tracer=None):
    """Set-up in this process: load the inputs and construct the workload."""
    import workloads
    from spans import rebound

    cls = workloads.WORKLOADS[args.workload]
    directory = inputs.layout.parent
    if tracer is None:
        return cls(inputs, log, load_inputs(args.workload, directory))
    with rebound(log, tracer), tracer.span("bench.setup"):
        return cls(inputs, log, load_inputs(args.workload, directory))


def setup_probe(args) -> None:
    """Child process: import the package, load the inputs, print the
    monotonic clock, exit."""
    import_package()
    load_inputs(args.workload, Path(args.inputs))
    print(repr(time.monotonic()))


def measure_setup(args, inputs_dir: Path, repeats: int, clock) -> tuple[list[float], list[float]]:
    """Seconds from process start to the end of set-up, in fresh processes
    that import the package and load the inputs already generated in
    ``inputs_dir``.

    Returns (raw, scaled by the reference clock read around each process).
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
            "--inputs", str(inputs_dir)]
    raw, scaled = [], []
    for _ in range(repeats):
        before = clock.sample()
        t0 = time.monotonic()
        child = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        raw.append(float(child.stdout.strip().splitlines()[-1]) - t0)
        scaled.append(raw[-1] * clock.factor(before, clock.sample()))
    return raw, scaled


def oracle_check(records, seed: int) -> tuple[int, list[str]]:
    """Compare a seeded sample of solves with the exact QP oracle in tests/.

    Where the oracle finds a box point that renders f exactly, the solve's
    tensions must match it within ORACLE_TOL, whatever its status. Where it
    finds none, the solve must not claim ``feasible_exact``. Returns
    (solves checked, problems).
    """
    from cablehaptics.solver import SolveStatus
    from workloads import bound_arrays

    path = ROOT / "tests" / "qp_oracle.py"
    spec = importlib.util.spec_from_file_location("bench_qp_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)

    rng = np.random.default_rng([seed, 0x0AC1E])
    problems = []
    checked = 0
    for status in (SolveStatus.FEASIBLE_EXACT, SolveStatus.NEAREST_FEASIBLE):
        pool = [r for r in records if r[4].status is status]
        picks = rng.choice(len(pool), size=min(ORACLE_SAMPLES, len(pool)), replace=False)
        for k in sorted(picks):
            A, f, bounds, cfg, result = pool[k]
            M = np.asarray(getattr(A, "columns", A))
            lo, hi = bound_arrays(bounds, M.shape[1])
            start = lo if cfg is None or cfg.start is None else cfg.start
            expected = oracle.min_shift_qp(M, np.asarray(f, dtype=float), lo, hi, start)
            checked += 1
            force = np.round(f, 9).tolist()
            if expected is None:
                if status is SolveStatus.FEASIBLE_EXACT:
                    problems.append(f"oracle finds no exact solution for f={force}")
            elif np.max(np.abs(result.tensions - expected)) > ORACLE_TOL:
                gap = np.max(np.abs(result.tensions - expected))
                problems.append(
                    f"{status.value} solve differs from the oracle by {gap:.2e} for f={force}"
                )
    return checked, problems


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


def end_to_end_metrics(setup_times, walls, ticks_s, peak_rss_mb) -> tuple[dict, dict]:
    """(metrics, sample counts) for the untraced run."""
    ticks_us = np.asarray(ticks_s) * 1e6
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "tick_p50_us": _pct(ticks_us, 50),
        "tick_p99_us": _pct(ticks_us, 99),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "wall_s": f"median of {len(walls)} passes",
        "tick_p50_us": f"{len(ticks_us)} ticks",
        "tick_p99_us": f"{len(ticks_us)} ticks, {int(len(ticks_us) * 0.01)} beyond p99",
        "peak_rss_mb": "one process",
    }
    return {k: (values[k], END_TO_END_UNITS[k]) for k in values}, samples


@dataclass
class TimedPass:
    """One pass's result, its wall time scaled by the reference clock, and
    the scaled latencies of its ticks (untraced passes only)."""

    result: object
    traced: bool
    wall_s: float
    ticks_s: np.ndarray


def run_passes(args, workload, tracer, clock, work_dir: Path) -> tuple[list[TimedPass], list[str]]:
    """Passes for about ``--seconds``: no pass starts when the time left is
    shorter than the mean pass so far. A traced run alternates untraced and
    traced passes and has at least one of each.

    In an untraced run each pass is timed in slices with the reference
    kernels sampled between them (``speed.SliceTimer``). In a traced run
    every pass, traced or not, is scaled by samples taken just before and
    after it, so no sampling lands inside a span and both kinds of pass are
    measured the same way.
    """
    from speed import SliceTimer

    passes: list[TimedPass] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        out = work_dir / f"pass{len(passes)}"
        first_tick = len(workload.tick_latencies())
        try:
            if args.trace:
                before = clock.sample()
                result = workload.run_pass(out, tracer if traced else None)
                factor = clock.factor(before, clock.sample())
                passes.append(TimedPass(result, traced, result.wall_s * factor, np.zeros(0)))
            else:
                timer = SliceTimer(clock, lambda: len(workload.tick_latencies()))
                result = workload.run_pass(out, None, timer)
                raw_ticks = np.array(workload.tick_latencies()[first_tick:])
                ticks = raw_ticks * timer.tick_factors(first_tick)
                passes.append(TimedPass(result, False, timer.scaled_s, ticks))
        except Exception:
            return passes, [traceback.format_exc()]
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if args.trace else 1) and (
            args.seconds - elapsed < elapsed / len(passes)
        ):
            return passes, []


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    import gen_inputs
    import layers
    from spans import SolveLog, Tracer
    from speed import NOMINAL_S, ReferenceClock

    env = environment()
    clock = ReferenceClock()
    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    log = SolveLog()
    tracer = Tracer() if args.trace else None
    try:
        sizes = gen_inputs.TINY if args.tiny else gen_inputs.FULL
        inputs = gen_inputs.generate(args.workload, args.seed, work_dir / "inputs", sizes)
        raw_setup, setup_times = measure_setup(
            args, work_dir / "inputs", 1 if args.tiny else SETUP_REPEATS, clock
        )
        workload = build(args, inputs, log, tracer)
        workload.warm_up(work_dir / "warm")
        passes, problems = run_passes(args, workload, tracer, clock, work_dir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked, oracle_problems = oracle_check(workload.first_records or [], args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.result.attempted for p in passes) + checked
    failed = sum(p.result.failed for p in passes) + len(oracle_problems) + len(problems)
    for p in passes:
        problems += p.result.problems
    problems += oracle_problems
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    untraced_walls = [p.wall_s for p in untraced]
    traced_walls = [p.wall_s for p in traced]
    factors = [p.wall_s / p.result.wall_s for p in passes]
    if args.trace:
        scale = statistics.median(p.wall_s / p.result.wall_s for p in traced)
        metrics = layers.per_layer_metrics(
            tracer, untraced_walls, traced_walls, scale, args.workload == "haptic_loop"
        )
        samples = {}
    else:
        ticks = np.concatenate([p.ticks_s for p in untraced])
        metrics, samples = end_to_end_metrics(setup_times, untraced_walls, ticks, peak_rss_mb)
    correct = failed == 0 and bool(passes)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_csv(OUT_ROOT / f"spans-{run_id}.csv")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "reference_kernel_nominal_s": NOMINAL_S,
        "passes": [
            {"traced": p.traced, "raw_wall_s": p.result.wall_s, "wall_s": p.wall_s}
            for p in passes
        ],
        "setup": {"raw_s": raw_setup, "scaled_s": setup_times},
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
    }
    (OUT_ROOT / f"result-{run_id}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"# cablehaptics benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# times are scaled to a core where the reference kernels take "
          f"{NOMINAL_S[0] * 1e3:.1f} and {NOMINAL_S[1] * 1e3:.1f} ms; "
          f"pass scale median {statistics.median(factors):.4f} "
          f"(min {min(factors):.4f}, max {max(factors):.4f}); "
          f"raw wall_s median {statistics.median(p.result.wall_s for p in untraced):.6f} s")
    if args.trace:
        print(f"# wall_s untraced {statistics.median(untraced_walls):.6f} s "
              f"({len(untraced_walls)} passes) | traced {statistics.median(traced_walls):.6f} s "
              f"({len(traced_walls)} passes)")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit:6s} {samples.get(name, '')}")
    print(f"{'failed_frac':34s} {failed / max(attempted, 1):>16.6g} {'ratio':6s} "
          f"{failed} of {attempted} operations")
    for problem in problems[:20]:
        print(f"# FAILED: {problem.strip()}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
