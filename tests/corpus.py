"""The solve corpus: every solve of a fixed set of runs, recorded to the last
bit, so that "bit-identical" is a claim anyone can re-run.

    PYTHONPATH=src python tests/corpus.py --out DIR
    PYTHONPATH=src python -X dev -W error::RuntimeWarning tests/corpus.py --out DIR
    PYTHONPATH=src python tests/corpus.py --out DIR --compare BASE

The first form solves the corpus with the cablehaptics on the import path
and writes DIR; the second does the same with numpy's RuntimeWarnings as
errors. The third solves nothing: it reads two runs already written, DIR
and BASE, and reports per part and mode how many solves moved and by how
much. Digests are per host, since BLAS kernels may group a product
differently on another CPU: compare two trees on one host.

Parts (112,572 solves):

* validate-ideal, validate-noisy: ``cablehaptics validate`` with the
  defaults, then with the README noisy plant, in one process, so the
  second meets the working sets the first kept;
* readme-grid: ``cablehaptics workspace`` on the README 11 x 11 x 8 grid;
* material-1, material-2: ``cablehaptics material`` on the inputs
  benchmarks/gen_inputs.py writes for haptic_loop seeds 1 and 2;
* seeded: 48,000 solves on 6,000 seeded matrices, m = 3..8, a quarter of
  them planar (rank 2) with their last force just off the plane, shared
  and per-cable bounds with zero floors among them, tolerances from 1e-14
  to 0.5, a quarter capped at 1 to 4 iterations, and two thirds of them
  with forces close to one another, as a haptic hold asks for.

Each part runs in two modes: warm, in order with the caches as the runs
leave them, and cleared, with solver._factorize and solver._box cleared
before every solve. DIR gets summary.json and, per part and mode, an .npz
of every solve's status, iterations, tensions, rendered force and residual.
The summary gives per part and mode the status and iteration counts and a
sha256 over each solve's status, iterations, and tensions, rendered force
and residual in float hex. The commands run through cablehaptics.cli.main
with the solver's solve wrapped to record each call, so a part is what
the command does, cache traffic included.

pytest collects no test here; the file is a tool, not a test module.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from cablehaptics import TensionBounds, cli, simulation, solver

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import gen_inputs  # noqa: E402

MODES = ("warm", "cleared")
STATUSES = list(solver.SolveStatus)
NOISY = ["--plant", "noisy", "--seed", "42", "--noise-std", "0.3"]
NOISY += ["--frame-rot-z", "0.087", "--tension-bias", "0.1"]
README_GRID = ["--grid-min=-1,-1,0.1", "--grid-max", "1,1,1.5", "--grid-res", "11,11,8"]
SEEDED_MATRICES = 6000
SOLVES_PER_MATRIX = 8


class Recorder:
    """solver.solve, recording every call's result; in cleared mode the
    caches are cleared before each call."""

    def __init__(self, cleared: bool):
        self.cleared = cleared
        self.results = []
        self._solve = solver.solve

    def __call__(self, A, f, bounds, config=None):
        if self.cleared:
            solver._factorize.cache_clear()
            solver._box.cache_clear()
        result = self._solve(A, f, bounds, config)
        self.results.append(result)
        return result

    @contextlib.contextmanager
    def installed(self):
        """The recorder in place of solve wherever the commands call it."""
        modules = (solver, simulation, cli)
        saved = [module.solve for module in modules]
        for module in modules:
            module.solve = self
        try:
            yield self
        finally:
            for module, solve in zip(modules, saved):
                module.solve = solve


def run_command(recorder: Recorder, argv: list[str]):
    """The results of the solves one CLI command makes."""
    start = len(recorder.results)
    with tempfile.TemporaryDirectory() as out, recorder.installed():
        with contextlib.redirect_stdout(None):
            code = cli.main(argv + ["--out", out])
    if code != cli.EXIT_OK:
        raise SystemExit(f"cablehaptics {' '.join(argv)} exited {code}")
    return recorder.results[start:]


def seeded_cases(seed: int = 16):
    """(A, f, bounds, config) of the seeded part, in solve order."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(SEEDED_MATRICES):
        m = 3 + k % 6
        if k % 4 == 0:
            angles = rng.uniform(0.0, 2 * np.pi, m)
            M = np.vstack([np.cos(angles), np.sin(angles), np.zeros(m)])
        else:
            M = rng.normal(size=(3, m))
        M = M / np.linalg.norm(M, axis=0)
        floors = np.where(rng.random(m) < 0.2, 0.0, rng.uniform(0.0, 1.0, m))
        if k % 2:
            bounds = TensionBounds(float(floors[0]), float(floors[0] + rng.uniform(0.5, 8.0)))
        else:
            bounds = tuple(
                TensionBounds(float(lo), float(lo + rng.uniform(0.5, 8.0))) for lo in floors
            )
        tolerance = float(10.0 ** rng.uniform(-14.0, np.log10(0.5)))
        cap = int(rng.integers(1, 5)) if k % 4 == 1 else solver.SolverConfig.max_iterations
        config = solver.SolverConfig(max_iterations=cap, tolerance=tolerance)
        scale = 10.0 ** rng.uniform(-1.0, 1.3)
        forces = rng.normal(scale=scale, size=(SOLVES_PER_MATRIX, 3))
        if k % 3:
            forces = forces[0] + 0.05 * (forces - forces[0])
        if k % 4 == 0:
            forces[:, 2] = 0.0
            forces[-1, 2] = 1e-6
        cases += [(M, f, bounds, config) for f in forces]
    return cases


def run_parts(cleared: bool) -> dict[str, list]:
    """The results of every part, in one process and in order."""
    recorder = Recorder(cleared)
    parts = {}
    parts["validate-ideal"] = run_command(recorder, ["validate"])
    parts["validate-noisy"] = run_command(recorder, ["validate", *NOISY])
    parts["readme-grid"] = run_command(recorder, ["workspace", *README_GRID])
    with tempfile.TemporaryDirectory() as inputs:
        for seed in (1, 2):
            made = gen_inputs.generate("haptic_loop", seed, Path(inputs) / str(seed))
            argv = ["material", "--layout", str(made.layout), "--material", str(made.material)]
            argv += ["--trajectory", str(made.trajectory)]
            parts[f"material-{seed}"] = run_command(recorder, argv)
    start = len(recorder.results)
    for A, f, bounds, config in seeded_cases():
        recorder(A, f, bounds, config)
    parts["seeded"] = recorder.results[start:]
    return parts


def record(results) -> dict[str, np.ndarray]:
    """The arrays of a part's results; tensions padded with NaN to 8."""
    n = len(results)
    tensions = np.full((n, 8), np.nan)
    for i, r in enumerate(results):
        tensions[i, : len(r.tensions)] = r.tensions
    return {
        "status": np.array([STATUSES.index(r.status) for r in results], dtype=np.int8),
        "iterations": np.array([r.iterations for r in results], dtype=np.int64),
        "tensions": tensions,
        "rendered": np.array([r.rendered_force for r in results]).reshape(n, 3),
        "residual": np.array([r.force_residual for r in results]),
    }


def summary(results) -> dict:
    """Status and iteration counts and the sha256 of a part's results."""
    digest = hashlib.sha256()
    for r in results:
        values = [*r.tensions.tolist(), *r.rendered_force.tolist(), r.force_residual]
        line = f"{r.status.value} {r.iterations} " + " ".join(map(float.hex, values))
        digest.update(line.encode() + b"\n")
    iterations = [r.iterations for r in results]
    return {
        "solves": len(results),
        "status": dict(sorted(Counter(r.status.value for r in results).items())),
        "iterations": {str(k): v for k, v in sorted(Counter(iterations).items())},
        "mean_iterations": sum(iterations) / len(iterations),
        "max_iterations": max(iterations),
        "sha256": digest.hexdigest(),
    }


def write(out: Path) -> dict:
    """Solve the corpus in both modes into out; the summary by part and mode."""
    out.mkdir(parents=True, exist_ok=True)
    report = {}
    for mode in MODES:
        for part, results in run_parts(mode == "cleared").items():
            np.savez(out / f"{part}.{mode}.npz", **record(results))
            report[f"{part}.{mode}"] = summary(results)
    (out / "summary.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def compare(base: Path, head: Path) -> list[str]:
    """Per part and mode: how many solves changed a bit of their answer,
    by their status in BASE, the largest tension move, how many changed
    status or iterations, and the mean and max iterations on both sides."""
    lines = []
    base_report = json.loads((base / "summary.json").read_text())
    for key, got in json.loads((head / "summary.json").read_text()).items():
        was = base_report[key]
        b, h = np.load(base / f"{key}.npz"), np.load(head / f"{key}.npz")
        bits = [np.hstack([r["tensions"], r["rendered"], r["residual"][:, None]]) for r in (b, h)]
        moved = np.any(bits[0].view(np.uint64) != bits[1].view(np.uint64), axis=1)
        by_status = ", ".join(
            f"{status.value} {int((moved & (b['status'] == k)).sum())}"
            for k, status in enumerate(STATUSES)
        )
        move = np.nan_to_num(np.abs(b["tensions"] - h["tensions"]))
        lines.append(
            f"{key}: {got['solves']} solves, {int(moved.sum())} moved ({by_status}), "
            f"largest tension move {move.max():.3g} N, "
            f"{int((b['status'] != h['status']).sum())} changed status, "
            f"{int((b['iterations'] != h['iterations']).sum())} changed iterations "
            f"(mean {was['mean_iterations']:.4f} -> {got['mean_iterations']:.4f}, "
            f"max {was['max_iterations']} -> {got['max_iterations']}), "
            f"sha256 {'same' if was['sha256'] == got['sha256'] else 'differs'}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="directory of the run")
    parser.add_argument(
        "--compare", type=Path, metavar="BASE", help="compare the run in --out with BASE's"
    )
    args = parser.parse_args(argv)
    if args.compare is not None:
        print("\n".join(compare(args.compare, args.out)))
        return 0
    for key, part in write(args.out).items():
        print(
            f"{key}: {part['solves']} solves, status {part['status']}, "
            f"mean iterations {part['mean_iterations']:.4f}, max {part['max_iterations']}, "
            f"sha256 {part['sha256']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
