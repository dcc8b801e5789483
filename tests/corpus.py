"""The solve corpus: every solve of a fixed set of runs, recorded to the last
bit, so that "bit-identical" is a claim anyone can re-run.

    PYTHONPATH=src python tests/corpus.py --out DIR
    PYTHONPATH=src python -X dev -W error::RuntimeWarning tests/corpus.py --out DIR
    PYTHONPATH=src python tests/corpus.py --out DIR --compare BASE

The first form solves the corpus with the cablehaptics on the import path
and writes DIR; the second does the same with numpy's RuntimeWarnings as
errors. The third solves nothing: it reads two runs already written, DIR
and BASE, and reports per part and mode how many solves moved and by how
much, the solves capped below the default max_iterations apart from the
rest, since a kept set lifts a cap by design, and the largest tension
move at tolerances below 1e-3 apart from the larger ones, since a
nearest iterate is certified only to a tenth of the tolerance, and the
solves whose residual alone moved apart from the rest, with the largest
such move in ulps, since a residual may be summed otherwise. Each
seeded nearest answer that moved at a larger tolerance is checked
against tests/qp_oracle.py's nearest_point_qp: the report gives the
largest distance of its rendered force from the oracle's, in BASE and in
DIR. Digests are per host, since BLAS kernels may group a product
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
of every solve's status, iterations, tensions, rendered force and
residual, and its tolerance and max_iterations.
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
from qp_oracle import nearest_point_qp

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
    """solver.solve, recording every call's result and config; in cleared
    mode the caches are cleared before each call."""

    def __init__(self, cleared: bool):
        self.cleared = cleared
        self.results = []
        self._solve = solver.solve

    def __call__(self, A, f, bounds, config=None):
        if self.cleared:
            solver._factorize.cache_clear()
            solver._box.cache_clear()
        result = self._solve(A, f, bounds, config)
        self.results.append((result, config or solver.SolverConfig()))
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


def record(solves) -> dict[str, np.ndarray]:
    """The arrays of a part's (result, config) pairs; tensions padded with
    NaN to 8."""
    results = [r for r, _ in solves]
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
        "tolerance": np.array([c.tolerance for _, c in solves]),
        "max_iterations": np.array([c.max_iterations for _, c in solves], dtype=np.int64),
    }


def summary(solves) -> dict:
    """Status and iteration counts and the sha256 of a part's results."""
    results = [r for r, _ in solves]
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


def oracle_distance(A, f, bounds, rendered) -> float:
    """||rendered - A t*||, t* the nearest box point nearest_point_qp gives
    for (A, f, bounds): the nearest reachable force is unique."""
    m = A.shape[1]
    per_cable = [bounds] * m if isinstance(bounds, TensionBounds) else bounds
    lo = np.array([b.t_min for b in per_cable])
    hi = np.array([b.t_max for b in per_cable])
    return float(np.linalg.norm(rendered - A @ nearest_point_qp(A, f, lo, hi)))


def compare(base: Path, head: Path) -> list[str]:
    """Per part and mode, and within it for the uncapped and the capped
    solves apart: how many solves changed a bit of their answer, by their
    status in BASE, the largest tension move at tolerances below 1e-3 and
    at larger ones, which statuses changed, how many changed iterations,
    the mean and max iterations on both sides, how many of the solves that
    moved kept the bits of their status, iterations, tensions and rendered
    force and moved their residual alone, and by at most how many ulps,
    and, for the seeded part, the oracle check of the nearest answers that
    moved at a larger tolerance."""
    lines = []
    base_report = json.loads((base / "summary.json").read_text())
    cases = None
    for key, got in json.loads((head / "summary.json").read_text()).items():
        was = base_report[key]
        b, h = np.load(base / f"{key}.npz"), np.load(head / f"{key}.npz")
        bits = [np.hstack([r["tensions"], r["rendered"], r["residual"][:, None]]) for r in (b, h)]
        moved = np.any(bits[0].view(np.uint64) != bits[1].view(np.uint64), axis=1)
        # the residual alone moved: every other bit of the answer is kept
        kept = np.all(bits[0][:, :-1].view(np.uint64) == bits[1][:, :-1].view(np.uint64), axis=1)
        kept &= (b["status"] == h["status"]) & (b["iterations"] == h["iterations"])
        residual_only = moved & kept
        # the distance in ulps of two residuals, both finite and >= 0
        ulps = np.abs(b["residual"].view(np.int64) - h["residual"].view(np.int64))
        move = np.nan_to_num(np.abs(b["tensions"] - h["tensions"])).max(axis=1)
        small = h["tolerance"] < 1e-3
        capped = h["max_iterations"] < solver.SolverConfig.max_iterations
        same = "same" if was["sha256"] == got["sha256"] else "differs"
        lines.append(f"{key}: {got['solves']} solves, sha256 {same}")
        for name, part in (("uncapped", ~capped), ("capped", capped)):
            if not part.any():
                continue
            by_status = ", ".join(
                f"{status.value} {int((moved & part & (b['status'] == k)).sum())}"
                for k, status in enumerate(STATUSES)
            )
            changed = Counter(
                f"{STATUSES[x].value} -> {STATUSES[y].value}"
                for x, y in zip(b["status"][part], h["status"][part])
                if x != y
            )
            iterations = [r["iterations"][part] for r in (b, h)]
            lines.append(
                f"  {name}: {int(part.sum())} solves, {int((moved & part).sum())} moved "
                f"({by_status}), largest tension move {move[part & small].max(initial=0.0):.3g} N "
                f"at tolerances below 1e-3 and {move[part & ~small].max(initial=0.0):.3g} N "
                f"above, {sum(changed.values())} changed status {dict(changed)}, "
                f"{int((iterations[0] != iterations[1]).sum())} changed iterations "
                f"(mean {iterations[0].mean():.4f} -> {iterations[1].mean():.4f}, "
                f"max {iterations[0].max()} -> {iterations[1].max()}); "
                f"{int((residual_only & part).sum())} moved the residual alone, by at most "
                f"{int(ulps[residual_only & part].max(initial=0))} ulps"
            )
        if key.startswith("seeded."):
            cases = cases or seeded_cases()
            nearest = STATUSES.index(solver.SolveStatus.NEAREST_FEASIBLE)
            both = (b["status"] == nearest) & (h["status"] == nearest)
            check = np.flatnonzero(moved & ~small & both)
            gaps = [
                max((oracle_distance(*cases[i][:3], r["rendered"][i]) for i in check), default=0.0)
                for r in (b, h)
            ]
            lines.append(
                f"  {len(check)} nearest answers moved at tolerances of 1e-3 and above; the "
                f"largest distance of a rendered force from nearest_point_qp's is "
                f"{gaps[0]:.3g} N in BASE and {gaps[1]:.3g} N here"
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
