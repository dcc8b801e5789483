"""Per-layer metrics derived from a traced run's spans.

A span's layer is the part of its name before the first dot (``solver``,
``geometry``, ``haptics``, ``actuation``, ``simulation``, ``config``,
``cli``; ``bench`` for the benchmark's own pass, tick and set-up spans).
Counts come from the first traced pass: every pass of a run has the same
inputs, so they repeat exactly. Busy times are medians over traced passes;
latency percentiles pool every traced pass. A layer's busy time is the
summed duration of its spans whose parent belongs to another layer, so a
solve inside a wrench-feasibility probe is not counted twice.
"""

from __future__ import annotations

import statistics

import numpy as np

from cablehaptics.solver import SolveStatus
from spans import STATUS_CODES, Tracer

TAIL_SWEEPS = 1000
SLOW_SOLVE_S = 1e-3

# name -> unit, in the order the benchmark prints them.
PER_LAYER_UNITS = {
    "solver.calls": "count",
    "solver.busy_ms": "ms",
    "solver.sweeps.total": "count",
    "solver.sweeps.p50": "count",
    "solver.sweeps.p99": "count",
    "solver.sweeps.max": "count",
    "solver.tail_share": "ratio",
    "solver.us_per_sweep": "us",
    "solver.solve.p50_us": "us",
    "solver.solve.p99_us": "us",
    "solver.solve.max_us": "us",
    "solver.over_1ms_frac": "ratio",
    "solver.status.feasible_exact": "count",
    "solver.status.nearest_feasible": "count",
    "solver.status.iteration_cap": "count",
    "solver.status.nearest_within_1e-7": "count",
    "solver.wrench_feasible.calls": "count",
    "solver.wrench_feasible.yes_ratio": "ratio",
    "geometry.structure_matrix.calls": "count",
    "geometry.structure_matrix.p50_us": "us",
    "geometry.busy_ms": "ms",
    "geometry.degenerate": "count",
    "simulation.plant.calls": "count",
    "simulation.plant.busy_ms": "ms",
    "simulation.output.bytes": "bytes",
    "simulation.output.busy_ms": "ms",
    "config.calls": "count",
    "config.busy_ms": "ms",
    "cli.self_ms": "ms",
    "cli.output.bytes": "bytes",
    "trace.spans": "count",
    "trace.wall_s.untraced": "s",
    "trace.wall_s.traced": "s",
    "trace.overhead_ms": "ms",
}

# Layers only the haptic loop calls; reported on that workload alone.
HAPTIC_LOOP_UNITS = {
    "haptics.evaluate.calls": "count",
    "haptics.busy_ms": "ms",
    "actuation.command.calls": "count",
    "actuation.busy_ms": "ms",
    "actuation.brake_count": "count",
}


def _ranges(names: np.ndarray, parent: np.ndarray, root_id: int) -> list[tuple[int, int]]:
    """[first, last) span index ranges of each top-level span named root_id."""
    roots = np.flatnonzero(parent < 0)
    bounds = list(roots) + [len(parent)]
    return [
        (int(bounds[k]), int(bounds[k + 1]))
        for k in range(len(roots))
        if names[bounds[k]] == root_id
    ]


def _pct(values: np.ndarray, q: float, method: str = "linear") -> float:
    return float(np.percentile(values, q, method=method)) if len(values) else 0.0


def per_layer_metrics(
    tracer: Tracer, untraced_walls, traced_walls, scale: float = 1.0, haptic_loop: bool = False
) -> dict:
    """{name: (value, unit)} for every metric in PER_LAYER_UNITS, and in
    HAPTIC_LOOP_UNITS too when ``haptic_loop``.

    ``scale`` multiplies every span time (the reference-clock factor of the
    traced passes); the walls arrive already scaled.
    """
    cols = tracer.columns()
    name, parent, value, tag = cols["name"], cols["parent"], cols["value"], cols["tag"]
    duration = (cols["end"] - cols["start"]) * scale
    self_time = tracer.self_times() * scale

    def nid(n: str) -> int:
        return tracer.ids.get(n, -1)

    layer_names = sorted({n.split(".")[0] for n in tracer.names})
    layer_of_name = np.array(
        [layer_names.index(n.split(".")[0]) for n in tracer.names], dtype=np.int64
    )
    span_layer = layer_of_name[name] if len(name) else np.zeros(0, dtype=np.int64)
    parent_layer = np.where(parent >= 0, span_layer[np.maximum(parent, 0)], -1)
    layer_top = span_layer != parent_layer

    passes = _ranges(name, parent, nid("bench.pass"))
    setups = _ranges(name, parent, nid("bench.setup"))
    in_pass = np.zeros(len(name), dtype=bool)
    for a, b in passes:
        in_pass[a:b] = True
    first = np.zeros(len(name), dtype=bool)
    if passes:
        first[passes[0][0] : passes[0][1]] = True
    in_setup = np.zeros(len(name), dtype=bool)
    for a, b in setups:
        in_setup[a:b] = True

    def is_(n: str) -> np.ndarray:
        return name == nid(n)

    def is_layer(layer: str) -> np.ndarray:
        if layer not in layer_names:
            return np.zeros(len(name), dtype=bool)
        return span_layer == layer_names.index(layer)

    def per_pass_ms(mask: np.ndarray, weights: np.ndarray = duration) -> float:
        """Median over traced passes of the summed weights under mask, in ms."""
        if not passes:
            return 0.0
        return 1e3 * statistics.median(float(weights[a:b][mask[a:b]].sum()) for a, b in passes)

    def busy_ms(layer: str) -> float:
        return per_pass_ms(is_layer(layer) & layer_top)

    solves = is_("solver.solve")
    first_solves = solves & first
    sweeps_first = value[first_solves]
    pooled = solves & in_pass
    solve_s = duration[pooled]
    solve_sweeps = value[pooled]
    total_solve_s = float(solve_s.sum())
    probes = is_("solver.wrench_feasible") & first
    structure = is_("geometry.structure_matrix")
    commands = is_("actuation.command") & first
    plant = is_("simulation.plant")
    output = is_("simulation.output")
    cli_main = is_("cli.main")
    config_spans = is_layer("config") & layer_top
    untraced = statistics.median(untraced_walls) if untraced_walls else 0.0
    traced = statistics.median(traced_walls) if traced_walls else 0.0

    values = {
        "solver.calls": int(first_solves.sum()),
        "solver.busy_ms": busy_ms("solver"),
        "solver.sweeps.total": int(sweeps_first.sum()),
        "solver.sweeps.p50": int(_pct(sweeps_first, 50, "inverted_cdf")),
        "solver.sweeps.p99": int(_pct(sweeps_first, 99, "inverted_cdf")),
        "solver.sweeps.max": int(sweeps_first.max()) if len(sweeps_first) else 0,
        "solver.tail_share": (
            float(solve_s[solve_sweeps > TAIL_SWEEPS].sum()) / total_solve_s
            if total_solve_s
            else 0.0
        ),
        "solver.us_per_sweep": (
            1e6 * total_solve_s / float(solve_sweeps.sum()) if len(solve_sweeps) else 0.0
        ),
        "solver.solve.p50_us": 1e6 * _pct(solve_s, 50),
        "solver.solve.p99_us": 1e6 * _pct(solve_s, 99),
        "solver.solve.max_us": 1e6 * float(solve_s.max()) if len(solve_s) else 0.0,
        "solver.over_1ms_frac": float(np.mean(solve_s > SLOW_SOLVE_S)) if len(solve_s) else 0.0,
        "solver.wrench_feasible.calls": int(probes.sum()),
        "solver.wrench_feasible.yes_ratio": (
            float(np.mean(tag[probes] == 1)) if probes.any() else 0.0
        ),
        "geometry.structure_matrix.calls": int((structure & first).sum()),
        "geometry.structure_matrix.p50_us": 1e6 * _pct(duration[structure & in_pass], 50),
        "geometry.busy_ms": busy_ms("geometry"),
        "geometry.degenerate": int(np.sum(tag[structure & first] == -1)),
        "haptics.evaluate.calls": int((is_("haptics.evaluate") & first).sum()),
        "haptics.busy_ms": busy_ms("haptics"),
        "actuation.command.calls": int(commands.sum()),
        "actuation.busy_ms": busy_ms("actuation"),
        "actuation.brake_count": int(np.sum(tag[commands] == 1)),
        "simulation.plant.calls": int((plant & first).sum()),
        "simulation.plant.busy_ms": per_pass_ms(plant),
        "simulation.output.bytes": int(value[output & first].sum()),
        "simulation.output.busy_ms": per_pass_ms(output),
        "config.calls": int((config_spans & (first | in_setup)).sum()),
        "config.busy_ms": (
            1e3 * float(duration[config_spans & in_setup].sum()) + per_pass_ms(config_spans)
        ),
        "cli.self_ms": per_pass_ms(cli_main, self_time),
        "cli.output.bytes": int(value[cli_main & first].sum()),
        "trace.spans": int(first.sum()),
        "trace.wall_s.untraced": untraced,
        "trace.wall_s.traced": traced,
        "trace.overhead_ms": 1e3 * (traced - untraced),
    }
    for status in SolveStatus:
        values[f"solver.status.{status.value}"] = int(
            np.sum(tag[first_solves] == STATUS_CODES[status])
        )
    marked = np.frombuffer(tracer.rendered_nearest, dtype=np.int32)
    values["solver.status.nearest_within_1e-7"] = int(np.sum(first[marked]))
    units = {**PER_LAYER_UNITS, **(HAPTIC_LOOP_UNITS if haptic_loop else {})}
    return {k: (values[k], unit) for k, unit in units.items()}
