"""Hooks on the package's public functions, and in-memory spans around them.

Nothing under ``src/`` is edited: ``rebound`` rebinds a public function where
its callers look it up (``cablehaptics.cli.solve``,
``cablehaptics.simulation.structure_matrix``, ...) for the length of a
``with`` block and puts the originals back after it. ``solve`` always goes
through a ``SolveLog``, which keeps each solve's latency and its inputs and
result for the output checks. With a ``Tracer``, every target also opens a
span. Spans hold a name, start, end and parent id, plus one integer
``value`` and one small ``tag`` that hooks fill in (sweep count and status
for a solve, bytes written for an output call, ...). They stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from cablehaptics import actuation, cli, config, geometry, haptics, simulation, solver

# Codes stored in the ``tag`` of a solver.solve span.
STATUS_CODES = {status: code for code, status in enumerate(solver.SolveStatus)}


class SolveLog:
    """Every solve since the last ``take``: its latency and its record
    ``(A, f, bounds, config, result)``. ``checkpoint``, when set, runs after
    each solve, outside its latency."""

    def __init__(self):
        self.latency_s = array("d")
        self.records: list[tuple] = []
        self.checkpoint = None

    def wrap(self, fn):
        latency = self.latency_s
        records = self.records

        def logged(A, f, bounds, config=None):
            t0 = perf_counter()
            result = fn(A, f, bounds, config)
            latency.append(perf_counter() - t0)
            records.append((A, f, bounds, config, result))
            if self.checkpoint is not None:
                self.checkpoint()
            return result

        return logged

    def take(self) -> list[tuple]:
        """The records since the last call, oldest first."""
        taken = list(self.records)
        self.records.clear()
        return taken


class Tracer:
    """Spans of one run, stored column-wise in typed arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.tag = array("b")
        # Solve spans that report nearest_feasible yet render the force within
        # the wrench-feasibility threshold.
        self.rendered_nearest = array("i")
        self._open = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self.value.append(0)
        self.tag.append(0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, hook=None):
        """``fn`` inside a span; ``hook(tracer, idx, args, result)`` runs after.

        A call that raises gets tag -1 and re-raises.
        """
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                self.tag[idx] = -1
                raise
            self.close(idx)
            if hook is not None:
                hook(self, idx, args, result)
            return result

        return traced

    def columns(self) -> dict[str, np.ndarray]:
        """Span columns as numpy arrays (views on the stored buffers)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "value": np.frombuffer(self.value, dtype=np.int64),
            "tag": np.frombuffer(self.tag, dtype=np.int8),
        }

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        cols = self.columns()
        duration = cols["end"] - cols["start"]
        covered = np.zeros_like(duration)
        has_parent = cols["parent"] >= 0
        np.add.at(covered, cols["parent"][has_parent], duration[has_parent])
        return duration - covered

    def write_csv(self, path) -> None:
        cols = self.columns()
        t0 = cols["start"][0] if len(cols["start"]) else 0.0
        with open(path, "w") as handle:
            handle.write("id,name,start_us,end_us,parent,value,tag\n")
            for k in range(len(cols["start"])):
                handle.write(
                    f"{k},{self.names[cols['name'][k]]},"
                    f"{(cols['start'][k] - t0) * 1e6:.3f},{(cols['end'][k] - t0) * 1e6:.3f},"
                    f"{cols['parent'][k]},{cols['value'][k]},{cols['tag'][k]}\n"
                )


def _solve_hook(tracer: Tracer, idx: int, args, result) -> None:
    tracer.value[idx] = result.iterations
    tracer.tag[idx] = STATUS_CODES[result.status]
    if (
        result.status is solver.SolveStatus.NEAREST_FEASIBLE
        and result.force_residual <= solver.WRENCH_FEASIBLE_RESIDUAL
    ):
        tracer.rendered_nearest.append(idx)


def _flag_hook(tracer: Tracer, idx: int, args, result) -> None:
    tracer.tag[idx] = int(bool(result))


def _brake_hook(tracer: Tracer, idx: int, args, result) -> None:
    tracer.tag[idx] = int(result.brake_engaged)


def _bytes_hook(tracer: Tracer, idx: int, args, result) -> None:
    tracer.value[idx] = os.path.getsize(args[1])


_SOLVE = ("solver.solve", _solve_hook)
_STRUCTURE = ("geometry.structure_matrix", None)

# (owner, attribute, span name, hook): every place a workload's call path
# looks up a public function of the package.
_TARGETS = [
    (solver, "solve", *_SOLVE),
    (simulation, "solve", *_SOLVE),
    (cli, "solve", *_SOLVE),
    (cli, "is_wrench_feasible", "solver.wrench_feasible", _flag_hook),
    (geometry, "structure_matrix", *_STRUCTURE),
    (simulation, "structure_matrix", *_STRUCTURE),
    (cli, "structure_matrix", *_STRUCTURE),
    (haptics, "evaluate", "haptics.evaluate", None),
    (cli, "evaluate", "haptics.evaluate", None),
    (actuation, "command_for_tension", "actuation.command", _brake_hook),
    (simulation.IdealPlant, "measure_hold", "simulation.plant", None),
    (simulation.NoisyPlant, "measure_hold", "simulation.plant", None),
    (cli, "run_validation", "simulation.run_validation", None),
    (cli, "report_summary", "simulation.summary", None),
    (cli, "write_report_csv", "simulation.output", _bytes_hook),
    (cli, "write_report_json", "simulation.output", _bytes_hook),
    (config, "load_layout", "config.load_layout", None),
    (config, "load_material", "config.load_material", None),
    (config, "load_trajectory", "config.load_trajectory", None),
    (cli, "load_layout", "config.load_layout", None),
    (cli, "load_material", "config.load_material", None),
    (cli, "load_trajectory", "config.load_trajectory", None),
]


@contextmanager
def rebound(log: SolveLog, tracer: Tracer | None = None):
    """Within the block, every ``solve`` lookup goes through ``log``; with a
    tracer, every target in ``_TARGETS`` also records a span."""
    saved = []
    try:
        for owner, attr, name, hook in _TARGETS:
            is_solve = name == "solver.solve"
            if tracer is None and not is_solve:
                continue
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            fn = original if tracer is None else tracer.wrap(name, original, hook)
            setattr(owner, attr, log.wrap(fn) if is_solve else fn)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
