"""Self-tests of the benchmark on tiny inputs.

* a smoke run of every workload, untraced and traced, emits every metric
  that BENCHMARK.json names, with its unit, and passes its output checks
  (``haptic_loop`` also emits its own haptics and actuation metrics);
* span self times sum to the duration of their root span;
* the solver's sweep counts repeat exactly across two runs with one seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402

bench.import_package()

import gen_inputs  # noqa: E402
import workloads  # noqa: E402
from spans import SolveLog, Tracer  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
# The declared workloads plus haptic_loop, which passes at the tiny size.
WORKLOAD_NAMES = list(workloads.WORKLOADS)


def run_tiny(workload: str, trace: int, seed: int = 3) -> tuple[int, dict]:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace), "--tiny"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_results():
    return {(w, t): run_tiny(w, t) for w in WORKLOAD_NAMES for t in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric(tiny_results, workload, trace):
    import layers

    code, result = tiny_results[(workload, trace)]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if trace and workload == "haptic_loop":
        declared.update(layers.HAPTIC_LOOP_UNITS)
    assert declared == {name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_metric_tables_match_the_spec():
    import layers

    assert list(bench.END_TO_END_UNITS) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(layers.PER_LAYER_UNITS) == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_self_times_sum_to_the_root_span(tmp_path, workload):
    tracer = Tracer()
    inputs = gen_inputs.generate(workload, 5, tmp_path / "inputs", gen_inputs.TINY)
    loaded = bench.load_inputs(workload, tmp_path / "inputs")
    load = workloads.WORKLOADS[workload](inputs, SolveLog(), loaded)
    assert load.run_pass(tmp_path / "pass", tracer).failed == 0
    cols = tracer.columns()
    roots = [k for k in range(len(cols["parent"])) if cols["parent"][k] < 0]
    assert [tracer.names[cols["name"][k]] for k in roots] == ["bench.pass"]
    root_duration = cols["end"][0] - cols["start"][0]
    assert len(cols["parent"]) > 3
    assert tracer.self_times().sum() == pytest.approx(root_duration, rel=1e-9, abs=1e-12)
    assert (tracer.self_times() >= -1e-9).all()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_sweep_counts_repeat_with_the_same_seed(tiny_results, workload):
    _, first = tiny_results[(workload, 1)]
    _, again = run_tiny(workload, 1)
    for name in ("solver.sweeps.total", "solver.sweeps.p50", "solver.sweeps.p99",
                 "solver.sweeps.max", "solver.calls"):
        assert again["metrics"][name]["value"] == first["metrics"][name]["value"]
    assert first["metrics"]["solver.sweeps.total"]["value"] > 0


def test_same_seed_same_inputs(tmp_path):
    a = gen_inputs.generate("haptic_loop", 11, tmp_path / "a")
    b = gen_inputs.generate("haptic_loop", 11, tmp_path / "b")
    c = gen_inputs.generate("haptic_loop", 12, tmp_path / "c")
    for name in ("layout", "material", "trajectory"):
        assert getattr(a, name).read_bytes() == getattr(b, name).read_bytes()
    assert a.trajectory.read_bytes() != c.trajectory.read_bytes()
