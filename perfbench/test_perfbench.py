"""Tests of the benchmark's own code: span self time, check counting, the
tracer's patching, the speed sampler, and the result line's agreement with
BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

import gc
import json
import re
import signal
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(layer, start, end, parent):
    return (layer, start, end, parent, 1)


def test_self_time_of_nested_spans():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("x", 2.0, 6.0, 0),
        span("y", 4.0, 8.0, 0),  # overlaps x: the union 2..8 is covered
        span("z", 9.0, 12.0, 0),  # overhangs the parent: only 9..10 counts
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_take_the_median_pass():
    tracer = tracing.Tracer(package=None)
    tracer.spans = [
        ("bench.pass", 0.0, 3.0, -1, 1),
        ("search.step", 0.0, 1.0, 0, 1),
        ("bench.pass", 3.0, 9.0, -1, 2),
        ("search.step", 3.0, 4.0, 2, 2),
        ("search.step", 4.0, 7.0, 2, 2),
        ("bench.pass", 9.0, 10.0, -1, 3),
    ]
    metrics = tracing.layer_metrics(tracer, traced_walls=[2.2, 2.0], untraced_walls=[2.0, 2.0])
    assert metrics["search.step.calls"]["value"] == 1
    assert metrics["search.step.self_s"]["value"] == pytest.approx(1.0)
    assert metrics["core.spread_bits.calls"]["value"] == 0
    assert metrics["trace_overhead_ratio"]["value"] == pytest.approx(1.05)


def test_wrong_expected_value_is_a_failure(monkeypatch):
    checks = workloads.Checks()
    checks.equal(4, 4, "right")
    checks.equal(3, 4, "wrong")
    checks.expect(False, "false")
    assert (checks.attempted, checks.failed) == (3, 2)

    import trigrid

    grids = {n: trigrid.TriGrid(n) for n in (1, 2)}
    checks = workloads.Checks()
    workloads.check_lion_numbers(trigrid, grids, checks)
    assert (checks.attempted, checks.failed) == (2, 0)
    monkeypatch.setitem(workloads.EXPECTED_LION, 2, 4)
    checks = workloads.Checks()
    workloads.check_lion_numbers(trigrid, grids, checks)
    assert (checks.attempted, checks.failed) == (2, 1)
    assert "l(T_2)" in checks.failures[0]


def test_tracer_records_nested_spans_and_restores_functions():
    import trigrid
    import trigrid.cli  # noqa: F401  (the tracer patches every loaded module)

    original_verify = trigrid.verify_trace
    original_init = trigrid.VertexSet.__init__
    g = trigrid.TriGrid(3)
    with tracing.Tracer(trigrid) as tracer:
        assert trigrid.search.verify_trace is not original_verify
        assert trigrid.verify_trace(g, trigrid.three_stage_strategy(g))
        assert sorted(trigrid.initial_segment(g, 4)) == sorted(trigrid.ordering.simplicial_order(g)[:4])
    assert trigrid.verify_trace is original_verify
    assert trigrid.search.verify_trace is original_verify
    assert trigrid.VertexSet.__init__ is original_init

    layers = [s[0] for s in tracer.spans]
    verify = layers.index("search.verify")
    steps = [s for s in tracer.spans if s[0] == "search.step"]
    assert steps and any(s[3] == verify for s in steps)
    assert "core.set_to_coords" in layers and "ordering.segment" in layers


def test_burst_allocates_nothing_the_collector_tracks():
    speed.burst()
    gc.disable()
    try:
        before = gc.get_count()[0]
        speed.burst()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


def test_speed_sampler_takes_its_bursts_out_of_the_pass():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    handler = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        wall, cpu, mean_burst = sampler.timed(busy)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < mean_burst < 0.01
    # About 15 bursts ran inside the 0.3 s pass and were subtracted from it.
    assert 0.2 < wall < 0.3
    assert 0 < cpu < 0.3


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_benchmark_json(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--workload", "scan", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = bench["end_to_end"] if trace == "0" else bench["per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    all_names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.fullmatch(name) for name in all_names)
    if trace == "1":
        assert result["metrics"]["bulk.compress.calls"]["value"] == 4
        assert result["metrics"]["isoperimetry.exhaustive.subsets_per_s"]["value"] > 0


def test_per_layer_spec_is_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == tracing.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
