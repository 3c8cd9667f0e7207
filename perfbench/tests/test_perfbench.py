"""The benchmark's own tests: span arithmetic, percentiles, seeded inputs,
and a tiny pass of every workload through its correctness gate."""

import argparse
import json
from pathlib import Path

import pytest

from perfbench import reference, run, stats
from perfbench.layers import PER_LAYER
from perfbench.spans import Hook, Span, Tracer, covered, layer_totals, self_times
from perfbench.workloads import (
    CitySize,
    Request,
    ServiceSize,
    SweepSize,
    TrainSize,
    fastest,
    make,
)

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "city": CitySize(markets=60, oracle_markets=8),
    "service": ServiceSize(markets=40, windows_per_block=4, large_per_block=1,
                           large_rows=12, small_rows_max=3,
                           queries_per_window=4),
    "train": TrainSize(iterations=2, rounds=20),
    "sweep": SweepSize(draws=6),
}


def tiny(name, seed, tmp_path):
    workload = make(name, seed, tmp_path / "work", TINY[name])
    workload.import_program()
    workload.setup()
    return workload


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
def span(span_id, name, start, end, parent=None):
    return Span(span_id, name, start, end, parent, "r", 1)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "a1", 2.0, 3.0, parent=1),
        span(3, "b", 3.0, 6.0, parent=0),  # overlaps a: counted once
        span(4, "c", 8.0, 12.0, parent=0),  # runs past root: clipped
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)


def test_layer_totals_fold_same_name_nesting_into_one_call():
    spans = [
        span(0, "mutate", 0.0, 4.0),  # join ...
        span(1, "mutate", 1.0, 3.0, parent=0),  # ... calling update_market
        span(2, "mutate", 5.0, 6.0),
    ]
    totals = layer_totals(spans)["mutate"]
    assert totals.calls == 2
    assert totals.inclusive_s == pytest.approx(5.0)
    assert totals.self_s == pytest.approx(5.0)


def test_covered_merges_overlaps():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0
    assert covered([]) == 0.0


class _Toy:
    def method(self, x):
        return x + 1

    def outer(self):
        return self.method(1)


def test_tracer_records_nested_spans_and_restores_originals():
    original = _Toy.__dict__["method"]
    hooks = [
        Hook("toy.method", f"{__name__}:_Toy.method"),
        Hook("toy.outer", f"{__name__}:_Toy.outer"),
        Hook("toy.count", f"{__name__}:_Toy.method", count_only=True),
        Hook("gone", f"{__name__}:_Toy.no_such_method"),
    ]
    tracer = Tracer()
    tracer.install(hooks)
    try:
        assert _Toy().outer() == 2
    finally:
        tracer.uninstall()
    assert _Toy.__dict__["method"] is original
    assert tracer.missing == [f"{__name__}:_Toy.no_such_method"]
    assert tracer.counts["toy.count"] == 1
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["toy.outer"].parent is None
    assert by_name["toy.method"].parent == by_name["toy.outer"].span_id


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #
def test_nearest_rank_returns_an_observed_sample():
    samples = [float(v) for v in range(10, 0, -1)]
    assert stats.nearest_rank(samples, 50.0) == 5.0
    assert stats.nearest_rank(samples, 95.0) == 10.0
    assert stats.nearest_rank(samples, 100.0) == 10.0
    assert stats.nearest_rank(samples, 1.0) == 1.0
    with pytest.raises(ValueError):
        stats.nearest_rank(samples, 0.0)
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(200, 95.0) == 10
    assert stats.samples_beyond(199, 95.0) == 9
    assert stats.min_samples_for(95.0) == 200
    assert stats.min_samples_for(99.0) == 1000
    assert not stats.reportable(199, 95.0)
    assert stats.reportable(200, 95.0)
    assert stats.reportable(3, 50.0)


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(TINY))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    first = tiny(name, 5, tmp_path).digest()
    assert tiny(name, 5, tmp_path).digest() == first
    assert tiny(name, 6, tmp_path).digest() != first


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_pass_clears_the_gate(name, tmp_path):
    workload = tiny(name, 3, tmp_path)
    requests = [workload.request(k) for k in range(2)]
    gate = workload.gate(requests)
    assert gate.attempted > 0
    assert gate.failed == 0, gate.notes
    assert workload.throughput_per_s(requests) > 0.0
    assert workload.latency(requests).ms > 0.0


def test_timings_come_from_the_fastest_tenth_of_requests(tmp_path):
    workload = tiny("city", 3, tmp_path)
    few = [Request(0.0, 2.0, 10), Request(0.0, 4.0, 10), Request(0.0, 9.0, 10)]
    assert workload.throughput_per_s(few) == pytest.approx(5.0)
    assert workload.latency(few).ms == pytest.approx(2000.0)
    # Ranked by time per item: 4 s for 20 items beats 3 s for 10.
    many = [Request(0.0, float(w), 10) for w in range(3, 22)]
    many.append(Request(0.0, 4.0, 20))
    assert [r.wall_s for r in fastest(many)] == [4.0, 3.0]
    assert workload.throughput_per_s(many) == pytest.approx(30.0 / 7.0)
    latency = workload.latency(many)
    assert (latency.ms, latency.samples) == (pytest.approx(3500.0), 2)


def test_reference_floor_is_the_mean_of_the_fastest_tenth():
    samples = [float(v) for v in range(20, 0, -1)]
    assert reference.floor_s(samples) == pytest.approx(1.5)
    assert reference.floor_s([4.0, 2.0, 3.0]) == 2.0


class _FixedWorkload:
    """Requests that report 1 s each without taking it."""

    min_requests = 6

    def request(self, index):
        return Request(0.0, 1.0, 1)


def test_kernel_runs_between_requests_at_its_share():
    requests, kernel = run.run_requests(_FixedWorkload(), seconds=0.0)
    assert len(requests) == _FixedWorkload.min_requests
    assert len(kernel) > reference.WARM_UP
    # Before the last request the kernel had caught up with 5 requests.
    assert sum(kernel) >= reference.SHARE * 1.0 * (len(requests) - 1)


def test_every_service_window_ends_in_one_miss(tmp_path):
    workload = tiny("service", 3, tmp_path)
    first, second = workload.request(0), workload.request(1)
    size = TINY["service"]
    assert len(first.miss_s) == size.windows_per_block
    # Every block has the same burst sizes, so blocks are alike in work.
    assert first.dirty_rows == second.dirty_rows == (
        size.large_rows * size.large_per_block + 1 + 2 + 3
    )
    assert first.items == second.items


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    workload = tiny("service", 4, tmp_path)
    workload.traced_requests = 2
    args = argparse.Namespace(seed=4, trace=1)
    gate, metrics, tracer = run.run_traced(workload, args, import_s=0.5)
    assert gate.failed == 0
    values = {name: value for name, _, value in metrics}
    assert list(values) == [name for name, _ in PER_LAYER]
    assert not tracer.missing
    assert values["service.misses"] == 2 * TINY["service"].windows_per_block
    assert values["marketstack.rows_per_dirty_row"] == 1.0
    assert values["solvers.golden_scalar_calls"] > 0
    assert values["solvers.golden_batch_calls"] > 0
    tracer.write(tmp_path / "trace.jsonl")
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(lines) == len(tracer.spans) + 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
