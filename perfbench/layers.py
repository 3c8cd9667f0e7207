"""Per-layer metrics of a traced run.

Every metric is reported on every workload; a layer the workload does not
load reads 0. Times are self times (a span's duration minus its traced
children) unless the name says otherwise; ``*_calls`` count outermost
calls only. Totals cover the traced half of the run: one set-up plus
:attr:`~perfbench.workloads.Workload.traced_requests` requests.
"""

from __future__ import annotations

from collections import Counter

from perfbench.spans import LayerTotals, Span, covered, layer_totals
from perfbench.stats import nearest_rank
from perfbench.workloads import Request

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("import.repro_s", "s"),
    ("mobility.build_s", "s"),
    ("mobility.markets_built", "count"),
    ("mobility.us_per_market", "us"),
    ("marketstack.init_s", "s"),
    ("marketstack.init_calls", "count"),
    ("marketstack.solve_s", "s"),
    ("marketstack.solve_calls", "count"),
    ("marketstack.rows_solved", "count"),
    ("marketstack.live_self_s", "s"),
    ("marketstack.live_calls", "count"),
    ("marketstack.mutate_s", "s"),
    ("marketstack.mutate_calls", "count"),
    ("marketstack.rows_per_dirty_row", "ratio"),
    ("solvers.golden_batch_s", "s"),
    ("solvers.golden_batch_calls", "count"),
    ("solvers.golden_batch_rows", "count"),
    ("solvers.golden_scalar_s", "s"),
    ("solvers.golden_scalar_calls", "count"),
    ("solvers.refine_share", "ratio"),
    ("service.query_self_s", "s"),
    ("service.queries", "count"),
    ("service.hits", "count"),
    ("service.misses", "count"),
    ("service.hit_ratio", "ratio"),
    ("service.apply_self_s", "s"),
    ("service.updates", "count"),
    ("service.dirty_rows_per_miss", "ratio"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_p99_ms", "ms"),
    ("service.miss_p95_ms", "ms"),
    ("env.reset_s", "s"),
    ("env.reset_calls", "count"),
    ("env.step_s", "s"),
    ("env.step_calls", "count"),
    ("drl.act_s", "s"),
    ("drl.act_calls", "count"),
    ("drl.value_s", "s"),
    ("drl.gae_s", "s"),
    ("drl.gae_calls", "count"),
    ("drl.sample_s", "s"),
    ("drl.update_s", "s"),
    ("drl.update_calls", "count"),
    ("drl.trainer_self_s", "s"),
    ("experiments.run_self_s", "s"),
    ("queue.scheduler_self_s", "s"),
    ("queue.enqueue_s", "s"),
    ("queue.lease_s", "s"),
    ("queue.lease_calls", "count"),
    ("queue.lease_empty", "count"),
    ("queue.execute_s", "s"),
    ("queue.store_put_s", "s"),
    ("queue.store_get_s", "s"),
    ("queue.store_get_calls", "count"),
    ("queue.ack_s", "s"),
    ("queue.reap_s", "s"),
    ("queue.reap_calls", "count"),
    ("queue.outstanding_s", "s"),
    ("queue.outstanding_calls", "count"),
    ("queue.heartbeat_calls", "count"),
    ("queue.contains_per_job", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
)
"""Every per-layer metric name with its unit, in report order."""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[Span],
    counts: Counter,
    setup_counts: Counter,
    *,
    import_s: float,
    main_thread: int,
    untraced: list[Request],
    traced: list[Request],
    traced_ids: set[str],
) -> dict[str, float]:
    """The :data:`PER_LAYER` values of one traced run.

    ``untraced``/``traced`` are the two halves' requests (the same work),
    ``traced_ids`` the run ids the traced requests' spans carry, and
    ``setup_counts`` the counters as they stood after the traced set-up.
    """
    totals = layer_totals(spans)
    zero = LayerTotals(0, 0.0, 0.0)

    def layer(name: str) -> LayerTotals:
        return totals.get(name, zero)

    in_requests = [s for s in spans if s.run_id in traced_ids]
    request_totals = layer_totals(in_requests)
    rows_in_requests = (
        counts["marketstack.rows_solved"] - setup_counts["marketstack.rows_solved"]
    )
    dirty_rows = sum(r.dirty_rows for r in traced)
    hits = sum(len(r.hit_s) for r in traced)
    misses = sum(len(r.miss_s) for r in traced)
    hit_s = [s for r in untraced for s in r.hit_s]
    miss_s = [s for r in untraced for s in r.miss_s]
    solve = layer("marketstack.solve")
    golden_inclusive = (
        layer("solvers.golden_batch").inclusive_s
        + layer("solvers.golden_scalar").inclusive_s
    )
    jobs = request_totals.get("queue.execute", zero).calls
    built = counts["mobility.markets_built"]
    traced_wall = sum(r.wall_s for r in traced)
    top_level = [
        (max(s.start, r.start), min(s.end, r.start + r.wall_s))
        for r in traced
        for s in in_requests
        if s.parent is None
        and s.thread == main_thread
        and s.end > r.start
        and s.start < r.start + r.wall_s
    ]
    values = {
        "import.repro_s": import_s,
        "mobility.build_s": layer("mobility.build").self_s,
        "mobility.markets_built": built,
        "mobility.us_per_market": 1e6 * _ratio(layer("mobility.build").self_s, built),
        "marketstack.init_s": layer("marketstack.init").self_s,
        "marketstack.init_calls": layer("marketstack.init").calls,
        "marketstack.solve_s": solve.self_s,
        "marketstack.solve_calls": solve.calls,
        "marketstack.rows_solved": counts["marketstack.rows_solved"],
        "marketstack.live_self_s": layer("marketstack.live").self_s,
        "marketstack.live_calls": layer("marketstack.live").calls,
        "marketstack.mutate_s": layer("marketstack.mutate").self_s,
        "marketstack.mutate_calls": layer("marketstack.mutate").calls,
        "marketstack.rows_per_dirty_row": _ratio(rows_in_requests, dirty_rows),
        "solvers.golden_batch_s": layer("solvers.golden_batch").self_s,
        "solvers.golden_batch_calls": layer("solvers.golden_batch").calls,
        "solvers.golden_batch_rows": counts["solvers.golden_batch_rows"],
        "solvers.golden_scalar_s": layer("solvers.golden_scalar").self_s,
        "solvers.golden_scalar_calls": layer("solvers.golden_scalar").calls,
        "solvers.refine_share": _ratio(golden_inclusive, solve.inclusive_s),
        "service.query_self_s": layer("service.query").self_s,
        "service.queries": layer("service.query").calls,
        "service.hits": hits,
        "service.misses": misses,
        "service.hit_ratio": _ratio(hits, hits + misses),
        "service.apply_self_s": layer("service.apply").self_s,
        "service.updates": layer("service.apply").calls,
        "service.dirty_rows_per_miss": _ratio(dirty_rows, misses),
        "service.hit_p50_ms": 1e3 * nearest_rank(hit_s, 50.0) if hit_s else 0.0,
        "service.hit_p99_ms": 1e3 * nearest_rank(hit_s, 99.0) if hit_s else 0.0,
        "service.miss_p95_ms": 1e3 * nearest_rank(miss_s, 95.0) if miss_s else 0.0,
        "env.reset_s": layer("env.reset").self_s,
        "env.reset_calls": layer("env.reset").calls,
        "env.step_s": layer("env.step").self_s,
        "env.step_calls": layer("env.step").calls,
        "drl.act_s": layer("drl.act").self_s,
        "drl.act_calls": layer("drl.act").calls,
        "drl.value_s": layer("drl.value").self_s,
        "drl.gae_s": layer("drl.gae").self_s,
        "drl.gae_calls": layer("drl.gae").calls,
        "drl.sample_s": layer("drl.sample").self_s,
        "drl.update_s": layer("drl.update").self_s,
        "drl.update_calls": layer("drl.update").calls,
        "drl.trainer_self_s": layer("drl.trainer").self_s,
        "experiments.run_self_s": layer("experiments.run").self_s,
        "queue.scheduler_self_s": layer("queue.scheduler").self_s,
        "queue.enqueue_s": layer("queue.enqueue").self_s,
        "queue.lease_s": layer("queue.lease").self_s,
        "queue.lease_calls": layer("queue.lease").calls,
        "queue.lease_empty": counts["queue.lease_empty"],
        "queue.execute_s": layer("queue.execute").self_s,
        "queue.store_put_s": layer("queue.store_put").self_s,
        "queue.store_get_s": layer("queue.store_get").self_s,
        "queue.store_get_calls": layer("queue.store_get").calls,
        "queue.ack_s": layer("queue.ack").self_s,
        "queue.reap_s": layer("queue.reap").self_s,
        "queue.reap_calls": layer("queue.reap").calls,
        "queue.outstanding_s": layer("queue.outstanding").self_s,
        "queue.outstanding_calls": layer("queue.outstanding").calls,
        "queue.heartbeat_calls": layer("queue.heartbeat").calls,
        "queue.contains_per_job": _ratio(
            counts["queue.contains"] - setup_counts["queue.contains"], jobs
        ),
        "trace.overhead_share": _ratio(
            traced_wall, sum(r.wall_s for r in untraced)
        ) - 1.0,
        "trace.unattributed_share": 1.0 - _ratio(covered(top_level), traced_wall),
    }
    return values
