"""In-memory spans around calls into the program's layers.

The traced run installs timing wrappers on a fixed list of the program's
public functions and methods (:data:`HOOKS`), runs the workload, and
removes them again; untraced runs never import a wrapper. Each wrapped
call records one span — name, start, end, parent span, run id — on the
calling thread's own span stack (the queue's heartbeat thread calls
``JobQueue.heartbeat`` concurrently with the main thread). Spans stay in
memory and are written once, at exit, by :meth:`Tracer.write`.

A layer's *self time* is its spans' durations minus the part of each
interval that child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    """One timed call. ``parent`` is the enclosing span's id on the same
    thread (None at the top of a thread's stack)."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """Where to wrap: ``target`` is ``"module:attr"`` or
    ``"module:Class.attr"``. ``count_only`` hooks bump a counter instead
    of recording a span (for calls too frequent and too cheap to time).
    ``on_result(tracer, result)`` records extra counts."""

    name: str
    target: str
    count_only: bool = False
    on_result: Callable | None = None


def _count_markets(tracer: "Tracer", result) -> None:
    tracer.count("mobility.markets_built", len(result))


def _count_rows(tracer: "Tracer", result) -> None:
    tracer.count("marketstack.rows_solved", len(result.prices))


def _count_golden_rows(tracer: "Tracer", result) -> None:
    tracer.count("solvers.golden_batch_rows", len(result[0]))


def _count_empty_lease(tracer: "Tracer", result) -> None:
    if result is None:
        tracer.count("queue.lease_empty")


HOOKS: tuple[Hook, ...] = (
    Hook("mobility.build", "repro.mobility.citygrid:city_markets",
         on_result=_count_markets),
    Hook("marketstack.init", "repro.core.marketstack:MarketStack.__init__"),
    Hook("marketstack.solve",
         "repro.core.marketstack:MarketStack.equilibria_stacked",
         on_result=_count_rows),
    Hook("marketstack.solve",
         "repro.core.marketstack:MarketStack.equilibria_stacked_chunked",
         on_result=_count_rows),
    Hook("marketstack.live",
         "repro.core.marketstack:MutableMarketStack.equilibria_live"),
    Hook("marketstack.mutate",
         "repro.core.marketstack:MutableMarketStack.update_market"),
    Hook("marketstack.mutate", "repro.core.marketstack:MutableMarketStack.join"),
    Hook("marketstack.mutate", "repro.core.marketstack:MutableMarketStack.leave"),
    Hook("marketstack.mutate",
         "repro.core.marketstack:MutableMarketStack.set_fading_gain"),
    Hook("solvers.golden_batch", "repro.core.marketstack:grid_then_golden_batch",
         on_result=_count_golden_rows),
    Hook("solvers.golden_scalar",
         "repro.core.marketstack:golden_section_maximize"),
    Hook("service.query", "repro.service.pricing:LivePricingService.query"),
    Hook("service.apply", "repro.service.pricing:LivePricingService.apply"),
    Hook("env.reset", "repro.env.vector:VectorMigrationEnv.reset"),
    Hook("env.step", "repro.env.vector:VectorMigrationEnv.step"),
    Hook("drl.act", "repro.drl.ppo:PPOAgent.act_batch"),
    Hook("drl.value", "repro.drl.ppo:PPOAgent.value_batch"),
    Hook("drl.update", "repro.drl.ppo:PPOAgent.update"),
    Hook("drl.gae", "repro.drl.buffer:VectorRolloutStorage.pooled"),
    Hook("drl.sample", "repro.drl.trainer:sample_minibatch"),
    Hook("drl.trainer", "repro.drl.trainer:VectorTrainer.train"),
    Hook("experiments.run", "repro.experiments.api:run_experiment"),
    Hook("queue.scheduler", "repro.queue.worker:QueueScheduler.run"),
    Hook("queue.enqueue", "repro.queue.queue:JobQueue.enqueue"),
    Hook("queue.lease", "repro.queue.queue:JobQueue.lease",
         on_result=_count_empty_lease),
    Hook("queue.ack", "repro.queue.queue:JobQueue.ack"),
    Hook("queue.reap", "repro.queue.queue:JobQueue.reap"),
    Hook("queue.outstanding", "repro.queue.queue:JobQueue.outstanding"),
    Hook("queue.heartbeat", "repro.queue.queue:JobQueue.heartbeat"),
    Hook("queue.execute", "repro.queue.worker:execute_job"),
    Hook("queue.store_put", "repro.queue.artifacts:ArtifactStore.put"),
    Hook("queue.store_get", "repro.queue.artifacts:ArtifactStore.get"),
    Hook("queue.contains", "repro.queue.artifacts:ArtifactStore.contains",
         count_only=True),
)
"""Every layer boundary the traced run times. Module-level functions are
wrapped under the name the *calling* module imported them by (e.g.
``grid_then_golden_batch`` as bound in ``repro.core.marketstack``), so
only the calls the named layer makes are timed."""


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.run_id = "setup"
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        """``fn`` wrapped to record a span (or a count) per call."""
        name = hook.name
        on_result = hook.on_result
        perf = time.perf_counter

        if hook.count_only:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count(name)
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, start, end, parent, self.run_id,
                         threading.get_ident())
                )
            if on_result is not None:
                on_result(self, result)
            return result

        return timed

    # ------------------------------------------------------------------ #
    # installing
    # ------------------------------------------------------------------ #
    def install(self, hooks: Iterable[Hook] = HOOKS) -> None:
        """Wrap every hook target that resolves; unresolvable targets are
        listed in :attr:`missing` (their metrics then read 0)."""
        self.missing = []
        for hook in hooks:
            module_name, _, path = hook.target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(hook.target)
                continue
            setattr(owner, attr, self.wrap(hook, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in reverse install order)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span (one JSON object per line) and the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end]`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """span id → duration minus the union of its children's intervals
    (clipped to the parent's own interval)."""
    by_id = {span.span_id: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            parent = by_id[span.parent]
            children[span.parent].append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.span_id: span.duration - covered(children.get(span.span_id, ()))
        for span in spans
    }


@dataclass(frozen=True)
class LayerTotals:
    """Per span name: calls (outermost only), inclusive and self seconds."""

    calls: int
    inclusive_s: float
    self_s: float


def layer_totals(spans: Sequence[Span]) -> dict[str, LayerTotals]:
    """Aggregate spans by name.

    A span nested directly in a span of the same name (``join`` calling
    ``update_market``) is not a separate call and adds no inclusive time;
    its self time still counts, so self times partition the wall time.
    """
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    calls: Counter[str] = Counter()
    inclusive: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    for span in spans:
        self_s[span.name] += own[span.span_id]
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None or parent.name != span.name:
            calls[span.name] += 1
            inclusive[span.name] += span.duration
    return {
        name: LayerTotals(calls[name], inclusive[name], self_s[name])
        for name in self_s
    }
