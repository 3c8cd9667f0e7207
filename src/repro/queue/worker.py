"""Queue workers and the queue-backed scheduler.

:class:`QueueWorker` is the execution half of the queue subsystem: a loop
of lease → execute → store → ack against one shared
:class:`~repro.queue.queue.JobQueue`, with a daemon heartbeat thread
beating on a fixed cadence so a multi-minute DRL training job never
starves the liveness beacon, and an opportunistic reap before each lease
so any worker doubles as the fleet's reaper — no dedicated supervisor
process is needed for kill-resume.

:class:`QueueScheduler` adapts the queue to the
:class:`~repro.experiments.scheduler.JobScheduler` ``run()`` contract, so
``run_experiment(name, params, scheduler=QueueScheduler(queue_dir))``
batch-runs any experiment's plan against a shared queue/store: jobs whose
results are already stored are cache hits, the rest are enqueued for the
fleet, and (by default) the scheduler also runs an **inline worker** so a
single invocation completes even with no external workers — while any
external workers that are attached drain the same queue concurrently.
Results always come back from the artifact store (the JSON wire), so the
queued path is bitwise-equal to the direct path by the same float-exact
round-trip contract the process-pool scheduler pins.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ExperimentError
from repro.experiments.scheduler import Job, execute_job
from repro.queue.queue import DEFAULT_LEASE_TTL, JobQueue, LeasedJob

__all__ = ["QueueWorker", "QueueScheduler", "WorkerStats", "default_worker_id"]


def default_worker_id() -> str:
    """A fleet-unique worker id: host, pid, and a random suffix."""
    return (
        f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    )


@dataclass
class WorkerStats:
    """What one :meth:`QueueWorker.run` call did."""

    completed: int = 0
    executed: int = 0
    deduplicated: int = 0
    requeued: int = 0
    hashes: list[str] = field(default_factory=list)


class _HeartbeatThread(threading.Thread):
    """Daemon beating ``queue.heartbeat(worker_id)`` every ``interval``.

    A daemon thread dies with the process — including under SIGKILL — so
    the beacon goes stale exactly when the worker actually stops, which is
    the signal the reaper keys on. Its owner calls :meth:`stop` and then
    ``join()`` on exit, so no beacon outlives the loop that started it.
    (The event must not be named ``_stop``: ``threading.Thread`` calls its
    own ``_stop()`` from ``join()`` and ``is_alive()``.)
    """

    def __init__(self, queue: JobQueue, worker_id: str, interval: float):
        super().__init__(daemon=True, name=f"heartbeat-{worker_id}")
        self._queue = queue
        self._worker_id = worker_id
        self._interval = interval
        self._stopping = threading.Event()

    def run(self) -> None:
        while not self._stopping.is_set():
            try:
                self._queue.heartbeat(self._worker_id)
            except OSError:
                pass  # a transiently unwritable beacon is not fatal
            self._stopping.wait(self._interval)

    def stop(self) -> None:
        self._stopping.set()


class QueueWorker:
    """One worker process's loop over a shared :class:`JobQueue`.

    Execution is *at-least-once*, results are *exactly-once*: before
    running a leased job the worker checks the artifact store and, if the
    result is already there (another worker finished a reaped duplicate),
    acks without executing. A job function or result write that raises
    releases its lease back to ``pending/`` and re-raises — the failure is
    visible on this worker, and the job stays available for a retry
    elsewhere.
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        worker_id: str | None = None,
        heartbeat_interval: float | None = None,
        poll_interval: float = 0.1,
        reap: bool = True,
    ) -> None:
        self.queue = queue
        self.worker_id = worker_id or default_worker_id()
        # Default cadence: several beats per TTL, so one missed beat (GC
        # pause, NFS hiccup) never looks like death.
        self.heartbeat_interval = (
            queue.lease_ttl / 4.0
            if heartbeat_interval is None
            else float(heartbeat_interval)
        )
        if self.heartbeat_interval <= 0:
            raise ExperimentError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if poll_interval <= 0:
            raise ExperimentError(
                f"poll_interval must be > 0, got {poll_interval}"
            )
        self.poll_interval = float(poll_interval)
        self.reap = bool(reap)

    def run(
        self,
        *,
        max_jobs: int | None = None,
        drain: bool = False,
        idle_timeout: float | None = None,
    ) -> WorkerStats:
        """Lease and execute jobs until a stop condition holds.

        Stop conditions: ``max_jobs`` completions; ``drain`` and the queue
        is empty (nothing pending *and* nothing leased anywhere — i.e. the
        whole fleet's work is done, so a draining worker waits out other
        workers' leases and picks them up if they die); or ``idle_timeout``
        seconds without obtaining a lease. With none set, serves forever.
        """
        stats = WorkerStats()
        beat = _HeartbeatThread(
            self.queue, self.worker_id, self.heartbeat_interval
        )
        self.queue.heartbeat(self.worker_id)
        beat.start()
        idle_since: float | None = None
        try:
            while max_jobs is None or stats.completed < max_jobs:
                if self.reap:
                    stats.requeued += len(self.queue.reap())
                leased = self.queue.lease(self.worker_id)
                if leased is None:
                    if drain and self._fleet_done():
                        break
                    now = time.monotonic()
                    idle_since = idle_since if idle_since is not None else now
                    if (
                        idle_timeout is not None
                        and now - idle_since >= idle_timeout
                    ):
                        break
                    time.sleep(self.poll_interval)
                    continue
                idle_since = None
                self._execute(leased, stats)
        finally:
            beat.stop()
            beat.join()
        return stats

    def _execute(self, leased: LeasedJob, stats: WorkerStats) -> str:
        """Complete one lease; returns the hash its result is stored under.

        An absent result — the common case — costs one existence check;
        only a present entry is read back (and verified) in full.
        """
        store = self.queue.store
        key = leased.job.job_hash()
        existing = store.get(leased.job) if store.contains(key) else None
        if existing is not None:
            # Exactly-once results: a duplicate execution (reaped slow
            # worker, double enqueue across queues) completes by ack alone.
            self.queue.ack(leased)
            stats.deduplicated += 1
        else:
            try:
                result = execute_job(leased.job, artifact_dir=store.root)
                store.put(leased.job, result)
            except BaseException:
                # Keep the job available for a retry by another worker;
                # this worker surfaces the failure to its caller/CLI.
                self.queue.release(leased)
                raise
            self.queue.ack(leased)
            stats.executed += 1
        stats.completed += 1
        stats.hashes.append(leased.job_hash)
        return key

    def _fleet_done(self) -> bool:
        if self.queue.pending_hashes():
            return False
        held = self.queue.leased_hashes()
        mine = held.get(self.worker_id, [])
        return all(
            not hashes or worker == self.worker_id
            for worker, hashes in held.items()
        ) and not mine


class QueueScheduler:
    """The :class:`JobScheduler` ``run()`` contract over a shared queue.

    Drop-in for ``run_experiment(..., scheduler=...)`` and the CLI's
    scheduler slot: exposes the same ``workers`` / ``resume`` knobs and
    the same post-run ``cache_hits`` / ``jobs_executed`` / ``job_sources``
    accounting. ``workers`` only sizes shard-style plan fan-out (the
    ``shards`` parameter defaulting) — actual parallelism comes from how
    many worker processes are attached to the queue directory.

    With ``execute=True`` (default) the scheduler participates as an
    inline worker until the batch is complete, so one invocation finishes
    the plan even on a box with no fleet. With ``execute=False`` it only
    enqueues and waits (``wait_timeout`` bounds the wait), which is the
    pure-producer mode for driving a remote fleet.

    ``resume=False`` recomputes every job in-process and overwrites its
    stored artifact (the same overwrite semantics as
    ``JobScheduler(resume=False)``); it deliberately bypasses the shared
    queue, because other workers would dedupe against the very results
    being invalidated.
    """

    def __init__(
        self,
        queue_dir: str | Path,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        workers: int = 1,
        resume: bool = True,
        execute: bool = True,
        wait_timeout: float | None = None,
        poll_interval: float = 0.05,
        worker_id: str | None = None,
    ) -> None:
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        if wait_timeout is not None and wait_timeout <= 0:
            raise ExperimentError(
                f"wait_timeout must be > 0 seconds, got {wait_timeout}"
            )
        self.queue = JobQueue(queue_dir, lease_ttl=lease_ttl)
        self.workers = workers
        self.resume = resume
        self.execute = execute
        self.wait_timeout = wait_timeout
        self.poll_interval = float(poll_interval)
        self.worker_id = worker_id or default_worker_id()
        self.cache_hits = 0
        self.jobs_executed = 0
        self.jobs_completed_elsewhere = 0
        self.job_sources: list[str] = []

    @property
    def cache_dir(self) -> Path:
        """The artifact-store root (the queue's result cache)."""
        return self.queue.store.root

    def run(self, jobs: Sequence[Job]) -> list:
        """Execute ``jobs`` via the shared queue; results in job order.

        Matches ``JobScheduler.run`` semantics: duplicate specs collapse
        onto one execution, results already in the store are cache hits
        served without touching the queue, and every returned payload is
        the store's JSON-round-tripped form (bitwise-equal to direct
        execution).
        """
        jobs = list(jobs)
        self.cache_hits = 0
        self.jobs_executed = 0
        self.jobs_completed_elsewhere = 0
        self.job_sources = ["cache"] * len(jobs)
        results: list = [None] * len(jobs)
        store = self.queue.store
        pending: dict[str, list[int]] = {}
        pending_jobs: dict[str, Job] = {}
        for index, job in enumerate(jobs):
            key = job.job_hash()
            if key in pending:
                pending[key].append(index)
                self.job_sources[index] = "executed"
                continue
            artifact = (
                store.get(job) if self.resume and store.contains(key) else None
            )
            if artifact is not None:
                results[index] = artifact.result
                self.cache_hits += 1
            else:
                pending[key] = [index]
                pending_jobs[key] = job
                self.job_sources[index] = "executed"
        if not pending:
            return results
        if not self.resume:
            self._recompute_inline(pending_jobs)
        else:
            self.queue.enqueue_many(pending_jobs.values())
            if self.execute:
                self._drain_inline(set(pending))
            else:
                self._await_results(set(pending))
        executed_locally = self.jobs_executed
        for key, indices in pending.items():
            artifact = store.get(pending_jobs[key])
            if artifact is None:  # pragma: no cover - _await_results guards
                raise ExperimentError(
                    f"job {key[:16]}... completed without a stored result"
                )
            for index in indices:
                results[index] = artifact.result
        self.jobs_executed = len(pending)
        self.jobs_completed_elsewhere = len(pending) - executed_locally
        return results

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _recompute_inline(self, pending_jobs: dict[str, Job]) -> None:
        for job in pending_jobs.values():
            result = execute_job(job, artifact_dir=self.queue.store.root)
            self.queue.store.put(job, result)
            self.jobs_executed += 1

    def _drain_inline(self, batch: set[str]) -> None:
        """Work the queue as an inline worker until the batch is stored.

        The inline worker executes whatever it leases — its own batch or a
        cooperating producer's jobs — because a shared queue has no "my
        jobs first" ordering; reaping before each lease keeps a dead
        external worker from stalling the batch for more than one TTL.

        Completion is tracked incrementally: a batch hash is dropped from
        ``remaining`` as soon as this worker stores (or dedupes) it, and
        the store is asked about the rest only when the queue has nothing
        to lease — which is also how jobs finished by other workers are
        seen. Returns with every batch hash stored.
        """
        worker = QueueWorker(
            self.queue,
            worker_id=self.worker_id,
            poll_interval=self.poll_interval,
        )
        deadline = (
            time.monotonic() + self.wait_timeout
            if self.wait_timeout is not None
            else None
        )
        beat = _HeartbeatThread(
            self.queue, self.worker_id, worker.heartbeat_interval
        )
        self.queue.heartbeat(self.worker_id)
        beat.start()
        remaining = set(batch)
        try:
            while remaining:
                self.queue.reap()
                leased = self.queue.lease(self.worker_id)
                if leased is not None:
                    stats = WorkerStats()
                    remaining.discard(worker._execute(leased, stats))
                    self.jobs_executed += stats.executed
                    continue
                remaining = set(self.queue.outstanding(sorted(remaining)))
                if not remaining:
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    raise ExperimentError(
                        f"queue batch incomplete after wait_timeout="
                        f"{self.wait_timeout}s; outstanding: "
                        f"{sorted(remaining)}"
                    )
                time.sleep(self.poll_interval)
        finally:
            beat.stop()
            beat.join()

    def _await_results(self, batch: set[str]) -> None:
        deadline = (
            time.monotonic() + self.wait_timeout
            if self.wait_timeout is not None
            else None
        )
        while True:
            # Only jobs still missing at the last poll are checked again.
            outstanding = self.queue.outstanding(sorted(batch))
            if not outstanding:
                return
            batch = set(outstanding)
            if deadline is not None and time.monotonic() >= deadline:
                raise ExperimentError(
                    f"queue batch incomplete after wait_timeout="
                    f"{self.wait_timeout}s; outstanding jobs: "
                    f"{[key[:16] for key in outstanding]}"
                )
            self.queue.reap()
            time.sleep(self.poll_interval)
