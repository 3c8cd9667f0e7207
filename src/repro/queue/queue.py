"""Shared job queue: lease-based work distribution over a directory.

The queue is a directory any number of producers and workers share — on
one box, or across machines via a network filesystem (nothing below needs
more than atomic rename within one filesystem; an object-store backend
would swap the directory primitives for conditional puts). Layout::

    <queue_dir>/
        pending/<job_hash>.json        # enqueued job specs {"kind","payload"}
        leases/<worker_id>/<hash>.json # specs a worker is executing
        heartbeats/<worker_id>.json    # liveness beacons, one per worker
        results/<hash>.json            # the ArtifactStore (+ checkpoints/)

**Leasing.** A worker takes a job by atomically renaming its spec file
from ``pending/`` into its own ``leases/<worker_id>/`` directory — rename
either succeeds for exactly one contender or raises, so no lock manager is
needed and two workers can never both hold the same job. Acking (after the
result is stored) deletes the lease file; releasing renames it back. Each
:class:`JobQueue` walks a hash-ordered snapshot of ``pending/`` and lists
the directory again only when the snapshot runs dry, so leasing a batch of
N jobs costs O(N) renames plus a few listings, not N listings of N names.

**Heartbeats.** Every worker rewrites its heartbeat file on a fixed
cadence (a daemon thread in :class:`~repro.queue.worker.QueueWorker`, so a
long job does not starve the beacon). A reaper pass —
:meth:`JobQueue.reap`, run opportunistically by every worker and by the
scheduler's wait loop — expires any worker whose heartbeat is older than
``lease_ttl`` (or missing) and renames its leased specs back to
``pending/``, so a SIGKILLed worker's jobs requeue after at most one TTL.

**Exactly-once results from at-least-once execution.** Reaping a worker
that was merely slow (not dead) means two workers may execute the same
job. That is safe by construction: results are content-addressed by the
job hash in the artifact store, job functions are pure, and every store
write is atomic — both workers produce the identical entry, and a worker
finding the result already stored acks without executing. Requeue/retry
therefore never forks state; it only wastes the duplicated compute.

Timestamps ride *inside* the heartbeat file (wall clock of the writer),
falling back to the file's mtime if unreadable; ``lease_ttl`` must
comfortably exceed heartbeat cadence + clock skew between machines.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ExperimentError
from repro.experiments.scheduler import Job
from repro.queue.artifacts import ArtifactStore
from repro.utils.serialization import load_json

__all__ = ["JobQueue", "LeasedJob", "QueueStats", "DEFAULT_LEASE_TTL"]

DEFAULT_LEASE_TTL = 60.0
"""Default seconds of heartbeat silence before a worker's leases requeue."""


def _json_names(directory: Path) -> list[str]:
    """The ``*.json`` entry names in ``directory``, sorted as strings.

    The same names ``directory.glob("*.json")`` yields (a writer's
    ``<name>.json.<pid>.<uuid>.tmp`` and quarantined ``.rejected`` specs
    are not among them), from one ``listdir`` without building a ``Path``
    per entry. A directory removed meanwhile (a reaped worker's) lists as
    empty, as it globs.
    """
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(name for name in names if name.endswith(".json"))


@dataclass(frozen=True)
class LeasedJob:
    """One job a worker currently holds: the spec plus its lease file."""

    job: Job
    job_hash: str
    worker_id: str
    path: Path


@dataclass(frozen=True)
class QueueStats:
    """A point-in-time census of the queue directory."""

    pending: int
    leased: int
    stored: int
    workers: int


class JobQueue:
    """A shared-directory job queue with leasing, heartbeats, and reaping.

    Every operation is safe under concurrent producers, workers, and
    reapers; none holds a lock. ``lease_ttl`` is the liveness contract:
    a worker whose heartbeat goes stale for longer than this forfeits its
    leases.
    """

    def __init__(
        self, queue_dir: str | Path, *, lease_ttl: float = DEFAULT_LEASE_TTL
    ) -> None:
        if lease_ttl <= 0:
            raise ExperimentError(
                f"lease_ttl must be > 0 seconds, got {lease_ttl}"
            )
        self.root = Path(queue_dir)
        self.lease_ttl = float(lease_ttl)
        self.pending_dir = self.root / "pending"
        self.leases_dir = self.root / "leases"
        self.heartbeats_dir = self.root / "heartbeats"
        self.store = ArtifactStore(self.root / "results")
        for directory in (
            self.pending_dir,
            self.leases_dir,
            self.heartbeats_dir,
            self.store.root,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        # Spec names in pending/ this instance has listed but not yet
        # tried to lease, in hash order (see lease()).
        self._snapshot: deque[str] = deque()

    # ------------------------------------------------------------------ #
    # producing
    # ------------------------------------------------------------------ #
    def enqueue(self, job: Job, *, queued: set[str] | None = None) -> bool:
        """Make ``job`` available for leasing; returns False if redundant.

        Redundant means its result is already in the artifact store, or an
        identical spec is already pending or leased — the content hash
        dedupes across producers, so N schedulers enqueueing the same plan
        yield one execution. The spec file is written atomically through a
        unique temp name; racing producers both "win" with identical
        content.

        ``queued`` is the set of hashes pending or leased as of one listing
        of ``pending/`` and every ``leases/*/`` (:meth:`enqueue_many` passes
        its batch listing; None takes a fresh one); a newly enqueued hash
        is added to it.
        """
        key = job.job_hash()
        if queued is None:
            queued = self._queued_hashes()
        if key in queued or self.store.contains(key):
            return False
        self._write_spec(self.pending_dir / f"{key}.json", job)
        queued.add(key)
        return True

    def enqueue_many(self, jobs: Iterable[Job]) -> int:
        """Enqueue a batch; returns how many were newly enqueued.

        ``pending/`` and every ``leases/*/`` are listed once for the whole
        batch. A spec another producer enqueues after that listing is
        written again with identical content, the same benign race as two
        concurrent :meth:`enqueue` calls.
        """
        queued = self._queued_hashes()
        return sum(1 for job in jobs if self.enqueue(job, queued=queued))

    # ------------------------------------------------------------------ #
    # leasing
    # ------------------------------------------------------------------ #
    def lease(self, worker_id: str) -> LeasedJob | None:
        """Atomically claim one pending job for ``worker_id`` (or None).

        Claiming renames the spec file into ``leases/<worker_id>/``;
        losing a rename race to another worker just moves on to the next
        candidate. A fresh heartbeat is written first so a job can never
        be held by a worker that looks dead from the moment it leased.
        Candidates are taken in hash order — deterministic across workers,
        which spreads contenders instead of having every worker fight over
        one file (each loser retries the next candidate).

        Candidates come from a snapshot of ``pending/`` this instance keeps
        between calls; the directory is listed again only when the snapshot
        runs dry, and None means a fresh listing found nothing. A spec
        enqueued or requeued after the snapshot was taken therefore waits
        for the next listing, at most one pass over the snapshot.
        """
        worker_dir = self.leases_dir / self._safe_worker_id(worker_id)
        worker_dir.mkdir(parents=True, exist_ok=True)
        self.heartbeat(worker_id)
        while True:
            if not self._snapshot:
                self._snapshot.extend(_json_names(self.pending_dir))
                if not self._snapshot:
                    return None
            name = self._snapshot.popleft()
            claimed = worker_dir / name
            try:
                os.replace(self.pending_dir / name, claimed)
            except FileNotFoundError:
                continue  # another worker won this rename; try the next
            try:
                job = Job.from_spec(load_json(claimed))
            except (ExperimentError, json.JSONDecodeError, OSError) as exc:
                # A malformed spec must not wedge the queue: park it out
                # of rotation with a .rejected suffix and keep leasing.
                claimed.rename(claimed.with_suffix(".rejected"))
                raise ExperimentError(
                    f"queue spec {name} is malformed and was "
                    f"quarantined as {claimed.with_suffix('.rejected').name}: "
                    f"{exc}"
                ) from exc
            return LeasedJob(
                job=job,
                job_hash=claimed.stem,
                worker_id=worker_id,
                path=claimed,
            )

    def ack(self, leased: LeasedJob) -> None:
        """Complete a lease: the result is stored, drop the spec file.

        Tolerates the file having been reaped away (the slow-worker race):
        the job will be re-leased elsewhere, find its result stored, and
        ack again harmlessly.
        """
        leased.path.unlink(missing_ok=True)

    def release(self, leased: LeasedJob) -> None:
        """Return a leased job to ``pending/`` without completing it."""
        try:
            os.replace(leased.path, self.pending_dir / leased.path.name)
        except FileNotFoundError:
            pass  # already reaped back or acked concurrently

    # ------------------------------------------------------------------ #
    # heartbeats and reaping
    # ------------------------------------------------------------------ #
    def heartbeat(self, worker_id: str, *, now: float | None = None) -> Path:
        """Rewrite ``worker_id``'s liveness beacon (atomic replace)."""
        path = self.heartbeats_dir / f"{self._safe_worker_id(worker_id)}.json"
        stamp = time.time() if now is None else float(now)
        entry = {"worker_id": str(worker_id), "pid": os.getpid(), "time": stamp}
        temporary = path.with_name(
            f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        )
        try:
            temporary.write_text(json.dumps(entry) + "\n")
            os.replace(temporary, path)
        finally:
            temporary.unlink(missing_ok=True)
        return path

    def heartbeat_age(
        self, worker_id: str, *, now: float | None = None
    ) -> float | None:
        """Seconds since ``worker_id`` last beat, or None if it never has.

        Prefers the timestamp written inside the beacon; falls back to the
        file's mtime if the content is unreadable.
        """
        path = self.heartbeats_dir / f"{self._safe_worker_id(worker_id)}.json"
        reference = time.time() if now is None else float(now)
        try:
            entry = load_json(path)
            stamp = float(entry["time"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            try:
                stamp = path.stat().st_mtime
            except OSError:
                return None
        return max(0.0, reference - stamp)

    def reap(self, *, now: float | None = None) -> list[str]:
        """Requeue every lease held by a stale or heartbeat-less worker.

        A worker is stale when its heartbeat is older than ``lease_ttl``
        (or missing entirely — e.g. its beacon was cleaned up but a lease
        file survived a partial crash). Returns the requeued job hashes.
        Safe to run from any process at any time; concurrent reapers race
        benignly on the renames.
        """
        requeued: list[str] = []
        for worker_dir in sorted(self.leases_dir.iterdir()):
            if not worker_dir.is_dir():
                continue
            age = self.heartbeat_age(worker_dir.name, now=now)
            leases = sorted(worker_dir.glob("*.json"))
            if age is not None and age <= self.lease_ttl:
                continue
            for lease in leases:
                try:
                    os.replace(lease, self.pending_dir / lease.name)
                except FileNotFoundError:
                    continue  # acked/released/reaped concurrently
                requeued.append(lease.stem)
            # Retire the dead worker's bookkeeping once its leases are
            # drained; ignore races with the worker coming back to life.
            if not any(worker_dir.iterdir()):
                heartbeat = (
                    self.heartbeats_dir / f"{worker_dir.name}.json"
                )
                heartbeat.unlink(missing_ok=True)
                try:
                    worker_dir.rmdir()
                except OSError:
                    pass
        return requeued

    # ------------------------------------------------------------------ #
    # census
    # ------------------------------------------------------------------ #
    def pending_hashes(self) -> list[str]:
        """Hashes currently waiting to be leased (sorted)."""
        return [
            name[: -len(".json")] for name in _json_names(self.pending_dir)
        ]

    def leased_hashes(self) -> dict[str, list[str]]:
        """worker directory name → hashes it currently holds."""
        return {
            worker_dir.name: [
                name[: -len(".json")] for name in _json_names(worker_dir)
            ]
            for worker_dir in sorted(self.leases_dir.iterdir())
            if worker_dir.is_dir()
        }

    def outstanding(self, hashes: Sequence[str] | None = None) -> list[str]:
        """Of ``hashes`` (default: everything enqueued), those without a
        stored result yet — the completion predicate schedulers wait on."""
        if hashes is None:
            keys = set(self.pending_hashes())
            for held in self.leased_hashes().values():
                keys.update(held)
        else:
            keys = set(hashes)
        return sorted(key for key in keys if not self.store.contains(key))

    def stats(self) -> QueueStats:
        """A point-in-time census (counts race with live workers)."""
        leased = self.leased_hashes()
        return QueueStats(
            pending=len(self.pending_hashes()),
            leased=sum(len(held) for held in leased.values()),
            stored=len(self.store),
            workers=len(leased),
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _safe_worker_id(worker_id: str) -> str:
        """Worker ids become directory names; reject path-meaningful ones."""
        text = str(worker_id)
        if not text or "/" in text or "\\" in text or text in (".", ".."):
            raise ExperimentError(
                f"worker id {worker_id!r} is not a valid directory name"
            )
        return text

    def _queued_hashes(self) -> set[str]:
        """Hashes pending or leased anywhere, from one listing of each."""
        queued = set(self.pending_hashes())
        for held in self.leased_hashes().values():
            queued.update(held)
        return queued

    def _write_spec(self, path: Path, job: Job) -> None:
        temporary = path.with_name(
            f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        )
        try:
            with open(temporary, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(job.spec(), indent=2) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, path)
        finally:
            temporary.unlink(missing_ok=True)
