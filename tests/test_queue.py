"""Queue subsystem tests: leasing, heartbeats, reaping, artifacts,
and the queue-backed scheduler's bitwise-equality contract.

Lease-expiry paths run on *fake time* (the ``now=`` injection points on
``heartbeat`` / ``heartbeat_age`` / ``reap``) so a 60-second TTL tests in
milliseconds; the one place real time matters — a survivor worker reaping
a worker whose beacon was staled into the past — still completes
instantly because reap compares the beacon's recorded stamp against real
wall clock. The subprocess/SIGKILL end of kill-resume lives in
``test_queue_smoke.py``.
"""

import errno
import json
import os
import signal
import threading
import time
import uuid

import pytest

import repro.queue.artifacts as artifacts_module
import repro.queue.queue as queue_module
import repro.queue.worker as worker_module
from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population, sample_population
from repro.errors import ExperimentError
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.fig3_cost import run_fig3_cost
from repro.experiments.robustness import run_distance_sweep
from repro.experiments.run import schedule_main, worker_main
from repro.experiments.scheduler import (
    Job,
    JobScheduler,
    execute_job,
    market_to_payload,
)
from repro.queue import (
    Artifact,
    ArtifactStore,
    JobQueue,
    QueueScheduler,
    QueueWorker,
)
from repro.utils.serialization import load_json, save_json

WATCHDOG_SECONDS = 120.0


@pytest.fixture(autouse=True)
def _watchdog():
    """Per-test timeout guard: a stuck wait loop fails fast, not forever."""
    if not hasattr(signal, "SIGALRM"):  # non-POSIX fallback: no guard
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"queue test exceeded the {WATCHDOG_SECONDS}s watchdog — "
            "a drain/wait loop is probably stuck"
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _cell_jobs(count=3):
    return [
        Job(
            "equilibrium_cell",
            {
                "market": market_to_payload(
                    StackelbergMarket(sample_population(3, seed=seed))
                )
            },
        )
        for seed in range(count)
    ]


def _drain(queue, worker_id="test-worker"):
    """Run one in-process worker until the queue is empty."""
    worker = QueueWorker(queue, worker_id=worker_id, poll_interval=0.01)
    return worker.run(drain=True)


def _heartbeat_threads():
    return [
        thread
        for thread in threading.enumerate()
        if isinstance(thread, worker_module._HeartbeatThread)
    ]


def _stray_name(job_hash):
    """The temp name a writer killed between write and rename leaves."""
    return f"{job_hash}.json.{os.getpid()}.{uuid.uuid4().hex}.tmp"


class TestJobQueue:
    def test_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ExperimentError, match="lease_ttl"):
            JobQueue(tmp_path, lease_ttl=0.0)

    def test_enqueue_lease_ack_lifecycle(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _cell_jobs(1)[0]
        assert queue.enqueue(job) is True
        assert queue.pending_hashes() == [job.job_hash()]
        leased = queue.lease("w1")
        assert leased is not None
        assert leased.job_hash == job.job_hash()
        assert leased.job.spec() == job.spec()
        assert queue.pending_hashes() == []
        assert queue.leased_hashes() == {"w1": [job.job_hash()]}
        queue.store.put(leased.job, execute_job(leased.job))
        queue.ack(leased)
        assert queue.leased_hashes() == {"w1": []}
        assert queue.outstanding() == []

    def test_enqueue_dedupes_pending_leased_and_stored(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _cell_jobs(1)[0]
        assert queue.enqueue(job) is True
        assert queue.enqueue(job) is False  # already pending
        leased = queue.lease("w1")
        assert queue.enqueue(job) is False  # leased
        queue.store.put(job, execute_job(job))
        queue.ack(leased)
        assert queue.enqueue(job) is False  # stored
        assert queue.enqueue_many(_cell_jobs(2)) == 1  # job 0 is stored

    def test_lease_empty_queue_returns_none(self, tmp_path):
        assert JobQueue(tmp_path).lease("w1") is None

    def test_two_workers_never_hold_the_same_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue_many(_cell_jobs(3))
        held = []
        for worker_id in ("a", "b", "c", "d"):
            leased = queue.lease(worker_id)
            if leased is not None:
                held.append(leased.job_hash)
        assert len(held) == 3
        assert len(set(held)) == 3
        assert queue.pending_hashes() == []

    def test_release_returns_job_to_pending(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _cell_jobs(1)[0]
        queue.enqueue(job)
        leased = queue.lease("w1")
        queue.release(leased)
        assert queue.pending_hashes() == [job.job_hash()]
        assert queue.leased_hashes()["w1"] == []

    def test_worker_id_must_be_a_directory_name(self, tmp_path):
        queue = JobQueue(tmp_path)
        for bad in ("", "a/b", "..", "a\\b"):
            with pytest.raises(ExperimentError, match="worker id"):
                queue.heartbeat(bad)

    def test_malformed_pending_spec_is_quarantined(self, tmp_path):
        queue = JobQueue(tmp_path)
        good = _cell_jobs(1)[0]
        queue.enqueue(good)
        bad = queue.pending_dir / ("0" * 64 + ".json")
        bad.write_text('{"kind": "x"}')  # missing payload
        with pytest.raises(ExperimentError, match="quarantined"):
            while queue.lease("w1") is not None:
                pass
        rejected = list(queue.leases_dir.glob("*/*.rejected"))
        assert len(rejected) == 1
        # The queue is not wedged: the good job still leases.
        assert queue.pending_hashes() in ([good.job_hash()], [])
        remaining = queue.lease("w1")
        if remaining is not None:
            assert remaining.job_hash == good.job_hash()


    def test_lease_relists_before_reporting_empty(self, tmp_path):
        """A spec enqueued after the lease snapshot was taken is still
        leased: None only comes after a fresh listing finds nothing."""
        queue = JobQueue(tmp_path)
        first, late = _cell_jobs(2)
        queue.enqueue(first)
        assert queue.lease("w1").job_hash == first.job_hash()
        JobQueue(tmp_path).enqueue(late)  # another producer
        assert queue.lease("w1").job_hash == late.job_hash()
        assert queue.lease("w1") is None

    def test_lease_takes_a_listing_in_hash_order(self, tmp_path):
        queue = JobQueue(tmp_path)
        jobs = _cell_jobs(4)
        queue.enqueue_many(jobs)
        leased = [queue.lease("w1").job_hash for _ in jobs]
        assert leased == sorted(job.job_hash() for job in jobs)

    def test_lease_skips_snapshot_entries_taken_elsewhere(self, tmp_path):
        queue = JobQueue(tmp_path)
        jobs = _cell_jobs(3)
        queue.enqueue_many(jobs)
        mine = queue.lease("w1")  # snapshot now holds the other two
        theirs = JobQueue(tmp_path).lease("w2")
        rest = queue.lease("w1")
        assert queue.lease("w1") is None
        assert {mine.job_hash, theirs.job_hash, rest.job_hash} == {
            job.job_hash() for job in jobs
        }

    def test_enqueue_many_dedupes_against_one_listing(self, tmp_path):
        queue = JobQueue(tmp_path)
        pending, leased, stored, fresh = _cell_jobs(4)
        queue.enqueue(leased)
        queue.lease("w1")
        queue.enqueue(pending)
        queue.store.put(stored, execute_job(stored))
        batch = [pending, leased, stored, fresh, fresh]
        assert queue.enqueue_many(batch) == 1
        assert sorted(queue.pending_hashes()) == sorted(
            [pending.job_hash(), fresh.job_hash()]
        )

    def test_json_listing_filters_as_glob_does(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _cell_jobs(1)[0]
        queue.enqueue(job)
        key = job.job_hash()
        (queue.pending_dir / _stray_name(key)).write_text("{")
        (queue.pending_dir / f"{'1' * 64}.rejected").write_text("{}")
        (queue.pending_dir / ".hidden.json").write_text("{}")
        (queue.pending_dir / "nested.json").mkdir()
        assert queue_module._json_names(queue.pending_dir) == sorted(
            path.name for path in queue.pending_dir.glob("*.json")
        )
        assert queue_module._json_names(tmp_path / "missing") == []


class TestHeartbeatsAndReaping:
    def test_heartbeat_age_uses_recorded_stamp(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        now = 1_000_000.0
        queue.heartbeat("w1", now=now - 42.0)
        assert queue.heartbeat_age("w1", now=now) == pytest.approx(42.0)
        assert queue.heartbeat_age("never-beat", now=now) is None

    def test_heartbeat_age_falls_back_to_mtime(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        path = queue.heartbeat("w1")
        path.write_text("not json")
        age = queue.heartbeat_age("w1")
        assert age is not None and age < 60.0

    def test_reap_requeues_only_stale_workers(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        jobs = _cell_jobs(2)
        queue.enqueue_many(jobs)
        now = 1_000_000.0
        dead = queue.lease("dead")
        live = queue.lease("live")
        # lease() writes a fresh beacon; stale only the dead worker's.
        queue.heartbeat("dead", now=now - 61.0)
        queue.heartbeat("live", now=now - 59.0)
        requeued = queue.reap(now=now)
        assert requeued == [dead.job_hash]
        assert queue.pending_hashes() == [dead.job_hash]
        assert queue.leased_hashes() == {"live": [live.job_hash]}
        # The dead worker's bookkeeping is retired with its leases.
        assert not (queue.leases_dir / "dead").exists()
        assert not (queue.heartbeats_dir / "dead.json").exists()

    def test_reap_within_ttl_is_a_noop(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        queue.enqueue_many(_cell_jobs(1))
        now = 1_000_000.0
        leased = queue.lease("w1")
        queue.heartbeat("w1", now=now)
        assert queue.reap(now=now + 59.0) == []
        assert queue.leased_hashes() == {"w1": [leased.job_hash]}

    def test_reap_treats_missing_heartbeat_as_dead(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        queue.enqueue_many(_cell_jobs(1))
        leased = queue.lease("w1")
        (queue.heartbeats_dir / "w1.json").unlink()
        assert queue.reap() == [leased.job_hash]
        assert queue.pending_hashes() == [leased.job_hash]

    def test_requeued_job_completes_on_another_worker(self, tmp_path):
        """Kill-resume, fake-killed: a worker leases a job and dies (its
        beacon staled into the past); a survivor reaps, re-leases, and
        completes it — the queue's end-to-end liveness contract."""
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        job = _cell_jobs(1)[0]
        queue.enqueue(job)
        dead = queue.lease("dead")
        assert dead is not None
        queue.heartbeat("dead", now=time.time() - 120.0)  # SIGKILLed
        stats = _drain(queue, worker_id="survivor")
        assert stats.requeued == 1
        assert stats.executed == 1
        assert queue.outstanding() == []
        stored = queue.store.get(job)
        assert stored is not None
        assert stored.result == execute_job(job)

    def test_duplicate_execution_converges_on_one_result(self, tmp_path):
        """At-least-once execution, exactly-once results: a reaped-but-
        alive worker finishing late produces the identical entry, and a
        worker leasing an already-stored job acks without executing."""
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        job = _cell_jobs(1)[0]
        queue.enqueue(job)
        slow = queue.lease("slow")
        queue.heartbeat("slow", now=time.time() - 120.0)
        requeued = queue.reap()
        assert requeued == [slow.job_hash]
        # The slow worker was only paused, not dead: it finishes anyway.
        queue.store.put(slow.job, execute_job(slow.job))
        queue.ack(slow)  # lease file already reaped away — harmless
        # The requeued duplicate is served by dedup, not re-execution.
        stats = _drain(queue, worker_id="survivor")
        assert stats.deduplicated == 1
        assert stats.executed == 0
        assert len(queue.store) == 1


class TestHeartbeatThread:
    def test_stopped_thread_joins_and_reports_dead(self, tmp_path):
        queue = JobQueue(tmp_path)
        beat = worker_module._HeartbeatThread(queue, "w1", 0.01)
        beat.start()
        assert beat.is_alive()
        beat.stop()
        beat.join(timeout=10.0)
        assert not beat.is_alive()
        beat.join()  # joining a finished thread is a no-op
        assert queue.heartbeat_age("w1") is not None

    @pytest.fixture
    def slow_to_exit(self, monkeypatch):
        """Heartbeat threads that take a while to finish once stopped, so
        only a join (not luck) clears them before their owner returns."""
        original = worker_module._HeartbeatThread.run

        def run_then_linger(thread):
            original(thread)
            time.sleep(0.2)

        monkeypatch.setattr(
            worker_module._HeartbeatThread, "run", run_then_linger
        )

    def test_no_heartbeat_thread_outlives_the_scheduler(
        self, tmp_path, slow_to_exit
    ):
        assert _heartbeat_threads() == []
        QueueScheduler(tmp_path, poll_interval=0.01).run(_cell_jobs(2))
        assert _heartbeat_threads() == []

    def test_no_heartbeat_thread_outlives_a_worker(
        self, tmp_path, slow_to_exit
    ):
        queue = JobQueue(tmp_path)
        queue.enqueue_many(_cell_jobs(2))
        assert _drain(queue).executed == 2
        assert _heartbeat_threads() == []


class TestStoreFailure:
    def test_failed_result_write_releases_the_lease(
        self, tmp_path, monkeypatch
    ):
        """A result write that fails (a full disk) must hand the job back
        to pending/ at once, not leave it leased until the TTL expires."""
        queue = JobQueue(tmp_path)
        job = _cell_jobs(1)[0]
        queue.enqueue(job)

        def disk_full(path, job, result):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(artifacts_module, "write_result_entry", disk_full)
        worker = QueueWorker(queue, worker_id="w1", poll_interval=0.01)
        with pytest.raises(OSError) as excinfo:
            worker.run(max_jobs=1)
        assert excinfo.value.errno == errno.ENOSPC
        assert queue.pending_hashes() == [job.job_hash()]
        assert queue.leased_hashes() == {"w1": []}
        assert not queue.store.contains(job)
        assert _heartbeat_threads() == []
        # Once the disk has room again the job completes normally.
        monkeypatch.undo()
        assert _drain(queue).executed == 1
        assert queue.store.get(job).result == execute_job(job)


class TestSpecFilesRoundTrip:
    """The on-disk queue spec files are the ``Job.spec()`` wire form."""

    def test_floats_survive_enqueue_lease_execute_bitwise(self, tmp_path):
        queue = JobQueue(tmp_path)
        payload = {
            "market": market_to_payload(
                StackelbergMarket(sample_population(3, seed=7))
            )
        }
        # Awkward floats that any rounding codec would mangle.
        payload["market"]["config"]["unit_cost"] = 0.1 + 0.2
        job = Job("equilibrium_cell", payload)
        queue.enqueue(job)
        on_disk = load_json(queue.pending_dir / f"{job.job_hash()}.json")
        assert Job.from_spec(on_disk).job_hash() == job.job_hash()
        leased = queue.lease("w1")
        assert leased.job.payload["market"]["config"]["unit_cost"] == 0.1 + 0.2
        direct = execute_job(job)
        queued = execute_job(leased.job)
        assert queued == direct  # bitwise: same floats in, same floats out

    def test_tampered_spec_with_unknown_keys_is_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _cell_jobs(1)[0]
        queue.enqueue(job)
        path = queue.pending_dir / f"{job.job_hash()}.json"
        entry = load_json(path)
        entry["priority"] = 9  # not part of the wire form
        path.write_text(json.dumps(entry))
        with pytest.raises(ExperimentError, match="unknown key"):
            Job.from_spec(load_json(path))
        with pytest.raises(ExperimentError, match="quarantined"):
            queue.lease("w1")


class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        job = _cell_jobs(1)[0]
        result = execute_job(job)
        artifact = store.put(job, result)
        assert isinstance(artifact, Artifact)
        assert artifact.job_hash == job.job_hash()
        assert artifact.result == result
        assert artifact.spec() == job.spec()
        loaded = store.get(job)
        assert loaded is not None
        assert loaded.result == result
        assert store.contains(job)
        assert store.hashes() == [job.job_hash()]
        assert len(store) == 1

    def test_get_absent_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get(_cell_jobs(1)[0]) is None
        assert store.load("f" * 64) is None
        assert store.hashes() == []

    def test_load_by_hash_verifies_embedded_provenance(self, tmp_path):
        store = ArtifactStore(tmp_path)
        job = _cell_jobs(1)[0]
        store.put(job, execute_job(job))
        loaded = store.load(job.job_hash())
        assert loaded.job.spec() == job.spec()
        # A foreign entry — spec does not hash to its own file name.
        foreign = store.path_for("a" * 64)
        save_json(foreign, {"job": job.spec(), "result": {"x": 1}})
        with pytest.raises(ExperimentError, match="foreign or tampered"):
            store.load("a" * 64)

    def test_get_distinguishes_foreign_file_from_collision(self, tmp_path):
        store = ArtifactStore(tmp_path)
        job = _cell_jobs(1)[0]
        store.put(job, execute_job(job))
        other = _cell_jobs(2)[1]
        save_json(
            store.path_for(job), {"job": other.spec(), "result": {"x": 1}}
        )
        with pytest.raises(ExperimentError) as excinfo:
            store.get(job)
        message = str(excinfo.value)
        # Satellite contract: the error names both kinds and says which
        # failure mode this is (foreign file, not a SHA-256 collision).
        assert "found kind 'equilibrium_cell'" in message
        assert "expected kind 'equilibrium_cell'" in message
        assert "foreign file" in message
        assert "collision" not in message.split("foreign file")[1]

    def test_replay_asserts_bitwise_equality(self, tmp_path):
        store = ArtifactStore(tmp_path)
        job = _cell_jobs(1)[0]
        artifact = store.put(job, execute_job(job))
        assert artifact.replay() == artifact.result
        # Tamper with the stored result: replay must catch it.
        entry = load_json(artifact.path)
        entry["result"]["price"] += 1e-9
        artifact.path.write_text(json.dumps(entry))
        tampered = store.load(job.job_hash())
        with pytest.raises(ExperimentError, match="does not replay"):
            tampered.replay()

    def test_every_stored_artifact_replays(self, tmp_path):
        """Acceptance: after a drain, each artifact's embedded spec
        re-executes to the identical payload."""
        queue = JobQueue(tmp_path)
        queue.enqueue_many(_cell_jobs(3))
        _drain(queue)
        artifacts = list(queue.store)
        assert len(artifacts) == 3
        for artifact in artifacts:
            assert artifact.replay() == artifact.result

    def test_cell_artifacts_record_no_checkpoint(self, tmp_path):
        store = ArtifactStore(tmp_path)
        job = _cell_jobs(1)[0]
        assert store.put(job, execute_job(job)).checkpoint() is None

    def test_store_is_a_valid_scheduler_cache(self, tmp_path):
        """The entry format is shared: a queue's results/ dir serves a
        JobScheduler as cache_dir without re-execution, and vice versa."""
        queue = JobQueue(tmp_path / "queue")
        jobs = _cell_jobs(2)
        queue.enqueue_many(jobs)
        _drain(queue)
        scheduler = JobScheduler(workers=1, cache_dir=queue.store.root)
        results = scheduler.run(jobs)
        assert scheduler.cache_hits == 2
        assert scheduler.jobs_executed == 0
        assert results == [queue.store.get(job).result for job in jobs]
        # And a scheduler cache pre-seeds a queue: nothing re-enqueues.
        cache_dir = tmp_path / "cache"
        JobScheduler(workers=1, cache_dir=cache_dir).run(jobs)
        seeded = JobQueue(tmp_path / "queue2")
        for path in cache_dir.glob("*.json"):
            (seeded.store.root / path.name).write_bytes(path.read_bytes())
        assert seeded.enqueue_many(jobs) == 0


class TestQueueScheduler:
    def test_invalid_knobs_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="workers"):
            QueueScheduler(tmp_path, workers=0)
        with pytest.raises(ExperimentError, match="wait_timeout"):
            QueueScheduler(tmp_path, wait_timeout=0.0)

    def test_inline_drain_matches_direct_execution(self, tmp_path):
        jobs = _cell_jobs(3)
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        results = scheduler.run(jobs)
        assert results == [execute_job(job) for job in jobs]
        assert scheduler.jobs_executed == 3
        assert scheduler.cache_hits == 0
        assert scheduler.job_sources == ["executed"] * 3
        # Nothing left behind: no pending files, no leases, all stored.
        assert scheduler.queue.outstanding() == []
        assert scheduler.queue.stats().pending == 0

    def test_second_run_is_all_cache_hits(self, tmp_path):
        jobs = _cell_jobs(2)
        QueueScheduler(tmp_path, poll_interval=0.01).run(jobs)
        again = QueueScheduler(tmp_path, poll_interval=0.01)
        results = again.run(jobs)
        assert again.cache_hits == 2
        assert again.jobs_executed == 0
        assert again.job_sources == ["cache"] * 2
        assert results == [execute_job(job) for job in jobs]

    def test_duplicate_jobs_collapse_to_one_execution(self, tmp_path):
        job = _cell_jobs(1)[0]
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        results = scheduler.run([job, job, job])
        assert scheduler.jobs_executed == 1
        assert results[0] == results[1] == results[2]
        assert len(scheduler.queue.store) == 1

    def test_resume_false_recomputes_and_overwrites(self, tmp_path):
        jobs = _cell_jobs(1)
        QueueScheduler(tmp_path, poll_interval=0.01).run(jobs)
        entry_path = QueueScheduler(tmp_path).queue.store.path_for(jobs[0])
        entry = load_json(entry_path)
        entry["result"]["price"] = -1.0  # poison the stored result
        entry_path.write_text(json.dumps(entry))
        fresh = QueueScheduler(tmp_path, resume=False, poll_interval=0.01)
        results = fresh.run(jobs)
        assert fresh.jobs_executed == 1
        assert fresh.cache_hits == 0
        assert results[0]["price"] != -1.0
        assert load_json(entry_path)["result"] == results[0]

    def test_producer_mode_times_out_without_a_fleet(self, tmp_path):
        scheduler = QueueScheduler(
            tmp_path, execute=False, wait_timeout=0.2, poll_interval=0.01
        )
        with pytest.raises(ExperimentError, match="wait_timeout"):
            scheduler.run(_cell_jobs(1))
        # The job stays pending for a fleet that shows up later.
        assert len(scheduler.queue.pending_hashes()) == 1

    def test_producer_mode_served_by_external_worker(self, tmp_path):
        jobs = _cell_jobs(2)
        # A "fleet" pre-computes the batch, as if racing the producer.
        fleet_queue = JobQueue(tmp_path)
        fleet_queue.enqueue_many(jobs)
        _drain(fleet_queue, worker_id="fleet")
        producer = QueueScheduler(
            tmp_path, execute=False, wait_timeout=5.0, poll_interval=0.01
        )
        results = producer.run(jobs)
        assert producer.cache_hits == 2
        assert results == [execute_job(job) for job in jobs]

    def test_scheduler_counts_work_done_by_fleet(self, tmp_path):
        """jobs_executed counts the batch's misses (the JobScheduler
        meaning) and jobs_completed_elsewhere attributes fleet work."""
        jobs = _cell_jobs(2)
        fleet_queue = JobQueue(tmp_path)
        fleet_queue.enqueue_many(jobs[:1])
        _drain(fleet_queue, worker_id="fleet")
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        scheduler.run(jobs)
        assert scheduler.cache_hits == 1
        assert scheduler.jobs_executed == 1
        assert scheduler.jobs_completed_elsewhere == 0

    def test_inline_drain_bookkeeping_is_linear_in_jobs(
        self, tmp_path, monkeypatch
    ):
        """Per job the drain makes a constant number of existence checks:
        no rescan of the whole batch per loop, no listing per lease."""
        count = 50
        jobs = _cell_jobs(count)
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        calls = {"contains": 0, "outstanding": 0, "pending_listings": 0}

        def spy(name, original, counts=lambda *args: True):
            def wrapper(*args, **kwargs):
                if counts(*args):
                    calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            ArtifactStore, "contains",
            spy("contains", ArtifactStore.contains),
        )
        monkeypatch.setattr(
            JobQueue, "outstanding", spy("outstanding", JobQueue.outstanding)
        )
        monkeypatch.setattr(
            queue_module, "_json_names",
            spy(
                "pending_listings",
                queue_module._json_names,
                lambda directory: directory == scheduler.queue.pending_dir,
            ),
        )
        results = scheduler.run(jobs)
        assert results == [execute_job(job) for job in jobs]
        assert scheduler.jobs_executed == count
        assert calls["contains"] <= 3 * count
        assert calls["outstanding"] <= 2
        assert calls["pending_listings"] <= 5

    def test_batch_job_stored_elsewhere_mid_drain_is_seen(
        self, tmp_path, monkeypatch
    ):
        """A batch job another worker leases and stores while the inline
        drain runs still completes the drain, credited to the fleet."""
        jobs = _cell_jobs(3)
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        real_execute = worker_module.execute_job
        elsewhere = []

        def execute_with_a_rival(job, artifact_dir=None):
            if not elsewhere:
                rival = JobQueue(tmp_path)
                leased = rival.lease("rival")
                rival.store.put(leased.job, real_execute(leased.job))
                rival.ack(leased)
                elsewhere.append(leased.job_hash)
            return real_execute(job, artifact_dir=artifact_dir)

        monkeypatch.setattr(worker_module, "execute_job", execute_with_a_rival)
        results = scheduler.run(jobs)
        assert results == [execute_job(job) for job in jobs]
        assert len(elsewhere) == 1
        assert elsewhere[0] in {job.job_hash() for job in jobs}
        assert scheduler.jobs_executed == 3
        assert scheduler.jobs_completed_elsewhere == 1
        assert scheduler.queue.outstanding() == []

    def test_stray_temp_files_are_never_leased(self, tmp_path):
        """A killed writer's temp files in pending/ and results/, and a
        quarantined spec, neither stall nor crash a drain."""
        jobs = _cell_jobs(3)
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        queue = scheduler.queue
        strays = [
            queue.pending_dir / _stray_name(jobs[0].job_hash()),
            queue.pending_dir / _stray_name(jobs[1].job_hash()),
            queue.pending_dir / f"{jobs[2].job_hash()}.rejected",
            queue.store.root / _stray_name(jobs[0].job_hash()),
        ]
        # A complete spec whose rename never happened, a torn spec, a
        # quarantined spec, and a torn result entry.
        strays[0].write_text(json.dumps(jobs[0].spec()))
        strays[1].write_text('{"kind": "equilibrium_ce')
        strays[2].write_text(json.dumps(jobs[2].spec()))
        strays[3].write_text('{"job": {"kind"')
        assert queue.lease("w1") is None
        results = scheduler.run(jobs)
        assert results == [execute_job(job) for job in jobs]
        assert scheduler.jobs_executed == 3
        assert all(stray.exists() for stray in strays)
        assert queue.pending_hashes() == []
        assert not list(queue.leases_dir.glob("*/*.tmp"))
        assert not list(queue.leases_dir.glob("*/*.rejected"))
        assert queue.store.hashes() == sorted(job.job_hash() for job in jobs)
        for directory in (queue.pending_dir, queue.store.root):
            assert queue_module._json_names(directory) == sorted(
                path.name for path in directory.glob("*.json")
            )


class TestQueueSchedulerExperiments:
    """Acceptance: run_experiment through QueueScheduler is bitwise-equal
    to the direct path, for a DRL figure and a robustness sweep."""

    def test_fig3_cost_bitwise_equals_direct(self, tmp_path):
        config = ExperimentConfig.smoke()
        costs = (5.0, 7.0)
        schemes = ("drl", "random", "equilibrium")
        direct = run_fig3_cost(config, costs=costs, schemes=schemes)
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        queued = run_fig3_cost(
            config, costs=costs, schemes=schemes, scheduler=scheduler
        )
        for cost in costs:
            for scheme in schemes:
                assert vars(queued.evaluations[cost][scheme]) == vars(
                    direct.evaluations[cost][scheme]
                )
        # DRL jobs parked their checkpoints in the store's sidecar dir,
        # recorded store-relative, and the artifacts resolve them.
        checkpoints = sorted(scheduler.queue.store.checkpoint_dir().glob("*.npz"))
        assert len(checkpoints) == len(costs)
        with_blob = [
            artifact
            for artifact in scheduler.queue.store
            if artifact.checkpoint() is not None
        ]
        assert len(with_blob) == len(costs)
        for artifact in with_blob:
            assert artifact.checkpoint().exists()

    def test_distance_sweep_bitwise_equals_direct(self, tmp_path):
        direct = run_distance_sweep()
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        queued = run_distance_sweep(scheduler=scheduler)
        assert queued.prices == direct.prices
        assert queued.msp_utilities == direct.msp_utilities
        assert scheduler.jobs_executed == len(direct.prices)

    def test_run_experiment_accepts_queue_scheduler(self, tmp_path):
        params = {"distances_m": (500.0, 1000.0)}
        direct = run_experiment("distance_sweep", params)
        queued = run_experiment(
            "distance_sweep",
            params,
            scheduler=QueueScheduler(tmp_path, poll_interval=0.01),
        )
        assert queued.prices == direct.prices
        assert queued.msp_utilities == direct.msp_utilities


class TestQueueCli:
    def _jobs_file(self, tmp_path, count=2):
        jobs = _cell_jobs(count)
        path = tmp_path / "jobs.json"
        save_json(path, [job.spec() for job in jobs])
        return path, jobs

    def test_schedule_enqueue_then_worker_drain(self, tmp_path, capsys):
        jobs_file, jobs = self._jobs_file(tmp_path)
        queue_dir = tmp_path / "queue"
        assert (
            schedule_main(
                [
                    "--jobs", str(jobs_file),
                    "--queue-dir", str(queue_dir),
                    "--enqueue",
                ]
            )
            == 0
        )
        assert "enqueued 2 of 2" in capsys.readouterr().out
        assert (
            worker_main(
                ["--queue-dir", str(queue_dir), "--drain", "--poll", "0.01"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 job(s) completed: 2 executed" in out
        store = JobQueue(queue_dir).store
        for job in jobs:
            assert store.get(job).result == execute_job(job)

    def test_schedule_through_queue_scheduler(self, tmp_path, capsys):
        jobs_file, jobs = self._jobs_file(tmp_path)
        queue_dir = tmp_path / "queue"
        assert (
            schedule_main(
                ["--jobs", str(jobs_file), "--queue-dir", str(queue_dir)]
            )
            == 0
        )
        assert "2 executed, 0 from cache" in capsys.readouterr().out
        # Re-run: pure cache hits through the same queue directory.
        assert (
            schedule_main(
                ["--jobs", str(jobs_file), "--queue-dir", str(queue_dir)]
            )
            == 0
        )
        assert "0 executed, 2 from cache" in capsys.readouterr().out

    def test_enqueue_requires_queue_dir(self, tmp_path):
        jobs_file, _ = self._jobs_file(tmp_path)
        with pytest.raises(SystemExit):
            schedule_main(["--jobs", str(jobs_file), "--enqueue"])

    def test_worker_rejects_bad_knobs(self, tmp_path):
        with pytest.raises(SystemExit):
            worker_main(["--queue-dir", str(tmp_path), "--ttl", "0"])
        with pytest.raises(SystemExit):
            worker_main(["--queue-dir", str(tmp_path), "--max-jobs", "0"])

    def test_worker_drains_empty_queue_immediately(self, tmp_path, capsys):
        assert (
            worker_main(["--queue-dir", str(tmp_path), "--drain"]) == 0
        )
        assert "0 job(s) completed" in capsys.readouterr().out
