"""The four benchmark workloads: seeded inputs, timed requests, gates.

Each workload generates its inputs from the run's seed, hands the program
only those inputs, times *requests* — the unit a user waits on — and then
checks the program's outputs in :meth:`Workload.gate`. Program functions
are always looked up through their module at call time (``citygrid.
city_markets(...)``, never a name bound at import), so the traced run's
wrappers see every call.

- ``city``: one request prices a whole 10 000-junction city (build the
  markets, stack them, cold chunked solve).
- ``service``: one request is a block of update/query windows served by a
  single caller in a closed loop (the next event is sent only after the
  previous call returned).
- ``train``: one request is a fig2-cadence PPO training run.
- ``sweep``: one request is a 300-draw population sweep through the job
  queue with an inline worker, into a fresh queue directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.stats import min_samples_for, nearest_rank

perf = time.perf_counter


@dataclass
class Request:
    """One timed request: ``items`` units of work in ``wall_s`` seconds,
    started at ``start`` (``time.perf_counter`` clock)."""

    start: float
    wall_s: float
    items: int
    failed: int = 0
    hit_s: list[float] = field(default_factory=list)
    miss_s: list[float] = field(default_factory=list)
    dirty_rows: int = 0


@dataclass(frozen=True)
class Gate:
    """Operations checked against the workload's correctness gate."""

    attempted: int
    failed: int
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Latency:
    """A latency figure and the sample count behind it."""

    ms: float
    samples: int
    what: str
    q: float = 50.0


FAST_SHARE = 0.1
"""End-to-end timings come from this share of a run's requests, the
fastest ones. The shared hosts the benchmark runs on slow down by up to
~40 % for seconds at a time; the fastest requests of a run are the ones
that ran while nothing else held the processor (perfbench/README.md,
"Run-to-run noise")."""


def fastest(requests: list[Request]) -> list[Request]:
    """The :data:`FAST_SHARE` of ``requests`` with the least wall time per
    item, and at least one."""
    count = math.ceil(FAST_SHARE * len(requests))
    return sorted(requests, key=lambda r: r.wall_s / r.items)[:count]


class Workload:
    """Base class: subclasses set the class attributes and implement the
    four phases (import, setup, request, gate)."""

    name = ""
    item = ""
    """What throughput counts."""
    request_label = ""
    """What latency times."""
    min_requests = 3
    traced_requests = 2
    """Requests in each half (untraced, traced) of a traced run; fixed so
    the traced counts repeat exactly."""

    def __init__(self, seed: int, size, work_dir: Path) -> None:
        self.seed = int(seed)
        self.size = size
        self.work_dir = Path(work_dir)

    def import_program(self) -> None:
        """Import the program modules this workload calls."""
        raise NotImplementedError

    def setup(self) -> None:
        """Generate inputs and build what every request reuses."""
        raise NotImplementedError

    def inputs(self) -> dict:
        """The generated inputs, JSON-able (the input digest covers them)."""
        raise NotImplementedError

    def digest(self) -> str:
        """Short SHA-256 of :meth:`inputs`: equal seeds, equal digests."""
        text = json.dumps(self.inputs(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def request(self, index: int) -> Request:
        raise NotImplementedError

    def gate(self, requests: list[Request]) -> Gate:
        raise NotImplementedError

    def throughput_per_s(self, requests: list[Request]) -> float:
        """Items over the summed wall time of the :func:`fastest` requests."""
        fast = fastest(requests)
        return sum(r.items for r in fast) / sum(r.wall_s for r in fast)

    def latency(self, requests: list[Request]) -> Latency:
        """Median latency of the :func:`fastest` requests (the two middle
        values averaged for an even count)."""
        fast = fastest(requests)
        return Latency(
            1e3 * statistics.median(r.wall_s for r in fast),
            len(fast),
            f"{self.request_label}; fastest {len(fast)} of {len(requests)} requests",
        )

    def extra_latencies(self, requests: list[Request]) -> dict[str, Latency]:
        """Further latency figures worth printing (service only)."""
        return {}


# ---------------------------------------------------------------------- #
# city
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CitySize:
    markets: int = 10_000
    oracle_markets: int = 32
    oracle_grid: int = 4001
    oracle_rtol: float = 1e-9
    """The solved utility may trail the dense-grid maximum by this share:
    the grid is an independent lower bound on the true optimum, and the
    solve's golden refinement stops at a 1e-10 price bracket."""


class City(Workload):
    name = "city"
    item = "markets built and solved"
    request_label = "whole-city price map (build + cold solve)"
    min_requests = 3
    traced_requests = 2

    def import_program(self) -> None:
        from repro.core import marketstack
        from repro.mobility import citygrid

        self.marketstack = marketstack
        self.citygrid = citygrid

    def setup(self) -> None:
        self.spec = self.citygrid.CityGridSpec.for_markets(
            self.size.markets, seed=self.seed
        )
        self.first_prices = None
        self.last = None

    def inputs(self) -> dict:
        return {"city": self.spec.to_payload()}

    def request(self, index: int) -> Request:
        self.last = None  # let the previous city go before building the next
        start = perf()
        markets = self.citygrid.city_markets(self.spec)
        stack = self.marketstack.MarketStack(markets)
        solved = stack.equilibria_stacked_chunked()
        wall = perf() - start
        failed = int((~solved.feasible).sum())
        # Same inputs every request: the prices must repeat bit for bit.
        if self.first_prices is None:
            self.first_prices = solved.prices
        else:
            failed += int((solved.prices != self.first_prices).sum())
        self.last = (markets, solved)
        return Request(start, wall, len(markets), failed=failed)

    def gate(self, requests: list[Request]) -> Gate:
        markets, solved = self.last
        size = self.size
        rng = np.random.default_rng([self.seed, 2])
        rows = np.sort(
            rng.choice(len(markets), size=min(size.oracle_markets, len(markets)),
                       replace=False)
        )
        sample = self.marketstack.MarketStack([markets[i] for i in rows])
        low = sample.unit_costs[:, np.newaxis]
        high = sample.max_prices[:, np.newaxis]
        grid = low + (high - low) * np.linspace(0.0, 1.0, size.oracle_grid)
        grid_best = sample.outcomes_stacked(grid).msp_utilities.max(axis=1)
        at_solved = sample.outcomes_stacked(solved.prices[rows]).msp_utilities
        slack = size.oracle_rtol * np.maximum(1.0, np.abs(grid_best))
        below_grid = ~(at_solved >= grid_best - slack)
        misreported = ~(np.abs(at_solved - solved.msp_utilities[rows]) <= slack)
        bad = below_grid | misreported
        notes = [
            f"dense-grid oracle on {len(rows)} sampled markets "
            f"({size.oracle_grid} prices each, rtol {size.oracle_rtol:g}): "
            f"{int(bad.sum())} below the grid maximum or misreported"
        ]
        return Gate(
            attempted=sum(r.items for r in requests),
            failed=sum(r.failed for r in requests) + int(bad.sum()),
            notes=tuple(notes),
        )


# ---------------------------------------------------------------------- #
# service
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServiceSize:
    markets: int = 1000
    windows_per_block: int = 8
    large_per_block: int = 2
    """Windows per block whose burst dirties ``large_rows`` rows (about a
    quarter): their miss takes the batched refinement path."""
    large_rows: int = 50
    small_rows_max: int = 6
    """The other windows dirty 1, 2, …, this many rows, which stays on the
    ≤ 8-row scalar refinement path. Every block has the same burst sizes,
    in a seeded order, so blocks are alike in work and their times compare."""
    queries_per_window: int = 16
    surge: float = 1.5
    """Vehicle-stream multiplier of the replacement (surged) markets."""


class ServiceStream:
    """The seeded event stream, one block of windows at a time.

    Each window is a burst of updates to distinct markets — fading drift,
    one VMU joining or leaving, or a whole-market replacement by its surged
    twin — followed by a burst of queries. Populations stay within
    ``[1, max_vmus]`` VMUs, so every event is valid and every small burst's
    sub-stack stays narrow enough for the scalar refinement path.
    """

    def __init__(self, size: ServiceSize, markets, pool, max_vmus: int,
                 seed: int) -> None:
        self.size = size
        self.pool = pool
        self.max_vmus = max_vmus
        self.rng = np.random.default_rng([seed, 0x5E21])
        self.members = [[v.vmu_id for v in m.vmus] for m in markets]
        self.serial = 0

    def block(self) -> list[tuple[list, list[int]]]:
        size, rng = self.size, self.rng
        bursts = [size.large_rows] * size.large_per_block + [
            1 + k % size.small_rows_max
            for k in range(size.windows_per_block - size.large_per_block)
        ]
        windows = []
        for position in rng.permutation(len(bursts)):
            targets = rng.choice(size.markets, size=bursts[position],
                                 replace=False)
            updates = [self._update(int(t)) for t in targets]
            queries = rng.integers(0, size.markets,
                                   size=size.queries_per_window).tolist()
            windows.append((updates, queries))
        return windows

    def _update(self, target: int):
        from repro.entities.vmu import VmuProfile, sample_population
        from repro.service.pricing import (
            FadingDrift,
            UpdateMarket,
            VmuJoin,
            VmuLeave,
        )

        rng = self.rng
        kind = int(rng.integers(3))
        if kind == 0:
            return FadingDrift(target, float(rng.uniform(0.5, 1.5)))
        if kind == 1:
            members = self.members[target]
            if len(members) >= self.max_vmus or (
                len(members) > 1 and rng.uniform() < 0.5
            ):
                vmu_id = members.pop(int(rng.integers(len(members))))
                return VmuLeave(target, vmu_id)
            drawn = sample_population(1, seed=rng)[0]
            vmu = VmuProfile(
                vmu_id=f"live-{self.serial}",
                data_size_mb=drawn.data_size_mb,
                immersion_coef=drawn.immersion_coef,
            )
            self.serial += 1
            members.append(vmu.vmu_id)
            return VmuJoin(target, vmu)
        replacement = self.pool[target]
        self.members[target] = [v.vmu_id for v in replacement.vmus]
        return UpdateMarket(target, replacement)


def encode_event(event) -> list:
    """A JSON-able description of one update event (for the digest)."""
    kind = type(event).__name__
    if kind == "FadingDrift":
        return [kind, event.market_index, event.fading_gain]
    if kind == "VmuJoin":
        vmu = event.vmu
        return [kind, event.market_index, vmu.vmu_id, vmu.data_size_mb,
                vmu.immersion_coef]
    if kind == "VmuLeave":
        return [kind, event.market_index, event.vmu_id]
    return [kind, event.market_index]


class Service(Workload):
    name = "service"
    item = "events (updates + queries)"
    request_label = "miss: first query after an update burst"
    traced_requests = 30

    def __init__(self, seed: int, size, work_dir: Path) -> None:
        super().__init__(seed, size, work_dir)
        # Enough misses (one per window) that p95 has 10 samples beyond it.
        self.min_requests = math.ceil(
            min_samples_for(95.0) / size.windows_per_block
        )

    def import_program(self) -> None:
        from repro.core import marketstack
        from repro.errors import ConfigurationError
        from repro.mobility import citygrid
        from repro.service import pricing

        self.marketstack = marketstack
        self.citygrid = citygrid
        self.pricing = pricing
        self.rejected = ConfigurationError

    def setup(self) -> None:
        size = self.size
        self.spec = self.citygrid.CityGridSpec.for_markets(
            size.markets, seed=self.seed
        )
        self.surged_spec = dataclasses.replace(
            self.spec, vehicles_per_cell=self.spec.vehicles_per_cell * size.surge
        )
        markets = self.citygrid.city_markets(self.spec)
        # Built once: city_markets rebuilds the whole road graph per call.
        pool = self.citygrid.city_markets(self.surged_spec)
        self.service = self.pricing.LivePricingService(markets)
        self.service.equilibria()  # the cold solve every later miss splices into
        self.stream = ServiceStream(
            size, markets, pool, self.spec.max_vmus, self.seed
        )
        self.next_block = self.stream.block()
        self.first_block = [
            [[encode_event(e) for e in updates], queries]
            for updates, queries in self.next_block
        ]

    def inputs(self) -> dict:
        return {
            "city": self.spec.to_payload(),
            "surged_city": self.surged_spec.to_payload(),
            "stream_seed": [self.seed, 0x5E21],
            "first_block": self.first_block,
        }

    def request(self, index: int) -> Request:
        windows = self.next_block
        service = self.service
        stack = service.stack
        rejected = self.rejected
        hits: list[float] = []
        misses: list[float] = []
        failed = 0
        start = perf()
        for updates, queries in windows:
            for event in updates:
                try:
                    service.apply(event)
                except rejected:
                    failed += 1
            for market in queries:
                solves = stack.solve_count
                began = perf()
                service.query(market)
                took = perf() - began
                (hits if stack.solve_count == solves else misses).append(took)
        wall = perf() - start
        self.next_block = self.stream.block()
        return Request(
            start,
            wall,
            sum(len(u) + len(q) for u, q in windows),
            failed=failed,
            hit_s=hits,
            miss_s=misses,
            dirty_rows=sum(len({e.market_index for e in u}) for u, _ in windows),
        )

    def gate(self, requests: list[Request]) -> Gate:
        live = self.service.equilibria()
        cold = self.marketstack.MarketStack(
            self.service.stack.markets
        ).equilibria_stacked()
        differs = np.zeros(len(live.prices), dtype=bool)
        for name in ("prices", "demands", "msp_utilities", "vmu_utilities",
                     "capacity_binding", "price_cap_binding", "feasible",
                     "mask", "counts", "unit_costs"):
            a, b = getattr(live, name), getattr(cold, name)
            if a.shape != b.shape:
                differs[:] = True
                continue
            same = a == b
            if a.dtype.kind == "f":
                same |= np.isnan(a) & np.isnan(b)
            differs |= ~same.reshape(len(differs), -1).all(axis=1)
        rejected = sum(r.failed for r in requests)
        return Gate(
            attempted=sum(r.items for r in requests),
            failed=rejected + int(differs.sum()),
            notes=(
                f"{rejected} events rejected; live vs cold solve: "
                f"{int(differs.sum())} of {len(differs)} markets differ",
            ),
        )

    def latency(self, requests: list[Request]) -> Latency:
        """Median miss latency within the :func:`fastest` blocks."""
        fast = fastest(requests)
        misses = [s for r in fast for s in r.miss_s]
        return Latency(
            1e3 * nearest_rank(misses, 50.0),
            len(misses),
            f"{self.request_label}; in the fastest {len(fast)} of "
            f"{len(requests)} blocks",
        )

    def extra_latencies(self, requests: list[Request]) -> dict[str, Latency]:
        hits = [s for r in requests for s in r.hit_s]
        misses = [s for r in requests for s in r.miss_s]
        hit, miss = "query answered without a solve", "query that paid a solve"
        return {
            f"{kind}_p{q:g}_ms": Latency(
                1e3 * nearest_rank(samples, q), len(samples), what, q
            )
            for kind, samples, what, q in (
                ("hit", hits, hit, 50.0),
                ("hit", hits, hit, 99.0),
                ("miss", misses, miss, 50.0),
                ("miss", misses, miss, 95.0),
            )
        }


# ---------------------------------------------------------------------- #
# train
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TrainSize:
    num_envs: int = 4
    iterations: int = 60
    """``TrainerConfig.num_episodes``: each iteration plays one episode
    in every env."""
    rounds: int = 50
    rtol: float = 1e-3
    """Converged best utility vs the Stackelberg optimum (measured gap
    ~1e-5 on the paper market)."""


class Train(Workload):
    name = "train"
    item = "env steps"
    request_label = "one PPO training run"
    min_requests = 3
    traced_requests = 3

    def import_program(self) -> None:
        from repro.core import stackelberg
        from repro.drl import ppo, trainer
        from repro.entities import vmu
        from repro.env import vector

        self.stackelberg = stackelberg
        self.ppo = ppo
        self.trainer = trainer
        self.vmu = vmu
        self.vector = vector

    def setup(self) -> None:
        size = self.size
        self.market = self.stackelberg.StackelbergMarket(
            self.vmu.paper_fig2_population()
        )
        self.optimum = self.market.equilibrium().msp_utility
        env_seed, agent_seed = np.random.default_rng([self.seed, 3]).integers(
            2**31, size=2
        )
        self.env_seed, self.agent_seed = int(env_seed), int(agent_seed)
        self.config = self.trainer.TrainerConfig(
            num_episodes=size.iterations,
            update_interval=20,
            update_epochs=10,
            batch_size=20,
            gamma=0.0,
        )
        self.utilities: list[float] = []

    def inputs(self) -> dict:
        size = self.size
        return {
            "market": "paper_fig2_population",
            "num_envs": size.num_envs,
            "iterations": size.iterations,
            "rounds": size.rounds,
            "env_seed": self.env_seed,
            "agent_seed": self.agent_seed,
        }

    def request(self, index: int) -> Request:
        size = self.size
        venv = self.vector.VectorMigrationEnv.from_market(
            self.market,
            size.num_envs,
            seed=self.env_seed,
            history_length=2,
            rounds_per_episode=size.rounds,
            reward_mode="utility",
        )
        start = perf()
        _, result, _ = self.trainer.train_pricing_agent(
            venv,
            trainer_config=self.config,
            ppo_config=self.ppo.PPOConfig(learning_rate=1e-3),
            seed=self.agent_seed,
        )
        wall = perf() - start
        utility = result.tail_mean_best_utility()
        self.utilities.append(utility)
        off = not abs(utility - self.optimum) <= size.rtol * abs(self.optimum)
        return Request(start, wall, size.iterations * size.num_envs * size.rounds,
                       failed=int(off))

    def gate(self, requests: list[Request]) -> Gate:
        return Gate(
            attempted=len(requests),
            failed=sum(r.failed for r in requests),
            notes=(
                f"tail-mean best utility {self.utilities[-1]:.6f} vs "
                f"Stackelberg optimum {self.optimum:.6f} "
                f"(rtol {self.size.rtol:g}, every run)",
            ),
        )


# ---------------------------------------------------------------------- #
# sweep
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepSize:
    draws: int = 300
    """Jobs per sweep. ``_drain_inline`` rescans every outstanding job per
    loop, so its cost grows with the square of this; below ~300 the effect
    hides behind the per-job fsync."""


class Sweep(Workload):
    name = "sweep"
    item = "jobs"
    request_label = "one queued population sweep"
    min_requests = 3
    traced_requests = 2

    def import_program(self) -> None:
        from repro.experiments import api
        from repro.queue import worker

        self.api = api
        self.worker = worker

    def setup(self) -> None:
        self.params = {"draws": self.size.draws, "seed": self.seed}
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.outcomes: list[tuple[object, int, int]] = []

    def inputs(self) -> dict:
        return {"experiment": "population_sweep", "params": self.params}

    def request(self, index: int) -> Request:
        queue_dir = self.work_dir / f"queue-{index}"
        scheduler = self.worker.QueueScheduler(queue_dir)
        start = perf()
        result = self.api.run_experiment(
            "population_sweep", self.params, scheduler=scheduler
        )
        wall = perf() - start
        # The drain stops its heartbeat thread without joining it; wait for
        # it here, untimed, so it cannot run into the next request. Queue
        # directories stay until the run's work directory is removed at
        # exit, so no deletion runs between requests either.
        for thread in threading.enumerate():
            if isinstance(thread, self.worker._HeartbeatThread):
                thread.join()
        self.outcomes.append(
            (result, scheduler.jobs_executed, scheduler.cache_hits)
        )
        return Request(start, wall, self.size.draws)

    def gate(self, requests: list[Request]) -> Gate:
        direct = self.api.run_experiment("population_sweep", self.params)
        draws = self.size.draws
        failed = 0
        for result, executed, hits in self.outcomes:
            wrong = sum(
                a != b for a, b in zip(result.per_draw, direct.per_draw)
            ) + abs(len(result.per_draw) - len(direct.per_draw))
            if wrong == 0 and result != direct:
                wrong = 1
            failed += wrong + abs(executed - draws) + hits
        return Gate(
            attempted=draws * len(self.outcomes),
            failed=failed,
            notes=(
                "queued == direct result, jobs_executed == draws, "
                "cache_hits == 0, on every request",
            ),
        )


WORKLOADS = {"city": City, "service": Service, "train": Train, "sweep": Sweep}
FULL_SIZES = {
    "city": CitySize(),
    "service": ServiceSize(),
    "train": TrainSize(),
    "sweep": SweepSize(),
}


def make(name: str, seed: int, work_dir: Path, size=None) -> Workload:
    """The named workload at its benchmark size (or ``size``)."""
    return WORKLOADS[name](seed, size or FULL_SIZES[name], work_dir)
