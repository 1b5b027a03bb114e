"""The benchmark's workloads: inputs, one rep of work, and its checks.

A *rep* is a fixed unit of work on a freshly built system, so every rep
of one workload and seed must end in the same simulated state.  That is
what lets a run check itself: each rep's stats digest is compared with
a digest pinned in ``pins.json`` (or, for a seed that has no pin, with
an independent reference replay), and every line the rep wrote must
read back its last payload.

Why each workload exists (the property it was chosen for is recorded
per run, see :meth:`EngineWorkload.properties`):

``steady_unique``
    comp_wf on 96 lines, wear-free endurance, batch 128, round-robin
    (bank-interleaved) addresses, and a gcc payload stream as long as
    the rep, so it never cycles: ~95% of lines miss the compression
    cache.  A compression-kernel change shows here.
``steady_reuse``
    BENCH_hotpath's batched scenario (the 500-write gcc trace cycled,
    round-robin addresses, wear-free endurance, batch 128), 24,576
    writes per rep so the cold misses are ~2% of it: the scheduler and
    the ``program_rows``/``write_rows`` kernel dominate, and compression
    changes should not move it.
``wearout``
    The paper's experiment: comp_wf on 96 lines, endurance mean 60 and
    CoV 0.15, the 500-write gcc trace with its Zipf addresses cycled
    until half the capacity is dead, batch 128.  ~17% of writes cut
    serial barriers into ``write_line``, so placement (``find_window``)
    and correction (``can_correct``) show here and nowhere else.
``service_memcached``
    A 2-shard :class:`~repro.service.MemoryService` over 256 lines
    (the ``serve`` defaults), comp_wf, 32,768 requests of the memcached
    stream in batches of 64, wear-free endurance, one closed-loop
    client.  The only workload that crosses routing, pickling and queue
    IPC.

The seed draws the inputs.  Engine simulators draw their device (the
per-cell endurance map) from ``seed + SIM_SEED_OFFSET``, so that seed 5
is exactly BENCH_hotpath's pinned (trace 5, simulator 7) pair.  The two
steady workloads draw their payload stream from the seed as well.  The
other two keep the stream of ``CANONICAL_STREAM_SEED``, because their
stream seed changes the work itself, and the benchmark's bounds must
hold over runs made with different seeds.  For ``wearout`` the stream
seed decides which lines are hot and so how many writes a rep makes:
over trace seeds 0-9 that lifetime has an interquartile range of 26% of
its median, against 6.4% over device seeds.  For the service it decides
the key map and so the load on the busier shard (1.00x to 1.41x the
mean over seeds 0-31), which spread the median ``submit`` latency of
ten seeds over 2.19-2.64 ms.  The service's seed draws only the shards'
endurance maps, which a wear-free rep never reaches: for
``service_memcached`` the seed changes nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import time

from repro.core import make_config
from repro.engine import stages as engine_stages
from repro.engine.registry import resolve_config
from repro.lifetime import LifetimeSimulator
from repro.service import MemoryService, ShardedController, make_stream
from repro.traces import SyntheticWorkload, Trace, get_profile

#: Simulator (endurance draw) seed = workload seed + this offset.
SIM_SEED_OFFSET = 2

#: The stream seed of the workloads whose stream must not move with the
#: seed (``wearout`` and ``service_memcached``).
CANONICAL_STREAM_SEED = 5

#: Endurance above any steady rep's per-line write count (at most ~260
#: against a weakest cell near 500): no cell wears out.
WEAR_FREE_ENDURANCE = 1000.0

#: The service's wear-free endurance.  At 1000 the hottest memcached
#: line (~4,500 writes a rep) would wear its cells out, and the serial
#: barriers the scheduler cuts in as cells near their end would move
#: with the endurance draw, i.e. with the seed.
SERVICE_ENDURANCE = 1e6

#: LifetimeResult fields that describe execution, not simulated state:
#: the compression-cache counters (a speed knob) and scheduler telemetry.
_EXECUTION_FIELDS = frozenset({
    "compression_cache_hits", "compression_cache_misses",
    "batch_waves", "batch_wave_ops", "batch_wave_width_max",
})


@dataclasses.dataclass
class Rep:
    """What one rep did, as measured around the public entry point."""

    writes: int  # simulated demand writes the rep completed
    seconds: float  # host wall time of the timed regions
    scaled_seconds: float  # the same, scaled to the reference host
    calls: int  # write_batch / submit calls issued
    failed_calls: int = 0  # calls that raised or needed a recovery
    outcome: object = None  # LifetimeResult (engine workloads)
    parent_cpu_s: float = 0.0  # service: process time inside submit
    worker_cpu_s: float = 0.0  # service: shard workers' CPU time


class SegmentTimer:
    """Times a rep in segments, measuring the host's speed between them.

    ``slowdown()`` (see ``hostspeed.py``) runs before the first segment
    and after each one, outside every timed region.  A segment's host
    time, and the per-call latencies its caller appended to
    :attr:`pending`, are divided by the mean slowdown measured at its
    two ends; a segment is short (tens of milliseconds), so the host's
    speed at its ends is close to its speed throughout.
    """

    def __init__(self, slowdown, latencies: list[float]) -> None:
        self.slowdown = slowdown
        self.latencies = latencies
        self.pending: list[float] = []
        self.seconds = 0.0
        self.scaled_seconds = 0.0
        self._before = slowdown()

    def time(self, fn, *args):
        """Run ``fn(*args)`` as one timed segment; returns its result."""
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        after = self.slowdown()
        factor = (self._before + after) / 2
        self._before = after
        self.seconds += seconds
        self.scaled_seconds += seconds / factor
        self.latencies.extend(latency / factor for latency in self.pending)
        self.pending.clear()
        return result


@dataclasses.dataclass
class Summary:
    """The checked outcome of one rep."""

    digest: str  # see stats_digest
    stats: object  # the rep's (fleet) ControllerStats
    properties: dict  # the properties the workload was chosen for


def stats_digest(stats, outcome: dict | None = None) -> str:
    """SHA-256 of the simulated state a stats record describes.

    Scheduler telemetry and the compression-cache counters are zeroed:
    they say how the work was executed, and legitimately differ between
    a batched run and its serial replay.
    """
    view = stats.without_scheduler_telemetry()
    view.compression_cache_hits = 0
    view.compression_cache_misses = 0
    payload = dataclasses.asdict(view)
    payload["heuristic_steps"] = {
        str(step): count for step, count in sorted(view.heuristic_steps.items())
    }
    if outcome is not None:
        payload["outcome"] = outcome
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def requests_digest(requests) -> str:
    """SHA-256 of a ``(line, payload)`` request stream."""
    digest = hashlib.sha256()
    for line, data in requests:
        digest.update(line.to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


def _hit_share(stats) -> float:
    lookups = stats.compression_cache_hits + stats.compression_cache_misses
    return stats.compression_cache_hits / lookups if lookups else 0.0


def _barrier_writes(stats) -> int:
    return (
        stats.barrier_gap_move + stats.barrier_collision
        + stats.barrier_ineligible_row
    )


def layer_counts(stats) -> dict[str, float]:
    """Per-rep layer counters read from a rep's ``ControllerStats``."""
    demand = stats.demand_writes
    stored = stats.stored_writes
    return {
        "engine.scheduler.waves": stats.batch_waves,
        "engine.scheduler.wave_width_mean": stats.batch_wave_width_mean,
        "engine.scheduler.barrier_frac":
            _barrier_writes(stats) / demand if demand else 0.0,
        "pcm.flips_per_write": stats.total_flips / stored if stored else 0.0,
        "compression.cache_hit_frac": _hit_share(stats),
        "compression.misses": stats.compression_cache_misses,
        "correction.repair_commits": stats.repair_commits,
        "correction.remaps": stats.remaps,
        "wearleveling.gap_move_writes": stats.gap_move_writes,
    }


class EngineWorkload:
    """One ``LifetimeSimulator.run(batch=...)`` per rep."""

    #: The rep's work runs in the driving process (see ``run.call_floors``).
    out_of_process = False
    n_lines = 96
    batch = 128
    #: Failure checks every epoch, so no epoch is cut below ``batch``.
    check_interval = 128
    #: Writes per timed segment of a rep (8 epochs).
    segment_writes = 1024

    def __init__(
        self, name: str, seed: int, trace: Trace, *,
        endurance_mean: float, max_writes: int, wear_free: bool,
    ) -> None:
        self.name = name
        self.seed = seed
        self.trace = trace
        self.endurance_mean = endurance_mean
        self.max_writes = max_writes
        self.wear_free = wear_free
        self.config = make_config("comp_wf", intra_counter_limit=64)

    def stream_digest(self) -> str:
        return requests_digest(
            (write.line, write.data) for write in self.trace.writes
        )

    def build(self) -> LifetimeSimulator:
        """A simulator ready for its first write."""
        return LifetimeSimulator(
            config=self.config, source=self.trace, n_lines=self.n_lines,
            endurance_mean=self.endurance_mean, endurance_cov=0.15,
            seed=self.seed + SIM_SEED_OFFSET,
        )

    def close(self, sim) -> list[str]:
        return []

    def _run(self, sim, batch: int, max_writes: int):
        return sim.run(
            max_writes=max_writes, batch=batch,
            check_interval=self.check_interval,
        )

    def rep(self, sim, latencies: list[float], slowdown, tracer=None) -> Rep:
        """Run one rep; per-``write_batch`` latencies go to ``latencies``.

        The rep is one ``run`` split into segments of ``segment_writes``
        (``run`` continues from where the previous call stopped, and
        the stats digest proves the result matches an unsplit serial
        replay).
        """
        clock = time.perf_counter
        controller = sim.controller
        timer = SegmentTimer(slowdown, latencies)
        if tracer is None:
            write_batch = controller.write_batch
            pending = timer.pending

            def timed(requests):
                start = clock()
                try:
                    return write_batch(requests)
                finally:
                    pending.append(clock() - start)

            controller.write_batch = timed
            run = self._run
            calls = len(latencies)
        else:
            self.install_tracer(tracer, sim)

            def run(*args):
                return tracer.call("lifetime", self._run, *args)

            calls = tracer.calls["engine.scheduler"]
        try:
            while True:
                budget = min(
                    self.max_writes, sim.writes_issued + self.segment_writes
                )
                result = timer.time(run, sim, self.batch, budget)
                if result.failed or result.writes_issued >= self.max_writes:
                    break
        finally:
            if tracer is None:
                del controller.write_batch
            else:
                tracer.uninstall()
        if tracer is None:
            calls = len(latencies) - calls
        else:
            calls = tracer.calls["engine.scheduler"] - calls
        return Rep(
            writes=result.writes_issued, seconds=timer.seconds,
            scaled_seconds=timer.scaled_seconds, calls=calls, outcome=result,
        )

    def install_tracer(self, tracer, sim) -> None:
        """Wrap each layer's entry points on this simulator's objects."""
        controller = sim.controller
        pipeline = controller.pipeline
        engine = controller.engine
        tracer.install(controller, "write_batch", "engine.scheduler", batch=True)
        tracer.install(pipeline, "write_line", "engine.pipeline.write_line")
        tracer.install(pipeline, "program_rows", "engine.pipeline.program_rows")
        tracer.install_count(
            pipeline.program, "program", "engine.pipeline.program"
        )
        tracer.install(
            engine.memory, "write_rows", "pcm",
            counter="pcm.rows", amount=lambda args: len(args[0]),
        )
        tracer.install(engine.memory, "write", "pcm", counter="pcm.rows")
        tracer.install(
            engine.compressor, "compress_batch", "compression",
            counter="compression.lines", amount=lambda args: len(args[0]),
        )
        tracer.install(
            engine.compressor, "compress", "compression",
            counter="compression.lines",
        )
        # PlacementStage.place calls find_window through the stages
        # module's global, so that is where the wrapper must sit.
        tracer.install(engine_stages, "find_window", "core.window")
        for method in ("verify", "commit", "commit_repairs", "try_remap"):
            tracer.install(pipeline.correction, method, "correction")
        tracer.install(
            engine.scheme, "can_correct", "correction",
            counter="correction.can_correct",
        )

    # -- checks ------------------------------------------------------------

    def last_payloads(self, writes: int) -> dict[int, bytes]:
        """Each line's last payload after ``writes`` writes of the cycled trace."""
        stream = self.trace.writes
        length = len(stream)
        last: dict[int, bytes] = {}
        for index in range(max(0, writes - length), writes):
            write = stream[index % length]
            last[write.line] = write.data
        return last

    def check(self, sim, rep: Rep) -> list[str]:
        """Every live line written reads back its last payload."""
        problems = []
        controller = sim.controller
        result = rep.outcome
        if self.wear_free and (result.failed or controller.engine.dead_count):
            problems.append(f"{self.name}: a wear-free rep lost blocks")
        if not self.wear_free and not result.failed:
            problems.append(f"{self.name}: the memory outlived the write budget")
        dead = controller.engine.dead
        map_logical = controller.pipeline.remap.map_logical
        for line, data in self.last_payloads(rep.writes).items():
            stored = controller.read(line)
            if stored is None:
                if not dead[map_logical(line)]:
                    problems.append(f"{self.name}: live line {line} unreadable")
            elif stored != data:
                problems.append(f"{self.name}: line {line} reads stale data")
        return problems

    def outcome(self, result) -> dict:
        return {
            key: value for key, value in dataclasses.asdict(result).items()
            if key not in _EXECUTION_FIELDS
        }

    def summarize(self, sim, rep: Rep) -> Summary:
        """Digest, stats and chosen-for properties of a finished rep."""
        stats = sim.controller.stats
        return Summary(
            digest=stats_digest(stats, self.outcome(rep.outcome)),
            stats=stats,
            properties={
                "cache_hit_share": _hit_share(stats),
                "barrier_share": _barrier_writes(stats) / stats.demand_writes,
                "deaths": stats.deaths,
                "revivals": stats.revivals,
                "lifetime_writes": rep.writes,
                "distinct_payloads": len({w.data for w in self.trace.writes}),
                "lines_written": len(self.trace.lines_touched()),
            },
        )

    def reference_digest(self) -> str:
        """Digest of the same rep replayed serially (``batch=1``)."""
        sim = self.build()
        result = self._run(sim, 1, self.max_writes)
        return stats_digest(sim.controller.stats, self.outcome(result))


def _round_robin(trace: Trace, n_lines: int) -> Trace:
    """The same payloads with bank-interleaved (round-robin) addresses."""
    return Trace(trace.workload, n_lines, [
        dataclasses.replace(write, line=index % n_lines)
        for index, write in enumerate(trace.writes)
    ])


def _gcc_trace(seed: int, writes: int) -> Trace:
    workload = SyntheticWorkload(
        get_profile("gcc"), n_lines=EngineWorkload.n_lines, seed=seed
    )
    return workload.generate_trace(writes)


def steady_unique(seed: int) -> EngineWorkload:
    writes = 8192
    return EngineWorkload(
        "steady_unique", seed,
        _round_robin(_gcc_trace(seed, writes), EngineWorkload.n_lines),
        endurance_mean=WEAR_FREE_ENDURANCE, max_writes=writes, wear_free=True,
    )


def steady_reuse(seed: int) -> EngineWorkload:
    return EngineWorkload(
        "steady_reuse", seed,
        _round_robin(_gcc_trace(seed, 500), EngineWorkload.n_lines),
        endurance_mean=WEAR_FREE_ENDURANCE, max_writes=24_576, wear_free=True,
    )


def wearout(seed: int) -> EngineWorkload:
    # The lifetime CLI's endurance defaults; the budget only bounds a
    # run that fails to die (about 10x the measured lifetime).
    return EngineWorkload(
        "wearout", seed, _gcc_trace(CANONICAL_STREAM_SEED, 500),
        endurance_mean=60.0, max_writes=400_000, wear_free=False,
    )


# -- the service ----------------------------------------------------------


def _worker_cpu_s(pid: int) -> float:
    """User + system CPU seconds of one process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


class ServiceWorkload:
    """A fresh 2-shard ``MemoryService`` per rep, driven by ``submit``."""

    name = "service_memcached"
    #: The rep's work runs in the shard workers (see ``run.call_floors``).
    out_of_process = True
    lines = 256
    shards = 2
    batch = 64
    #: 512 ``submit`` calls a rep, so five of the per-call floors
    #: (``run.call_floors``) lie beyond ``batch_p99_ms``.
    requests_per_rep = 32768
    #: ``submit`` calls per timed segment of a rep.
    segment_submits = 16
    #: Lines read back through ``MemoryService.read`` after every rep.
    read_sample = 32

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = resolve_config("comp_wf")
        stream = make_stream("memcached", self.lines, CANONICAL_STREAM_SEED)
        self.requests = [
            (request.line, request.data)
            for request in stream.iter_requests(self.requests_per_rep)
        ]
        self.batches = [
            self.requests[start:start + self.batch]
            for start in range(0, len(self.requests), self.batch)
        ]
        last: dict[int, bytes] = {}
        for line, data in self.requests:
            last[line] = data
        written = sorted(last)
        step = max(1, len(written) // self.read_sample)
        self.expected = {line: last[line] for line in written[::step]}

    def stream_digest(self) -> str:
        return requests_digest(self.requests)

    def build(self) -> MemoryService:
        """A started service whose every worker has acknowledged.

        ``start()`` returns before the workers are up; a snapshot
        round trip waits until each one has built its shard.
        """
        service = MemoryService(
            self.config, self.lines, shards=self.shards,
            endurance_mean=SERVICE_ENDURANCE, seed=self.seed,
        )
        service.start()
        try:
            service.snapshot()
        except BaseException:
            self.close(service)
            raise
        return service

    def close(self, service) -> list[str]:
        """Stop the service; a worker left running fails the run."""
        pids = [
            worker.pid for worker in service._workers if worker is not None
        ]
        service.stop()
        leftover = [pid for pid in pids if _running(pid)]
        for pid in leftover:
            os.kill(pid, signal.SIGKILL)
        multiprocessing.active_children()  # reaps the killed workers
        return [
            f"{self.name}: worker {pid} still running after stop()"
            for pid in leftover
        ]

    def rep(self, service, latencies: list[float], slowdown, tracer=None) -> Rep:
        """Submit the stream in ``segment_submits``-call timed segments.

        A call fails when the service had to recover a worker during it.
        """
        clock = time.perf_counter
        cpu_clock = time.process_time
        pids = [service.worker_pid(index) for index in range(self.shards)]
        worker_cpu = [_worker_cpu_s(pid) for pid in pids]
        timer = SegmentTimer(slowdown, latencies)
        pending = timer.pending
        totals = {"failed": 0, "parent_cpu": 0.0}
        submit = service.submit
        if tracer is not None:
            submit = tracer.wrap("service.submit", submit, batch=True)

        def submit_all(batches):
            for batch in batches:
                recoveries = service.recoveries
                cpu = cpu_clock()
                sent = clock()
                submit(batch)
                pending.append(clock() - sent)
                totals["parent_cpu"] += cpu_clock() - cpu
                totals["failed"] += service.recoveries != recoveries

        step = self.segment_submits
        for first in range(0, len(self.batches), step):
            timer.time(submit_all, self.batches[first:first + step])
        worker_cpu_s = sum(
            _worker_cpu_s(pid) - cpu for pid, cpu in zip(pids, worker_cpu)
        )
        return Rep(
            writes=len(self.requests), seconds=timer.seconds,
            scaled_seconds=timer.scaled_seconds, calls=len(self.batches),
            failed_calls=totals["failed"], parent_cpu_s=totals["parent_cpu"],
            worker_cpu_s=worker_cpu_s,
        )

    def check(self, service, rep: Rep) -> list[str]:
        """A fixed sample of lines reads back its last payload."""
        problems = []
        if service.recoveries:
            problems.append(f"{self.name}: {service.recoveries} recoveries")
        for line, data in self.expected.items():
            if service.read(line) != data:
                problems.append(f"{self.name}: line {line} reads stale data")
        return problems

    def _outcome(self, routed, dead_fraction, shard_writes, recoveries) -> dict:
        return {
            "requests_routed": routed, "dead_fraction": dead_fraction,
            "shard_writes": list(shard_writes), "recoveries": recoveries,
        }

    def summarize(self, service, rep: Rep) -> Summary:
        """Digest, fleet stats and chosen-for properties of a finished rep."""
        result = service.result()
        per_shard = list(result.shard_writes)
        return Summary(
            digest=stats_digest(result.stats, self._outcome(
                result.requests_routed, result.dead_fraction,
                result.shard_writes, result.recoveries,
            )),
            stats=result.stats,
            properties={
                "cache_hit_share": _hit_share(result.stats),
                "requests_per_shard": per_shard,
                "shard_imbalance":
                    max(per_shard) / (sum(per_shard) / len(per_shard)),
                "lifetime_writes": rep.writes,
            },
        )

    def reference_digest(self) -> str:
        """Digest of the same stream through the in-process fleet."""
        fleet = ShardedController(
            self.config, self.lines, shards=self.shards,
            endurance_mean=SERVICE_ENDURANCE, seed=self.seed,
        )
        for batch in self.batches:
            fleet.write_batch(batch)
        return stats_digest(fleet.stats, self._outcome(
            len(self.requests), fleet.dead_fraction,
            [c.stats.demand_writes for c in fleet.controllers], 0,
        ))



WORKLOADS = {
    "steady_unique": steady_unique,
    "steady_reuse": steady_reuse,
    "wearout": wearout,
    "service_memcached": ServiceWorkload,
}


def make(name: str, seed: int):
    """Build a workload's inputs from its seed."""
    return WORKLOADS[name](seed)
