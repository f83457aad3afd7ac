"""The eight frozen workloads, one *round* function each.

A round is one complete, independent unit of a workload: it builds a fresh
cluster (set-up, timed on its own), runs a fixed number of operations
(the measured span) and checks the outputs.  ``perf/run.py`` repeats rounds
— round ``k`` of seed ``s`` always gets the same inputs — and reports

* quantities on the **modeled clock** (simulated µs under the paper's cost
  model, ``PAPER_PARAMETERS``) and **counts** from the first ``rounds``
  rounds of a workload, which every run completes: they repeat exactly for
  a seed;
* quantities on the **CPU clock** (``time.process_time`` of the simulator)
  from every round the time budget allowed.

Sizes are frozen here as keyword defaults; the smoke test passes smaller
ones.  Nothing here imports ``repro.bench`` or ``benchmarks/`` or reads a
``hotpath`` toggle, and nothing is written to disk.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.library import BFTCluster
from repro.services.kvstore import KeyValueStore
from repro.sharding import ShardedKVCluster, load_imbalance

from perf.loadgen import CheckResult, ClosedLoop, Ledger, MakeOp, OpenLoop
from perf.trace import Tracer

#: Simulated µs a measured span may take before missing operations count as
#: failed (the drain deadline).
DEADLINE_US = 60_000_000.0
#: Simulated µs of quiet before replicas' state digests are compared: three
#: status intervals, so a replica that missed a commit has asked for it.
SETTLE_US = 300_000.0
#: Closed-loop clients pause a seeded 0..THINK_US simulated µs between a
#: completion and their next issue (see ``ClosedLoop``).
THINK_US = 100.0

OPEN_LOOP_RATES = (2_000, 4_000, 8_000, 12_000, 14_000, 16_000)
LIGHT_RATE, HEAVY_RATE = 2_000, 12_000
#: p99 (from due time) a rate step must meet to count as sustained.
LATENCY_LIMIT_US = 10_000.0
LAGGING = "replica3"

#: The paper's 0/0 operation: no argument to speak of, no result.
NULL_OP = b"null:0:0:"


# --------------------------------------------------------------------------
# One round's record
# --------------------------------------------------------------------------
@dataclass
class RoundResult:
    setup_s: float = 0.0
    cpu_s: float = 0.0
    wall_ns: int = 0
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    #: Headline ledgers only (see ``Round.book``).
    latencies: List[float] = field(default_factory=list)
    steady_ops: int = 0
    steady_us: float = 0.0
    #: Workload-specific end-to-end values and per-step latency samples.
    specific: Dict[str, float] = field(default_factory=dict)
    step_latencies: Dict[int, List[float]] = field(default_factory=dict)
    #: Deltas of the counters the program exposes, over the measured spans.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Tracer totals of the measured spans (traced pass only).
    trace: Optional[Dict[str, Any]] = None
    errors: List[str] = field(default_factory=list)


_REPLICA_COUNTERS = (
    "requests_executed", "batches_committed", "checkpoints_taken",
    "messages_rejected", "view_changes_started", "view_changes_completed",
)


def read_counters(groups: Sequence[BFTCluster], scheduler: Any, network: Any) -> Dict[str, float]:
    """Cumulative counters the program already keeps, flattened."""
    stats = network.stats
    counters: Dict[str, float] = {
        "net.msgs": stats.messages_sent,
        "net.bytes": stats.bytes_sent,
        "net.auth_bytes": stats.auth_bytes_sent,
        "net.coalesced": stats.messages_coalesced,
        "sched.events": scheduler.dispatched,
        # One clock serves every group, so busy share divides by this.
        "group_sim_us": scheduler.clock.now * len(groups),
        "replicas": 0,
        "primary_busy_us": 0.0,
    }
    for name in _REPLICA_COUNTERS:
        counters["replica." + name] = 0
    for group in groups:
        counters["primary_busy_us"] += group.replica_nodes[
            group.config.primary_of(0)
        ].cpu_busy_total
        for replica in group.replicas.values():
            counters["replicas"] += 1
            for name in _REPLICA_COUNTERS:
                counters["replica." + name] += getattr(replica.metrics, name)
    return counters


class Round:
    """Stopwatches and result record of one round in progress."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        gc.collect()  # the previous round's cluster is cyclic garbage
        self.tracer = tracer
        self.result = RoundResult()

    @contextmanager
    def setup(self) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.result.setup_s += time.perf_counter() - started

    @contextmanager
    def measured(self, cluster: Any) -> Iterator[None]:
        """Time a span on both clocks and take the counter deltas over it."""
        groups = getattr(cluster, "group_clusters", None) or [cluster]
        result, tracer = self.result, self.tracer
        before = read_counters(groups, cluster.scheduler, cluster.network)
        if tracer is not None:
            tracer.scheduler = cluster.scheduler
            tracer.active = True
        wall0, cpu0 = time.perf_counter_ns(), time.process_time()
        try:
            yield
        finally:
            cpu1, wall1 = time.process_time(), time.perf_counter_ns()
            if tracer is not None:
                tracer.active = False
            result.cpu_s += cpu1 - cpu0
            result.wall_ns += wall1 - wall0
            after = read_counters(groups, cluster.scheduler, cluster.network)
            for key, value in after.items():
                result.counters[key] = result.counters.get(key, 0) + value - before[key]
            result.counters["replicas"] = after["replicas"]

    def book(self, ledger: Ledger, headline: bool = True) -> None:
        """Add a span's ledger.  Only headline ledgers feed the modeled
        latency and throughput figures (the open-loop ladder reports those
        at one rate, not pooled over all)."""
        result = self.result
        result.attempted += ledger.attempted
        result.completed += ledger.completed
        result.failed += ledger.failed
        counters = result.counters
        counters["client.retransmissions"] = (
            counters.get("client.retransmissions", 0) + ledger.retransmissions
        )
        counters["loadgen.backlog_max"] = max(
            counters.get("loadgen.backlog_max", 0), ledger.backlog_max
        )
        counters["loadgen.max_lateness_us"] = max(
            counters.get("loadgen.max_lateness_us", 0.0), ledger.max_lateness_us
        )
        if headline:
            result.latencies.extend(ledger.latencies)
            steady_ops, steady_us = ledger.steady_window()
            result.steady_ops += steady_ops
            result.steady_us += steady_us

    def check_digests(self, cluster: BFTCluster, label: str, skip: Sequence[str] = ()) -> None:
        """Correct replicas must hold one service state after a quiet spell."""
        cluster.run(duration=SETTLE_US)
        digests = {
            service.state_digest()
            for replica_id, service in cluster.services.items()
            if replica_id not in skip
        }
        if len(digests) != 1:
            self.result.errors.append(f"{label}: {len(digests)} distinct state digests")

    def finish(self) -> RoundResult:
        if self.tracer is not None:
            self.result.trace = self.tracer.take()
        return self.result


# --------------------------------------------------------------------------
# Operation generators (inputs are a pure function of the seed)
# --------------------------------------------------------------------------
def null_ops(seed: int, clients: int) -> Tuple[MakeOp, CheckResult]:
    """The 0/0 operation, each client padding its argument with a seeded
    0-7 bytes: under a microsecond of wire time, but enough that two seeds
    never produce bit-identical modeled timings."""
    rng = random.Random(f"{seed}/padding")
    operations = [NULL_OP + b"x" * rng.randrange(8) for _ in range(clients)]
    return (lambda client, _index: (operations[client], False)), (lambda _op, result: result == b"")


def kv_ops(
    seed: int, clients: int, key_space: int, value_size: int, read_share: float,
    preload_value: bytes,
) -> Tuple[MakeOp, CheckResult]:
    """Uniform keys from ``key_space``; ``read_share`` of operations are
    ``GET``s on the read-only path, the rest ``SET``s of ``value_size``
    bytes.  Each client draws from its own stream, so operation ``k`` of
    client ``c`` does not depend on completion order.  A ``GET`` must
    return the preloaded value or one some client has written to that key."""
    streams = [random.Random(f"{seed}/client{index}") for index in range(clients)]
    written: Dict[bytes, Set[bytes]] = {}

    def make_op(client: int, index: int) -> Tuple[bytes, bool]:
        rng = streams[client]
        key = b"key%05d" % rng.randrange(key_space)
        if rng.random() < read_share:
            return b"GET " + key, True
        fill = bytes([65 + rng.randrange(26)])
        value = (b"%d.%d." % (client, index)).ljust(value_size, fill)
        written.setdefault(key, set()).add(value)
        return b"SET " + key + b" " + value, False

    def check(operation: bytes, result: bytes) -> bool:
        if operation.startswith(b"GET "):
            return result == preload_value or result in written.get(operation[4:], ())
        return result == b"OK"

    return make_op, check


def think_times(seed: int, clients: int) -> Callable[[int], float]:
    streams = [random.Random(f"{seed}/think{index}") for index in range(clients)]
    return lambda client: streams[client].uniform(0.0, THINK_US)


def arrival_offsets(seed: int, rate: int, arrivals: int) -> List[float]:
    """A fixed schedule at ``rate`` per simulated second: arrival ``i`` is
    due at a seeded point inside slot ``i``, so the spacing is regular but
    not phase-locked to the protocol."""
    rng = random.Random(f"{seed}/arrivals{rate}")
    gap = 1_000_000.0 / rate
    return [(index + rng.random()) * gap for index in range(arrivals)]


def preload(services: Sequence[Any], keys: Sequence[bytes], value: bytes) -> None:
    """Install the same baseline state at every replica, bypassing the
    protocol, so checkpoint digests still agree."""
    for service in services:
        for key in keys:
            service.execute(b"SET " + key + b" " + value, "preload")


# --------------------------------------------------------------------------
# Closed-loop rounds
# --------------------------------------------------------------------------
def _closed_round(
    round_: Round, seed: int, build: Callable[[], Any], ops: Tuple[MakeOp, CheckResult],
    clients: int, ops_per_client: int, warmup_per_client: int,
) -> Any:
    with round_.setup():
        cluster = build()
        loop = ClosedLoop(cluster, clients, *ops, think_times(seed, clients))
        warm = loop.run(warmup_per_client, DEADLINE_US)
        if warm.failed:
            round_.result.errors.append(f"{warm.failed} warm-up operations failed")
    with round_.measured(cluster):
        ledger = loop.run(ops_per_client, DEADLINE_US)
    round_.book(ledger)
    return cluster


def null_round(
    seed: int, tracer: Optional[Tracer] = None, *, f: int, clients: int,
    ops_per_client: int, warmup_per_client: int = 2,
) -> RoundResult:
    round_ = Round(tracer)
    cluster = _closed_round(
        round_, seed, lambda: BFTCluster.create(f=f, seed=seed), null_ops(seed, clients),
        clients, ops_per_client, warmup_per_client,
    )
    round_.check_digests(cluster, "null")
    return round_.finish()


def kv_round(
    seed: int, tracer: Optional[Tracer] = None, *, read_share: float,
    clients: int = 48, ops_per_client: int, warmup_per_client: int = 2,
    preload_keys: int = 1024, key_space: int = 256, value_size: int = 2048,
    checkpoint_interval: int = 4,
) -> RoundResult:
    round_ = Round(tracer)
    preload_value = b"W" * value_size

    def build() -> BFTCluster:
        cluster = BFTCluster.create(
            f=1, service_factory=KeyValueStore, seed=seed,
            checkpoint_interval=checkpoint_interval,
        )
        keys = [b"key%05d" % index for index in range(preload_keys)]
        preload(list(cluster.services.values()), keys, preload_value)
        return cluster

    cluster = _closed_round(
        round_, seed, build,
        kv_ops(seed, clients, key_space, value_size, read_share, preload_value),
        clients, ops_per_client, warmup_per_client,
    )
    round_.check_digests(cluster, "kv")
    return round_.finish()


def sharded_round(
    seed: int, tracer: Optional[Tracer] = None, *, groups: int = 4, clients: int = 48,
    ops_per_client: int = 30, warmup_per_client: int = 2, preload_keys: int = 1024,
    key_space: int = 1024, value_size: int = 1024, checkpoint_interval: int = 16,
) -> RoundResult:
    round_ = Round(tracer)
    preload_value = b"W" * value_size

    def build() -> ShardedKVCluster:
        sharded = ShardedKVCluster(
            groups=groups, f=1, seed=seed, checkpoint_interval=checkpoint_interval
        )
        by_group: Dict[int, List[bytes]] = {}
        for index in range(preload_keys):
            key = b"key%05d" % index
            by_group.setdefault(sharded.router.group_of_key(key), []).append(key)
        for group, keys in by_group.items():
            preload(list(sharded.group(group).services.values()), keys, preload_value)
        return sharded

    sharded = _closed_round(
        round_, seed, build,
        kv_ops(seed, clients, key_space, value_size, 0.0, preload_value),
        clients, ops_per_client, warmup_per_client,
    )
    for index, group in enumerate(sharded.group_clusters):
        round_.check_digests(group, f"group {index}")
    try:
        sharded.router.check_partition()
    except AssertionError as error:
        round_.result.errors.append(f"router: {error}")
    round_.result.specific["sharding.load_imbalance"] = load_imbalance(
        sharded.loadstats.group_totals
    )
    return round_.finish()


# --------------------------------------------------------------------------
# Open-loop rounds
# --------------------------------------------------------------------------
def _open_step(
    round_: Round, seed: int, rate: int, arrivals: int, pool: int,
    crash_after_us: Optional[float] = None, **config: Any,
) -> Tuple[BFTCluster, Ledger]:
    """One fresh null-service cluster driven at one arrival rate."""
    with round_.setup():
        cluster = BFTCluster.create(f=1, seed=seed, **config)
        loop = OpenLoop(cluster, pool, *null_ops(seed, pool))
        # Warm-up: every client of the pool completes one operation.
        warm = loop.run([20.0 * index for index in range(pool)], DEADLINE_US)
        if warm.failed:
            round_.result.errors.append(f"{warm.failed} warm-up operations failed")
        cluster.run(duration=SETTLE_US)
    with round_.measured(cluster):
        if crash_after_us is not None:
            cluster.crash_replica("replica0", at=cluster.now + crash_after_us)
        ledger = loop.run(arrival_offsets(seed, rate, arrivals), DEADLINE_US)
    return cluster, ledger


def openloop_round(
    seed: int, tracer: Optional[Tracer] = None, *, arrivals_per_step: int = 1000,
    pool: int = 256,
) -> RoundResult:
    """One pass up the rate ladder, a fresh cluster per step."""
    round_ = Round(tracer)
    result = round_.result
    sustained = 0
    for rate in OPEN_LOOP_RATES:
        cluster, ledger = _open_step(round_, seed, rate, arrivals_per_step, pool)
        round_.book(ledger, headline=rate == HEAVY_RATE)
        round_.check_digests(cluster, f"{rate}/s")
        result.step_latencies[rate] = ledger.latencies
        if (
            ledger.latencies
            and not ledger.failed
            and percentile(ledger.latencies, 99) <= LATENCY_LIMIT_US
            and ledger.backlog_at_last_arrival == 0
        ):
            sustained = max(sustained, rate)
    result.specific["modeled_max_rate_ops_per_s"] = sustained
    return round_.finish()


def primary_crash_round(
    seed: int, tracer: Optional[Tracer] = None, *, arrivals: int = 1500,
    rate: int = 4_000, pool: int = 256, crash_at_us: float = 250_000.0,
) -> RoundResult:
    """One episode: the primary fails mid-run while arrivals keep coming."""
    round_ = Round(tracer)
    # The crash lands at a seeded point of one arrival slot-train, so
    # episodes differ in what is in flight when the leader stops.
    jitter = random.Random(f"{seed}/crash").uniform(0.0, 8_000.0)
    cluster, ledger = _open_step(
        round_, seed, rate, arrivals, pool, crash_after_us=crash_at_us + jitter,
        view_change_timeout=100_000.0, client_retransmission_timeout=50_000.0,
    )
    round_.book(ledger)
    round_.result.specific["modeled_unavailable_us"] = ledger.longest_gap_us
    round_.check_digests(cluster, "survivors", skip=("replica0",))
    views = {rid: r.view for rid, r in cluster.replicas.items() if rid != "replica0"}
    if min(views.values()) < 1:
        round_.result.errors.append(f"view change did not complete: {views}")
    return round_.finish()


# --------------------------------------------------------------------------
# Recovery rounds
# --------------------------------------------------------------------------
def lagging_recovery_round(
    seed: int, tracer: Optional[Tracer] = None, *, preload_keys: int = 2048,
    value_size: int = 1024, clients: int = 4, ops_per_client: int = 40,
    key_space: int = 64, read_share: float = 0.25, checkpoint_interval: int = 4,
) -> RoundResult:
    """One episode: a replica misses a spell of writes behind a partition,
    then fetches the pages it lacks."""
    round_ = Round(tracer)
    preload_value = b"W" * value_size
    with round_.setup():
        cluster = BFTCluster.create(
            f=1, service_factory=KeyValueStore, seed=seed,
            checkpoint_interval=checkpoint_interval,
        )
        keys = [b"key%05d" % index for index in range(preload_keys)]
        preload(list(cluster.services.values()), keys, preload_value)
        churn = ClosedLoop(
            cluster, clients,
            *kv_ops(seed, clients, key_space, value_size, read_share, preload_value),
            think_times(seed, clients),
        )
        heal_ops = kv_ops(seed + 1, 1, 2 * checkpoint_interval, 8, 0.0, b"")
        healer = ClosedLoop(cluster, 1, *heal_ops, think_times(seed + 1, 1))
    lagging = cluster.replicas[LAGGING]
    reference = cluster.replicas["replica0"]
    with round_.measured(cluster):
        for other in list(cluster.replicas) + [c.id for c in churn.clients + healer.clients]:
            if other != LAGGING:
                cluster.conditions.partition(LAGGING, other)
        round_.book(churn.run(ops_per_client, DEADLINE_US))
        cluster.conditions.heal_all()
        # Traffic after the heal crosses the next checkpoint, whose
        # certificate is what tells the healed replica it is behind.
        round_.book(healer.run(2 * checkpoint_interval, DEADLINE_US))
        for _ in range(20):
            if (
                lagging.state_transfer.metrics.transfers_completed >= 1
                and lagging.stable_checkpoint_seq >= reference.stable_checkpoint_seq
            ):
                break
            cluster.run(duration=2_000_000.0)
    transfer = lagging.state_transfer.metrics
    stable = {
        (r.stable_checkpoint_seq, r.checkpoints[r.stable_checkpoint_seq].state_digest)
        for r in cluster.replicas.values()
        if r.stable_checkpoint_seq in r.checkpoints
    }
    if transfer.transfers_completed < 1 or len(stable) != 1:
        round_.result.errors.append(
            f"lagging replica did not converge: {transfer.transfers_completed} "
            f"transfers, {len(stable)} stable checkpoints"
        )
    round_.result.specific.update({
        "modeled_catchup_us": transfer.total_transfer_time,
        "modeled_catchup_bytes": transfer.bytes_fetched,
        "statetransfer.pages_fetched": transfer.pages_fetched,
        "statetransfer.pages_skipped_local": transfer.pages_skipped_local,
        "statetransfer.fetch_messages": transfer.fetch_messages,
        "statetransfer.metadata_messages": transfer.metadata_messages,
        "statetransfer.pages_rejected": transfer.pages_rejected,
    })
    return round_.finish()


# --------------------------------------------------------------------------
# The frozen list
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    run_round: Callable[..., RoundResult]
    #: Frozen sizes (keyword arguments of ``run_round``).
    sizes: Dict[str, Any]
    #: Rounds every run completes; modeled values and counts come from these.
    rounds: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("null_f1", null_round, dict(f=1, clients=24, ops_per_client=100), 5),
        Workload("null_f10", null_round, dict(f=10, clients=8, ops_per_client=6), 5),
        Workload("kv_churn_ckpt", kv_round, dict(read_share=0.0, ops_per_client=40), 7),
        Workload("kv_read90", kv_round, dict(read_share=0.9, ops_per_client=50), 5),
        Workload("sharded_g4", sharded_round, dict(), 5),
        Workload("openloop_f1", openloop_round, dict(), 3),
        Workload("primary_crash_f1", primary_crash_round, dict(), 5),
        Workload("lagging_recovery_f1", lagging_recovery_round, dict(), 24),
    )
}


def percentile(samples: Sequence[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))  # ceiling, in integers
    return ordered[rank - 1]


def quartiles(samples: Sequence[float]) -> Tuple[float, ...]:
    if len(samples) < 2:
        return (samples[0],) * 3
    return tuple(statistics.quantiles(samples, n=4))
