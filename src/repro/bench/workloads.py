"""Workload generators and measurement helpers.

The micro-benchmarks of Section 8.3 use the null service with operations
``a/b`` whose argument is ``a`` KB and result ``b`` KB.  Latency is measured
with a single client issuing operations back to back; throughput with a
closed loop of many clients, each re-issuing an operation as soon as the
previous one completes (the paper's client model).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.client import CompletedRequest
from repro.library.cluster import BFTCluster, SyncClient
from repro.services.null_service import encode_null_op
from repro.sim.rng import SimRandom


def micro_operation(arg_kb: float, result_kb: float, read_only: bool = False) -> bytes:
    """The ``a/b`` null-service operation of the micro-benchmarks."""
    return encode_null_op(
        result_size=int(result_kb * 1024),
        arg_size=int(arg_kb * 1024),
        read_only=read_only,
    )


@dataclass
class LatencyResult:
    """Latency measurements from a single-client run."""

    samples: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0


@dataclass
class ThroughputResult:
    """Throughput measurements from a multi-client closed-loop run."""

    completed: int
    elapsed: float
    latencies: List[float] = field(default_factory=list)
    #: Completions per client index.  Exactly-once accounting: the closed
    #: loop issues operation ``i+1`` only from operation ``i``'s completion
    #: callback, so a lost, duplicated or reordered operation surfaces here
    #: as a count different from ``operations_per_client``.
    per_client: List[int] = field(default_factory=list)

    @property
    def ops_per_second(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.completed / (self.elapsed / 1_000_000.0)

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0


def measure_latency(
    cluster,
    operation: bytes,
    samples: int = 20,
    read_only: bool = False,
    warmup: int = 3,
    client: Optional[SyncClient] = None,
) -> LatencyResult:
    """Latency of an operation issued repeatedly by one client.

    Works with both :class:`BFTCluster` and the unreplicated baseline
    cluster (anything exposing ``new_client`` and a blocking ``invoke``).
    """
    sync = client or cluster.new_client()
    result = LatencyResult()
    for _ in range(warmup):
        sync.invoke(operation, read_only=read_only)
    for _ in range(samples):
        sync.invoke(operation, read_only=read_only)
        completed = sync.last_completed()
        if completed is not None:
            result.samples.append(completed.latency)
    return result


def _issue_first(sync, operation: bytes, read_only: bool) -> None:
    """Issue a client's first operation from outside the simulation."""
    if hasattr(sync, "submit"):  # sharded ShardClient
        sync.submit(operation, read_only=read_only, external=True)
    else:  # plain SyncClient
        sync.invoke_async(operation, read_only=read_only)


def _issue_next(sync, operation: bytes, read_only: bool) -> None:
    """Re-issue from within the client's completion handler: sends are
    flushed when the handler finishes (never ``external_call`` here — it
    would reset the handling node's in-progress outbox)."""
    if hasattr(sync, "submit"):
        sync.submit(operation, read_only=read_only)
    else:
        sync.protocol.invoke(operation, read_only=read_only)


def run_closed_loop(
    cluster,
    num_clients: int,
    operations_per_client: int,
    operation_factory: Callable[[int, int], Tuple[bytes, bool]],
) -> ThroughputResult:
    """Closed-loop workload: each client re-issues as soon as it completes.

    ``operation_factory(client_index, op_index)`` returns ``(operation,
    read_only)`` for each issue.  Returns throughput over the span from the
    first issue to the last completion.

    Works with both a single :class:`~repro.library.cluster.BFTCluster`
    and a :class:`~repro.sharding.ShardedKVCluster` (anything exposing
    ``new_client``/``run``/``now``); sharded clients route every
    operation to the group owning its key's bucket in the current epoch.
    """
    progress = {"done": 0}
    latencies: List[float] = []
    per_client = [0] * num_clients
    total_expected = num_clients * operations_per_client
    start = cluster.now

    clients = []
    for client_index in range(num_clients):
        counters = {"issued": 0}

        def make_callback(index: int, counters=counters):
            def on_complete(completed: CompletedRequest) -> None:
                progress["done"] += 1
                per_client[index] += 1
                latencies.append(completed.latency)
                sync = clients[index]
                if counters["issued"] < operations_per_client:
                    operation, read_only = operation_factory(index, counters["issued"])
                    counters["issued"] += 1
                    _issue_next(sync, operation, read_only)
            return on_complete

        sync = cluster.new_client(on_complete=make_callback(client_index))
        clients.append(sync)
        operation, read_only = operation_factory(client_index, 0)
        counters["issued"] = 1
        _issue_first(sync, operation, read_only)

    cluster.run(stop_when=lambda: progress["done"] >= total_expected,
                duration=3_600_000_000.0)
    elapsed = cluster.now - start
    return ThroughputResult(
        completed=progress["done"], elapsed=elapsed, latencies=latencies,
        per_client=per_client,
    )


def measure_throughput(
    cluster,
    num_clients: int,
    operations_per_client: int,
    operation: bytes,
    read_only: bool = False,
) -> ThroughputResult:
    """Throughput of a fixed operation under a closed-loop client population."""
    return run_closed_loop(
        cluster,
        num_clients,
        operations_per_client,
        lambda _c, _i: (operation, read_only),
    )


# ------------------------------------------------------------- KV value churn
def kv_churn_operation(
    client_index: int,
    op_index: int,
    key_space: int = 64,
    value_size: int = 2048,
) -> Tuple[bytes, bool]:
    """One ``SET`` of the value-churn workload: repeated overwrites of a
    bounded key space with large values.

    Deterministic in ``(client_index, op_index)`` so optimized and baseline
    runs execute identical operation streams.  Clients stride through the
    key space at co-prime offsets, so keys see overwrites from many clients
    and every checkpoint interval dirties a realistic handful of pages.
    """
    key = b"churn%05d" % ((client_index * 7919 + op_index * 13) % key_space)
    value = bytes([65 + (client_index + op_index) % 26]) * value_size
    return (b"SET " + key + b" " + value, False)


def run_kv_value_churn(
    cluster,
    num_clients: int,
    operations_per_client: int,
    key_space: int = 64,
    value_size: int = 2048,
) -> ThroughputResult:
    """Closed-loop KV value churn: the heavy-state workload that exercises
    dirty-page digests and copy-on-write checkpoints (ROADMAP workloads
    item).  Use with ``service_factory=KeyValueStore`` and a small
    checkpoint interval to make checkpoint cost visible."""
    return run_closed_loop(
        cluster,
        num_clients,
        operations_per_client,
        lambda client_index, op_index: kv_churn_operation(
            client_index, op_index, key_space=key_space, value_size=value_size
        ),
    )


# --------------------------------------------------------- mixed read/write
def kv_mixed_operation(
    client_index: int,
    op_index: int,
    read_fraction: float = 0.5,
    key_space: int = 64,
    value_size: int = 2048,
) -> Tuple[bytes, bool]:
    """One operation of the mixed read/write workload: a ``GET`` (read-only
    path) with probability ``read_fraction``, otherwise a value-churn
    ``SET``.  Deterministic in ``(client_index, op_index)`` — the "coin" is
    a fixed linear-congruential roll — so optimized and baseline runs
    execute identical streams."""
    roll = (client_index * 7919 + op_index * 104729) % 1000
    if roll < int(read_fraction * 1000):
        key = b"churn%05d" % ((client_index * 13 + op_index * 7919) % key_space)
        return (b"GET " + key, True)
    return kv_churn_operation(
        client_index, op_index, key_space=key_space, value_size=value_size
    )


def run_kv_mixed(
    cluster,
    num_clients: int,
    operations_per_client: int,
    read_fraction: float = 0.5,
    key_space: int = 64,
    value_size: int = 2048,
) -> ThroughputResult:
    """Closed-loop mixed read/write KV workload (ROADMAP workloads item).

    ``read_fraction`` of the operations are ``GET``\\ s served through the
    read-only optimization; the rest are value-churn ``SET``\\ s over
    ``key_space`` keys.  Because reads dirty nothing, the write working set
    (and so the number of dirty pages per checkpoint interval) is bounded
    by ``key_space`` regardless of the total operation count — which is
    how the recovery-bandwidth benchmark (E15) sizes its churn phase to a
    chosen dirty-page fraction.
    """
    return run_closed_loop(
        cluster,
        num_clients,
        operations_per_client,
        lambda client_index, op_index: kv_mixed_operation(
            client_index,
            op_index,
            read_fraction=read_fraction,
            key_space=key_space,
            value_size=value_size,
        ),
    )


# ---------------------------------------------------------- Zipfian skew
def zipf_cdf(key_space: int, skew: float) -> List[float]:
    """Cumulative distribution over key *ranks* ``0..key_space-1`` with
    Zipf weight ``1 / (rank+1)**skew``; rank 0 is the hottest key."""
    if key_space < 1:
        raise ValueError("key_space must be positive")
    weights = [1.0 / ((rank + 1) ** skew) for rank in range(key_space)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cdf.append(acc / total)
    return cdf


def zipf_key_sequences(
    num_clients: int,
    operations_per_client: int,
    key_space: int = 256,
    skew: float = 0.99,
    seed: int = 0,
) -> List[List[int]]:
    """Per-client sequences of Zipf-skewed key ranks.

    Drawn up front from one :class:`~repro.sim.rng.SimRandom` stream in a
    fixed nested order, so the sequence is a pure function of the
    arguments — completion order inside the simulation can never perturb
    it, which keeps optimized and baseline runs on identical streams.
    """
    rng = SimRandom(seed).fork(f"zipf:{key_space}:{skew}")
    cdf = zipf_cdf(key_space, skew)
    return [
        [bisect_left(cdf, rng.random()) for _ in range(operations_per_client)]
        for _ in range(num_clients)
    ]


def zipf_group_load(
    sequences: Sequence[Sequence[int]], group_of_key: Callable[[bytes], int],
    groups: int,
) -> List[int]:
    """Requests each group receives under a Zipf key-rank schedule."""
    load = [0] * groups
    for sequence in sequences:
        for rank in sequence:
            load[group_of_key(b"zipf%05d" % rank)] += 1
    return load


# ------------------------------------------------------------------ sharding
def run_sharded_closed_loop(
    sharded,
    num_clients: int,
    operations_per_client: int,
    operation_factory: Callable[[int, int], Tuple[bytes, bool]],
) -> ThroughputResult:
    """Closed-loop workload over a :class:`~repro.sharding.ShardedKVCluster`.

    The generic :func:`run_closed_loop` handles sharded clusters
    directly; this alias exists for discoverability.  Each logical
    client is a :class:`~repro.sharding.ShardClient`, one client's
    stream can span groups, the reported throughput is the *aggregate*
    across the whole deployment, and operations whose bucket range is
    mid-migration are queued by the router and re-issued at the new
    owner, so the loop keeps its operation count exact across
    migrations.
    """
    return run_closed_loop(
        sharded, num_clients, operations_per_client, operation_factory
    )


def run_sharded_kv_churn(
    sharded,
    num_clients: int,
    operations_per_client: int,
    key_space: int = 256,
    value_size: int = 1024,
) -> ThroughputResult:
    """Closed-loop KV value churn across every group of a sharded cluster
    (the E16 scaling workload).  The key stream is the same deterministic
    churn stream as :func:`run_kv_value_churn`; CRC-32 bucketing spreads
    it over the groups."""
    return run_sharded_closed_loop(
        sharded,
        num_clients,
        operations_per_client,
        lambda client_index, op_index: kv_churn_operation(
            client_index, op_index, key_space=key_space, value_size=value_size
        ),
    )


def preload_sharded_kv_state(
    sharded, keys: int, value_size: int = 2048, prefix: bytes = b"warm"
) -> None:
    """Install a heavy baseline state directly into every replica of the
    *owning* group for each key (bypassing the protocol), mirroring
    :func:`preload_kv_state` but respecting the router's bucket
    ownership so the sharded invariant — each key lives in exactly one
    group — holds from the start."""
    value = b"W" * value_size
    router = sharded.router
    for index in range(keys):
        key = b"%s%05d" % (prefix, index)
        group = router.group_of_key(key)
        operation = b"SET " + key + b" " + value
        for service in sharded.group(group).services.values():
            service.execute(operation, "preload")


def preload_kv_state(
    cluster, keys: int, value_size: int = 2048, prefix: bytes = b"warm"
) -> None:
    """Install a heavy baseline state directly into every replica's service
    (bypassing the protocol), identically everywhere so checkpoint digests
    still agree.  Gives value-churn runs a large clean-page population that
    naive full-state digests must grind through."""
    value = b"W" * value_size
    for service in cluster.services.values():
        for index in range(keys):
            service.execute(b"SET %s%05d %s" % (prefix, index, value), "preload")
