"""Completion state is O(1) per client.

A PBFT client has at most one request outstanding and needs only its newest
timestamp and reply (Castro & Liskov, Section 4.1), so a long run holds no
memory per finished operation: every per-operation record reaches the caller
through ``on_complete`` and nowhere else.  Each growth case drives a cluster
through callbacks that keep nothing per operation, warms it up, and asserts
that ``OPS`` more operations grow ``tracemalloc``'s traced memory (between
two ``gc.collect()`` snapshots) by less than ``GROWTH_BOUND``.

Measured over the 2,000 operations below, when every client and every
cluster still kept each ``CompletedRequest``: 696,060 bytes on the KV
cluster, 692,232 on the sharded one and 686,304 on the unreplicated one.
With one record per client, in three runs: 13,428 to 13,708, 10,712 to
11,048 and 2,800.  Tracing starts before
the cluster is built, so state that is replaced in place (reply tables,
caches) nets to zero instead of counting as growth.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Callable, List, Tuple

import pytest

from repro.baselines import UnreplicatedCluster
from repro.library import BFTCluster
from repro.services.kvstore import KeyValueStore
from repro.sharding import ShardClient, ShardedKVCluster

#: Enough clients that batches amortize agreement; the traced run is ~5x
#: slower than an untraced one.
CLIENTS = 64
WARMUP = 400
OPS = 2_000
#: Less than one 24-byte float per operation: a table that keeps anything
#: per finished operation exceeds it.
GROWTH_BOUND = 24 * OPS
#: Simulated µs of quiet after each phase, so both snapshots see the
#: protocol at rest (stable checkpoint, collected log).
SETTLE_US = 100_000.0
#: Client ``i`` always writes key ``i % KEYS``, so the warm-up (at least one
#: operation per client) reaches every group a client will use; the sixteen
#: keys split eight and eight over two groups.
KEYS = 16
VALUE = b"v" * 64


def replica_groups(cluster) -> list:
    """The BFT groups of ``cluster``: none for the unreplicated one."""
    if isinstance(cluster, UnreplicatedCluster):
        return []
    return getattr(cluster, "group_clusters", [cluster])


class ClosedLoop:
    """Clients that re-issue from their completion callbacks until the loop
    has issued its budget, keeping only counters.

    A phase ends with every replica at a stable checkpoint that covers all
    it executed: each checkpoint holds a copy of the reply table (one entry
    per client), so without that the number of checkpoints alive at a
    snapshot would move the measurement by ~90 KB each."""

    def __init__(self, cluster, clients: int) -> None:
        self.cluster = cluster
        self.issued = self.done = self.budget = 0
        self.top_up = [(group, group.new_client()) for group in replica_groups(cluster)]
        self.clients = [
            cluster.new_client(on_complete=self._callback(index))
            for index in range(clients)
        ]

    def _callback(self, index: int) -> Callable:
        def on_complete(_completed) -> None:
            self.done += 1
            self._issue(index, external=False)

        return on_complete

    def _issue(self, index: int, external: bool) -> None:
        if self.issued == self.budget:
            return
        operation = b"SET key-%c %s" % (97 + index % KEYS, VALUE)
        self.issued += 1
        client = self.clients[index]
        if isinstance(client, ShardClient):
            client.submit(operation, external=external)
        elif external:
            client.invoke_async(operation)
        else:
            client.protocol.invoke(operation)

    def run(self, operations: int) -> None:
        self.budget += operations
        for index in range(len(self.clients)):
            self._issue(index, external=True)
        self.cluster.run(
            stop_when=lambda: self.done == self.budget, duration=3_600_000_000.0
        )
        assert self.done == self.budget
        self.cluster.run(duration=SETTLE_US)
        for group, client in self.top_up:
            while any(
                replica.stable_checkpoint_seq != replica.last_executed
                for replica in group.replicas.values()
            ):
                client.invoke(b"SET top-up " + VALUE)
                self.cluster.run(duration=SETTLE_US)


def traced_growth(build: Callable[[], object]) -> Tuple[int, List]:
    """Bytes the ``OPS`` operations after the warm-up left allocated, and the
    five source lines that grew most."""
    tracemalloc.start()
    try:
        loop = ClosedLoop(build(), CLIENTS)
        loop.run(WARMUP)
        gc.collect()
        before = tracemalloc.take_snapshot()
        loop.run(OPS)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    diff = after.compare_to(before, "lineno")
    return sum(stat.size_diff for stat in diff), diff[:5]


CLUSTERS = {
    "kv_f1": lambda: BFTCluster.create(
        f=1, service_factory=KeyValueStore, checkpoint_interval=8, seed=1
    ),
    "sharded_g2": lambda: ShardedKVCluster(groups=2, f=1, checkpoint_interval=8, seed=1),
    "unreplicated": lambda: UnreplicatedCluster(service_factory=KeyValueStore, seed=1),
}


@pytest.mark.parametrize("name", sorted(CLUSTERS))
def test_finished_operations_leave_no_memory_behind(name):
    growth, top = traced_growth(CLUSTERS[name])
    assert growth < GROWTH_BOUND, "\n".join(
        [f"{name}: {growth} bytes after {OPS} operations"] + [str(stat) for stat in top]
    )


SYNC_CLUSTERS = {
    "bft": lambda: BFTCluster.create(f=1, service_factory=KeyValueStore),
    "unreplicated": lambda: UnreplicatedCluster(service_factory=KeyValueStore),
}


def _three_completions(name: str):
    completions = []
    client = SYNC_CLUSTERS[name]().new_client(on_complete=completions.append)
    timestamps = []
    for index in range(3):
        client.invoke(b"SET k%d v%d" % (index, index))
        timestamps.append(client.last_completed().timestamp)
    return client, timestamps, completions


@pytest.mark.parametrize("name", sorted(SYNC_CLUSTERS))
def test_every_earlier_timestamp_is_complete_and_last_completed_is_newest(name):
    client, timestamps, completions = _three_completions(name)
    assert timestamps == [1, 2, 3]
    assert all(client.protocol.is_complete(ts) for ts in timestamps)
    assert not client.protocol.is_complete(timestamps[-1] + 1)
    assert client.last_completed() is completions[-1]
    assert client.last_completed().operation == b"SET k2 v2"


@pytest.mark.parametrize("name", sorted(SYNC_CLUSTERS))
def test_result_of_answers_only_the_newest_timestamp(name):
    client, timestamps, completions = _three_completions(name)
    assert client.protocol.result_of(timestamps[-1]) is completions[-1]
    assert all(client.protocol.result_of(ts) is None for ts in timestamps[:-1])
