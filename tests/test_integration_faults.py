"""End-to-end tests with Byzantine replicas, lossy networks, and corrupted
replies — the failure modes the protocol is designed to mask."""

from __future__ import annotations

import pytest

from repro.library import BFTCluster
from repro.net.conditions import NetworkConditions
from repro.services import CounterService, KeyValueStore
from repro.sim.faults import FaultSpec, FaultType


def test_corrupt_replies_from_one_replica_are_masked():
    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore,
                                checkpoint_interval=8)
    cluster.inject_fault(
        FaultSpec(node="replica3", fault=FaultType.CORRUPT_REPLY, start=0.0)
    )
    client = cluster.new_client()
    assert client.invoke(b"SET truth 42") == b"OK"
    assert client.invoke(b"GET truth", read_only=True) == b"42"


def test_crashed_backup_does_not_affect_progress_or_results():
    cluster = BFTCluster.create(f=1, service_factory=CounterService,
                                checkpoint_interval=8)
    cluster.crash_replica("replica2")
    client = cluster.new_client()
    for _ in range(5):
        client.invoke(b"INC 1")
    assert client.invoke(b"READ", read_only=True) == b"5"
    cluster.run(duration=2_000_000)
    alive = [r for rid, r in cluster.replicas.items() if rid != "replica2"]
    assert all(r.last_executed == 5 for r in alive)
    assert all(r.service.value == 5 for r in alive)


def test_lossy_network_still_completes_requests():
    conditions = NetworkConditions(drop_probability=0.05)
    cluster = BFTCluster.create(
        f=1, service_factory=KeyValueStore, checkpoint_interval=8,
        conditions=conditions, seed=11,
        client_retransmission_timeout=50_000.0,
        view_change_timeout=400_000.0,
    )
    client = cluster.new_client()
    for i in range(10):
        assert client.invoke(b"SET k%d v%d" % (i, i), timeout=120_000_000) == b"OK"
    assert client.invoke(b"GET k7", timeout=120_000_000) == b"v7"


def test_backup_dropping_messages_is_tolerated():
    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore,
                                checkpoint_interval=8, seed=3)
    cluster.inject_fault(
        FaultSpec(node="replica3", fault=FaultType.DROP_MESSAGES, probability=0.5,
                  start=0.0)
    )
    client = cluster.new_client()
    for i in range(8):
        assert client.invoke(b"SET a%d %d" % (i, i), timeout=60_000_000) == b"OK"


def test_slow_backup_does_not_block_the_group():
    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore,
                                checkpoint_interval=8)
    cluster.inject_fault(
        FaultSpec(node="replica2", fault=FaultType.DELAY_MESSAGES, delay=5_000.0,
                  start=0.0)
    )
    client = cluster.new_client()
    client.invoke(b"SET tempo 1")
    latency = client.last_completed().latency
    # The quorum of fast replicas answers; latency stays well below the
    # injected 5 ms delay of the slow replica.
    assert latency < 5_000.0


def test_lagging_replica_catches_up_via_state_transfer():
    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore,
                                checkpoint_interval=4)
    client = cluster.new_client()
    # Partition replica3 away while the others make progress past a stable
    # checkpoint, then heal and verify it catches up.
    for other in ("replica0", "replica1", "replica2", "client0"):
        cluster.conditions.partition("replica3", other)
    for i in range(12):
        client.invoke(b"SET key%d value%d" % (i, i))
    cluster.conditions.heal_all()
    # More traffic plus time lets status messages and state transfer run.
    for i in range(6):
        client.invoke(b"SET extra%d value%d" % (i, i))
    cluster.run(duration=30_000_000)
    lagging = cluster.replicas["replica3"]
    leader = cluster.replicas["replica1"]
    assert lagging.stable_checkpoint_seq >= 4
    assert lagging.service.state_digest() is not None
    # It must have fetched a checkpoint it never executed locally.
    assert lagging.last_executed >= lagging.stable_checkpoint_seq


def test_safety_preserved_when_quorum_unavailable():
    """With 2 of 4 replicas down the service stops answering read-write
    requests rather than returning unreplicated (unsafe) answers."""
    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore,
                                checkpoint_interval=8,
                                client_retransmission_timeout=50_000.0)
    client = cluster.new_client()
    client.invoke(b"SET safe 1")
    cluster.crash_replica("replica2")
    cluster.crash_replica("replica3")
    with pytest.raises(TimeoutError):
        client.invoke(b"SET unsafe 2", timeout=2_000_000)


def test_corrupt_reply_from_designated_replier_still_completes():
    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore,
                                checkpoint_interval=8)
    # Corrupt replica0's replies; on some requests it is the designated
    # replier, forcing the client to fall back to retransmission.
    cluster.inject_fault(
        FaultSpec(node="replica0", fault=FaultType.CORRUPT_REPLY, start=0.0)
    )
    client = cluster.new_client()
    for i in range(4):
        assert client.invoke(b"SET x%d %d" % (i, i), timeout=60_000_000) == b"OK"
