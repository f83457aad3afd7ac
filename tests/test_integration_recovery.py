"""Tests for proactive recovery (BFT-PR, Chapter 4)."""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolOptions
from repro.library import BFTCluster
from repro.services import KeyValueStore


def recovery_cluster(watchdog_period=4_000_000.0, **kwargs):
    options = ProtocolOptions(
        proactive_recovery=True, watchdog_period=watchdog_period
    )
    defaults = dict(
        f=1, service_factory=KeyValueStore, checkpoint_interval=4, options=options,
    )
    defaults.update(kwargs)
    return BFTCluster.create(**defaults)


def drive_traffic(cluster, client, count, prefix=b"k"):
    for i in range(count):
        client.invoke(b"SET %s%d v%d" % (prefix, i, i), timeout=60_000_000)


def test_recovery_completes_with_ongoing_traffic():
    cluster = recovery_cluster(watchdog_period=2_000_000.0)
    client = cluster.new_client()
    # Seed some committed state, let the watchdogs fire (recoveries start and
    # run their estimation), then keep the checkpoints advancing so the
    # recovery points are reached (the paper relies on null requests or
    # client traffic for the same reason).
    drive_traffic(cluster, client, 10, prefix=b"seed")
    cluster.run(duration=3_000_000)
    records = [rec for r in cluster.replicas.values() for rec in r.recovery.records]
    assert records, "watchdog should have triggered recoveries"
    for round_index in range(4):
        drive_traffic(cluster, client, 12, prefix=b"r%d-" % round_index)
        cluster.run(duration=500_000)
    records = [rec for r in cluster.replicas.values() for rec in r.recovery.records]
    completed = [rec for rec in records if rec.completed_at is not None]
    assert completed, "at least one recovery should complete"
    for record in completed:
        phases = record.phase_durations()
        assert phases["reboot"] >= 0.0
        assert record.duration() > 0.0


def test_key_refresh_distributes_new_session_keys():
    cluster = recovery_cluster()
    client = cluster.new_client()
    replica = cluster.replicas["replica2"]
    epoch_before = replica.auth.keys.epoch
    replica.recovery.refresh_keys()
    cluster.run(duration=1_000_000)
    assert replica.auth.keys.epoch == epoch_before + 1
    # Another replica installed the fresh key for sending to replica2 and
    # communication still works.
    drive_traffic(cluster, client, 3, prefix=b"post")
    assert client.invoke(b"GET post1", read_only=True, timeout=60_000_000) == b"v1"


def test_recovery_detects_and_repairs_corrupted_state():
    cluster = recovery_cluster(watchdog_period=60_000_000.0)
    client = cluster.new_client()
    drive_traffic(cluster, client, 10)
    cluster.run(duration=2_000_000)
    victim = cluster.replicas["replica2"]
    good_digest_holders = {
        r.service.state_digest() for rid, r in cluster.replicas.items() if rid != "replica2"
    }
    assert len(good_digest_holders) == 1
    good_digest = good_digest_holders.pop()
    # Corrupt the victim's service state, then trigger its recovery.
    cluster.corrupt_replica_state("replica2")
    assert victim.service.state_digest() != good_digest
    victim.recovery.start_recovery()
    for round_index in range(4):
        drive_traffic(cluster, client, 10, prefix=b"more%d-" % round_index)
        cluster.run(duration=2_000_000)
    assert victim.service.state_digest() == cluster.replicas["replica0"].service.state_digest()
    assert victim.state_transfer.metrics.transfers_completed >= 1
    assert any(rec.state_was_corrupt for rec in victim.recovery.records)


def test_recoveries_are_staggered_across_replicas():
    cluster = recovery_cluster(watchdog_period=8_000_000.0)
    client = cluster.new_client()
    drive_traffic(cluster, client, 40)
    cluster.run(duration=12_000_000)
    start_times = sorted(
        rec.started_at
        for r in cluster.replicas.values()
        for rec in r.recovery.records
    )
    assert len(start_times) >= 2
    # No two recoveries start at the same instant.
    assert all(b - a > 1.0 for a, b in zip(start_times, start_times[1:]))


def test_service_remains_available_during_recoveries():
    cluster = recovery_cluster(watchdog_period=3_000_000.0)
    client = cluster.new_client()
    for i in range(25):
        assert client.invoke(b"SET live%d %d" % (i, i), timeout=60_000_000) == b"OK"
    assert client.invoke(b"GET live20", read_only=True, timeout=60_000_000) == b"20"


@pytest.mark.xfail(strict=True, reason="the phase-4 state check compares digests only at the "
                   "stable checkpoint, or when nothing executed past it")
def test_recovery_detects_state_corrupted_past_the_stable_checkpoint():
    """Ten SETs at checkpoint interval 4: the stable checkpoint is 8 and the
    replica has executed 10 when its state is corrupted.  Its recovery must
    find the corruption without waiting for the next checkpoint."""
    cluster = recovery_cluster(watchdog_period=60_000_000.0)
    client = cluster.new_client()
    drive_traffic(cluster, client, 10)
    cluster.run(duration=2_000_000)
    victim = cluster.replicas["replica2"]
    assert (victim.stable_checkpoint_seq, victim.last_executed) == (8, 10)
    cluster.corrupt_replica_state("replica2")
    victim.recovery.start_recovery()
    cluster.run(duration=2_000_000)
    assert any(rec.state_was_corrupt for rec in victim.recovery.records)
    assert victim.state_transfer.metrics.transfers_started >= 1
