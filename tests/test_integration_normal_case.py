"""End-to-end tests of the replicated service in the failure-free case."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import AuthMode, ProtocolOptions
from repro.library import BFTCluster
from repro.services import CounterService, KeyValueStore


def kv_cluster(**kwargs):
    return BFTCluster.create(f=1, service_factory=KeyValueStore,
                             checkpoint_interval=4, **kwargs)


def test_basic_write_and_read():
    cluster = kv_cluster()
    client = cluster.new_client()
    assert client.invoke(b"SET name bft") == b"OK"
    assert client.invoke(b"GET name", read_only=True) == b"bft"
    assert client.invoke(b"GET name") == b"bft"  # read-write path too


def test_all_replicas_converge_to_identical_state():
    cluster = kv_cluster()
    client = cluster.new_client()
    for i in range(10):
        client.invoke(b"SET key%d value%d" % (i, i))
    cluster.run(duration=2_000_000)
    digests = {r.service.state_digest() for r in cluster.replicas.values()}
    assert len(digests) == 1
    assert all(r.last_executed == 10 for r in cluster.replicas.values())


def test_exactly_once_semantics_under_duplicate_network():
    from repro.net.conditions import NetworkConditions

    conditions = NetworkConditions(duplicate_probability=0.3)
    cluster = BFTCluster.create(
        f=1, service_factory=CounterService, checkpoint_interval=8,
        conditions=conditions, seed=7,
    )
    client = cluster.new_client()
    for _ in range(10):
        client.invoke(b"INC 1")
    cluster.run(duration=2_000_000)
    # Despite duplicated messages every increment is applied exactly once.
    values = {r.service.value for r in cluster.replicas.values()}
    assert values == {10}


def test_checkpoints_become_stable_and_garbage_collect_log():
    cluster = kv_cluster()
    client = cluster.new_client()
    for i in range(9):
        client.invoke(b"SET k%d v" % i)
    cluster.run(duration=2_000_000)
    for replica in cluster.replicas.values():
        assert replica.stable_checkpoint_seq >= 8
        assert replica.log.low_water_mark >= 8
        assert all(seq > 8 for seq in replica.log.slots)
        assert replica.metrics.checkpoints_taken >= 2
        # The side tables are bounded by the window too, not by history.
        assert all(batch.seq > 8 for batch in replica.log.batches.values())
        assert len(replica.log.requests) <= 1


def test_multiple_clients_interleave_correctly():
    cluster = kv_cluster()
    alice = cluster.new_client("alice")
    bob = cluster.new_client("bob")
    alice.invoke(b"SET owner alice")
    bob.invoke(b"SET owner bob")
    alice.invoke(b"SET other 1")
    result = bob.invoke(b"GET owner", read_only=True)
    assert result == b"bob"
    cluster.run(duration=1_000_000)
    digests = {r.service.state_digest() for r in cluster.replicas.values()}
    assert len(digests) == 1


def test_bft_pk_mode_produces_correct_results():
    cluster = BFTCluster.create(
        f=1, service_factory=KeyValueStore, checkpoint_interval=8,
        options=ProtocolOptions().as_bft_pk(),
    )
    client = cluster.new_client()
    assert client.invoke(b"SET mode pk") == b"OK"
    assert client.invoke(b"GET mode", read_only=True) == b"pk"


def test_unoptimized_configuration_still_correct():
    cluster = BFTCluster.create(
        f=1, service_factory=KeyValueStore, checkpoint_interval=8,
        options=ProtocolOptions().without_optimizations(),
    )
    client = cluster.new_client()
    assert client.invoke(b"SET plain true") == b"OK"
    assert client.invoke(b"GET plain") == b"true"


def test_larger_group_f2_works():
    cluster = BFTCluster.create(f=2, service_factory=KeyValueStore,
                                checkpoint_interval=8)
    assert cluster.config.n == 7
    client = cluster.new_client()
    assert client.invoke(b"SET size seven") == b"OK"
    assert client.invoke(b"GET size", read_only=True) == b"seven"


def test_latency_is_sub_millisecond_on_the_lan_model():
    cluster = kv_cluster()
    client = cluster.new_client()
    client.invoke(b"SET warm up")
    client.invoke(b"SET k v")
    assert client.last_completed().latency < 2_000  # microseconds


def test_read_only_latency_lower_than_read_write():
    cluster = kv_cluster()
    client = cluster.new_client()
    client.invoke(b"SET k v")
    client.invoke(b"SET k2 v2")
    rw = client.last_completed().latency
    client.invoke(b"GET k", read_only=True)
    ro = client.last_completed().latency
    assert ro < rw


def test_replicated_service_facade():
    """The Figure 6-2 shape: ``Byz_init_client`` is ``new_client``,
    ``Byz_invoke`` is ``invoke``."""
    cluster = BFTCluster.create(
        f=1, service_factory=KeyValueStore, checkpoint_interval=8
    )
    client = cluster.new_client()
    assert client.invoke(b"SET via facade") == b"OK"
    assert client.invoke(b"GET via", read_only=True) == b"facade"
    assert cluster.config.n == 4
    # Named clients map to distinct BFT clients.
    alice, bob = cluster.new_client("alice"), cluster.new_client("bob")
    assert alice.invoke(b"SET who alice") == b"OK"
    assert bob.invoke(b"GET who") == b"alice"
    # Every replica's service converged.
    cluster.run(duration=1_000_000)
    digests = {service.state_digest() for service in cluster.services.values()}
    assert len(digests) == 1


def test_byzantine_client_cannot_break_counter_invariant():
    cluster = BFTCluster.create(f=1, service_factory=CounterService,
                                checkpoint_interval=8)
    honest = cluster.new_client("honest")
    byzantine = cluster.new_client("byz")
    honest.invoke(b"INC 3")
    # The Byzantine client tries to underflow the counter; the operation is
    # rejected by the service on every replica identically.
    assert byzantine.invoke(b"DEC 100") == b"ERR underflow"
    assert honest.invoke(b"READ", read_only=True) == b"3"


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "example", ["quickstart.py", "view_change_demo.py", "bfs_andrew.py"]
)
def test_example_runs(example):
    """Each example runs to completion against the library as it is.

    ``performance_comparison.py`` is left out: on its own it takes about
    20 s, a third of the whole suite's time.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / example)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
