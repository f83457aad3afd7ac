"""Digest replies on both reply paths (Sections 5.1.1 and 5.1.3).

Only the designated replier returns a result of ``digest_replies_threshold``
bytes or more in full; every other replica returns its digest.  The read-only
path answers by the same rule as batch execution, and a client designates
only a replica that backed its last completed result, so a replica that went
silent is not asked for the next full result.
"""

from __future__ import annotations

import pytest

from repro.core.config import ReplicaSetConfig
from repro.core.messages import Reply, Request
from repro.crypto.digests import digest
from repro.crypto.signatures import SignatureRegistry
from repro.library import BFTCluster
from repro.services.kvstore import KeyValueStore
from repro.sim.faults import FaultSpec, FaultType

from tests.conftest import authed, make_replica

LARGE = b"v" * 48
AT_THRESHOLD = b"t" * 32
SMALL = b"s" * 31


def _store(value: bytes) -> KeyValueStore:
    store = KeyValueStore()
    store.execute(b"SET k " + value, "seeder")
    return store


def _read(designated, timestamp=1) -> Request:
    return authed(Request(operation=b"GET k", timestamp=timestamp, read_only=True,
                          designated_replier=designated, sender="client0"))


def _read_only_reply(value: bytes, designated, replica_id="replica1") -> Reply:
    replica, env = make_replica(ReplicaSetConfig(n=4, checkpoint_interval=4),
                                SignatureRegistry(), replica_id,
                                service=_store(value))
    replica.receive(_read(designated))
    (reply,) = env.messages_of_type(Reply)
    return reply


# ---------------------------------------------------------------- replica side
@pytest.mark.parametrize("value", [LARGE, AT_THRESHOLD], ids=["48B", "32B"])
def test_a_replica_that_is_not_designated_answers_a_read_with_the_digest(value):
    reply = _read_only_reply(value, designated="replica2")
    assert reply.result is None
    assert reply.result_digest == digest(value)


def test_the_designated_replica_answers_a_read_with_the_result():
    reply = _read_only_reply(LARGE, designated="replica1")
    assert reply.result == LARGE
    assert reply.result_digest == digest(LARGE)


@pytest.mark.parametrize("designated", [None, "replica1", "replica2"])
def test_a_result_under_the_threshold_travels_in_full_from_every_replica(designated):
    reply = _read_only_reply(SMALL, designated=designated)
    assert reply.result == SMALL


@pytest.mark.parametrize("value", [SMALL, AT_THRESHOLD, LARGE], ids=["31B", "32B", "48B"])
@pytest.mark.parametrize("designated", [None, "replica1", "replica2"])
def test_read_only_and_batch_replies_are_byte_identical(value, designated):
    """One request and one result make one reply, whichever path built it:
    the generic encoding of the read-only path equals the bulk encoder of
    ``_execute_batch``, and both carry or strip the result alike."""
    read_only = _read_only_reply(value, designated)
    replica, env = make_replica(ReplicaSetConfig(n=4, checkpoint_interval=4),
                                SignatureRegistry(), "replica1",
                                service=_store(value))
    replica._execute_batch([_read(designated)], b"", tentative=False)
    (batch,) = env.messages_of_type(Reply)
    assert batch.payload_bytes() == read_only.payload_bytes()
    assert batch.result == read_only.result
    assert batch.wire_size() == read_only.wire_size()


# ----------------------------------------------------------------- end to end
def _kv_cluster(**overrides) -> BFTCluster:
    return BFTCluster.create(f=1, service_factory=KeyValueStore, seed=5, **overrides)


def _note_designations(client, monkeypatch) -> list:
    picks = []
    pick = client.protocol._pick_designated_replier

    def noting():
        picks.append(pick())
        return picks[-1]

    monkeypatch.setattr(client.protocol, "_pick_designated_replier", noting)
    return picks


def test_reads_never_designate_a_partitioned_replica(monkeypatch):
    cluster = _kv_cluster()
    client = cluster.new_client()
    cluster.conditions.isolate(
        "replica3", set(cluster.replicas) | {client.id}
    )
    picks = _note_designations(client, monkeypatch)
    values = {b"key%d" % i: (b"%d" % i).ljust(1024, b"x") for i in range(4)}
    for key, value in values.items():
        client.invoke(b"SET " + key + b" " + value)
    for i in range(20):
        key = b"key%d" % (i % 4)
        assert client.invoke(b"GET " + key, read_only=True) == values[key]
        completed = client.last_completed()
        assert completed.read_only
        assert completed.retransmissions == 0
    assert "replica3" not in picks
    assert len(picks) == 24


def test_a_corrupt_designated_replier_sends_the_read_to_the_read_write_path(monkeypatch):
    cluster = _kv_cluster()
    cluster.inject_fault(
        FaultSpec(node="replica2", fault=FaultType.CORRUPT_REPLY, start=0.0)
    )
    client = cluster.new_client()
    value = b"w" * 1024
    client.invoke(b"SET k " + value)
    monkeypatch.setattr(client.protocol, "_pick_designated_replier", lambda: "replica2")
    assert client.invoke(b"GET k", read_only=True) == value
    completed = client.last_completed()
    assert not completed.read_only
    assert completed.retransmissions == 1


def test_a_read_stuck_on_a_silent_designated_replier_explains_itself(monkeypatch):
    cluster = _kv_cluster()
    client = cluster.new_client()
    client.invoke(b"SET k " + b"w" * 1024)
    cluster.crash_replica("replica2")
    monkeypatch.setattr(client.protocol, "_pick_designated_replier", lambda: "replica2")
    timeout = cluster.config.client_retransmission_timeout / 2
    with pytest.raises(TimeoutError) as stalled:
        client.invoke(b"GET k", read_only=True, timeout=timeout)
    report = str(stalled.value)
    assert f"{client.id} pending timestamp 2 read-only designated replica2" in report
    assert (
        f"result {digest(b'w' * 1024).hex()[:16]} committed "
        "voters replica0,replica1,replica3 full result not held"
    ) in report
    # The replicas' half follows.
    assert "replica2 view 0" in report and "crashed" in report
