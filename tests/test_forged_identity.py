"""Identities bound to the principal that authenticated them, with real
crypto.

A replica accepts a message only when the principal whose key
authenticated it is also its sender and the identity it claims: a
request's client, else the type's replica field.  The parametrised test
checks every message type a replica handles, in MAC and in signature mode.

Two end-to-end cases (f = 1, seed 5): a client claiming another client's
name under its own keys, and a request a primary inlines in a PRE-PREPARE,
which no backup verifies yet (strict xfail).  Each asserts the correct
outcome: the forged value is stored nowhere, every correct replica that
received the forgery counts a rejection, and the impersonated client's
next SET still completes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.auth import Authentication, build_session_keys
from repro.core.config import AuthMode, ProtocolOptions, ReplicaSetConfig
from repro.core.messages import (
    Checkpoint,
    Commit,
    Data,
    Fetch,
    MetaData,
    NewKey,
    NewView,
    PrePrepare,
    Prepare,
    QueryStable,
    ReplyStable,
    Request,
    StatusActive,
    StatusPending,
    ViewChange,
    ViewChangeAck,
)
from repro.crypto.signatures import SignatureRegistry
from repro.library import BFTCluster
from repro.services import KeyValueStore
from tests.conftest import make_replica

#: Every type a replica handles.  A request claims its client; the others
#: their replica field, or, without one, their sender.
HANDLED_TYPES = (Request, PrePrepare, Prepare, Commit, Checkpoint, ViewChange,
                 ViewChangeAck, NewView, StatusActive, StatusPending, NewKey,
                 QueryStable, ReplyStable, Fetch, MetaData, Data)

#: Far above any timestamp the real client0 uses: if the forgery executes,
#: every later request of client0 looks old to the replicas.
FORGED_TIMESTAMP = 10**12


def kv_cluster():
    return BFTCluster.create(f=1, service_factory=KeyValueStore, seed=5)


def assert_forgery_refused(cluster, victim, forged_value, correct):
    for replica_id in correct:
        assert cluster.services[replica_id].get(b"k") != forged_value, replica_id
        assert cluster.replicas[replica_id].metrics.messages_rejected >= 1, replica_id
    assert victim.invoke(b"SET k mine", timeout=3_000_000) == b"OK"


def test_request_claiming_another_clients_name_is_rejected():
    cluster = kv_cluster()
    victim = cluster.new_client()
    attacker = cluster.new_client()
    assert (victim.id, attacker.id) == ("client0", "client1")
    victim.invoke(b"SET k v")
    forged = Request(operation=b"SET k forged", timestamp=FORGED_TIMESTAMP,
                     client="client0", sender="client1")
    protocol = attacker.protocol
    replica_ids = cluster.config.replica_ids

    def send_forgery():
        message = protocol.auth.sign_multicast(forged, replica_ids)
        protocol.env.broadcast(replica_ids, message)

    attacker.node.external_call(send_forgery)
    cluster.run(duration=1_000_000)
    assert_forgery_refused(cluster, victim, b"forged", replica_ids)


@pytest.mark.xfail(strict=True, reason="a backup never verifies the requests a primary "
                   "inlines in a PRE-PREPARE")
def test_unauthenticated_request_inlined_by_the_primary_is_rejected():
    cluster = kv_cluster()
    victim = cluster.new_client()
    victim.invoke(b"SET k v")
    primary = cluster.replicas["replica0"]
    evil = Request(operation=b"SET k evil", timestamp=FORGED_TIMESTAMP,
                   client="client0", sender="client0", auth=None)

    def inline_evil():
        primary.request_queue.append(evil)
        primary._try_send_pre_prepare()

    cluster.replica_nodes["replica0"].external_call(inline_evil)
    cluster.run(duration=1_000_000)
    backups = [rid for rid in cluster.config.replica_ids if rid != "replica0"]
    assert_forgery_refused(cluster, victim, b"evil", backups)


def names_identity(kind) -> bool:
    return kind is Request or "replica" in {field.name for field in dataclasses.fields(kind)}


def claiming(kind, name: str, sender: str):
    """A ``kind`` message sent as ``sender`` that speaks for ``name``; a
    type that names no identity speaks for its sender."""
    if kind is Request:
        return Request(operation=b"SET k v", timestamp=1, client=name, sender=sender)
    if names_identity(kind):
        return kind(replica=name, sender=sender)
    return kind(sender=sender)


@pytest.mark.parametrize("mode", [AuthMode.MAC, AuthMode.SIGNATURE], ids=["mac", "signature"])
@pytest.mark.parametrize("kind", HANDLED_TYPES, ids=[kind.__name__ for kind in HANDLED_TYPES])
def test_a_message_authenticated_as_one_principal_claiming_another_is_rejected(kind, mode):
    """Authenticated as X: claiming X reaches the handler; claiming Y, as
    sender or as the named identity, is rejected and counted."""
    config = ReplicaSetConfig(n=4, checkpoint_interval=4)
    registry = SignatureRegistry()
    receiver, _ = make_replica(config, registry, "replica1",
                               options=ProtocolOptions(auth_mode=mode), real_crypto=True)
    x, y = ("client0", "client1") if kind is Request else ("replica2", "replica3")
    signer = Authentication(x, mode, build_session_keys(x, config.replica_ids), registry)
    handled = []
    receiver._handlers[kind] = handled.append

    def deliver(message) -> None:
        receiver.receive(signer.sign_multicast(message, config.replica_ids))

    deliver(claiming(kind, x, x))
    assert len(handled) == 1 and receiver.metrics.messages_rejected == 0
    forgeries = [claiming(kind, y, y)]
    if names_identity(kind):
        forgeries.append(claiming(kind, y, x))
    for rejected, forgery in enumerate(forgeries, start=1):
        deliver(forgery)
        assert receiver.metrics.messages_rejected == rejected
    assert len(handled) == 1
