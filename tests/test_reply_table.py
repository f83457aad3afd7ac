"""What a replica keeps to answer a retransmission (Section 4.1).

A replica remembers, per client, the last reply it sent, so a retransmitted
request is answered without executing it again.  What it remembers is the
reply's content, not a signed message: a retransmission rebuilds the REPLY
and signs it under the session key that holds *now*, and no ``Reply`` object
outlives its send in the reply table, the tentative undo log or a
checkpoint.
"""

from __future__ import annotations

import gc
import types

from repro.core.config import ReplicaSetConfig
from repro.core.messages import PrePrepare, Prepare, Reply, Request
from repro.crypto.keys import SessionKeyTable
from repro.crypto.signatures import SignatureRegistry
from repro.library import BFTCluster
from repro.services.kvstore import KeyValueStore

from tests.conftest import authed, make_replica
from tests.test_batch_execution import _committed_batch

#: Objects the reachability walk does not enter: code and the type system
#: lead everywhere, and hold no per-run state.
_OPAQUE = (
    type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
    types.MethodType, types.CodeType,
)


def reachable_replies(*roots) -> list:
    """Every ``Reply`` reachable from ``roots`` through object references."""
    found, seen, stack = [], set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, Reply):
            found.append(obj)
            continue
        stack.extend(gc.get_referents(obj))
    return found


def test_a_reply_resent_from_the_table_is_signed_under_the_current_key():
    """Real crypto.  The client's request executes; then the replica->client
    key is replaced at both ends, and the client retransmits.  The replica
    answers from its table (``handle_request``), and the client must be
    able to verify that answer under the key that holds now."""
    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore, seed=5)
    assert cluster.options.real_crypto
    client = cluster.new_client()
    assert client.invoke(b"SET k v") == b"OK"
    cluster.run(duration=100_000.0)
    replica, node = cluster.replicas["replica1"], cluster.replica_nodes["replica1"]
    assert replica.last_reply_timestamp[client.id] == 1
    client_auth = client.protocol.auth
    fresh = SessionKeyTable.initial_key("replica1", client.id, 1)
    replica.auth.keys.outbound[client.id] = fresh
    client_auth.keys.inbound["replica1"] = fresh

    retransmission = Request(
        operation=b"SET k v", timestamp=1, sender=client.id
    )
    client.node.external_call(
        lambda: client_auth.sign_multicast(retransmission, cluster.config.replica_ids)
    )
    sent = []
    send = replica.env.send
    replica.env.send = lambda destination, message: (
        sent.append(message), send(destination, message)
    )
    node.external_call(lambda: replica.receive(retransmission))

    assert [type(m) for m in sent] == [Reply]
    resent = sent[0]
    assert (resent.timestamp, resent.result) == (1, b"OK")
    assert client.node.external_call(lambda: client_auth.verify(resent))


def test_no_reply_message_is_held_by_the_table_the_undo_log_or_a_checkpoint():
    """A backup executes two committed batches (a checkpoint at 2) and a
    third tentatively, so the reply table, a checkpoint and the tentative
    undo log all have entries for the same clients."""
    config = ReplicaSetConfig(n=4, checkpoint_interval=2)
    replica, env = make_replica(config, SignatureRegistry(), "replica1")

    def request(client, timestamp, operation):
        return Request(operation=operation, timestamp=timestamp,
                       sender=client)

    _committed_batch(replica, 1, [request("client0", 1, b"SET a 1")])
    _committed_batch(replica, 2, [request("client0", 2, b"GET a"),
                                  request("client1", 1, b"SET b 2")])
    tentative = authed(PrePrepare(
        view=0, seq=3, requests=(request("client0", 3, b"SET a 3"),),
        sender="replica0",
    ))
    replica.receive(tentative)
    for other in ("replica2", "replica3"):
        replica.receive(authed(Prepare(
            view=0, seq=3, digest=tentative.batch_digest(), sender=other,
        )))
    assert replica.last_tentative == 3 and replica.last_executed == 2
    assert replica._tentative_undo and 2 in replica.checkpoints
    assert set(replica.last_reply) == {"client0", "client1"}

    assert reachable_replies(replica.last_reply) == []
    assert reachable_replies(replica._tentative_undo) == []
    assert reachable_replies(*replica.checkpoints.values()) == []


def test_a_rebuilt_reply_carries_the_executed_one_unchanged():
    """The retransmission the table answers is the reply the execution
    sent: same payload bytes (so the same charges and wire size), full
    result, tentative flag and view of the execution."""
    config = ReplicaSetConfig(n=4, checkpoint_interval=64)
    replica, env = make_replica(config, SignatureRegistry(), "replica1")
    first = Request(operation=b"SET a 1", timestamp=1, sender="client0", designated_replier="replica2")
    _committed_batch(replica, 1, [first])
    [executed] = [m for m in env.messages_of_type(Reply)]
    env.clear()
    replica.receive(authed(Request(operation=b"SET a 1", timestamp=1,
                                   sender="client0")))
    [resent] = env.messages_of_type(Reply)
    assert resent.payload_bytes() == executed.payload_bytes()
    assert resent.wire_size() == executed.wire_size()
    assert (resent.result, resent.tentative, resent.view) == (b"OK", True, 0)


def test_reachable_replies_finds_a_reply_in_a_container():
    """The walk the table tests rely on does find a held message."""
    message = Reply(client="client0", sender="replica1")
    assert reachable_replies({"client0": (1, [message])}) == [message]
