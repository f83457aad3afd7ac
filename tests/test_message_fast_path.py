"""Tests for the per-message fast path: the replica's type-keyed dispatch
table and the multicast-aware outbox flush."""

from __future__ import annotations

import dataclasses
import inspect
from typing import Any, List, Tuple

from repro.core import messages as messages_module
from repro.core.messages import Commit, Message, Prepare, Reply
from repro.core.replica import Replica
from repro.library import BFTCluster
from repro.services import KeyValueStore
from tests.conftest import authed, make_replica


# ------------------------------------------------------------ dispatch table
def test_every_protocol_message_type_has_a_handler(config, registry):
    replica, _env = make_replica(config, registry)
    message_types = {
        cls
        for _name, cls in inspect.getmembers(messages_module, inspect.isclass)
        if issubclass(cls, Message) and cls is not Message
    }
    # Replies are addressed to clients; everything else a replica handles.
    assert set(replica._handlers) == message_types - {Reply}
    for message_type, handler in replica._handlers.items():
        assert handler.__self__ is replica, message_type


def test_types_without_a_handler_are_dropped_quietly(config, registry):
    @dataclasses.dataclass
    class Gossip(Message):
        def payload_fields(self):
            return ()

    replica, env = make_replica(config, registry)
    reply = Reply(view=0, timestamp=1, client="client0", replica="replica0",
                  result=b"r", result_digest=b"d" * 16, sender="replica0")
    for stray in (reply, Gossip(sender="replica0")):
        replica.receive(authed(stray))
    assert env.sent == []
    assert replica.metrics.messages_rejected == 0
    # Still authenticated first: without credentials it counts as rejected.
    replica.receive(Gossip(sender="replica0"))
    assert replica.metrics.messages_rejected == 1


def test_handlers_patched_on_the_class_before_assembly_are_the_ones_reached(monkeypatch):
    """The dispatch table is built per replica from bound methods, so a
    wrapper installed on the *class* before ``BFTCluster.create`` — which is
    how an outside tracer attributes view-change work — sees every delivery."""
    reached: List[str] = []
    names = ("handle_request", "handle_pre_prepare", "handle_prepare", "handle_commit",
             "handle_view_change", "handle_view_change_ack", "handle_new_view")

    def spy_on(name: str) -> None:
        original = getattr(Replica, name)

        def spy(self, message):
            reached.append(name)
            return original(self, message)

        monkeypatch.setattr(Replica, name, spy)

    for name in names:
        spy_on(name)
    cluster = BFTCluster.create(
        f=1, service_factory=KeyValueStore, view_change_timeout=200_000.0,
        client_retransmission_timeout=100_000.0,
    )
    client = cluster.new_client()
    assert client.invoke(b"SET before crash") == b"OK"
    cluster.crash_replica("replica0")
    assert client.invoke(b"SET after crash", timeout=30_000_000) == b"OK"
    assert set(reached) == set(names)


# ---------------------------------------------------- multicast-aware flush
def _mixed_outbox(
    cluster: BFTCluster,
) -> Tuple[Any, List[Tuple[Tuple[str, ...], Any]]]:
    """Two multicasts interleaved with point-to-point replies, one
    destination that is not an endpoint, sent by replica1."""
    node = cluster.replica_nodes["replica1"]
    auth = cluster.replicas["replica1"].auth
    others = ("replica0", "replica2", "replica3")
    prepare = auth.sign_multicast(
        Prepare(view=0, seq=1, digest=b"d" * 16, replica="replica1", sender="replica1"),
        others,
    )
    commit = auth.sign_multicast(
        Commit(view=0, seq=1, digest=b"d" * 16, replica="replica1", sender="replica1"),
        others,
    )
    replies = [
        auth.sign_point_to_point(
            Reply(view=0, timestamp=1, client=client, replica="replica1",
                  result=b"r" * size, result_digest=b"d" * 16, sender="replica1"),
            client,
        )
        for client, size in (("client0", 3), ("client1", 300), ("nobody", 5))
    ]
    outbox = [(others, prepare), (("client0",), replies[0])]
    outbox.append((others + ("nobody",), commit))
    outbox.extend(((reply.client,), reply) for reply in replies[1:])
    outbox.append((("replica0",), prepare))
    return node, outbox


def _send(per_pair: bool):
    cluster = BFTCluster.create(f=1, seed=3)
    for name in ("client0", "client1"):
        cluster.new_client(name)
    node, outbox = _mixed_outbox(cluster)
    if per_pair:
        for destinations, message in outbox:
            for destination in destinations:
                node._transmit(destination, message)
    else:
        node._transmit_many(outbox)
    cluster.run(duration=5_000.0)  # deliver everything; no timer is due yet
    return cluster.network.stats, node, cluster


def test_mixed_flush_counts_what_the_per_pair_path_counts():
    batch_stats, batch_node, batch_cluster = _send(per_pair=False)
    pair_stats, pair_node, pair_cluster = _send(per_pair=True)
    assert batch_stats.per_type == pair_stats.per_type == {
        "Prepare": 4, "Reply": 2, "Commit": 3,
    }
    assert list(batch_stats.per_type) == list(pair_stats.per_type)
    assert batch_stats.per_node == pair_stats.per_node
    assert batch_stats.wire_totals() == pair_stats.wire_totals()
    assert batch_stats.messages_dropped == pair_stats.messages_dropped == 2
    # Same charges in the same order: the sender's clock agrees to the bit,
    assert batch_node.cpu_available_at == pair_node.cpu_available_at
    assert batch_node.cpu_busy_total == pair_node.cpu_busy_total
    # and so does every receiver's (same arrival times, same dispatch order).
    for name, node in batch_cluster.replica_nodes.items():
        assert node.cpu_available_at == pair_cluster.replica_nodes[name].cpu_available_at
    assert batch_cluster.scheduler.dispatched == pair_cluster.scheduler.dispatched
    assert batch_cluster.now == pair_cluster.now
