"""Tests for the per-message fast path: the replica's type-keyed dispatch
table and the multicast-aware outbox flush."""

from __future__ import annotations

import dataclasses
import inspect
from typing import Any, List, Tuple

import pytest

from repro.core import messages as messages_module
from repro.core.messages import Commit, Message, PrePrepare, Prepare, Reply, Request
from repro.core.replica import Replica
from repro.library import BFTCluster
from repro.library.cluster import ProtocolNode
from repro.net.overlay import Relay, RelayEntry
from repro.services import KeyValueStore
from repro.sim.faults import FaultSpec, FaultType
from tests.conftest import authed, make_replica
from tests.test_delivery_train import per_copy_send


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
    reply = Reply(view=0, timestamp=1, client="client0",
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
        Prepare(view=0, seq=1, digest=b"d" * 16, sender="replica1"),
        others,
    )
    commit = auth.sign_multicast(
        Commit(view=0, seq=1, digest=b"d" * 16, sender="replica1"),
        others,
    )
    replies = [
        auth.sign_point_to_point(
            Reply(view=0, timestamp=1, client=client,
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


def per_copy_transmit(node: ProtocolNode, destination: str, message: Any) -> None:
    """The reference for one copy of a flush: the sender's send faults, the
    wire size of what is left, one send-CPU addition whose running value is
    the departure time, the DELAY fault on top, then the network's draws and
    one heap slot per delivered copy (``per_copy_send``)."""
    message = node._apply_send_faults(destination, message)
    if message is None:
        return
    size = message.wire_size() if hasattr(message, "wire_size") else 64
    send_cpu = node.params.communication.send_cpu(size)
    node.cpu_available_at += send_cpu
    node.cpu_busy_total += send_cpu
    not_before = node.cpu_available_at
    delay_fault = node.fault_injector.get(node.name, FaultType.DELAY_MESSAGES, node.now)
    if delay_fault is not None:
        not_before += delay_fault.delay
    per_copy_send(node.network, node.name, destination, message, size, not_before)


def per_copy_flush(
    node: ProtocolNode, outbox: List[Tuple[Tuple[str, ...], Any]]
) -> None:
    for destinations, message in outbox:
        for destination in destinations:
            per_copy_transmit(node, destination, message)


def _send(per_pair: bool):
    cluster = BFTCluster.create(f=1, seed=3)
    for name in ("client0", "client1"):
        cluster.new_client(name)
    node, outbox = _mixed_outbox(cluster)
    if per_pair:
        per_copy_flush(node, outbox)
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


# ------------------------------------------------------------ faulty senders
#: Every send fault, with the parameters it is registered with.
SEND_FAULTS = {
    "DROP_MESSAGES": dict(probability=0.5),
    "DELAY_MESSAGES": dict(delay=300.0),
    "MUTE_PRIMARY": {},
    "EQUIVOCATE": {},
    "CORRUPT_REPLY": {},
    "BAD_AUTHENTICATOR": {},
    "SILENT_RELAY": {},
    "TAMPER_RELAY": {},
}


def _faulty_outbox(
    cluster: BFTCluster,
) -> Tuple[ProtocolNode, List[Tuple[Tuple[str, ...], Any]]]:
    """``_mixed_outbox`` plus one message of every type a send fault
    touches: a pre-prepare multicast, a client's request multicast, and
    relay bundles with and without replica1's own entries."""
    node, outbox = _mixed_outbox(cluster)
    auth = cluster.replicas["replica1"].auth
    replicas = ("replica0", "replica1", "replica2", "replica3")
    others = tuple(r for r in replicas if r != "replica1")
    pre_prepare = auth.sign_multicast(
        PrePrepare(view=0, seq=1, requests=(), nondet=b"n", sender="replica1"),
        others,
    )
    request = cluster.clients["client0"].protocol.auth.sign_multicast(
        Request(operation=b"op", timestamp=1, sender="client0"),
        replicas,
    )

    def relay(*roots: str) -> Relay:
        return Relay(entries=tuple(
            RelayEntry(view=0, root=root, inner=Prepare(
                view=0, seq=1, digest=b"d" * 16, sender=root))
            for root in roots
        ), sender="replica1")

    outbox[1:1] = [(others, pre_prepare), (others + ("nobody",), request)]
    outbox += [
        (("replica2", "replica3"), relay("replica1", "replica0")),
        (("replica2",), relay("replica0")),
        (others, pre_prepare),
    ]
    return node, outbox


def _send_with_fault(fault: str, per_copy: bool):
    cluster = BFTCluster.create(f=1, seed=4)
    for name in ("client0", "client1"):
        cluster.new_client(name)
    cluster.inject_fault(
        FaultSpec(node="replica1", fault=FaultType[fault], **SEND_FAULTS[fault])
    )
    node, outbox = _faulty_outbox(cluster)
    if per_copy:
        per_copy_flush(node, outbox)
    else:
        node._transmit_many(outbox)
    cluster.run(duration=5_000.0)
    return cluster, node


@pytest.mark.parametrize("fault", sorted(SEND_FAULTS))
def test_faulty_sender_flush_matches_per_copy_reference(fault):
    cluster, node = _send_with_fault(fault, per_copy=False)
    ref_cluster, ref_node = _send_with_fault(fault, per_copy=True)
    stats, ref_stats = cluster.network.stats, ref_cluster.network.stats
    assert stats.per_type == ref_stats.per_type
    assert list(stats.per_type) == list(ref_stats.per_type)
    assert stats.per_node == ref_stats.per_node
    assert stats.wire_totals() == ref_stats.wire_totals()
    assert stats.messages_dropped == ref_stats.messages_dropped
    nodes = {**cluster.replica_nodes, **{n: c.node for n, c in cluster.clients.items()}}
    ref_nodes = {
        **ref_cluster.replica_nodes,
        **{n: c.node for n, c in ref_cluster.clients.items()},
    }
    for name, other in nodes.items():
        assert other.cpu_available_at == ref_nodes[name].cpu_available_at, name
        assert other.cpu_busy_total == ref_nodes[name].cpu_busy_total, name
    assert cluster.scheduler.dispatched == ref_cluster.scheduler.dispatched
    assert cluster.now == ref_cluster.now
    assert node.rng._rng.getstate() == ref_node.rng._rng.getstate()
