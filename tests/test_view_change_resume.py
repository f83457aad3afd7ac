"""Ordering resumes as soon as a NEW-VIEW is accepted (Sections 4.4-4.5).

Two things make that so.  A backup changing to view v keeps the PRE-PREPAREs
v's primary sends ahead of its (larger) NEW-VIEW, and puts each through
every check of ``handle_pre_prepare`` once it enters v.  A backup that
becomes primary proposes the requests it holds from their clients: the
requests whose wait made the backups change view.

The unit tests drive one replica on a ``RecordingEnv`` through real
VIEW-CHANGE and NEW-VIEW messages (MACs not computed); the last two run
whole clusters.
"""

from __future__ import annotations

import math

from repro.core.messages import (
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    PSetEntry,
    QSetEntry,
    Reply,
    Request,
    ViewChange,
    ViewChangeAck,
)
from repro.core.viewchange import compute_decision
from repro.library import BFTCluster
from repro.services import KeyValueStore
from repro.sim.faults import FaultSpec, FaultType
from tests.conftest import authed, make_replica

MISSING = b"\x5a" * 16


def request(value: bytes, timestamp: int = 1, client: str = "client0",
            designated_replier=None) -> Request:
    return authed(Request(operation=b"SET k " + value, timestamp=timestamp,
                          designated_replier=designated_replier, sender=client))


def pre_prepare(view: int, seq: int, config, requests=(), separate=()) -> PrePrepare:
    return authed(PrePrepare(view=view, seq=seq, requests=tuple(requests),
                             separate_digests=tuple(separate),
                             sender=config.primary_of(view)))


def prepared_entry(batch: PrePrepare):
    """The P and Q entries of a replica that prepared ``batch``."""
    digest = batch.batch_digest()
    return (PSetEntry(seq=batch.seq, digest=digest, view=batch.view),
            QSetEntry(seq=batch.seq, digests=((digest, batch.view),)))


def start_changing(replica, view: int) -> None:
    replica.start_view_change(view)
    assert replica.view == view and not replica.active_view


def enter_view(replica, view: int, prepared=(), batches=()) -> None:
    """Take ``replica``, already changing to ``view``, into it: two other
    replicas' VIEW-CHANGEs (each naming ``prepared``), and the view's
    primary's NEW-VIEW over those and ``replica``'s own.  A replica that is
    itself the view's primary gets acks instead and sends the NEW-VIEW."""
    config = replica.config
    primary = config.primary_of(view)
    checkpoints = ((0, replica.checkpoints[0].state_digest),)
    entries = [prepared_entry(batch) for batch in prepared]
    origins = [r for r in config.replica_ids if r not in (replica.id, primary)][:2]
    if replica.id != primary:
        origins = [primary, origins[0]]
    view_changes = [
        authed(ViewChange(new_view=view, h=0, checkpoints=checkpoints,
                          prepared=tuple(p for p, _ in entries),
                          pre_prepared=tuple(q for _, q in entries),
                          sender=origin))
        for origin in origins
    ]
    for message in view_changes:
        replica.receive(message)
    if replica.id == primary:
        for message, acker in zip(view_changes, reversed(origins)):
            replica.receive(authed(ViewChangeAck(
                new_view=view, origin=message.sender,
                view_change_digest=message.payload_digest(), sender=acker)))
    else:
        selected = view_changes + [replica.view_change_states[view].view_changes[replica.id]]
        decision = compute_decision(selected, config, lambda _digest: True)
        replica.receive(authed(NewView(
            new_view=view,
            view_change_digests=tuple((m.sender, m.payload_digest()) for m in selected),
            checkpoint_seq=decision.checkpoint_seq,
            checkpoint_digest=decision.checkpoint_digest,
            selections=tuple(sorted(decision.selections.items())),
            batches=tuple(batches),
            sender=primary)))
    assert replica.view == view and replica.active_view


def proposals(env) -> list:
    """The PRE-PREPAREs a replica multicast, each once."""
    return list({id(m): m for m in env.messages_of_type(PrePrepare)}.values())


def votes_for(replica, env, kind, digest: bytes) -> list:
    return [m for m in env.messages_of_type(kind) if m.digest == digest and m.sender == replica.id]


def commit_slot(replica, seq: int) -> None:
    """Deliver the other replicas' PREPAREs and COMMITs for ``replica``'s
    batch at ``seq``."""
    slot = replica.log.existing_slot(seq)
    primary = replica.config.primary_of(slot.view)
    for other in replica.config.replica_ids:
        if other == replica.id:
            continue
        for kind in (Prepare, Commit):
            if kind is Prepare and other == primary:
                continue
            replica.receive(authed(kind(view=slot.view, seq=seq, digest=slot.digest(),
                                        sender=other)))


# ------------------------------------------------- PRE-PREPAREs kept across the change
def test_a_pre_prepare_ahead_of_the_new_view_is_accepted_on_entry(config, registry):
    replica, env = make_replica(config, registry, "replica2")
    start_changing(replica, 1)
    early = pre_prepare(1, 1, config, [request(b"early")])
    replica.receive(early)
    assert replica.pending_pre_prepares == {(1, 1): early}
    assert not votes_for(replica, env, Prepare, early.batch_digest())
    enter_view(replica, 1)
    assert replica.log.existing_slot(1).digest() == early.batch_digest()
    assert votes_for(replica, env, Prepare, early.batch_digest())
    assert replica.pending_pre_prepares == {}


def test_a_kept_pre_prepare_that_conflicts_with_a_reproposal_is_discarded(config, registry):
    """Batch A prepared at seq 1 in view 0, so the NEW-VIEW re-proposes it;
    the PRE-PREPARE of view 1's primary that put B at seq 1 came first."""
    replica, env = make_replica(config, registry, "replica2")
    batch_a = pre_prepare(0, 1, config, [request(b"A")])
    start_changing(replica, 1)
    conflicting = pre_prepare(1, 1, config, [request(b"B")])
    follower = pre_prepare(1, 2, config, [request(b"C", client="client1")])
    replica.receive(conflicting)
    replica.receive(follower)
    enter_view(replica, 1, prepared=[batch_a], batches=[batch_a])
    assert replica.log.existing_slot(1).digest() == batch_a.batch_digest()
    assert votes_for(replica, env, Prepare, batch_a.batch_digest())
    assert not votes_for(replica, env, Prepare, conflicting.batch_digest())
    assert replica.log.existing_slot(2).digest() == follower.batch_digest()
    assert replica.pending_pre_prepares == {}


def test_only_the_entered_views_primary_has_pre_prepares_kept(config, registry):
    replica, env = make_replica(config, registry, "replica3")
    start_changing(replica, 1)
    for message in (
        pre_prepare(0, 1, config, [request(b"old view")]),
        pre_prepare(2, 1, config, [request(b"later view")]),
        authed(PrePrepare(view=1, seq=1, requests=(request(b"not the primary"),),
                          sender="replica2")),
        pre_prepare(1, replica.log.high_water_mark + 1, config, [request(b"beyond H")]),
    ):
        replica.receive(message)
    assert replica.pending_pre_prepares == {}
    enter_view(replica, 1)
    assert env.messages_of_type(Prepare) == []


def test_buffered_pre_prepares_are_held_for_the_current_view_inside_the_window(
        config, registry):
    """Entries buffered for a missing request body in view 0, kept ahead of
    the NEW-VIEW of views 1 and 2: after both changes only view 2's remain,
    and garbage collection at a stable checkpoint drops those at or below
    it."""
    replica, _ = make_replica(config, registry, "replica3")
    replica.receive(pre_prepare(0, 1, config, separate=[MISSING]))
    assert list(replica.pending_pre_prepares) == [(0, 1)]
    start_changing(replica, 1)
    replica.receive(pre_prepare(1, 2, config, separate=[MISSING]))
    enter_view(replica, 1)
    assert list(replica.pending_pre_prepares) == [(1, 2)]
    start_changing(replica, 2)
    for seq in (2, 6):
        replica.receive(pre_prepare(2, seq, config, separate=[MISSING]))
    enter_view(replica, 2)
    assert sorted(replica.pending_pre_prepares) == [(2, 2), (2, 6)]
    stable = config.checkpoint_interval
    assert replica.install_fetched_pages(stable, replica._state_digest(), {}, (), {})
    assert replica.log.low_water_mark == stable
    assert list(replica.pending_pre_prepares) == [(2, 6)]


# --------------------------------------------------- requests the new primary holds
def test_a_new_primary_proposes_the_requests_it_holds(config, registry):
    replica, env = make_replica(config, registry, "replica1")
    awaited = request(b"awaited")
    replica.receive(awaited)
    assert replica.awaited_requests == {"client0": awaited}
    start_changing(replica, 1)
    enter_view(replica, 1)
    [proposal] = proposals(env)
    assert (proposal.view, proposal.seq, proposal.requests) == (1, 1, (awaited,))
    commit_slot(replica, 1)
    assert replica.last_executed == 1 and replica.metrics.requests_executed == 1
    assert replica.awaited_requests == {}


def test_a_held_request_a_reproposal_carries_executes_once(config, registry):
    """The client's first transmission (with a designated replier) was
    ordered and prepared in view 0; replica1 holds its retransmission (no
    designated replier), a different message for the same operation."""
    replica, env = make_replica(config, registry, "replica1")
    batch_a = pre_prepare(0, 1, config, [request(b"A", designated_replier="replica0")])
    replica.receive(batch_a)
    retransmission = request(b"A")
    replica.receive(retransmission)
    assert replica.awaited_requests == {"client0": retransmission}
    start_changing(replica, 1)
    enter_view(replica, 1, prepared=[batch_a])
    assert proposals(env) == []
    assert replica.request_queue == []
    assert replica.log.existing_slot(1).digest() == batch_a.batch_digest()
    commit_slot(replica, 1)
    assert replica.last_executed == 1 and replica.metrics.requests_executed == 1
    assert len([m for m in env.messages_to("client0") if isinstance(m, Reply)]) == 1


def test_a_request_known_only_from_a_pre_prepare_is_never_proposed(config, registry):
    """replica1 saw the request only inlined in view 0's PRE-PREPARE, never
    from its client: becoming primary, it proposes nothing."""
    replica, env = make_replica(config, registry, "replica1")
    inlined = pre_prepare(0, 1, config, [request(b"inlined only")])
    replica.receive(inlined)
    assert replica.awaited_requests == {}
    start_changing(replica, 1)
    enter_view(replica, 1)
    assert proposals(env) == []
    assert replica.request_queue == []


# ------------------------------------------------------------------ whole clusters
def test_after_a_primary_crash_the_first_request_commits_before_the_next_status_tick():
    """f = 1: the backups change view because of the client's request; the
    new primary proposes it at once, so it completes before the next status
    tick and without another retransmission by the client."""
    cluster = BFTCluster.create(
        f=1, service_factory=KeyValueStore, checkpoint_interval=8,
        view_change_timeout=200_000.0, client_retransmission_timeout=100_000.0,
    )
    client = cluster.new_client()
    client.invoke(b"SET before crash")
    cluster.crash_replica("replica0")
    timestamp = client.invoke_async(b"SET after crash")
    new_primary = cluster.replicas["replica1"]
    while not (new_primary.view == 1 and new_primary.active_view):
        cluster.run(duration=100.0)
    entered = cluster.now
    retransmissions = client.protocol.pending.retransmissions
    interval = cluster.config.status_interval
    next_tick = interval * math.floor(entered / interval + 1)
    cluster.run(until=next_tick)
    assert client.protocol.is_complete(timestamp)
    completed = client.last_completed()
    assert completed.retransmissions == retransmissions
    assert entered < completed.completed_at < next_tick


def test_retransmissions_never_grow_the_primary_queue_past_the_client_count():
    """The set-up of ``test_view_change_over_executed_slots_completes_every_request``:
    five clients retransmitting to a primary that cannot order them."""
    cluster = BFTCluster.create(
        f=1, service_factory=KeyValueStore, seed=3,
        view_change_timeout=60_000.0, client_retransmission_timeout=30_000.0,
    )
    cluster.inject_fault(FaultSpec(node="replica0", fault=FaultType.DROP_MESSAGES,
                                   start=0.0, probability=0.25))
    clients = [cluster.new_client() for _ in range(5)]
    for index, client in enumerate(clients):
        client.invoke_async(b"SET key%d v" % index)
    longest = 0
    while cluster.now < 5_000_000:
        cluster.run(duration=10_000.0)
        longest = max(longest, *(len(r.request_queue) for r in cluster.replicas.values()))
    assert 0 < longest <= len(clients)
