"""When the primary proposes (Section 5.1.4; DESIGN.md, "When the primary
proposes").

A handler runs when its message arrives, so a primary whose CPU is still
busy with earlier arrivals has not yet handled the requests queued behind
them.  It drains them first: it arms the propose timer for the end of that
backlog, once, and proposes when the timer fires.  An idle primary proposes
at once.  ``RecordingEnv.backlog`` is what the environment reports as the
CPU backlog.

One unacknowledged PRE-PREPARE at a time: the primary proposes only when its
newest batch of the view has been acknowledged (a backup's PREPARE for its
digest arrived) or has executed, tentatively or committed.  Requests that
arrive meanwhile queue, and that acknowledgement or execution proposes them
at once, in one PRE-PREPARE, without draining.

What one PRE-PREPARE holds (DESIGN.md, "What a batch holds"): a batch spends
at most ``max_batch_size`` slots of ``separate_request_threshold + 1`` bytes.
An inlined request takes a whole slot; a request its client transmitted
separately (Section 5.1.5) takes only its ``DIGEST_SIZE``-byte digest.
"""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolOptions
from repro.core.messages import Commit, Prepare, PrePrepare, Request
from repro.core.replica import PROPOSE_TIMER
from tests.conftest import authed, make_replica
from tests.test_view_change_resume import enter_view, pre_prepare, start_changing


def request(index: int) -> Request:
    return authed(Request(operation=b"SET k%d v" % index, timestamp=1,
                          sender="client%d" % index))


def large(index: int) -> Request:
    """A SET over the separate-transmission threshold: its PRE-PREPARE
    names it by digest."""
    return authed(Request(operation=b"SET k%d " % index + b"v" * 300, timestamp=1,
                          sender="client%d" % index))


def proposals(env) -> list:
    """Each PRE-PREPARE sent, once (a multicast records one copy per peer)."""
    unique = []
    for message in env.messages_of_type(PrePrepare):
        if all(message is not seen for seen in unique):
            unique.append(message)
    return unique


def acknowledge(primary, seq: int, digest: bytes, backup: str = "replica1",
                view=None) -> None:
    """Deliver ``backup``'s PREPARE for ``digest`` at ``seq``."""
    view = primary.view if view is None else view
    primary.receive(authed(Prepare(view=view, seq=seq, digest=digest, sender=backup)))


def acknowledge_newest(primary, env) -> None:
    [*_, newest] = proposals(env)
    acknowledge(primary, newest.seq, newest.batch_digest())


def test_an_idle_primary_proposes_in_the_same_handler(config, registry):
    primary, env = make_replica(config, registry, "replica0")
    first = request(0)
    primary.receive(first)
    [proposal] = proposals(env)
    assert proposal.requests == (first,)
    assert not env.timer_running(PROPOSE_TIMER)


def test_a_busy_primary_arms_one_timer_for_the_end_of_its_backlog(config, registry):
    primary, env = make_replica(config, registry, "replica0")
    env.backlog = 300.0
    primary.receive(request(0))
    assert proposals(env) == []
    assert env.timers[PROPOSE_TIMER] == 300.0
    env.advance(100.0)
    env.backlog = 200.0
    primary.receive(request(1))
    # Still the first arming: a second request does not re-arm the timer.
    assert env.timers[PROPOSE_TIMER] == 300.0
    assert proposals(env) == []
    assert len(primary.request_queue) == 2


def test_the_timer_proposes_everything_queued_without_asking_again(config, registry):
    primary, env = make_replica(config, registry, "replica0")
    env.backlog = 300.0
    requests = [request(0), request(1)]
    for queued in requests:
        primary.receive(queued)
    env.timers[PROPOSE_TIMER] = None
    # The CPU is still busy when the timer fires: it proposes all the same.
    primary.on_timer(PROPOSE_TIMER)
    [proposal] = proposals(env)
    assert proposal.seq == 1
    assert list(proposal.requests) == requests
    assert primary.request_queue == []


def test_a_drained_proposal_keeps_the_batch_and_pipeline_bounds(config, registry):
    options = ProtocolOptions(max_batch_size=2)
    primary, env = make_replica(config, registry, "replica0", options=options)
    env.backlog = 300.0
    requests = [request(index) for index in range(5)]
    for queued in requests:
        primary.receive(queued)
    env.timers[PROPOSE_TIMER] = None
    primary.on_timer(PROPOSE_TIMER)
    [proposal] = proposals(env)
    assert list(proposal.requests) == requests[:2]
    assert primary.request_queue == requests[2:]
    # Its acknowledgement proposes the next batch, within the same bound.
    acknowledge_newest(primary, env)
    assert [list(p.requests) for p in proposals(env)] == [requests[:2], requests[2:4]]
    assert primary.request_queue == requests[4:]


def test_a_replica_that_stopped_being_primary_proposes_nothing(config, registry):
    primary, env = make_replica(config, registry, "replica0")
    env.backlog = 300.0
    primary.receive(request(0))
    assert env.timer_running(PROPOSE_TIMER)
    primary.start_view_change(1)
    assert not primary.is_primary
    env.timers[PROPOSE_TIMER] = None
    primary.on_timer(PROPOSE_TIMER)
    assert proposals(env) == []


def drain(primary, env, requests) -> list:
    """Queue ``requests`` at a busy primary, fire its propose timer, then
    acknowledge each batch with a backup's PREPARE until the queue is empty,
    and return the PRE-PREPAREs it sent: one per proposal, none while its
    newest is unacknowledged."""
    env.backlog = 300.0
    for queued in requests:
        primary.receive(queued)
    assert proposals(env) == []
    env.timers[PROPOSE_TIMER] = None
    primary.on_timer(PROPOSE_TIMER)
    assert len(proposals(env)) == 1
    while primary.request_queue:
        before = len(proposals(env))
        acknowledge_newest(primary, env)
        assert len(proposals(env)) == before + 1
    return proposals(env)


def shape(proposal: PrePrepare) -> tuple:
    return len(proposal.requests), len(proposal.separate_digests)


def test_separately_sent_requests_cost_a_digest_each(config, registry):
    primary, env = make_replica(config, registry, "replica0")
    requests = [large(index) for index in range(20)]
    [proposal] = drain(primary, env, requests)
    assert proposal.requests == ()
    assert proposal.separate_digests == tuple(r.request_digest() for r in requests)
    assert primary.request_queue == [] and primary._queued == {}


def test_inlined_and_separate_requests_share_one_pre_prepare(config, registry):
    primary, env = make_replica(config, registry, "replica0")
    requests = [large(index) for index in range(23)]
    for position in (0, 11, 22):
        requests[position] = request(position)
    [proposal] = drain(primary, env, requests)
    assert proposal.requests == (requests[0], requests[11], requests[22])
    assert proposal.separate_digests == tuple(
        r.request_digest() for position, r in enumerate(requests)
        if position not in (0, 11, 22)
    )


def test_inlined_requests_keep_the_sixteen_request_cap(config, registry):
    primary, env = make_replica(config, registry, "replica0")
    requests = [request(index) for index in range(17)]
    first, second = drain(primary, env, requests)
    assert list(first.requests) == requests[:16]
    assert list(second.requests) == requests[16:]
    assert (first.seq, second.seq) == (1, 2)


def test_separate_requests_split_at_the_budget(config, registry):
    primary, env = make_replica(config, registry, "replica0")
    requests = [large(index) for index in range(300)]
    first, second = drain(primary, env, requests)
    assert (shape(first), shape(second)) == ((0, 256), (0, 44))
    assert first.separate_digests + second.separate_digests == tuple(
        r.request_digest() for r in requests
    )


def test_a_mix_fills_the_budget_in_queue_order(config, registry):
    # 15 slots of 256 bytes leave 256 bytes: sixteen digests, then a new batch.
    primary, env = make_replica(config, registry, "replica0")
    requests = [request(index) for index in range(15)]
    requests += [large(index) for index in range(15, 35)]
    first, second = drain(primary, env, requests)
    assert (shape(first), shape(second)) == ((15, 16), (0, 4))


def test_batch_size_one_without_separate_transmission_turns_batching_off(
    config, registry
):
    options = ProtocolOptions(max_batch_size=1, separate_request_transmission=False)
    primary, env = make_replica(config, registry, "replica0", options=options)
    requests = [large(index) for index in range(3)]
    sent = drain(primary, env, requests)
    assert [list(p.requests) for p in sent] == [[r] for r in requests]
    assert all(p.separate_digests == () for p in sent)
    # With separate transmission on, one slot still holds sixteen digests.
    options = ProtocolOptions(max_batch_size=1)
    primary, env = make_replica(config, registry, "replica0", options=options)
    sent = drain(primary, env, [large(index) for index in range(20)])
    assert [shape(p) for p in sent] == [(0, 16), (0, 4)]


def test_a_backup_accepts_a_wide_pre_prepare_once_it_holds_every_body(
    config, registry
):
    backup, env = make_replica(config, registry, "replica1")
    requests = [large(index) for index in range(40)]
    wide = authed(PrePrepare(view=0, seq=1, sender="replica0", separate_digests=tuple(
        r.request_digest() for r in requests
    )))
    for held in requests[1:]:
        backup.receive(held)
    backup.receive(wide)
    assert not backup._have_all_requests(wide)
    assert env.messages_of_type(Prepare) == []
    assert list(backup.pending_pre_prepares) == [(0, 1)]
    backup.receive(requests[0])
    assert backup._have_all_requests(wide)
    assert backup.pending_pre_prepares == {}
    assert backup.log.slots[1].pre_prepare is wide
    [prepare] = {id(p): p for p in env.messages_of_type(Prepare)}.values()
    assert prepare.digest == wide.batch_digest()


# ------------------------------------------- one unacknowledged PRE-PREPARE
def test_requests_queue_behind_an_unacknowledged_pre_prepare(config, registry):
    primary, env = make_replica(config, registry, "replica0")
    first = request(0)
    primary.receive(first)
    [proposal] = proposals(env)
    queued = [request(1), request(2)]
    for later in queued:
        primary.receive(later)
    assert proposals(env) == [proposal]
    assert primary.request_queue == queued
    # Idle, and still no propose timer: nothing drains, it waits.
    assert not env.timer_running(PROPOSE_TIMER)


def test_one_matching_prepare_proposes_the_whole_queue_at_once(config, registry):
    """replica1, primary of view 1: a PREPARE of view 0, or for another
    digest, leaves the queue; a matching one proposes all of it in one
    PRE-PREPARE although the CPU is busy; a PREPARE for the older batch
    then proposes nothing."""
    primary, env = make_replica(config, registry, "replica1")
    start_changing(primary, 1)
    enter_view(primary, 1)
    primary.receive(request(0))
    [first] = proposals(env)
    assert (first.view, first.seq) == (1, 1)
    queued = [request(index) for index in range(1, 4)]
    for later in queued:
        primary.receive(later)
    env.backlog = 300.0
    acknowledge(primary, 1, first.batch_digest(), backup="replica2", view=0)
    acknowledge(primary, 1, b"\x33" * 16, backup="replica2")
    assert proposals(env) == [first]
    acknowledge(primary, 1, first.batch_digest(), backup="replica3")
    [_, second] = proposals(env)
    assert (second.seq, list(second.requests)) == (2, queued)
    assert primary.request_queue == [] and not env.timer_running(PROPOSE_TIMER)
    primary.receive(request(4))
    acknowledge(primary, 1, first.batch_digest(), backup="replica2")
    assert proposals(env) == [first, second]
    assert len(primary.request_queue) == 1


def prepare_unheard(primary, seq: int) -> None:
    """Prepare batch ``seq`` at the primary with every backup PREPARE lost on
    the way: the votes go into the slot's certificate without passing through
    ``handle_prepare``, so no acknowledgement proposes the queue; only the
    execution they lead to can."""
    slot = primary.log.existing_slot(seq)
    for voter in (2, 3):
        slot.prepares.add(voter, slot.digest())
    primary._check_prepared(slot)


def commit(primary, seq: int) -> None:
    slot = primary.log.existing_slot(seq)
    for backup in ("replica2", "replica3"):
        primary.receive(authed(Commit(view=slot.view, seq=seq, digest=slot.digest(),
                                      sender=backup)))


@pytest.mark.parametrize("tentative", [True, False], ids=["tentative", "committed"])
def test_executing_the_newest_batch_proposes_without_any_prepare(
    config, registry, tentative
):
    options = ProtocolOptions(tentative_execution=tentative)
    primary, env = make_replica(config, registry, "replica0", options=options)
    primary.receive(request(0))
    queued = [request(1), request(2)]
    for later in queued:
        primary.receive(later)
    env.backlog = 300.0
    prepare_unheard(primary, 1)
    if not tentative:
        assert primary.last_tentative == 0 and len(proposals(env)) == 1
        commit(primary, 1)
    assert primary.last_tentative == 1
    [_, second] = proposals(env)
    assert (second.seq, list(second.requests)) == (2, queued)
    assert not env.timer_running(PROPOSE_TIMER)


@pytest.mark.parametrize("answer", ["prepare", "execution"])
def test_a_new_primary_proposes_once_its_highest_reproposal_is_answered(
    config, registry, answer
):
    """replica1 prepared batches 1 and 2 of view 0 and holds a third
    client's request; as view 1's primary it re-proposes both and queues
    the request until batch 2 is acknowledged or executes."""
    primary, env = make_replica(config, registry, "replica1")
    batches = [
        pre_prepare(0, seq, config, [request(seq)]) for seq in (1, 2)
    ]
    for batch in batches:
        primary.receive(batch)
    awaited = request(3)
    primary.receive(awaited)
    start_changing(primary, 1)
    enter_view(primary, 1, prepared=batches)
    assert primary.seqno == 2 and proposals(env) == []
    assert primary.request_queue == [awaited]
    highest = primary.log.existing_slot(2).digest()
    acknowledge(primary, 1, primary.log.existing_slot(1).digest(), backup="replica2")
    acknowledge(primary, 2, highest, backup="replica2", view=0)
    assert proposals(env) == []
    if answer == "prepare":
        acknowledge(primary, 2, highest, backup="replica2")
    else:
        for seq in (1, 2):
            prepare_unheard(primary, seq)
        assert proposals(env) == []
        commit(primary, 1)
        assert primary.last_tentative == 2
    [proposal] = proposals(env)
    assert (proposal.view, proposal.seq, proposal.requests) == (1, 3, (awaited,))
