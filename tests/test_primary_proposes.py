"""When the primary proposes (Section 5.1.4; DESIGN.md, "When the primary
proposes").

A handler runs when its message arrives, so a primary whose CPU is still
busy with earlier arrivals has not yet handled the requests queued behind
them.  It drains them first: it arms the propose timer for the end of that
backlog, once, and proposes when the timer fires.  An idle primary proposes
at once.  ``RecordingEnv.backlog`` is what the environment reports as the
CPU backlog.
"""

from __future__ import annotations

from repro.core.config import ProtocolOptions
from repro.core.messages import PrePrepare, Request
from repro.core.replica import PROPOSE_TIMER
from tests.conftest import authed, make_replica


def request(index: int) -> Request:
    return authed(Request(operation=b"SET k%d v" % index, timestamp=1,
                          sender="client%d" % index))


def proposals(env) -> list:
    """Each PRE-PREPARE sent, once (a multicast records one copy per peer)."""
    unique = []
    for message in env.messages_of_type(PrePrepare):
        if all(message is not seen for seen in unique):
            unique.append(message)
    return unique


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
    options = ProtocolOptions(max_batch_size=2, pipeline_depth=1)
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
