"""Message-level unit tests for the replica's normal-case protocol.

These tests drive a single replica through the three-phase protocol by
feeding it messages directly (no simulator), using the RecordingEnv to
observe what it sends.
"""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolOptions
from repro.core.messages import Commit, PrePrepare, Prepare, Reply, Request
from tests.conftest import authed, make_replica


def client_request(op=b"SET key value", timestamp=1, client="client0"):
    return authed(Request(operation=op, timestamp=timestamp, client=client,
                          sender=client))


def drive_to_prepared(replica, env, seq=1, op=b"SET key value"):
    """Feed a backup the pre-prepare and enough prepares to prepare ``seq``."""
    request = client_request(op=op)
    pre_prepare = authed(
        PrePrepare(view=0, seq=seq, requests=(request,), sender="replica0")
    )
    replica.receive(pre_prepare)
    digest = pre_prepare.batch_digest()
    for other in ("replica2", "replica3"):
        replica.receive(
            authed(Prepare(view=0, seq=seq, digest=digest, replica=other, sender=other))
        )
    return pre_prepare


# ------------------------------------------------------------------ backups
def test_backup_sends_prepare_on_valid_pre_prepare(replica_and_env):
    replica, env = replica_and_env
    request = client_request()
    pre_prepare = authed(
        PrePrepare(view=0, seq=1, requests=(request,), sender="replica0")
    )
    replica.receive(pre_prepare)
    prepares = env.messages_of_type(Prepare)
    assert prepares, "backup should multicast a prepare"
    assert prepares[0].digest == pre_prepare.batch_digest()
    assert prepares[0].replica == "replica1"
    # Sent to the three other replicas.
    assert len(prepares) == 3


def test_backup_ignores_pre_prepare_from_non_primary(replica_and_env):
    replica, env = replica_and_env
    request = client_request()
    bogus = authed(PrePrepare(view=0, seq=1, requests=(request,), sender="replica2"))
    replica.receive(bogus)
    assert env.messages_of_type(Prepare) == []


def test_backup_ignores_pre_prepare_outside_water_marks(replica_and_env):
    replica, env = replica_and_env
    request = client_request()
    too_far = authed(
        PrePrepare(view=0, seq=1000, requests=(request,), sender="replica0")
    )
    replica.receive(too_far)
    assert env.messages_of_type(Prepare) == []


def test_backup_refuses_conflicting_pre_prepare_for_same_seq(replica_and_env):
    replica, env = replica_and_env
    first = authed(PrePrepare(view=0, seq=1, requests=(client_request(op=b"SET a 1"),),
                              sender="replica0"))
    second = authed(PrePrepare(view=0, seq=1, requests=(client_request(op=b"SET b 2"),),
                               sender="replica0"))
    replica.receive(first)
    env.clear()
    replica.receive(second)
    # No prepare for the conflicting assignment.
    assert env.messages_of_type(Prepare) == []


def test_unauthenticated_messages_are_rejected(replica_and_env):
    replica, env = replica_and_env
    request = Request(operation=b"SET a 1", timestamp=1, client="client0",
                      sender="client0")  # no auth attached
    replica.receive(request)
    assert replica.metrics.messages_rejected == 1


def test_backup_prepares_then_commits(replica_and_env):
    replica, env = replica_and_env
    pre_prepare = drive_to_prepared(replica, env)
    slot = replica.log.existing_slot(1)
    assert slot.prepared
    commits = env.messages_of_type(Commit)
    assert commits and commits[0].digest == pre_prepare.batch_digest()


def test_backup_executes_tentatively_once_prepared(replica_and_env):
    replica, env = replica_and_env
    drive_to_prepared(replica, env)
    replies = env.messages_of_type(Reply)
    assert replies, "tentative execution should produce a reply after prepare"
    assert replies[0].tentative
    assert replica.last_tentative == 1
    assert replica.last_executed == 0


def test_backup_commits_after_quorum_of_commits(replica_and_env):
    replica, env = replica_and_env
    pre_prepare = drive_to_prepared(replica, env)
    digest = pre_prepare.batch_digest()
    for other in ("replica0", "replica2"):
        replica.receive(
            authed(Commit(view=0, seq=1, digest=digest, replica=other, sender=other))
        )
    slot = replica.log.existing_slot(1)
    assert slot.committed
    assert replica.last_executed == 1


def test_commit_point_without_tentative_execution(config, registry):
    options = ProtocolOptions(tentative_execution=False)
    replica, env = make_replica(config, registry, "replica1", options=options)
    pre_prepare = drive_to_prepared(replica, env)
    # Prepared but not executed: no reply yet.
    assert env.messages_of_type(Reply) == []
    digest = pre_prepare.batch_digest()
    for other in ("replica0", "replica2"):
        replica.receive(
            authed(Commit(view=0, seq=1, digest=digest, replica=other, sender=other))
        )
    replies = env.messages_of_type(Reply)
    assert replies and not replies[0].tentative
    assert replica.last_executed == 1


def test_out_of_order_commit_waits_for_lower_sequence_numbers(replica_and_env):
    replica, env = replica_and_env
    # Prepare and commit sequence number 2 before sequence number 1 exists.
    request = client_request(op=b"SET b 2", timestamp=2)
    pre_prepare2 = authed(PrePrepare(view=0, seq=2, requests=(request,),
                                     sender="replica0"))
    replica.receive(pre_prepare2)
    digest2 = pre_prepare2.batch_digest()
    for other in ("replica2", "replica3"):
        replica.receive(authed(Prepare(view=0, seq=2, digest=digest2, replica=other,
                                       sender=other)))
    for other in ("replica0", "replica2"):
        replica.receive(authed(Commit(view=0, seq=2, digest=digest2, replica=other,
                                      sender=other)))
    # Committed but cannot execute until sequence number 1 executes.
    assert replica.log.existing_slot(2).committed
    assert replica.last_executed == 0
    # Now drive sequence number 1 to commit; both execute in order.
    pre_prepare1 = drive_to_prepared(replica, env, seq=1, op=b"SET a 1")
    digest1 = pre_prepare1.batch_digest()
    for other in ("replica0", "replica2"):
        replica.receive(authed(Commit(view=0, seq=1, digest=digest1, replica=other,
                                      sender=other)))
    assert replica.last_executed == 2


# ------------------------------------------------------------------ primary
def test_primary_assigns_sequence_number_and_multicasts(primary_and_env):
    primary, env = primary_and_env
    primary.receive(client_request())
    pre_prepares = env.messages_of_type(PrePrepare)
    assert pre_prepares, "primary should multicast a pre-prepare"
    assert pre_prepares[0].seq == 1
    assert primary.seqno == 1
    # Sent to each of the three backups.
    assert len(pre_prepares) == 3


def test_primary_does_not_send_prepare(primary_and_env):
    primary, env = primary_and_env
    primary.receive(client_request())
    assert env.messages_of_type(Prepare) == []


def test_primary_prepares_after_2f_prepares_from_backups(primary_and_env):
    primary, env = primary_and_env
    primary.receive(client_request())
    digest = env.messages_of_type(PrePrepare)[0].batch_digest()
    for other in ("replica1", "replica2"):
        primary.receive(authed(Prepare(view=0, seq=1, digest=digest, replica=other,
                                       sender=other)))
    assert primary.log.existing_slot(1).prepared
    assert env.messages_of_type(Commit)


def test_primary_rejects_prepare_claiming_to_be_from_primary(primary_and_env):
    primary, env = primary_and_env
    primary.receive(client_request())
    digest = env.messages_of_type(PrePrepare)[0].batch_digest()
    forged = authed(Prepare(view=0, seq=1, digest=digest, replica="replica0",
                            sender="replica0"))
    primary.receive(forged)
    assert primary.log.existing_slot(1).prepare_count() == 0


def test_consecutive_requests_get_increasing_sequence_numbers(primary_and_env):
    primary, env = primary_and_env
    primary.receive(client_request(op=b"SET a 1", timestamp=1))
    primary.receive(client_request(op=b"SET b 2", timestamp=2))
    seqs = [pp.seq for pp in env.messages_of_type(PrePrepare)]
    assert sorted(set(seqs)) == [1, 2]


def test_retransmitted_executed_request_resends_cached_reply(replica_and_env):
    replica, env = replica_and_env
    pre_prepare = drive_to_prepared(replica, env)
    digest = pre_prepare.batch_digest()
    for other in ("replica0", "replica2"):
        replica.receive(authed(Commit(view=0, seq=1, digest=digest, replica=other,
                                      sender=other)))
    env.clear()
    replica.receive(client_request())  # same timestamp: a retransmission
    replies = env.messages_of_type(Reply)
    assert replies and replies[0].timestamp == 1


def test_stale_request_is_ignored(replica_and_env):
    replica, env = replica_and_env
    pre_prepare = drive_to_prepared(replica, env)
    digest = pre_prepare.batch_digest()
    for other in ("replica0", "replica2"):
        replica.receive(authed(Commit(view=0, seq=1, digest=digest, replica=other,
                                      sender=other)))
    env.clear()
    stale = client_request(timestamp=0)
    replica.receive(stale)
    assert env.messages_of_type(Reply) == []


# -------------------------------------------------------------- read-only
def test_read_only_request_executes_immediately(config, registry):
    replica, env = make_replica(config, registry, "replica2")
    # Seed some state through the normal path first.
    pre_prepare = authed(PrePrepare(view=0, seq=1,
                                    requests=(client_request(op=b"SET x 42"),),
                                    sender="replica0"))
    replica.receive(pre_prepare)
    digest = pre_prepare.batch_digest()
    for other in ("replica1", "replica3"):
        replica.receive(authed(Prepare(view=0, seq=1, digest=digest, replica=other,
                                       sender=other)))
    env.clear()
    read = authed(Request(operation=b"GET x", timestamp=2, client="client0",
                          read_only=True, sender="client0"))
    replica.receive(read)
    replies = env.messages_of_type(Reply)
    assert replies and replies[0].result == b"42"
    assert replica.metrics.read_only_executed == 1
    # Answered on the spot: nothing will look the body up again.
    assert replica.log.request_by_digest(read.request_digest()) is None


def test_mutating_request_marked_read_only_falls_back(primary_and_env):
    primary, env = primary_and_env
    bogus = authed(Request(operation=b"SET sneaky 1", timestamp=1, client="client0",
                           read_only=True, sender="client0"))
    primary.receive(bogus)
    # The service rejects it as read-only, so it goes through the protocol.
    assert env.messages_of_type(PrePrepare)
    assert env.messages_of_type(Reply) == []
    assert primary.log.request_by_digest(bogus.request_digest()) is bogus


# ---------------------------------------------------------------- batching
def test_batching_groups_queued_requests(config, registry):
    options = ProtocolOptions(batching=True, max_batch_size=8)
    primary, env = make_replica(config, registry, "replica0", options=options)
    # Block the pipeline by filling the window?  Simpler: deliver requests in
    # one handler turn by calling handle_request directly before the first
    # pre-prepare is processed by others.  Each request still gets its own
    # pre-prepare here because the queue drains immediately; verify instead
    # that a batch forms when requests arrive while the queue is non-empty.
    r1 = client_request(op=b"SET a 1", timestamp=1)
    r2 = client_request(op=b"SET b 2", timestamp=2, client="client0")
    primary.request_queue.extend([r1, r2])
    primary._try_send_pre_prepare()
    pre_prepares = env.messages_of_type(PrePrepare)
    assert pre_prepares
    assert len(pre_prepares[0].requests) == 2


def test_separate_request_transmission_uses_digests(config, registry):
    options = ProtocolOptions(separate_request_transmission=True,
                              separate_request_threshold=100)
    primary, env = make_replica(config, registry, "replica0", options=options)
    big = client_request(op=b"x" * 500, timestamp=1)
    primary.receive(big)
    pre_prepare = env.messages_of_type(PrePrepare)[0]
    assert pre_prepare.requests == ()
    assert pre_prepare.separate_digests == (big.request_digest(),)


def test_backup_buffers_pre_prepare_until_separate_request_arrives(config, registry):
    options = ProtocolOptions(separate_request_transmission=True,
                              separate_request_threshold=100)
    backup, env = make_replica(config, registry, "replica1", options=options)
    big = client_request(op=b"y" * 500, timestamp=1)
    pre_prepare = authed(PrePrepare(view=0, seq=1,
                                    separate_digests=(big.request_digest(),),
                                    sender="replica0"))
    backup.receive(pre_prepare)
    assert env.messages_of_type(Prepare) == []
    backup.receive(big)
    assert env.messages_of_type(Prepare)
