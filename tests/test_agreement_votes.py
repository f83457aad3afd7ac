"""What a slot counts: certificates are of *matching* messages (Section 2.3.3).

``prepared`` needs a pre-prepare and 2f prepares from distinct backups for
*that* batch digest, ``committed-local`` 2f + 1 commits for it.  Votes for
another batch at the same (view, seq) — what the backups of an equivocating
primary honestly send — must never count towards this one.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import run_closed_loop
from repro.core.auth import Authentication, MACAuth, build_session_keys
from repro.core.config import AuthMode, ReplicaSetConfig
from repro.core.messages import Commit, PrePrepare, Prepare, Request, StatusActive
from repro.crypto.signatures import SignatureRegistry
from repro.library import BFTCluster
from repro.net.conditions import NetworkConditions
from repro.services.null_service import NullService
from repro.sim.faults import FaultSpec, FaultType
from tests.conftest import authed, make_replica


def batch(value: bytes, seq: int = 1) -> PrePrepare:
    request = authed(Request(operation=b"SET k " + value, timestamp=1,
                             sender="client0"))
    return PrePrepare(view=0, seq=seq, requests=(request,), sender="replica0")


def vote(kind, digest: bytes, replica: str, seq: int = 1):
    return authed(kind(view=0, seq=seq, digest=digest, sender=replica))


def test_votes_for_another_batch_do_not_certify_this_one(replica_and_env):
    """f = 1, only the primary faulty: it proposes B to replica2 / replica3
    and A to replica1.  Their (honest) PREPAREs and COMMITs for B reach
    replica1 before its PRE-PREPARE for A does."""
    replica, env = replica_and_env
    batch_a, batch_b = batch(b"A"), batch(b"B")
    for other in ("replica2", "replica3"):
        replica.receive(vote(Prepare, batch_b.batch_digest(), other))
        replica.receive(vote(Commit, batch_b.batch_digest(), other))
    replica.receive(authed(batch_a))
    slot = replica.log.existing_slot(1)
    assert slot.digest() == batch_a.batch_digest()
    assert env.messages_of_type(Prepare), "replica1 still votes for A"
    assert not slot.prepared and not slot.committed
    assert env.messages_of_type(Commit) == []
    assert replica.last_executed == 0 and replica.last_tentative == 0
    assert replica.service.execute(b"GET k", "client0", read_only=True) == b""


def test_a_forged_vote_does_not_block_the_honest_certificate(replica_and_env):
    """f = 1, replica3 faulty: its early votes for B neither count for A nor
    keep A from certifying on the honest replicas' votes."""
    replica, env = replica_and_env
    batch_a, batch_b = batch(b"A"), batch(b"B")
    replica.receive(vote(Prepare, batch_b.batch_digest(), "replica3"))
    replica.receive(vote(Commit, batch_b.batch_digest(), "replica3"))
    replica.receive(authed(batch_a))
    replica.receive(vote(Prepare, batch_a.batch_digest(), "replica2"))
    slot = replica.log.existing_slot(1)
    assert slot.prepared
    for other in ("replica0", "replica2"):
        replica.receive(vote(Commit, batch_a.batch_digest(), other))
    assert slot.committed and replica.last_executed == 1
    assert replica.service.execute(b"GET k", "client0", read_only=True) == b"A"


STEPS = st.lists(
    st.tuples(
        st.sampled_from(["pre-prepare", "prepare", "commit"]),
        st.integers(min_value=0, max_value=6),  # sender, folded into the group
        st.integers(min_value=0, max_value=1),  # which of the two batches
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(f=st.sampled_from([1, 2]), steps=STEPS)
def test_certificates_count_only_matching_votes(f, steps):
    """Any interleaving of PRE-PREPARE / PREPARE / COMMIT over two digests
    at one backup: ``prepared`` implies 2f distinct backups (itself
    included) voted the attached digest, ``committed`` implies 2f + 1
    replicas sent a COMMIT for it."""
    config = ReplicaSetConfig.for_faults(f, checkpoint_interval=4)
    replica, env = make_replica(config, SignatureRegistry(), "replica1")
    batches = (batch(b"A"), batch(b"B"))
    prepared_by = {b.batch_digest(): set() for b in batches}
    committed_by = {b.batch_digest(): set() for b in batches}
    for kind, sender_index, which in steps:
        sender = config.replica_ids[sender_index % config.n]
        digest = batches[which].batch_digest()
        if kind == "pre-prepare":
            replica.receive(authed(batch(b"AB"[which:which + 1])))
        elif sender != replica.id:
            if kind == "prepare":
                replica.receive(vote(Prepare, digest, sender))
                if sender != "replica0":
                    prepared_by[digest].add(sender)
            else:
                replica.receive(vote(Commit, digest, sender))
                committed_by[digest].add(sender)
        for own in env.messages_of_type(Prepare):
            prepared_by[own.digest].add(replica.id)
        for own in env.messages_of_type(Commit):
            committed_by[own.digest].add(replica.id)
        slot = replica.log.existing_slot(1)
        if slot is None:
            continue
        if slot.prepared:
            assert len(prepared_by[slot.digest()]) >= 2 * f
        if slot.committed:
            assert slot.prepared
            assert len(committed_by[slot.digest()]) >= 2 * f + 1
        if replica.last_executed:
            assert slot.committed


# ------------------------------------------------------------- what a slot holds
def test_one_vote_per_replica_whatever_it_sprays(replica_and_env):
    """A replica sending 1 000 distinct digests at one slot leaves one entry
    and one bit per phase; n replicas doing it leave at most n."""
    replica, _ = replica_and_env
    for n in range(1000):
        junk = b"%016d" % n
        replica.receive(vote(Prepare, junk, "replica3"))
        replica.receive(vote(Commit, junk, "replica3"))
    slot = replica.log.existing_slot(1)
    first = b"%016d" % 0
    for votes in (slot.prepares, slot.commits):
        assert list(votes) == [first] and votes.voters(first) == 1 << 3
    batch_a = batch(b"A")
    digest_a = batch_a.batch_digest()
    replica.receive(vote(Prepare, digest_a, "replica2"))
    replica.receive(vote(Prepare, b"y" * 16, "not-a-replica"))
    assert list(slot.prepares) == [first, digest_a]
    assert slot.prepares.voters(digest_a) == 1 << 2
    assert slot.prepares.winner(1) == first and slot.commits.count(digest_a) == 0
    assert not (slot.prepares.holds(1) or slot.commits.holds(1)), "replica1 voted nothing"
    # The pre-prepare attaches: its batch's early votes count, the rest go,
    # and votes for anything else are refused from then on.
    replica.receive(authed(batch_a))
    assert list(slot.prepares) == [digest_a] and list(slot.commits) == [digest_a]
    assert slot.prepares.voters(digest_a) == 1 << 2 | 1 << 1
    assert slot.commits.voters(digest_a) == 1 << 1
    for n in range(1000):
        replica.receive(vote(Commit, b"%016d" % n, "replica0"))
    assert list(slot.commits) == [digest_a] and slot.commits.voters(digest_a) == 1 << 1


def test_status_retransmission_resends_own_votes_as_resigned_copies(replica_and_env):
    """A peer whose status shows the batch missing gets this replica's own
    PREPARE / COMMIT point to point: the same payload as the multicast
    originals, each under its own MAC — the originals, which may still sit
    in an undelivered multicast, keep their authenticator."""
    replica, env = replica_and_env
    batch_a = batch(b"A")
    replica.receive(authed(batch_a))
    replica.receive(vote(Prepare, batch_a.batch_digest(), "replica2"))
    own_prepare = env.messages_of_type(Prepare)[0]
    own_commit = env.messages_of_type(Commit)[0]
    multicast_auths = (own_prepare.auth, own_commit.auth)
    env.clear()
    replica.receive(authed(StatusActive(view=0, sender="replica3")))
    resent = env.messages_to("replica3")
    assert [type(m) for m in resent] == [Prepare, Commit]
    for copy, original in zip(resent, (own_prepare, own_commit)):
        assert copy is not original and copy.payload_bytes() == original.payload_bytes()
        assert type(copy.auth) is MACAuth and copy.auth.receiver == "replica3"
    assert own_prepare.auth is multicast_auths[0] and own_commit.auth is multicast_auths[1]
    # A peer that has the batch prepared and committed is sent nothing.
    env.clear()
    replica.receive(authed(StatusActive(view=0, sender="replica3",
                                        prepared_seqs=(1,), committed_seqs=(1,))))
    assert env.messages_to("replica3") == []


def test_a_commit_forged_under_this_replicas_name_is_not_resent_as_its_own(replica_and_env):
    """Until a vote's identity is bound to its authenticator, a COMMIT that
    claims to be replica1's can set replica1's bit.  Status retransmission
    re-sends what replica1 did, not what its masks say: it never prepared
    the batch, so it sends no COMMIT."""
    replica, env = replica_and_env
    batch_a = batch(b"A")
    replica.receive(authed(batch_a))
    replica.receive(vote(Commit, batch_a.batch_digest(), "replica1"))
    slot = replica.log.existing_slot(1)
    assert slot.pre_prepared_locally and not slot.prepared
    env.clear()
    replica.receive(authed(StatusActive(view=0, sender="replica3")))
    assert [type(m) for m in env.messages_to("replica3")] == [Prepare]


# ------------------------------------------- what a status is answered with, and when
STATUS_TICK = ReplicaSetConfig(n=4).status_interval


def _commit_after(replica, env, seq: int, value: bytes, round_trip: float) -> None:
    """Take ``seq`` from its PRE-PREPARE to commit in ``round_trip`` µs."""
    pre_prepare = batch(value, seq)
    replica.receive(authed(pre_prepare))
    replica.receive(vote(Prepare, pre_prepare.batch_digest(), "replica2", seq))
    env.advance(round_trip)
    for other in ("replica2", "replica3"):
        replica.receive(vote(Commit, pre_prepare.batch_digest(), other, seq))
    assert replica.log.existing_slot(seq).committed


def _in_flight_slot(replica, env, round_trips=(4_000.0,)):
    """Commit slots 1.. with these round trips, then prepare one more slot
    now: its PREPARE and COMMIT have just been multicast.  Returns them."""
    for seq, round_trip in enumerate(round_trips, start=1):
        _commit_after(replica, env, seq, b"%d" % seq, round_trip)
    fresh = batch(b"fresh", seq=len(round_trips) + 1)
    replica.receive(authed(fresh))
    replica.receive(vote(Prepare, fresh.batch_digest(), "replica2", fresh.seq))
    own = (env.messages_of_type(Prepare)[-1], env.messages_of_type(Commit)[-1])
    env.clear()
    return own


def status_of_replica3(last_executed: int):
    """replica3 has executed the committed slots and has nothing else."""
    return authed(StatusActive(view=0, sender="replica3",
                               last_executed=last_executed))


def test_a_status_inside_the_timeout_is_answered_with_nothing_for_that_slot(replica_and_env):
    """One 4 ms round trip sets the timeout to 12 ms (RFC 6298: SRTT + 4
    RTTVAR, RTTVAR = SRTT / 2 after one sample).  A status 1 µs short of
    that finds this replica's PREPARE and COMMIT still in flight."""
    replica, env = replica_and_env
    _in_flight_slot(replica, env)
    env.advance(12_000.0 - 1)
    replica.receive(status_of_replica3(last_executed=1))
    assert env.messages_to("replica3") == []
    assert replica.metrics.status_retransmissions == 0


def test_a_status_past_the_timeout_gets_the_resigned_copies(replica_and_env):
    """The same status once the timeout has passed: the replica's own
    PREPARE and COMMIT, point to point, as before there was a timeout."""
    replica, env = replica_and_env
    own = _in_flight_slot(replica, env)
    env.advance(12_000.0)
    replica.receive(status_of_replica3(last_executed=1))
    resent = env.messages_to("replica3")
    assert [type(m) for m in resent] == [Prepare, Commit]
    for copy, original in zip(resent, own):
        assert copy is not original and copy.payload_bytes() == original.payload_bytes()
        assert type(copy.auth) is MACAuth and copy.auth.receiver == "replica3"


def test_a_status_asks_for_nothing_for_a_slot_still_in_flight_at_its_sender(replica_and_env):
    """The sender's side of the same timeout: a slot whose own last message
    is younger than 12 ms is listed as prepared and committed, so no reader
    re-sends for it however late it reads the status; from 12 ms on it is
    listed as what it is (prepared, not committed)."""
    replica, env = replica_and_env
    _in_flight_slot(replica, env)
    env.advance(12_000.0 - 1)
    replica.on_timer("status")
    [early] = {id(m): m for m in env.messages_of_type(StatusActive)}.values()
    assert (early.prepared_seqs, early.committed_seqs) == ((1, 2), (1, 2))
    env.clear()
    env.advance(1.0)
    replica.on_timer("status")
    [late] = {id(m): m for m in env.messages_of_type(StatusActive)}.values()
    assert (late.prepared_seqs, late.committed_seqs) == ((1, 2), (1,))


def test_the_timeout_follows_rfc_6298_and_karns_rule(replica_and_env):
    """Samples of 4 ms and 8 ms give SRTT 4.5 ms and RTTVAR 2.5 ms, so a
    14.5 ms timeout; a slot that started before this replica's last STATUS
    gives no sample (the status round may have been what committed it)."""
    replica, env = replica_and_env
    _commit_after(replica, env, 1, b"1", 4_000.0)
    assert replica._status_timeout() == 12_000.0
    pre_prepare = batch(b"2", seq=2)
    replica.receive(authed(pre_prepare))
    replica.on_timer("status")
    env.advance(1.0)
    replica.receive(vote(Prepare, pre_prepare.batch_digest(), "replica2", 2))
    env.advance(40_000.0)
    for other in ("replica2", "replica3"):
        replica.receive(vote(Commit, pre_prepare.batch_digest(), other, 2))
    assert replica.log.existing_slot(2).committed
    assert replica._status_timeout() == 12_000.0
    _commit_after(replica, env, 3, b"3", 8_000.0)
    assert replica._status_timeout() == 4_500.0 + 4 * 2_500.0


def test_slow_commits_never_hold_a_status_answer_past_a_quarter_interval(replica_and_env):
    """Commits stalled for 1, 2 and 5 s (a recovery reboot) would put the
    timeout at seconds; it stays at a quarter of the status interval, so a
    status that late gets the re-sends and one a microsecond earlier none."""
    replica, env = replica_and_env
    quarter = replica.config.status_interval / 4
    _in_flight_slot(replica, env, round_trips=(1e6, 2e6, 5e6))
    env.advance(quarter - 1)
    replica.receive(status_of_replica3(last_executed=3))
    assert env.messages_to("replica3") == []
    env.advance(1.0)
    replica.receive(status_of_replica3(last_executed=3))
    assert [type(m) for m in env.messages_to("replica3")] == [Prepare, Commit]
    assert replica.metrics.status_retransmissions == 2
    assert replica._status_timeout() == quarter


def test_a_status_round_at_n_31_resends_almost_nothing():
    """f = 10, 8 closed-loop clients, 240 operations after a warm-up: all
    31 status timers fire once inside, while nearly every slot a status
    lists is still in flight.  Answering every listed slot re-sent 3,840
    PRE-PREPAREs, PREPAREs and COMMITs over 48 such operations; past each
    replica's timeout only a few are due.  A status is read ~1 ms after it
    is built here, so a reader judging the listed slots by its own clock
    alone re-sent one slot's COMMIT to everyone: 873 copies."""
    cluster = BFTCluster.create(f=10, seed=1)
    operation = lambda _client, _index: (b"op", False)
    run_closed_loop(cluster, 8, 2, operation)
    replicas = cluster.replicas.values()
    start = cluster.now
    before = sum(r.metrics.status_retransmissions for r in replicas)
    run_closed_loop(cluster, 8, 30, operation)
    assert start < STATUS_TICK < cluster.now < 2 * STATUS_TICK
    assert all(start < r._status_sent_at < cluster.now for r in replicas)
    assert sum(r.metrics.status_retransmissions for r in replicas) - before <= 100


def lose_first_multicast(network, source: str, kind: type, seq: int) -> None:
    """The network loses every copy of ``source``'s multicast ``kind`` for
    ``seq``; point-to-point copies (status answers) get through."""
    send_many = network.send_many

    def lossy(sender, runs):
        send_many(sender, [run for run in runs if not (
            sender == source and type(run[1]) is kind and run[1].seq == seq
            and len(run[0]) > 1)])

    network.send_many = lossy


def _lost_prepare(loss: str, lead: float):
    """f = 1 on a 1 ms network with replica3 crashed, so replica0 and
    replica2 cannot prepare without replica1's PREPARE.  Five operations
    give replica1 its timeout (~3.2 ms, about three network delays); the
    sixth is issued ``lead`` µs before a status tick, and replica1's
    PREPARE for it is lost — to a DROP fault on replica1's sends for
    3.5 ms, or in the network."""
    cluster = BFTCluster.create(f=1, seed=5, conditions=NetworkConditions(fixed_delay=1_000.0))
    client = cluster.new_client()
    for _ in range(5):
        client.invoke(b"op")
    cluster.crash_replica("replica3")
    cluster.run(until=STATUS_TICK - lead)
    seq = cluster.replicas["replica0"].seqno + 1
    if loss == "drop-fault":
        cluster.inject_fault(FaultSpec(node="replica1", fault=FaultType.DROP_MESSAGES,
                                       start=cluster.now, end=cluster.now + 3_500.0))
    else:
        lose_first_multicast(cluster.network, "replica1", Prepare, seq)
    client.invoke_async(b"op")
    return cluster, seq


def prepared_at(cluster, seq: int):
    return [cluster.replicas[r].log.existing_slot(seq).prepared
            for r in ("replica0", "replica2")]


@pytest.mark.parametrize("loss", ["drop-fault", "network"])
def test_a_lost_prepare_is_resent_at_the_next_status_tick(loss):
    """Lost ~47 ms before the tick, long past the timeout: the statuses of
    that tick bring it back, and both peers prepare."""
    cluster, seq = _lost_prepare(loss, lead=50_000.0)
    cluster.run(until=STATUS_TICK)
    assert prepared_at(cluster, seq) == [False, False]
    cluster.run(until=STATUS_TICK + 5_000.0)
    assert prepared_at(cluster, seq) == [True, True]


@pytest.mark.parametrize("loss", ["drop-fault", "network"])
def test_a_prepare_lost_inside_the_timeout_waits_for_the_next_tick(loss):
    """Lost ~0.8 ms before the tick: the statuses of that tick reach
    replica1 ~1 ms after it, inside its timeout, and get no re-send; the
    next tick's do."""
    cluster, seq = _lost_prepare(loss, lead=4_000.0)
    cluster.run(until=STATUS_TICK + 5_000.0)
    assert prepared_at(cluster, seq) == [False, False]
    replica1 = cluster.replicas["replica1"]
    sent_at = replica1.log.existing_slot(seq).sent_at
    assert 0 < STATUS_TICK - sent_at < replica1._status_timeout() / 2
    cluster.run(until=2 * STATUS_TICK + 5_000.0)
    assert prepared_at(cluster, seq) == [True, True]


# ------------------------------------------------------- what a vote is checked by
def _real_crypto_backup(config, registry):
    """replica1 checking real MACs, and ``signed(message)``, which
    authenticates a message the way its sender's node does."""
    replica, env = make_replica(config, registry, "replica1", real_crypto=True)
    signers = {
        name: Authentication(name, AuthMode.MAC,
                             build_session_keys(name, config.replica_ids), registry)
        for name in config.replica_ids if name != replica.id
    }

    def signed(message):
        return signers[message.sender].sign_multicast(message, config.replica_ids)

    return replica, env, signed


def signed_vote(signed, kind, digest: bytes, replica: str):
    return signed(kind(view=0, seq=1, digest=digest, sender=replica))


def test_a_vote_with_a_bad_mac_for_an_undecided_slot_is_rejected(config, registry):
    """While its certificate is incomplete a vote is MAC-checked: a bad
    entry is refused and counted, and the vote does not count."""
    replica, _, signed = _real_crypto_backup(config, registry)
    batch_a = batch(b"A")
    digest_a = batch_a.batch_digest()

    def tampered(kind, voter):
        message = signed_vote(signed, kind, digest_a, voter)
        message.auth.vector = bytes(len(message.auth.vector))
        return message

    replica.receive(signed(batch_a))
    slot = replica.log.existing_slot(1)
    replica.receive(tampered(Prepare, "replica2"))
    assert replica.metrics.messages_rejected == 1
    assert slot.prepares.voters(digest_a) == 1 << 1 and not slot.prepared
    replica.receive(signed_vote(signed, Prepare, digest_a, "replica2"))
    assert slot.prepared and not slot.committed
    replica.receive(tampered(Commit, "replica0"))
    assert replica.metrics.messages_rejected == 2
    assert slot.commits.voters(digest_a) == 1 << 1 and not slot.committed


def test_late_votes_are_charged_not_authenticated(config, registry, monkeypatch):
    """f = 1: once the slot is prepared and committed, the remaining
    replica's PREPARE and COMMIT can change nothing.  Each is charged what
    verifying it costs (digest, then MAC) and dropped before any MAC check."""
    replica, env, signed = _real_crypto_backup(config, registry)
    batch_a = batch(b"A")
    digest_a = batch_a.batch_digest()
    replica.receive(signed(batch_a))
    replica.receive(signed_vote(signed, Prepare, digest_a, "replica2"))
    for other in ("replica0", "replica2"):
        replica.receive(signed_vote(signed, Commit, digest_a, other))
    slot = replica.log.existing_slot(1)
    assert slot.prepared and slot.committed and replica.last_executed == 1
    assert slot.prepares is None and slot.commits is None
    before, rejected = dataclasses.replace(slot), replica.metrics.messages_rejected
    verify = Authentication.verify
    verified = []
    monkeypatch.setattr(Authentication, "verify",
                        lambda auth, message: verified.append(message) or verify(auth, message))
    for kind in (Prepare, Commit):
        late = signed_vote(signed, kind, digest_a, "replica3")
        env.charged = 0.0
        replica.receive(late)
        charged, env.charged = env.charged, 0.0
        assert verify(replica.auth, late)
        assert charged == env.charged > 0
    assert verified == []
    assert replica.log.existing_slot(1) is slot and slot == before
    assert replica.metrics.messages_rejected == rejected


# ------------------------------------------------------------- what a slot retains
def _retained(rounds: int):
    """Bytes ``repro/core`` and ``repro/crypto`` code still holds after an
    f = 10 group served 3 clients x ``rounds`` operations, and the number of
    (replica, slot) pairs alive.  A dataclass ``__init__`` runs in the file
    ``<string>``, so what a field's ``default_factory`` allocates (a slot's
    certificates) is traced there and counted too.  One untraced run first, as in
    ``test_checkpoint_incremental._traced_bytes``.  A full collection
    before tracing empties the interpreter's free lists (an object taken
    from one is never traced) and resets the collector's counts; one
    before the snapshot drops uncollected cycles.  Without them the figure
    moved by ±150 B per slot with what ran earlier in the process."""
    def scenario():
        cluster = BFTCluster.create(f=10, service_factory=NullService, seed=5)
        clients = [cluster.new_client() for _ in range(3)]
        for _ in range(rounds):
            for client in clients:
                client.invoke(b"op")
        return cluster

    scenario()
    gc.collect()
    tracemalloc.start()
    try:
        alive = scenario()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = snapshot.filter_traces([
        tracemalloc.Filter(True, "*/repro/core/*"),
        tracemalloc.Filter(True, "*/repro/crypto/*"),
        tracemalloc.Filter(True, "<string>"),
    ])
    slots = sum(len(r.log.slots) for r in alive.replicas.values())
    return sum(stat.size for stat in kept.statistics("filename")), slots


@functools.lru_cache(maxsize=None)
def _retained_per_slot() -> float:
    """Bytes one more committed batch leaves per (replica, slot) at n = 31."""
    base_bytes, base_slots = _retained(1)
    more_bytes, more_slots = _retained(3)
    assert more_slots - base_slots == 31 * 6
    return (more_bytes - base_bytes) / (more_slots - base_slots)


def test_a_committed_slot_retains_bytes_not_messages():
    """n = 31: what one more committed batch leaves behind at one replica.
    With every PREPARE / COMMIT stored whole and a dict of tag objects per
    authenticator this was 7 078 bytes per (replica, slot) (two ~2.4 KB
    authenticators, two ~0.8 KB vote dicts, 60 retained messages); with
    flat vectors and vote bitmasks it measured 1 889 — the replica's own
    PREPARE and COMMIT with their 240-byte vectors, the slot and its share
    of the pre-prepare.  The bound is 40 % of the old figure."""
    assert _retained_per_slot() <= 2400 <= 0.4 * 7078


def test_a_committed_slot_retains_no_vote_messages():
    """n = 31: a committed slot keeps no PREPARE or COMMIT, not even this
    replica's own (each carried a 240-byte vector), and no votes: its
    certificates go when it commits.  What one more committed batch leaves
    per (replica, slot) is the slot and its share of the pre-prepare and of
    the log's tables — about 250 bytes; the own votes made it 1 889, and
    two vote bitmasks kept for life 330."""
    assert _retained_per_slot() <= 400
