"""What a slot counts: certificates are of *matching* messages (Section 2.3.3).

``prepared`` needs a pre-prepare and 2f prepares from distinct backups for
*that* batch digest, ``committed-local`` 2f + 1 commits for it.  Votes for
another batch at the same (view, seq) — what the backups of an equivocating
primary honestly send — must never count towards this one.
"""

from __future__ import annotations

import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.core.auth import MACAuth
from repro.core.config import ReplicaSetConfig
from repro.core.messages import Commit, PrePrepare, Prepare, Request, StatusActive
from repro.crypto.signatures import SignatureRegistry
from repro.library import BFTCluster
from repro.services.null_service import NullService
from tests.conftest import authed, make_replica


def batch(value: bytes, seq: int = 1) -> PrePrepare:
    request = authed(Request(operation=b"SET k " + value, timestamp=1,
                             client="client0", sender="client0"))
    return PrePrepare(view=0, seq=seq, requests=(request,), sender="replica0")


def vote(kind, digest: bytes, replica: str, seq: int = 1):
    return authed(kind(view=0, seq=seq, digest=digest, replica=replica, sender=replica))


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
    assert replica.service.execute(b"GET k", "client0", read_only=True).result == b""


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
    assert replica.service.execute(b"GET k", "client0", read_only=True).result == b"A"


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
    assert slot.early_prepares == {b"%016d" % 0: 1 << 3}
    assert slot.early_commits == {b"%016d" % 0: 1 << 3}
    batch_a = batch(b"A")
    replica.receive(vote(Prepare, batch_a.batch_digest(), "replica2"))
    replica.receive(vote(Prepare, b"y" * 16, "not-a-replica"))
    assert sorted(slot.early_prepares.values()) == [1 << 2, 1 << 3]
    assert slot.early_prepares_for(batch_a.batch_digest()) == 1
    assert slot.prepare_count() == slot.commit_count() == 0
    assert slot.own_prepare is None and slot.own_commit is None
    # The pre-prepare attaches: its batch's early votes count, the rest go,
    # and votes for anything else are refused from then on.
    replica.receive(authed(batch_a))
    assert slot.early_prepares is None and slot.early_commits is None
    assert slot.prepare_mask == 1 << 2 | 1 << 1 and slot.commit_mask == 1 << 1
    for n in range(1000):
        replica.receive(vote(Commit, b"%016d" % n, "replica0"))
    assert slot.commit_mask == 1 << 1 and slot.early_commits is None


def test_status_retransmission_resends_own_votes_as_resigned_copies(replica_and_env):
    """The slot keeps only this replica's own PREPARE / COMMIT; a peer whose
    status shows the batch missing gets each as a re-signed copy — the
    originals may still sit in an undelivered multicast."""
    replica, env = replica_and_env
    batch_a = batch(b"A")
    replica.receive(authed(batch_a))
    replica.receive(vote(Prepare, batch_a.batch_digest(), "replica2"))
    slot = replica.log.existing_slot(1)
    own_prepare, own_commit = slot.own_prepare, slot.own_commit
    assert own_prepare is env.messages_of_type(Prepare)[0]
    assert own_commit is env.messages_of_type(Commit)[0]
    multicast_auth = own_prepare.auth
    env.clear()
    replica.receive(authed(StatusActive(view=0, replica="replica3", sender="replica3")))
    resent = env.messages_to("replica3")
    assert [type(m) for m in resent] == [Prepare, Commit]
    for copy, original in zip(resent, (own_prepare, own_commit)):
        assert copy is not original and copy.payload_bytes() == original.payload_bytes()
        assert type(copy.auth) is MACAuth and copy.auth.receiver == "replica3"
    assert own_prepare.auth is multicast_auth
    # A peer that has the batch prepared and committed is sent nothing.
    env.clear()
    replica.receive(authed(StatusActive(view=0, replica="replica3", sender="replica3",
                                        prepared_seqs=(1,), committed_seqs=(1,))))
    assert env.messages_to("replica3") == []


def _retained(rounds: int):
    """Bytes ``repro/core`` and ``repro/crypto`` code still holds after an
    f = 10 group served 3 clients x ``rounds`` operations, and the number of
    (replica, slot) pairs alive.  One untraced run first, as in
    ``test_checkpoint_incremental._traced_bytes``."""
    def scenario():
        cluster = BFTCluster.create(f=10, service_factory=NullService, seed=5)
        clients = [cluster.new_client() for _ in range(3)]
        for _ in range(rounds):
            for client in clients:
                client.invoke(b"op")
        return cluster

    scenario()
    tracemalloc.start()
    try:
        alive = scenario()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = snapshot.filter_traces([
        tracemalloc.Filter(True, "*/repro/core/*"),
        tracemalloc.Filter(True, "*/repro/crypto/*"),
    ])
    slots = sum(len(r.log.slots) for r in alive.replicas.values())
    return sum(stat.size for stat in kept.statistics("filename")), slots


def test_a_committed_slot_retains_bytes_not_messages():
    """n = 31: what one more committed batch leaves behind at one replica.
    With every PREPARE / COMMIT stored whole and a dict of tag objects per
    authenticator this was 7 078 bytes per (replica, slot) (two ~2.4 KB
    authenticators, two ~0.8 KB vote dicts, 60 retained messages); with
    flat vectors and vote bitmasks it measures 1 887 — the replica's own
    PREPARE and COMMIT with their 240-byte vectors, the slot and its share
    of the pre-prepare.  The bound is 40 % of the old figure; asserted with
    a quarter of headroom over the new one."""
    base_bytes, base_slots = _retained(1)
    more_bytes, more_slots = _retained(3)
    assert more_slots - base_slots == 31 * 6
    per_slot = (more_bytes - base_bytes) / (more_slots - base_slots)
    assert per_slot <= 2400 <= 0.4 * 7078
