"""What a slot counts: certificates are of *matching* messages (Section 2.3.3).

``prepared`` needs a pre-prepare and 2f prepares from distinct backups for
*that* batch digest, ``committed-local`` 2f + 1 commits for it.  Votes for
another batch at the same (view, seq) — what the backups of an equivocating
primary honestly send — must never count towards this one.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import ReplicaSetConfig
from repro.core.messages import Commit, PrePrepare, Prepare, Request
from repro.crypto.signatures import SignatureRegistry
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
