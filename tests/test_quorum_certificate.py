"""``Certificate``: votes from distinct principals, complete at a size
(Section 2.3.1), checked for the group sizes the repo runs."""

from __future__ import annotations

import gc
import random

import pytest

from repro.core.log import Slot
from repro.core.messages import Checkpoint, PrePrepare, Prepare, Request
from repro.core.quorum import Certificate, max_faulty, quorum_size, weak_size
from tests.conftest import authed

SIZES = (4, 7, 10, 31)


def certificate(voters, value=b"v"):
    votes = Certificate()
    for voter in voters:
        votes.add(voter, value)
    return votes


def voter_sets(n, size, rng, samples=50):
    """The two extreme sets (lowest and highest indexes) and random ones."""
    yield range(size)
    yield range(n - size, n)
    for _ in range(samples):
        yield rng.sample(range(n), size)


@pytest.mark.parametrize("n", SIZES)
def test_any_two_quorums_share_f_plus_one_principals(n):
    f, q = max_faulty(n), quorum_size(n)
    rng = random.Random(n)
    quorums = [certificate(voters) for voters in voter_sets(n, q, rng)]
    for a in quorums:
        assert a.winner(q) == b"v"
        for b in quorums[:10]:
            assert (a.voters(b"v") & b.voters(b"v")).bit_count() >= f + 1


@pytest.mark.parametrize("n", SIZES)
def test_the_correct_replicas_alone_form_a_quorum(n):
    f, q = max_faulty(n), quorum_size(n)
    rng = random.Random(n)
    for faulty in map(set, voter_sets(n, f, rng)):
        correct = [voter for voter in range(n) if voter not in faulty]
        votes = certificate(correct, b"good")
        for voter in faulty:
            votes.add(voter, b"bad")
        assert votes.winner(q) == b"good"
        assert votes.count(b"bad") < weak_size(n)


@pytest.mark.parametrize("n", SIZES)
def test_a_weak_certificate_holds_a_correct_principal(n):
    f, w = max_faulty(n), weak_size(n)
    rng = random.Random(n)
    for faulty in voter_sets(n, f, rng):
        faulty_mask = sum(1 << voter for voter in faulty)
        for voters in voter_sets(n, w, rng, samples=10):
            votes = certificate(voters)
            assert votes.winner(w) == b"v"
            assert votes.voters(b"v") & ~faulty_mask


@pytest.mark.parametrize("n", SIZES)
def test_winner_completes_at_exactly_need_and_is_deterministic(n):
    f, q, w = max_faulty(n), quorum_size(n), weak_size(n)
    for need in (w, q):
        votes = Certificate()
        for voter in range(n):
            votes.add(voter, b"good")
            assert votes.winner(need) == (b"good" if voter + 1 >= need else None)
    # f faulty principals vote first for another value, or last: the same
    # value completes, at the same vote.
    correct, faulty = range(f, n), range(f)
    for order in ([*faulty, *correct], [*correct, *faulty]):
        votes = Certificate()
        for position, voter in enumerate(order):
            votes.add(voter, b"bad" if voter in faulty else b"good")
            good = votes.count(b"good")
            assert votes.winner(q) == (b"good" if good >= q else None), position
        assert votes.winner(w) == b"good"


def test_the_collecting_site_decides_what_a_second_vote_means():
    votes = Certificate()
    assert votes.add(0, b"a") and not votes.add(0, b"a")
    assert votes.add(0, b"b"), "add records a second value; refusing it is the caller's rule"
    assert list(votes) == [b"a", b"b"] and votes.holds(0) and not votes.holds(1)
    votes.add(1, b"b")
    votes.discard(0)
    assert list(votes) == [b"b"] and votes.voters(b"b") == 1 << 1
    votes.add(2, b"c")
    votes.keep_only(b"c")
    assert list(votes) == [b"c"] and votes.count(b"b") == 0 and not votes.holds(1)


def test_an_attached_slot_holds_no_dict_for_either_phase():
    request = Request(operation=b"op", timestamp=1, sender="c")
    pre_prepare = PrePrepare(view=0, seq=1, requests=(request,), sender="replica0")
    digest = pre_prepare.batch_digest()
    slot = Slot(seq=1)
    for voter, named in enumerate((b"x" * 16, digest, b"y" * 16)):
        slot.add_prepare(Prepare(view=0, seq=1, digest=named, sender="r"),
                         voter + 1)
    assert any(isinstance(ref, dict) for ref in gc.get_referents(slot.prepares))
    slot.attach(pre_prepare, digest)
    for votes in (slot.prepares, slot.commits):
        assert not any(isinstance(ref, dict) for ref in gc.get_referents(votes))
    assert list(slot.prepares) == [digest] and slot.prepares.voters(digest) == 1 << 2


def test_a_checkpoint_with_a_new_digest_replaces_the_replicas_earlier_one(replica_and_env):
    replica, _ = replica_and_env
    for digest in (b"a" * 16, b"b" * 16, b"b" * 16):
        replica.receive(authed(Checkpoint(seq=4, state_digest=digest, sender="replica2")))
    votes = replica.log.checkpoints[4]
    assert list(votes) == [b"b" * 16] and votes.voters(b"b" * 16) == 1 << 2
