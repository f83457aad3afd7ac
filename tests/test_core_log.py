"""Tests for the message log, slots, certificates and water marks."""

from repro.core.log import MessageLog, Slot
from repro.core.messages import Commit, PrePrepare, Prepare, Request
from repro.crypto.digests import NULL_DIGEST


def make_pre_prepare(seq=1, view=0, op=b"op"):
    request = Request(operation=op, timestamp=1, sender="c")
    return PrePrepare(view=view, seq=seq, requests=(request,), sender="replica0")


def test_water_marks_follow_stable_checkpoint():
    log = MessageLog(log_size=8)
    assert log.low_water_mark == 0
    assert log.high_water_mark == 8
    assert log.in_window(1)
    assert log.in_window(8)
    assert not log.in_window(0)
    assert not log.in_window(9)
    log.collect_garbage(8)
    assert log.low_water_mark == 8
    assert log.in_window(9)
    assert not log.in_window(8)


def test_slot_prepare_requires_matching_digest():
    log = MessageLog(log_size=8)
    pp = make_pre_prepare(seq=1)
    slot = log.slot(1, 0)
    slot.pre_prepare = pp
    good = Prepare(view=0, seq=1, digest=pp.batch_digest(), sender="replica1")
    bad = Prepare(view=0, seq=1, digest=b"x" * 16, sender="replica2")
    assert slot.add_prepare(good, 1)
    assert not slot.add_prepare(bad, 2)
    assert slot.prepares.count(pp.batch_digest()) == 1
    assert list(slot.prepares) == [pp.batch_digest()]
    assert slot.prepares.voters(pp.batch_digest()) == 0b10


def test_slot_rejects_duplicate_prepare_from_same_replica():
    slot = Slot(seq=1, view=0)
    slot.pre_prepare = make_pre_prepare()
    prepare = Prepare(view=0, seq=1, digest=slot.digest(), sender="replica1")
    assert slot.add_prepare(prepare, 1)
    assert not slot.add_prepare(prepare, 1)
    assert slot.prepares.count(slot.digest()) == 1


def test_slot_rejects_wrong_view_or_seq():
    slot = Slot(seq=5, view=2)
    slot.pre_prepare = make_pre_prepare(seq=5, view=2)
    assert not slot.add_prepare(
        Prepare(view=1, seq=5, digest=slot.digest(), sender="r1"), 1
    )
    assert not slot.add_prepare(
        Prepare(view=2, seq=6, digest=slot.digest(), sender="r1"), 1
    )
    assert list(slot.prepares) == []


def test_slot_commit_counting():
    slot = Slot(seq=1, view=0)
    slot.pre_prepare = make_pre_prepare()
    for i in range(3):
        commit = Commit(view=0, seq=1, digest=slot.digest(), sender=f"replica{i}")
        assert slot.add_commit(commit, i)
    assert slot.commits.count(slot.digest()) == 3
    assert list(slot.commits) == [slot.digest()]
    assert slot.commits.voters(slot.digest()) == 0b111


def test_higher_view_resets_slot_but_keeps_execution_flags():
    log = MessageLog(log_size=8)
    slot = log.slot(1, 0)
    slot.pre_prepare = make_pre_prepare(seq=1, view=0)
    slot.prepared = True
    slot.executed = True
    renewed = log.slot(1, 2)
    assert renewed.view == 2
    assert renewed.pre_prepare is None
    assert not renewed.prepared
    assert renewed.executed


def test_collect_garbage_discards_old_slots_and_checkpoints():
    log = MessageLog(log_size=8)
    for seq in range(1, 7):
        log.slot(seq, 0)
    log.checkpoint_votes(0)
    log.checkpoint_votes(4)
    log.collect_garbage(4)
    assert sorted(log.slots) == [5, 6]
    assert sorted(log.checkpoints) == [4]


def test_collect_garbage_discards_old_batches_and_their_requests():
    log = MessageLog(log_size=8)
    batches = {seq: make_pre_prepare(seq=seq, op=b"op%d" % seq) for seq in (3, 4, 5)}
    for batch in batches.values():
        log.remember_batch(batch)
        log.remember_request(batch.requests[0])
    # A retransmission the primary ordered twice: carried below and above.
    shared = batches[3].requests[0]
    again = PrePrepare(view=0, seq=6, requests=(shared,), nondet=b"n", sender="replica0")
    log.remember_batch(again)
    unbatched = Request(operation=b"queued", timestamp=9, sender="c")
    log.remember_request(unbatched)

    log.collect_garbage(4)

    assert set(log.batches) == {batches[5].batch_digest(), again.batch_digest()}
    assert set(log.requests) == {
        shared.request_digest(),
        batches[5].requests[0].request_digest(),
        unbatched.request_digest(),
    }


def test_request_and_batch_lookup():
    log = MessageLog(log_size=8)
    request = Request(operation=b"op", timestamp=3, sender="c")
    log.remember_request(request)
    assert log.request_by_digest(request.request_digest()) is request
    assert log.request_by_digest(NULL_DIGEST).is_null
    assert log.request_by_digest(b"?" * 16) is None

    pp = make_pre_prepare(seq=2)
    log.remember_batch(pp)
    assert log.batch_by_digest(pp.batch_digest()) is pp
    assert log.has_batch(pp.batch_digest())
    assert log.has_batch(NULL_DIGEST)
    assert not log.has_batch(b"?" * 16)


def test_prepared_and_committed_summaries():
    log = MessageLog(log_size=8)
    slot1 = log.slot(1, 0)
    slot1.prepared = True
    slot2 = log.slot(2, 0)
    slot2.prepared = True
    slot2.committed = True
    assert log.prepared_seqs() == (1, 2)
    assert log.committed_seqs() == (2,)


def test_checkpoint_record_stability_threshold():
    log = MessageLog(log_size=8)
    votes = log.checkpoint_votes(4)
    for i in range(3):
        votes.add(i, b"good" * 4)
    votes.add(3, b"evil" * 4)
    assert votes.count(b"good" * 4) == 3
    assert votes.winner(3) == b"good" * 4
    assert votes.winner(4) is None


def test_checkpoint_record_ignores_wrong_seq():
    log = MessageLog(log_size=8)
    log.checkpoint_votes(8).add(0, b"d" * 16)
    assert not log.checkpoint_votes(4).holds(0)
