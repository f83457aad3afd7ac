"""Tests for protocol message encoding, digests and wire sizes."""

import pytest

from repro.core.messages import (
    Checkpoint,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    Reply,
    Request,
    StatusActive,
    ViewChange,
    ViewChangeAck,
    pack,
)
from repro.crypto.digests import DIGEST_SIZE, NULL_DIGEST


# --------------------------------------------------------------------- pack
def test_pack_is_deterministic():
    assert pack(1, "a", b"b", (2, 3)) == pack(1, "a", b"b", (2, 3))


def test_pack_distinguishes_types_and_order():
    assert pack(1, 2) != pack(2, 1)
    assert pack("12") != pack(12)
    assert pack(b"ab", b"c") != pack(b"a", b"bc")


def test_pack_handles_nested_and_none():
    encoded = pack(None, True, False, ("x", (1, b"y")))
    assert isinstance(encoded, bytes)
    assert encoded == pack(None, True, False, ("x", (1, b"y")))


def test_pack_rejects_unknown_types():
    with pytest.raises(TypeError):
        pack(object())


# ------------------------------------------------------------------ request
def test_request_digest_depends_on_client_timestamp_operation():
    r1 = Request(operation=b"op", timestamp=1, sender="c1")
    r2 = Request(operation=b"op", timestamp=2, sender="c1")
    r3 = Request(operation=b"op", timestamp=1, sender="c2")
    r4 = Request(operation=b"other", timestamp=1, sender="c1")
    digests = {r.request_digest() for r in (r1, r2, r3, r4)}
    assert len(digests) == 4
    assert all(len(d) == DIGEST_SIZE for d in digests)


def test_null_request_has_null_digest_and_no_effect_flag():
    null = Request.null_request()
    assert null.is_null
    assert null.request_digest() == NULL_DIGEST


def test_request_wire_size_includes_operation():
    small = Request(operation=b"x", timestamp=1, sender="c")
    large = Request(operation=b"x" * 4096, timestamp=1, sender="c")
    assert large.wire_size() - small.wire_size() == 4095


# -------------------------------------------------------------- pre-prepare
def test_batch_digest_covers_requests_and_nondet():
    r1 = Request(operation=b"a", timestamp=1, sender="c")
    r2 = Request(operation=b"b", timestamp=2, sender="c")
    pp1 = PrePrepare(view=0, seq=1, requests=(r1,), sender="replica0")
    pp2 = PrePrepare(view=0, seq=1, requests=(r2,), sender="replica0")
    pp3 = PrePrepare(view=0, seq=1, requests=(r1,), nondet=b"t", sender="replica0")
    assert pp1.batch_digest() != pp2.batch_digest()
    assert pp1.batch_digest() != pp3.batch_digest()


def test_batch_digest_independent_of_view_and_seq():
    """Re-proposing the same batch in a later view keeps its digest, which is
    what lets view changes re-propose prepared requests."""
    r = Request(operation=b"a", timestamp=1, sender="c")
    pp_v0 = PrePrepare(view=0, seq=5, requests=(r,), sender="replica0")
    pp_v3 = PrePrepare(view=3, seq=5, requests=(r,), sender="replica3")
    assert pp_v0.batch_digest() == pp_v3.batch_digest()


def test_pre_prepare_all_request_digests_includes_separate():
    r = Request(operation=b"a", timestamp=1, sender="c")
    other_digest = b"\x01" * DIGEST_SIZE
    pp = PrePrepare(
        view=0, seq=1, requests=(r,), separate_digests=(other_digest,), sender="p"
    )
    assert pp.all_request_digests() == (r.request_digest(), other_digest)


def test_payload_digest_changes_with_any_field():
    p1 = Prepare(view=0, seq=1, digest=b"d" * 16, sender="replica1")
    p2 = Prepare(view=0, seq=2, digest=b"d" * 16, sender="replica1")
    p3 = Prepare(view=1, seq=1, digest=b"d" * 16, sender="replica1")
    assert len({p.payload_digest() for p in (p1, p2, p3)}) == 3


def test_prepare_and_commit_fixed_body_size():
    prepare = Prepare(view=0, seq=1, digest=b"d" * 16, sender="r")
    commit = Commit(view=0, seq=1, digest=b"d" * 16, sender="r")
    assert prepare.body_size() == 48
    assert commit.body_size() == 48


# -------------------------------------------------------------------- reply
def test_reply_wire_size_reflects_digest_replies():
    full = Reply(result=b"x" * 4096, result_digest=b"d" * 16, sender="r")
    digest_only = Reply(result=None, result_digest=b"d" * 16, sender="r")
    assert full.wire_size() > digest_only.wire_size() + 4000


# -------------------------------------------------------------- view change
def test_view_change_lookup_helpers():
    from repro.core.messages import PSetEntry, QSetEntry

    vc = ViewChange(
        new_view=2,
        h=0,
        checkpoints=((0, b"c" * 16),),
        prepared=(PSetEntry(seq=3, digest=b"d" * 16, view=1),),
        pre_prepared=(QSetEntry(seq=3, digests=((b"d" * 16, 1),)),),
        sender="replica2",
    )
    assert vc.prepared_for(3).view == 1
    assert vc.prepared_for(4) is None
    assert vc.pre_prepared_for(3).as_dict() == {b"d" * 16: 1}
    assert vc.pre_prepared_for(9) is None


def test_view_change_size_grows_with_contents():
    from repro.core.messages import PSetEntry

    empty = ViewChange(new_view=1, sender="r")
    loaded = ViewChange(
        new_view=1,
        prepared=tuple(PSetEntry(seq=i, digest=b"d" * 16, view=0) for i in range(10)),
        sender="r",
    )
    assert loaded.wire_size() > empty.wire_size()


def test_new_view_selection_map():
    nv = NewView(
        new_view=1,
        selections=((1, b"a" * 16), (2, NULL_DIGEST)),
        sender="replica1",
    )
    assert nv.selection_map() == {1: b"a" * 16, 2: NULL_DIGEST}


def test_status_message_payloads_differ_by_progress():
    s1 = StatusActive(view=0, last_executed=5, sender="r")
    s2 = StatusActive(view=0, last_executed=6, sender="r")
    assert s1.payload_digest() != s2.payload_digest()


def test_view_change_ack_payload_fields():
    ack = ViewChangeAck(
        new_view=3, origin="replica1",
        view_change_digest=b"v" * 16, sender="replica2",
    )
    assert ack.payload_digest() == ViewChangeAck(
        new_view=3, origin="replica1",
        view_change_digest=b"v" * 16, sender="replica2",
    ).payload_digest()


def test_checkpoint_message_fields():
    cp = Checkpoint(seq=128, state_digest=b"s" * 16, sender="replica0")
    assert cp.body_size() == 40
    assert cp.payload_digest() != Checkpoint(
        seq=256, state_digest=b"s" * 16, sender="replica0"
    ).payload_digest()
