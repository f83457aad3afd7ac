"""Correctness of the memoized encodings and digests, and of authentication
over them.

The memos in :mod:`repro.core.messages` must be invisible: every memoized
value equals the one computed from its definition (``fresh_values`` below,
through the general encoder), ``dataclasses.replace``-derived messages
never inherit a stale memo, and authentication still rejects tampering.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.auth import Authentication, build_session_keys
from repro.core.config import AuthMode, ProtocolOptions, ReplicaSetConfig
from repro.core.messages import (
    Checkpoint,
    Commit,
    Data,
    Fetch,
    GENERIC_HEADER_SIZE,
    Message,
    MetaData,
    NewKey,
    NewView,
    PrePrepare,
    Prepare,
    QueryStable,
    Reply,
    ReplyStable,
    Request,
    StatusActive,
    StatusPending,
    ViewChange,
    ViewChangeAck,
    PSetEntry,
    QSetEntry,
    pack,
)
from repro.crypto.digests import DIGEST_SIZE, NULL_DIGEST, digest
from repro.crypto.mac import MACKey, compute_mac, verify_mac
from repro.crypto.signatures import SignatureRegistry

from tests.conftest import general_encoding

# --------------------------------------------------------------- strategies
names = st.sampled_from(["replica0", "replica1", "replica2", "client0", "client1"])
small_bytes = st.binary(max_size=48)
digests16 = st.binary(min_size=DIGEST_SIZE, max_size=DIGEST_SIZE)
seqs = st.integers(min_value=0, max_value=10_000)
views = st.integers(min_value=0, max_value=64)


requests = st.builds(
    Request,
    operation=small_bytes,
    timestamp=st.integers(min_value=0, max_value=1_000),
    client=names,
    read_only=st.booleans(),
    is_null=st.booleans(),
    sender=names,
)

pre_prepares = st.builds(
    PrePrepare,
    view=views,
    seq=seqs,
    requests=st.tuples() | st.tuples(requests) | st.tuples(requests, requests),
    separate_digests=st.lists(digests16, max_size=3).map(tuple),
    nondet=small_bytes,
    sender=names,
)

replies = st.builds(
    Reply,
    view=views,
    timestamp=st.integers(min_value=0, max_value=1_000),
    client=names,
    replica=names,
    result=st.none() | small_bytes,
    result_digest=digests16,
    tentative=st.booleans(),
    sender=names,
)

view_changes = st.builds(
    ViewChange,
    new_view=views,
    h=seqs,
    checkpoints=st.lists(st.tuples(seqs, digests16), max_size=3).map(tuple),
    prepared=st.lists(
        st.builds(PSetEntry, seq=seqs, digest=digests16, view=views), max_size=3
    ).map(tuple),
    pre_prepared=st.lists(
        st.builds(
            QSetEntry,
            seq=seqs,
            digests=st.lists(st.tuples(digests16, views), max_size=2).map(tuple),
        ),
        max_size=3,
    ).map(tuple),
    replica=names,
    sender=names,
)

simple_messages = st.one_of(
    st.builds(Prepare, view=views, seq=seqs, digest=digests16, replica=names,
              sender=names),
    st.builds(Commit, view=views, seq=seqs, digest=digests16, replica=names,
              sender=names),
    st.builds(Checkpoint, seq=seqs, state_digest=digests16, replica=names,
              sender=names),
    st.builds(ViewChangeAck, new_view=views, replica=names, origin=names,
              view_change_digest=digests16, sender=names),
    st.builds(StatusActive, view=views, last_stable=seqs, last_executed=seqs,
              replica=names, prepared_seqs=st.lists(seqs, max_size=4).map(tuple),
              committed_seqs=st.lists(seqs, max_size=4).map(tuple), sender=names),
    st.builds(StatusPending, view=views, last_stable=seqs, last_executed=seqs,
              replica=names, has_new_view=st.booleans(),
              view_changes_from=st.lists(names, max_size=3).map(tuple),
              sender=names),
    st.builds(NewKey, replica=names,
              keys=st.lists(st.tuples(names, small_bytes), max_size=3).map(tuple),
              counter=seqs, sender=names),
    st.builds(QueryStable, replica=names, nonce=seqs, sender=names),
    st.builds(ReplyStable, last_checkpoint=seqs, last_prepared=seqs,
              replica=names, nonce=seqs, sender=names),
    st.builds(Fetch, level=st.integers(0, 3), index=seqs, last_checkpoint=seqs,
              target_seq=seqs, designated_replier=st.none() | names,
              replica=names, sender=names),
    st.builds(MetaData, seq=seqs, level=st.integers(0, 3), index=seqs,
              entries=st.lists(st.tuples(seqs, seqs, digests16),
                               max_size=3).map(tuple),
              replica=names, sender=names),
    st.builds(Data, index=seqs, last_modified=seqs, page=small_bytes,
              sender=names),
)

all_messages = st.one_of(requests, pre_prepares, replies, view_changes,
                         simple_messages)


def _fresh_request_digest(request: Request) -> bytes:
    if request.is_null:
        return NULL_DIGEST
    return digest(general_encoding(request.client, request.timestamp, request.operation))


def fresh_values(message: Message) -> dict:
    """Every derived value from its definition, reading no memo."""
    payload = general_encoding(
        type(message).__name__, message.sender, *message.payload_fields()
    )
    values = {
        "payload_bytes": payload,
        "payload_digest": digest(payload),
        "wire_size": GENERIC_HEADER_SIZE + message.body_size() + message.auth_size(),
    }
    if isinstance(message, Request):
        values["request_digest"] = _fresh_request_digest(message)
    if isinstance(message, PrePrepare):
        inline = tuple(_fresh_request_digest(r) for r in message.requests)
        separate = tuple(message.separate_digests)
        values["batch_digest"] = digest(general_encoding(inline, separate, message.nondet))
        values["all_request_digests"] = inline + separate
    return values


# --------------------------------------------------------------- properties
@settings(max_examples=200, deadline=None)
@given(message=all_messages)
def test_cached_values_equal_fresh_recomputation(message: Message):
    fresh = fresh_values(message)
    # First call populates the memo, second serves it; both must agree
    # with the definition.
    for _ in range(2):
        assert message.payload_bytes() == fresh["payload_bytes"]
        assert message.payload_digest() == fresh["payload_digest"]
        assert message.wire_size() == fresh["wire_size"]
        if isinstance(message, Request):
            assert message.request_digest() == fresh["request_digest"]
        if isinstance(message, PrePrepare):
            assert message.batch_digest() == fresh["batch_digest"]
            assert message.all_request_digests() == fresh["all_request_digests"]
    assert message.payload_digest() == digest(message.payload_bytes())


@settings(max_examples=100, deadline=None)
@given(request=requests, new_operation=small_bytes, new_timestamp=seqs)
def test_replace_never_inherits_stale_request_cache(request, new_operation,
                                                    new_timestamp):
    # Warm every cache first.
    request.payload_digest()
    request.request_digest()
    derived = dataclasses.replace(
        request, operation=new_operation, timestamp=new_timestamp
    )
    twin = Request(
        operation=new_operation,
        timestamp=new_timestamp,
        client=request.client,
        read_only=request.read_only,
        is_null=request.is_null,
        sender=request.sender,
    )
    assert derived.payload_bytes() == fresh_values(twin)["payload_bytes"]
    assert derived.payload_digest() == twin.payload_digest()
    assert derived.request_digest() == twin.request_digest()


@settings(max_examples=100, deadline=None)
@given(pre_prepare=pre_prepares, new_nondet=small_bytes)
def test_replace_never_inherits_stale_batch_cache(pre_prepare, new_nondet):
    old_digest = pre_prepare.batch_digest()
    pre_prepare.payload_digest()
    derived = dataclasses.replace(pre_prepare, nondet=new_nondet)
    assert derived.batch_digest() == fresh_values(derived)["batch_digest"]
    if new_nondet != pre_prepare.nondet:
        assert derived.batch_digest() != old_digest
        assert derived.payload_digest() != pre_prepare.payload_digest()


# ------------------------------------------------------------------ digests
def test_digest_accepts_bytes_like_without_copy():
    data = b"the quick brown fox"
    assert digest(data) == hashlib.sha256(data).digest()[:DIGEST_SIZE]
    assert digest(bytearray(data)) == digest(data)
    assert digest(memoryview(data)) == digest(data)
    with pytest.raises(TypeError):
        digest("not bytes")


def test_mac_accepts_memoryview_and_matches_modes():
    key = MACKey(key_id=1, material=b"k" * 32)
    data = b"payload bytes"
    tag = compute_mac(key, data)
    assert compute_mac(key, memoryview(data)) == tag
    assert compute_mac(key, bytearray(data)) == tag
    assert verify_mac(key, memoryview(data), tag)
    assert not verify_mac(key, b"other", tag)


# ----------------------------------------------------------- authentication
def make_auth(owner: str, real_crypto: bool = True) -> Authentication:
    config = ReplicaSetConfig(n=4)
    peers = config.replica_ids + ("client0",)
    return Authentication(
        owner=owner,
        mode=AuthMode.MAC,
        keys=build_session_keys(owner, peers),
        registry=SignatureRegistry(),
        real_crypto=real_crypto,
    )


def test_multicast_tags_survive_caching_and_detect_tampering():
    sender = make_auth("replica0")
    receiver = make_auth("replica1")
    message = Prepare(view=0, seq=3, digest=b"d" * 16, replica="replica0",
                      sender="replica0")
    sender.sign_multicast(message, ("replica1", "replica2", "replica3"))

    # Verification succeeds repeatedly (each call recomputes the tag).
    assert receiver.verify(message)
    assert receiver.verify(message)

    # Each tag is the MAC, under that receiver's session key, of the digest
    # of the canonical payload (Section 3.2.1).
    signed = fresh_values(message)["payload_digest"]
    peers = ("replica1", "replica2", "replica3")
    assert message.auth.vector == b"".join(
        compute_mac(sender.keys.outbound[peer], signed) for peer in peers
    )
    for peer in peers:
        assert message.auth.entry(peer) == compute_mac(sender.keys.outbound[peer], signed)
    assert message.auth.entry("replica0") is None and message.auth.entry("client0") is None
    assert message.auth.size_bytes() == 8 * len(peers) == len(message.auth.vector)
    # The position table is the sender's, shared by every multicast to that set.
    again = sender.sign_multicast(
        Commit(view=0, seq=3, digest=b"d" * 16, replica="replica0", sender="replica0"),
        peers,
    )
    assert again.auth.positions is message.auth.positions

    # Tampering with the payload invalidates the verification.
    forged = dataclasses.replace(message, seq=4)
    forged.auth = message.auth
    assert not receiver.verify(forged)

    # Corrupted authenticator entries fail for the targeted receiver only.
    message.auth = dataclasses.replace(message.auth,
                                       corrupt_for=frozenset({"replica1"}))
    assert not receiver.verify(message)
    assert make_auth("replica2").verify(message)


def test_multicast_after_new_key_verifies_under_the_new_key_only():
    sender, receiver = make_auth("replica0"), make_auth("replica1")
    peers = ("replica1", "replica2", "replica3")
    before = sender.sign_multicast(
        Prepare(view=0, seq=1, digest=b"d" * 16, replica="replica0", sender="replica0"),
        peers,
    )
    assert receiver.verify(before)
    fresh = receiver.keys.refresh_inbound(("replica0",))["replica0"]
    sender.keys.accept_new_key("replica1", fresh)
    after = sender.sign_multicast(
        Prepare(view=0, seq=2, digest=b"d" * 16, replica="replica0", sender="replica0"),
        peers,
    )
    assert after.auth.entry("replica1") == compute_mac(fresh, after.payload_digest())
    assert receiver.verify(after) and not receiver.verify(before)
    assert not make_auth("replica1").verify(after)  # still holds the old key
    assert make_auth("replica2").verify(after)


def test_receiver_without_outbound_key_gets_no_entry_but_is_charged():
    from repro.core.env import RecordingEnv

    def charged_for(drop):
        sender = make_auth("replica0")
        sender.bind_env(RecordingEnv())
        if drop:
            del sender.keys.outbound["replica2"]
        message = sender.sign_multicast(
            Prepare(view=0, seq=1, digest=b"d" * 16, replica="replica0",
                    sender="replica0"),
            ("replica1", "replica2", "replica3"),
        )
        return message, sender.env.charged

    full, full_charge = charged_for(drop=False)
    message, charge = charged_for(drop=True)
    assert charge == full_charge
    assert list(message.auth.positions) == ["replica1", "replica3"]
    assert message.auth.size_bytes() == 16 == len(message.auth.vector)
    assert message.auth.entry("replica2") is None
    for peer in ("replica1", "replica3"):
        assert message.auth.entry(peer) == full.auth.entry(peer)
        assert make_auth(peer).verify(message)
    assert not make_auth("replica2").verify(message)


def test_without_real_crypto_the_vector_is_empty_and_the_size_is_not():
    sender = make_auth("replica0", real_crypto=False)
    message = sender.sign_multicast(
        Prepare(view=0, seq=1, digest=b"d" * 16, replica="replica0", sender="replica0"),
        ("replica0", "replica1", "replica2", "replica3"),
    )
    assert message.auth.vector == b"" and message.auth.size_bytes() == 24
    assert make_auth("replica1", real_crypto=False).verify(message)
    message.auth = dataclasses.replace(message.auth, corrupt_for=frozenset({"replica1"}))
    assert not make_auth("replica1", real_crypto=False).verify(message)
    assert make_auth("replica2", real_crypto=False).verify(message)


def test_signature_mode_multicast_carries_one_signature():
    registry = SignatureRegistry()
    peers = ReplicaSetConfig(n=4).replica_ids

    def pk_auth(owner):
        return Authentication(owner, AuthMode.SIGNATURE,
                              build_session_keys(owner, peers), registry)

    sender, receiver = pk_auth("replica0"), pk_auth("replica1")
    message = sender.sign_multicast(
        Prepare(view=0, seq=1, digest=b"d" * 16, replica="replica0", sender="replica0"),
        peers,
    )
    assert type(message.auth).__name__ == "Signature"
    assert receiver.verify(message)
    forged = dataclasses.replace(message, seq=2)
    forged.auth = message.auth
    assert not receiver.verify(forged)


def test_point_to_point_mac_rejects_wrong_receiver_key():
    sender = make_auth("replica0")
    message = Reply(view=0, timestamp=1, client="client0", replica="replica0",
                    result=b"r", result_digest=digest(b"r"), sender="replica0")
    sender.sign_point_to_point(message, "client0")
    client = Authentication(
        owner="client0",
        mode=AuthMode.MAC,
        keys=build_session_keys("client0", ("replica0", "replica1")),
        registry=SignatureRegistry(),
        real_crypto=True,
    )
    assert client.verify(message)
    # A different principal cannot verify a MAC addressed to client0.
    assert not make_auth("replica2").verify(message)


def test_resigning_for_retransmission_gives_the_same_tag():
    sender = make_auth("replica0")
    message = Checkpoint(seq=8, state_digest=b"s" * 16, replica="replica0",
                         sender="replica0")
    sender.sign_point_to_point(message, "replica1")
    first_tag = message.auth.tag
    resigned = sender.sign_point_to_point(message, "replica1")
    assert resigned is not message  # the first copy may still be in flight
    assert resigned.auth.tag == first_tag
    assert make_auth("replica1").verify(resigned)


def test_wire_size_tracks_auth_reassignment():
    sender = make_auth("replica0")
    message = Checkpoint(seq=8, state_digest=b"s" * 16, replica="replica0",
                         sender="replica0")
    sender.sign_multicast(message, ("replica1", "replica2", "replica3"))
    multicast_size = message.wire_size()
    # Re-signing an already-authenticated message returns a copy (the
    # original may still sit in an undelivered envelope); the copy's
    # cached wire size must track its new, smaller authenticator while
    # the original keeps both its auth and its size.
    resigned = sender.sign_point_to_point(message, "replica1")
    assert resigned is not message
    p2p_size = resigned.wire_size()
    assert multicast_size != p2p_size
    assert message.wire_size() == multicast_size
    assert p2p_size == fresh_values(resigned)["wire_size"]
    assert multicast_size == fresh_values(message)["wire_size"]


# ------------------------------------------------------------------ encoder
def test_pack_matches_baseline_encoder():
    values = ("PrePrepare", "replica0", 7, True, None, (b"\x01" * 16, 3),
              b"bytes", ("nested", (1, 2)))
    fast = pack(*values)
    assert fast == general_encoding(*values)
    assert fast == (
        b"S\x00\x00\x00\x0aPrePrepare" b"S\x00\x00\x00\x08replica0"
        b"I\x00\x00\x00\x017" b"B1" b"N"
        b"T\x00\x00\x00\x02" b"Y\x00\x00\x00\x10" + b"\x01" * 16 + b"I\x00\x00\x00\x013"
        + b"Y\x00\x00\x00\x05bytes"
        b"T\x00\x00\x00\x02" b"S\x00\x00\x00\x06nested"
        b"T\x00\x00\x00\x02" b"I\x00\x00\x00\x011" b"I\x00\x00\x00\x012"
    )


# -------------------------------------------------------------- end state
def test_hotpath_toggle_reads_only_go_down():
    """The count reached zero: no module selects between two code paths
    (ROADMAP, "Retire the legacy twins").  ``repro.hotpath`` is gone, no
    module under ``src/repro`` defines a module-level ``*_ENABLED`` name or
    a ``*_disabled`` context manager, and a retired switch stays retired,
    down to its name."""
    with pytest.raises(ImportError):
        importlib.import_module("repro." + "hotpath")
    retired = ("BATCH_" + "EXECUTION", "_parse" + "_cache", "_PARSE" + "_CACHE",
               "cache" + "_key", "caches" + "_disabled", "page_transfer" + "_disabled",
               "CACHES" + "_ENABLED", "PAGE_TRANSFER" + "_ENABLED")
    root = pathlib.Path(__file__).parent.parent
    for directory in ("src", "tests", "benchmarks", "examples"):
        for path in (root / directory).rglob("*.py"):
            text = path.read_text()
            assert not [name for name in retired if name in text], path
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        switches = re.findall(
            r"^(\w+_ENABLED\b|def \w+_disabled\b)", path.read_text(), re.MULTILINE
        )
        assert not switches, (path, switches)
