"""Tests for the cryptography substrate."""

import pytest

from repro.crypto.authenticator import make_authenticator, positions_of
from repro.crypto.digests import DIGEST_SIZE, NULL_DIGEST, combine_digests, digest
from repro.crypto.keys import SessionKeyTable
from repro.crypto.mac import MACKey, compute_mac, verify_mac
from repro.crypto.signatures import SignatureRegistry


# ---------------------------------------------------------------- digests
def test_digest_is_deterministic_and_fixed_size():
    assert digest(b"hello") == digest(b"hello")
    assert len(digest(b"hello")) == DIGEST_SIZE


def test_digest_differs_for_different_inputs():
    assert digest(b"a") != digest(b"b")


def test_digest_rejects_non_bytes():
    with pytest.raises(TypeError):
        digest("not bytes")  # type: ignore[arg-type]


def test_null_digest_shape():
    assert len(NULL_DIGEST) == DIGEST_SIZE
    assert set(NULL_DIGEST) == {0}


def test_combine_digests_order_sensitive():
    a, b = digest(b"a"), digest(b"b")
    assert combine_digests([a, b]) != combine_digests([b, a])


# ------------------------------------------------------------------- MACs
def test_mac_roundtrip():
    key = MACKey(key_id=1, material=b"secret-material")
    tag = compute_mac(key, b"message")
    assert verify_mac(key, b"message", tag)
    assert not verify_mac(key, b"other message", tag)


def test_mac_differs_per_key():
    key1 = MACKey(key_id=1, material=b"k1")
    key2 = MACKey(key_id=2, material=b"k2")
    assert compute_mac(key1, b"m") != compute_mac(key2, b"m")


def test_mac_is_eight_bytes_for_any_byte_like_and_any_key_length():
    data = b"sixteen byte dig"
    for material in (b"k", b"k" * 32, b"k" * 64, b"k" * 65, b"k" * 1000):
        key = MACKey(key_id=1, material=material)
        tag = compute_mac(key, data)
        assert len(tag) == 8
        assert compute_mac(key, bytearray(data)) == tag
        assert compute_mac(key, memoryview(data)) == tag
        assert verify_mac(key, data, tag)
    # Keys past the primitive's 64-byte limit are hashed down, not truncated.
    assert compute_mac(MACKey(1, b"k" * 65), data) != compute_mac(MACKey(1, b"k" * 64), data)
    assert compute_mac(MACKey(1, b"k" * 65), data) != compute_mac(MACKey(1, b"k" * 66), data)


def _flip(data: bytes, bit: int) -> bytes:
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def test_mac_rejects_a_flipped_bit_in_payload_tag_or_key():
    material, data = b"m" * 32, b"payload digest.."
    key = MACKey(key_id=1, material=material)
    tag = compute_mac(key, data)
    for bit in range(0, len(data) * 8, 7):
        assert not verify_mac(key, _flip(data, bit), tag)
    for bit in range(len(tag) * 8):
        assert not verify_mac(key, data, _flip(tag, bit))
    for bit in range(0, len(material) * 8, 5):
        assert not verify_mac(MACKey(1, _flip(material, bit)), data, tag)
    assert not verify_mac(key, data, tag[:-1])


def test_mac_key_requires_material():
    with pytest.raises(ValueError):
        MACKey(key_id=1, material=b"")


# ---------------------------------------------------------- authenticators
def test_authenticator_entries_verify_per_receiver():
    keys = {
        "replica0": MACKey(1, b"c->r0"),
        "replica1": MACKey(1, b"c->r1"),
    }
    auth = make_authenticator("client0", keys, b"payload")
    assert auth.verify_entry("replica0", keys["replica0"], b"payload")
    assert not auth.verify_entry("replica0", keys["replica1"], b"payload")
    assert not auth.verify_entry("replica0", keys["replica0"], b"tampered")
    assert not auth.verify_entry("replica9", keys["replica0"], b"payload")
    # One flat vector of 8-byte entries, laid out in the table's order.
    assert auth.vector == b"".join(compute_mac(keys[r], b"payload") for r in keys)
    assert dict(auth.positions) == {"replica0": 0, "replica1": 1}
    assert auth.entry("replica1") == compute_mac(keys["replica1"], b"payload")
    assert auth.entry("replica9") is None


def test_authenticator_size_grows_with_replicas():
    keys4 = {f"r{i}": MACKey(1, b"k%d" % i) for i in range(4)}
    keys7 = {f"r{i}": MACKey(1, b"k%d" % i) for i in range(7)}
    small = make_authenticator("c", keys4, b"m")
    large = make_authenticator("c", keys7, b"m")
    assert (small.size_bytes(), large.size_bytes()) == (32, 56)
    assert (len(small.vector), len(large.vector)) == (32, 56)


def test_authenticator_corrupted_entries_fail():
    keys = {"replica0": MACKey(1, b"key")}
    keys["replica1"] = MACKey(1, b"other")
    auth = make_authenticator("c", keys, b"m", corrupt_for=["replica0"])
    assert not auth.verify_entry("replica0", keys["replica0"], b"m")
    assert auth.verify_entry("replica1", keys["replica1"], b"m")


def test_authenticator_restriction_slices_and_never_recomputes():
    keys = {f"r{i}": MACKey(1, b"k%d" % i) for i in range(5)}
    auth = make_authenticator("c", keys, b"m", corrupt_for=["r3"])
    part = auth.restricted_to(positions_of(["r3", "r1"]))
    assert part.vector == auth.entry("r3") + auth.entry("r1")
    assert part.size_bytes() == 16 and part.sender == "c"
    assert part.verify_entry("r1", keys["r1"], b"m")
    assert not part.verify_entry("r3", keys["r3"], b"m")  # still marked corrupt
    assert part.entry("r0") is None


# -------------------------------------------------------------- signatures
def test_signature_roundtrip():
    registry = SignatureRegistry()
    keypair = registry.generate("replica0")
    signature = keypair.sign(b"payload")
    assert registry.verify(b"payload", signature)
    assert not registry.verify(b"other", signature)


def test_unknown_public_key_fails_verification():
    registry_a = SignatureRegistry()
    registry_b = SignatureRegistry()
    keypair = registry_a.generate("replica0")
    signature = keypair.sign(b"payload")
    assert not registry_b.verify(b"payload", signature)


def test_registry_tracks_owner():
    registry = SignatureRegistry()
    keypair = registry.generate("client3")
    assert registry.owner_of(keypair.public_key) == "client3"
    assert registry.owner_of("pk:bogus:0") is None


# ----------------------------------------------------------------- keys
def test_session_key_table_pairs_match_between_nodes():
    alice = SessionKeyTable(owner="alice")
    bob = SessionKeyTable(owner="bob")
    alice.install_pair("bob")
    bob.install_pair("alice")
    # The key alice uses to send to bob equals the key bob expects from alice.
    assert alice.key_for_sending_to("bob") == bob.key_for_receiving_from("alice")
    assert bob.key_for_sending_to("alice") == alice.key_for_receiving_from("bob")


def test_refresh_inbound_changes_keys_and_epoch():
    table = SessionKeyTable(owner="replica0")
    table.install_pair("replica1")
    before = table.key_for_receiving_from("replica1")
    fresh = table.refresh_inbound()
    after = table.key_for_receiving_from("replica1")
    assert before != after
    assert table.epoch == 1
    assert fresh["replica1"] == after


def test_accept_new_key_updates_outbound():
    table = SessionKeyTable(owner="replica0")
    table.install_pair("replica1")
    new_key = MACKey(key_id=7, material=b"fresh")
    table.accept_new_key("replica1", new_key)
    assert table.key_for_sending_to("replica1") == new_key


def test_missing_key_raises():
    table = SessionKeyTable(owner="x")
    with pytest.raises(KeyError):
        table.key_for_sending_to("nobody")
    with pytest.raises(KeyError):
        table.key_for_receiving_from("nobody")
