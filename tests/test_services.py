"""Tests for the replicated services (null, key-value store, counter)."""

import gc

import pytest

from repro.services import kvstore
from repro.services.counter import CounterService
from repro.services.kvstore import KeyValueStore
from repro.services.null_service import NullService, encode_null_op

from tests.conftest import snapshot_records


# ----------------------------------------------------------------- null
def test_null_service_result_size():
    service = NullService()
    op = encode_null_op(result_size=4096, arg_size=0)
    result = service.execute(op, "client0")
    assert len(result) == 4096
    assert service.operations_executed == 1


def test_null_service_read_only_flag_parsed():
    service = NullService()
    assert service.is_read_only(encode_null_op(0, 0, read_only=True))
    assert not service.is_read_only(encode_null_op(0, 0, read_only=False))
    assert not service.is_read_only(b"garbage")


def test_null_service_snapshot_roundtrip():
    service = NullService()
    service.execute(encode_null_op(0, 0), "c")
    snapshot = service.snapshot()
    digest_before = service.state_digest()
    service.execute(encode_null_op(0, 0), "c")
    assert service.state_digest() != digest_before
    service.restore(snapshot)
    assert service.state_digest() == digest_before


# -------------------------------------------------------------- kv store
def test_kvstore_set_get_del():
    store = KeyValueStore()
    assert store.execute(b"SET a 1", "c") == b"OK"
    assert store.execute(b"GET a", "c") == b"1"
    assert store.execute(b"DEL a", "c") == b"OK"
    assert store.execute(b"GET a", "c") == b""
    assert store.execute(b"DEL a", "c") == b"MISSING"


def test_kvstore_set_with_spaces_in_value():
    store = KeyValueStore()
    store.execute(b"SET k hello world", "c")
    assert store.execute(b"GET k", "c") == b"hello world"


def test_kvstore_cas_enforces_invariant():
    store = KeyValueStore()
    assert store.execute(b"CAS k - v1", "c") == b"OK"
    assert store.execute(b"CAS k v1 v2", "c") == b"OK"
    assert store.execute(b"CAS k wrong v3", "c").startswith(b"FAIL")
    assert store.get(b"k") == b"v2"


def test_kvstore_cas_on_an_empty_value_reports_the_empty_value():
    """A failed CAS reports the current value, so a client can retry with
    it; an empty value is reported as itself, not as an absent key."""
    store = KeyValueStore()
    assert store.execute(b"SET k ", "c") == b"OK"
    assert store.execute(b"CAS k - y", "c") == b"FAIL "
    assert store.execute(b"CAS k  y", "c") == b"OK"
    assert store.get(b"k") == b"y"
    assert store.execute(b"CAS absent x y", "c") == b"FAIL -"


def test_kvstore_keys_listing_and_read_only_detection():
    store = KeyValueStore()
    store.execute(b"SET b 2", "c")
    store.execute(b"SET a 1", "c")
    assert store.execute(b"KEYS", "c") == b"a,b"
    assert store.is_read_only(b"GET a")
    assert store.is_read_only(b"KEYS")
    assert not store.is_read_only(b"SET a 1")


def test_kvstore_access_control_blocks_unauthorised_writers():
    store = KeyValueStore(writers={"alice"})
    assert store.execute(b"SET k v", "alice") == b"OK"
    assert store.execute(b"SET k2 v", "bob") == b"ERR access-denied"
    assert store.execute(b"GET k", "bob") == b"v"  # reads allowed


def test_kvstore_mutation_through_read_only_path_is_rejected():
    store = KeyValueStore()
    assert store.execute(b"SET k v", "c", read_only=True) == b"ERR not-read-only"
    assert store.get(b"k") is None


def test_kvstore_snapshot_and_digest():
    store = KeyValueStore()
    store.execute(b"SET a 1", "c")
    snapshot = store.snapshot()
    digest_a = store.state_digest()
    store.execute(b"SET b 2", "c")
    assert store.state_digest() != digest_a
    store.restore(snapshot)
    assert store.state_digest() == digest_a
    assert store.get(b"b") is None


def test_kvstore_pages_follow_bucket_mapping():
    """Pages are logical hash buckets: every record lives in the page of
    ``bucket_of(key)``, only touched buckets appear, and the page mapping
    round-trips through ``install_pages``."""
    store = KeyValueStore()
    for i in range(50):
        store.execute(b"SET key%03d %s" % (i, b"v" * 200), "c")
    pages = store.pages()
    expected_buckets = {store.bucket_of(b"key%03d" % i) for i in range(50)}
    assert set(pages) == expected_buckets
    for i in range(50):
        assert b"key%03d" % i in pages[store.bucket_of(b"key%03d" % i)]

    restored = KeyValueStore()
    restored.install_pages(pages)
    assert restored.state_digest() == store.state_digest()
    assert restored.execute(b"GET key007", "c") == b"v" * 200


def test_kvstore_oversized_value_still_checkpoints():
    """Bucket pages are variable-length (the tree size cap is disabled), so
    a value far beyond the nominal page-size hint must not break the
    digest/snapshot path."""
    store = KeyValueStore()
    store.execute(b"SET big " + b"x" * (1 << 20), "c")
    handle = store.snapshot()
    assert store.state_digest()
    assert snapshot_records(store, handle) == {b"big": b"x" * (1 << 20)}
    store.release_snapshot(handle)


def test_kvstore_equal_values_are_one_object_across_stores():
    """Four stores that run equal SETs hold one ``bytes`` object per value,
    whether each got its own operation bytes (as a preload does) or ran them
    as a committed batch (SET and CAS), and a fifth store filled from a
    snapshot's pages shares those objects too."""
    keys = [b"key%03d" % index for index in range(40)]

    def value(key: bytes) -> bytes:
        return key * 64

    preloaded = [KeyValueStore() for _ in range(4)]
    for store in preloaded:
        for key in keys:
            store.execute(b"SET " + key + b" " + value(key), "preload")
    batched = [KeyValueStore() for _ in range(4)]
    for store in batched:
        store.execute_batch([
            (b"SET " + key + b" " + value(key) if index % 2
             else b"CAS " + key + b" - " + value(key), "client")
            for index, key in enumerate(keys)
        ])
    source = preloaded[0]
    handle = source.snapshot()
    copy = KeyValueStore()
    copy.install_pages(source.snapshot_pages(handle))
    source.release_snapshot(handle)

    for key in keys:
        shared = source.get(key)
        assert shared == value(key)
        for store in preloaded + batched + [copy]:
            assert store.get(key) is shared

    # One store overwriting a value and another deleting it leave it shared
    # with the store that still holds it.
    kept, replaced, deleted = KeyValueStore(), KeyValueStore(), KeyValueStore()
    for store in (kept, replaced, deleted):
        store.execute(b"SET k " + value(b"k"), "client")
    replaced.execute(b"SET k other", "client")
    deleted.execute_batch([(b"DEL k", "client")])
    late = KeyValueStore()
    late.execute(b"SET k " + value(b"k"), "client")
    assert late.get(b"k") is kept.get(b"k")


def test_kvstore_value_pool_keeps_no_value_of_a_dropped_store():
    """The process-wide value pool holds at most max(floor, 2 x the values
    live in a round) entries, both after every key of four stores is
    overwritten and after those stores are dropped, round after round: a
    value no store holds any more does not stay for good."""
    keys = 200
    gc.collect()
    kvstore._sweep()
    held = len(kvstore._POOL)  # values something outside this test holds
    bound = max(kvstore._POOL_FLOOR, 2 * (held + keys))
    for round_ in range(4):
        stores = [KeyValueStore() for _ in range(4)]
        for phase in (b"a", b"b"):
            for store in stores:
                store.execute_batch([
                    (b"SET key%03d " % key + b"%s%d-%03d." % (phase, round_, key) * 200,
                     "client")
                    for key in range(keys)
                ])
        assert len(kvstore._POOL) <= bound
        del stores
        gc.collect()
        assert len(kvstore._POOL) <= bound


def test_kvstore_corruption_changes_digest():
    store = KeyValueStore()
    before = store.state_digest()
    store.corrupt()
    assert store.state_digest() != before


def test_kvstore_bad_operation():
    store = KeyValueStore()
    assert store.execute(b"FLY high", "c") == b"ERR bad-operation"


# --------------------------------------------------------------- counter
def test_counter_inc_dec_read():
    counter = CounterService()
    assert counter.execute(b"INC 5", "c") == b"5"
    assert counter.execute(b"DEC 2", "c") == b"3"
    assert counter.execute(b"READ", "c") == b"3"


def test_counter_invariant_never_negative():
    counter = CounterService()
    counter.execute(b"INC 1", "c")
    assert counter.execute(b"DEC 5", "c") == b"ERR underflow"
    assert counter.value == 1


def test_counter_rejects_negative_amounts_and_garbage():
    counter = CounterService()
    assert counter.execute(b"INC -5", "c") == b"ERR negative-amount"
    assert counter.execute(b"INC abc", "c") == b"ERR bad-amount"
    assert counter.execute(b"SPIN", "c") == b"ERR bad-operation"


def test_counter_access_control():
    counter = CounterService(allowed_clients={"alice"})
    assert counter.execute(b"INC 1", "bob") == b"ERR access-denied"
    assert counter.execute(b"INC 1", "alice") == b"1"
    assert counter.execute(b"READ", "bob") == b"1"


def test_counter_snapshot_restore_and_corrupt():
    counter = CounterService()
    counter.execute(b"INC 7", "c")
    snapshot = counter.snapshot()
    digest_before = counter.state_digest()
    counter.corrupt()
    assert counter.state_digest() != digest_before
    counter.restore(snapshot)
    assert counter.value == 7
