"""Property and unit tests for the incremental checkpointing pipeline.

Covers the dirty-page ``Service`` contract of this PR:

* the incremental ``state_digest()`` always equals a from-scratch
  recompute (and the digest of a fresh service holding the same logical
  state), across arbitrary operation sequences including snapshot,
  rollback via ``restore()``, and state-transfer-style portable restores;
* copy-on-write snapshots are immune to later service mutation;
* the replica-level ``_state_digest`` (service digest + incremental
  reply-table digest) matches the from-scratch recompute;
* ``_take_checkpoint`` skips digest/snapshot work when nothing executed
  since the previous checkpoint, and never skips when something did;
* every byte the paged store hands out — digests, page encodings, snapshot
  pages and the META-DATA / DATA messages served from a checkpoint — equals
  a from-scratch encoding of a shadow dict, whatever mix of mutation,
  snapshot, release, restore and page install came before, and no page
  record a checkpoint captured ever changes afterwards.
"""

from __future__ import annotations

import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.core.auth import Authentication, build_session_keys
from repro.core.config import ProtocolOptions, ReplicaSetConfig
from repro.core.env import RecordingEnv
from repro.core.messages import Request
from repro.core.replica import CheckpointSnapshot, Replica
from repro.crypto.signatures import SignatureRegistry
from repro.fs.nfs import NFSService, encode_op
from repro.library import BFTCluster
from repro.services.counter import CounterService
from repro.services.kvstore import KeyValueStore
from repro.statetransfer.partition_tree import (
    ADHASH_MODULUS,
    content_page_digest,
    group_level_digests,
)
from repro.statetransfer.transfer import (
    StateTransferManager,
    combined_state_digest,
    service_root_digest,
)

KEYS = [b"alpha", b"beta", b"gamma", b"delta", b"epsilon", b"zeta"]

kv_ops = st.lists(
    st.one_of(
        st.tuples(st.just(b"SET"), st.sampled_from(KEYS),
                  st.binary(min_size=0, max_size=48).filter(lambda v: b" " not in v)),
        st.tuples(st.just(b"DEL"), st.sampled_from(KEYS)),
        st.tuples(st.just(b"SNAPSHOT")),
        st.tuples(st.just(b"RESTORE")),
    ),
    min_size=1,
    max_size=40,
)


def _apply(store: KeyValueStore, op, snapshots, shadows, shadow):
    """Interpret one op against the store and a shadow dict in lockstep."""
    if op[0] == b"SET":
        value = op[2] if op[2] else b"x"
        store.execute(b"SET " + op[1] + b" " + value, "client")
        shadow[op[1]] = value
    elif op[0] == b"DEL":
        store.execute(b"DEL " + op[1], "client")
        shadow.pop(op[1], None)
    elif op[0] == b"SNAPSHOT":
        snapshots.append(store.snapshot())
        shadows.append(dict(shadow))
    elif op[0] == b"RESTORE" and snapshots:
        store.restore(snapshots[-1])
        shadow.clear()
        shadow.update(shadows[-1])
    return shadow


def _fresh_digest(shadow: dict) -> bytes:
    fresh = KeyValueStore()
    for key, value in shadow.items():
        fresh.execute(b"SET " + key + b" " + value, "rebuild")
    return fresh.state_digest()


@settings(max_examples=60, deadline=None)
@given(ops=kv_ops)
def test_incremental_digest_matches_scratch_recompute(ops):
    """After any operation sequence — including snapshots and rollbacks —
    the incremental digest equals both the from-scratch recompute and the
    digest of a fresh service holding the same logical state."""
    store = KeyValueStore()
    snapshots, shadows, shadow = [], [], {}
    for op in ops:
        shadow = _apply(store, op, snapshots, shadows, shadow)
        incremental = store.state_digest()
        assert incremental == service_root_digest(store._scratch_root())
    assert store.state_digest() == _fresh_digest(shadow)
    assert {k: store.get(k) for k in shadow} == shadow


PATHS = [b"/a", b"/b", b"/a/c", b"/b/d"]

nfs_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from([b"CREATE", b"MKDIR", b"REMOVE", b"RMDIR"]),
                  st.sampled_from(PATHS)),
        st.tuples(st.just(b"WRITE"), st.sampled_from(PATHS), st.just(b"0"),
                  st.binary(max_size=32)),
        st.tuples(st.just(b"RENAME"), st.sampled_from(PATHS), st.sampled_from(PATHS)),
        st.tuples(st.just(b"SNAPSHOT")),
        st.tuples(st.just(b"RESTORE")),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=nfs_ops, clients=st.lists(st.sampled_from(["c0", "c1"]), min_size=40,
                                     max_size=40))
def test_nfs_incremental_digest_matches_scratch_recompute(ops, clients):
    """The file-service twin of the property above: after any mix of file
    operations, snapshots and rollbacks the incremental digest equals the
    from-scratch recompute, and a fresh service restored from the portable
    export reports the same digest."""
    service = NFSService()
    for directory in (b"/a", b"/b"):  # so cross-directory renames are common
        service.execute(encode_op(b"MKDIR", directory), "c0")
    snapshots = []
    for op, client in zip(ops, clients):
        if op[0] == b"SNAPSHOT":
            snapshots.append(service.snapshot())
        elif op[0] == b"RESTORE":
            if snapshots:
                service.restore(snapshots[-1])
        else:
            service.execute(encode_op(*op), client, nondet=b"\0" * 7 + b"\x2a")
        assert service.state_digest() == service_root_digest(service._scratch_root())
    fresh = NFSService()
    fresh.restore(service.export_snapshot(service.snapshot()))
    assert fresh.state_digest() == service.state_digest()


@settings(max_examples=40, deadline=None)
@given(ops=kv_ops)
def test_cow_snapshot_immune_to_later_mutation(ops):
    """Materializing a copy-on-write snapshot after arbitrary further
    mutation yields exactly the state at snapshot time."""
    store = KeyValueStore()
    store.execute(b"SET seed 1", "client")
    handle = store.snapshot()
    expected = {b"seed": b"1"}
    snapshots, shadows, shadow = [], [], dict(expected)
    for op in ops:
        shadow = _apply(store, op, snapshots, shadows, shadow)
    assert store.export_snapshot(handle) == expected
    # Restoring the snapshot really rewinds, and digests follow.
    store.restore(handle)
    assert store.get(b"seed") == b"1"
    assert store.state_digest() == _fresh_digest(expected)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                       max_size=15))
def test_counter_portable_restore_roundtrip(values):
    """Portable (state-transfer style) snapshots restore across service
    instances and keep digests consistent."""
    counter = CounterService()
    for value in values:
        counter.execute(b"INC %d" % value, "client")
    handle = counter.snapshot()
    portable = counter.export_snapshot(handle)
    digest_at_snapshot = counter.state_digest()
    counter.execute(b"INC 7", "client")

    other = CounterService()
    other.restore(portable)
    assert other.value == sum(values)
    assert other.state_digest() == digest_at_snapshot
    assert service_root_digest(other._scratch_root()) == digest_at_snapshot


# ---------------------------------------------------------------- replica
def test_replica_state_digest_matches_baseline_recompute():
    """The replica's incremental reply-table digest produces the same
    ``_state_digest`` as the full recompute of pages and reply table, on
    every replica of a live cluster."""
    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore,
                                checkpoint_interval=4)
    client = cluster.new_client()
    for index in range(10):
        client.invoke(b"SET key%d value%d" % (index % 3, index))
    for replica in cluster.replicas.values():
        optimized = replica._state_digest()
        assert optimized == _scratch_state_digest(replica)
    digests = {r._state_digest() for r in cluster.replicas.values()}
    assert len(digests) == 1


def _scratch_state_digest(replica) -> bytes:
    """The checkpoint digest from the two from-scratch references: every
    page re-encoded and re-hashed, every reply-table entry re-summed."""
    return combined_state_digest(
        service_root_digest(replica.service._scratch_root()),
        replica._recompute_reply_digest(),
    )


def _executing_replica():
    """A backup replica wired to a RecordingEnv, for checkpoint unit tests."""
    config = ReplicaSetConfig(n=4, checkpoint_interval=4)
    env = RecordingEnv()
    options = ProtocolOptions()
    replica_id = "replica1"
    keys = build_session_keys(replica_id, config.replica_ids + ("client0",))
    auth = Authentication(
        owner=replica_id,
        mode=options.auth_mode,
        keys=keys,
        registry=SignatureRegistry(),
        env=env,
        real_crypto=False,
    )
    replica = Replica(replica_id, config, KeyValueStore(), env, auth,
                      options=options)
    return replica, env


def _execute(replica, timestamp: int, operation: bytes) -> None:
    request = Request(operation=operation, timestamp=timestamp,
                      client="client0", sender="client0")
    replica._execute_batch([request], b"", tentative=False)


def test_checkpoint_skips_work_when_nothing_executed():
    """A checkpoint taken with no execution since the previous one reuses
    the previous digest and snapshot instead of recomputing."""
    replica, env = _executing_replica()
    _execute(replica, 1, b"SET a 1")
    replica._take_checkpoint(4)
    first = replica.checkpoints[4]

    # No execution between seq 4 and seq 8: digest and snapshot reused.
    replica._take_checkpoint(8)
    second = replica.checkpoints[8]
    assert second.state_digest == first.state_digest
    assert second.service_snapshot is first.service_snapshot
    assert second.last_reply_timestamp is first.last_reply_timestamp
    assert ("checkpoint-reused", {"seq": 8}) in env.events

    # An execution in between forces real digest/snapshot work again.
    _execute(replica, 2, b"SET b 2")
    replica._take_checkpoint(12)
    third = replica.checkpoints[12]
    assert third.state_digest != second.state_digest
    assert third.service_snapshot is not second.service_snapshot
    assert ("checkpoint-reused", {"seq": 12}) not in env.events
    assert replica.metrics.checkpoints_taken == 3

    # The shared snapshot still materializes to the state at seq 4/8.
    exported = replica.service.export_snapshot(second.service_snapshot)
    assert exported == {b"a": b"1"}


def test_reused_checkpoint_digest_equals_recompute():
    """The reused digest is exactly what a recompute would produce."""
    replica, _env = _executing_replica()
    _execute(replica, 1, b"SET a 1")
    replica._take_checkpoint(4)
    replica._take_checkpoint(8)
    assert replica.checkpoints[8].state_digest == replica._state_digest()


def test_checkpoint_not_reused_after_out_of_band_mutation():
    """State mutated outside ``_execute_batch`` (fault injection, bench
    preloading) marks pages dirty, which must veto checkpoint reuse — a
    reused pre-mutation digest would mask the corruption from the
    ``_maybe_make_stable`` divergence check until the next execution."""
    replica, env = _executing_replica()
    _execute(replica, 1, b"SET a 1")
    replica._take_checkpoint(4)

    replica.service.corrupt()
    replica._take_checkpoint(8)
    assert ("checkpoint-reused", {"seq": 8}) not in env.events
    assert (
        replica.checkpoints[8].state_digest
        != replica.checkpoints[4].state_digest
    )
    # And the recomputed digest reflects the corrupted state exactly.
    assert replica.checkpoints[8].state_digest == replica._state_digest()


def test_checkpoint_not_reused_after_mutation_even_if_flushed():
    """An intermediate flush (tentative-execution snapshot, recovery
    digest) clears the dirty set but not the mutation counter, so reuse is
    still vetoed after an out-of-band mutation."""
    replica, env = _executing_replica()
    _execute(replica, 1, b"SET a 1")
    replica._take_checkpoint(4)

    replica.service.corrupt()
    replica.service.state_digest()  # flushes: dirty set is empty again
    assert not replica.service.dirty_pages()
    replica._take_checkpoint(8)
    assert ("checkpoint-reused", {"seq": 8}) not in env.events
    assert (
        replica.checkpoints[8].state_digest
        != replica.checkpoints[4].state_digest
    )


def test_abort_tentative_execution_rolls_back_reply_table():
    """Aborting a tentative execution restores the reply table and the
    incremental reply digest, so the aborted operation re-executes in the
    new view instead of being skipped as a retransmission."""
    replica, _env = _executing_replica()
    _execute(replica, 1, b"SET a 1")
    replica._take_checkpoint(4)
    before_digest = replica._state_digest()
    before_timestamps = dict(replica.last_reply_timestamp)

    # Tentative execution, the way _try_execute_tentative drives it.
    replica._pre_tentative_snapshot = replica.service.snapshot()
    request = Request(operation=b"SET b 2", timestamp=2,
                      client="client0", sender="client0")
    replica._execute_batch([request], b"", tentative=True)
    replica.last_tentative = replica.last_executed + 1
    assert replica.last_reply_timestamp["client0"] == 2

    replica._abort_tentative_execution()
    assert replica.last_reply_timestamp == before_timestamps
    assert replica._state_digest() == before_digest
    assert _scratch_state_digest(replica) == before_digest

    # The rolled-back operation is no longer mistaken for a retransmission.
    _execute(replica, 2, b"SET b 2")
    assert replica.service.execute(b"GET b", "probe").result == b"2"


def test_snapshot_survives_newest_checkpoint_discard():
    """Releasing the newest snapshot must not orphan later snapshots.

    The released copy's records are the base layer future checkpoints walk
    back into for pages untouched in between; dropping them silently made
    a later snapshot lose the pre-overwrite value of such a page (seen as
    state transfer shipping an incomplete materialized snapshot, which
    made modeled results depend on how a snapshot was held)."""
    store = KeyValueStore()
    store.execute(b"SET k old", "c")
    young = store.snapshot()  # newest copy captures k=old
    store.release_snapshot(young)
    kept = store.snapshot()   # k untouched: relies on the walk for k
    store.execute(b"SET k new", "c")
    store.snapshot()          # pins the overwrite into a newer copy
    assert store.export_snapshot(kept) == {b"k": b"old"}


# ------------------------------------------------------------ byte identity
_VALUES = st.binary(min_size=1, max_size=48).filter(lambda v: b" " not in v)
_KEY = st.sampled_from(KEYS)

paged_ops = st.lists(
    st.one_of(
        st.tuples(st.just("SET"), _KEY, _VALUES),
        st.tuples(st.just("DEL"), _KEY),
        st.tuples(st.just("CAS"), _KEY, st.booleans(), _VALUES),
        st.tuples(st.just("SNAPSHOT")),
        st.tuples(st.just("RELEASE"), st.integers(0, 5)),
        st.tuples(st.just("RESTORE"), st.integers(0, 5), st.booleans()),
        st.tuples(st.just("INSTALL"), st.dictionaries(_KEY, _VALUES), st.sets(_KEY)),
    ),
    min_size=1,
    max_size=30,
)


def _reference_pages(shadow: dict) -> dict:
    """Bucket pages encoded from scratch: length-prefixed records in key
    order — the definition the store's encodings must equal."""
    pages: dict = {}
    for key in sorted(shadow):
        value = shadow[key]
        record = (len(key).to_bytes(4, "big") + key
                  + len(value).to_bytes(4, "big") + value)
        bucket = KeyValueStore.bucket_of(key)
        pages[bucket] = pages.get(bucket, b"") + record
    return pages


def _reference_digests(pages: dict) -> dict:
    return {index: content_page_digest(index, page) for index, page in pages.items()}


def _check_byte_identity(replica, shadow: dict, held: dict) -> None:
    store = replica.service
    pages = _reference_pages(shadow)
    digests = _reference_digests(pages)
    root = sum(digests.values()) % ADHASH_MODULUS
    assert store.pages() == pages
    assert store.page_digests() == digests
    assert store.state_digest() == service_root_digest(root)
    assert {i: store._encode_page(i) for i in store._page_indexes()} == pages
    assert store._scratch_root() == root
    fanout, levels = store.tree_fanout, store.tree_levels
    for seq, (handle, then) in held.items():
        pages = _reference_pages(then)
        digests = _reference_digests(pages)
        assert store.export_snapshot(handle) == then
        assert store.snapshot_pages(handle) == pages
        some = sorted(pages)[::2] + [KeyValueStore.num_buckets - 1]
        assert store.snapshot_page_subset(handle, some) == {
            index: pages[index] for index in some if index in pages
        }
        # A fresh manager, so nothing it serves was computed before the
        # mutations that followed the snapshot.
        server = StateTransferManager(replica)
        partitions = group_level_digests(digests, 1, fanout, levels)
        assert server.build_metadata(seq, 0, 0).entries == tuple(
            (index, 0, partitions[index].to_bytes(16, "big"))
            for index in sorted(partitions)
        )
        for partition in partitions:
            assert server.build_metadata(seq, 1, partition).entries == tuple(
                (index, seq, digests[index].to_bytes(16, "big"))
                for index in sorted(digests) if index // fanout == partition
            )
        for index, page in pages.items():
            assert server.build_data(seq, index).page == page
        assert server.build_data(seq, KeyValueStore.num_buckets - 1) is None


def _run_paged_ops(ops) -> None:
    replica, _env = _executing_replica()
    store = replica.service
    shadow: dict = {}
    held: dict = {}  # checkpoint seq -> (snapshot, shadow copy at that time)
    captured: list = []  # (record, its fields when a checkpoint captured it)
    for op in ops:
        kind = op[0]
        picked = sorted(held)[op[1] % len(held)] if held and kind in (
            "RELEASE", "RESTORE") else None
        if kind == "SET":
            store.execute(b"SET " + op[1] + b" " + op[2], "client")
            shadow[op[1]] = op[2]
        elif kind == "DEL":
            store.execute(b"DEL " + op[1], "client")
            shadow.pop(op[1], None)
        elif kind == "CAS":
            expected = shadow.get(op[1], b"-") if op[2] else b"stale"
            store.execute(b"CAS " + op[1] + b" " + expected + b" " + op[3], "client")
            if op[2]:
                shadow[op[1]] = op[3]
        elif kind == "SNAPSHOT":
            seq = 4 * (max(held, default=0) // 4 + 1)
            held[seq] = (store.snapshot(), dict(shadow))
            captured += [
                (record, (record.value, record.digest, record.last_modified))
                for record in store._tree._checkpoints[held[seq][0].snap_id].pages.values()
            ]
            replica.checkpoints[seq] = CheckpointSnapshot(
                seq=seq, state_digest=b"", service_snapshot=held[seq][0],
                last_reply_timestamp={}, last_reply={},
            )
        elif kind == "RELEASE" and picked is not None:
            store.release_snapshot(held.pop(picked)[0])
            del replica.checkpoints[picked]
        elif kind == "RESTORE" and picked is not None:
            handle, then = held[picked]
            store.restore(store.export_snapshot(handle) if op[2] else handle)
            shadow = dict(then)
        elif kind == "INSTALL":
            target, touched = op[1], {KeyValueStore.bucket_of(k) for k in op[2]}
            target_pages = _reference_pages(target)
            store.install_pages(
                {i: page for i, page in target_pages.items() if i in touched},
                touched - set(target_pages),
            )
            for key in KEYS:
                if KeyValueStore.bucket_of(key) in touched:
                    shadow.pop(key, None)
                    if key in target:
                        shadow[key] = target[key]
        _check_byte_identity(replica, shadow, held)
        for record, fields in captured:
            assert (record.value, record.digest, record.last_modified) == fields


@settings(max_examples=500, deadline=None)
@given(ops=paged_ops)
def test_paged_store_bytes_equal_scratch_reference(ops):
    """Digests, page encodings, snapshot pages and served META-DATA / DATA
    are byte-identical to a from-scratch encoding of the shadow state after
    every step, and every page record a checkpoint captured still holds the
    value, digest and last-modified number it was captured with."""
    _run_paged_ops(ops)


# ------------------------------------------------------------ memory bounds
def _traced_bytes(scenario) -> int:
    """Bytes still allocated by ``repro/services`` and ``repro/statetransfer``
    code once ``scenario`` has run and while what it returns is alive.  One
    untraced run comes first: CPython parks freed tuples on free lists, and a
    parked block keeps the traceback of whoever first allocated it."""
    scenario()
    tracemalloc.start()
    try:
        alive = scenario()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    del alive
    kept = snapshot.filter_traces([
        tracemalloc.Filter(True, "*/repro/services/*"),
        tracemalloc.Filter(True, "*/repro/statetransfer/*"),
    ])
    return sum(stat.size for stat in kept.statistics("filename"))


def test_held_snapshots_cost_only_the_superseded_values():
    """Two snapshots held across one overwrite of every key keep alive the
    live values and the superseded ones, once each: with N keys of V bytes
    the services and state-transfer layers hold at most 1.5 x (N*V live +
    N*V superseded).  An encoded copy of each page beside the store's own
    values would make that 2 x."""
    keys, size = 256, 2048

    def scenario():
        store = KeyValueStore()
        for key in range(keys):
            store.execute(b"SET key%03d " % key + b"a" * size, "client")
        first = store.snapshot()
        for key in range(keys):
            store.execute(b"SET key%03d " % key + b"b" * size, "client")
        return store, first, store.snapshot()

    assert _traced_bytes(scenario) <= 1.5 * (2 * keys * size)


def test_executed_batches_leave_only_the_live_store_behind():
    """After 2 000 distinct SETs over N = 64 keys of V = 2 048 bytes, with no
    snapshot held, the services and state-transfer layers hold at most
    1.25 x N*V: nothing keeps an executed operation's value alive once a
    later SET replaced it."""
    keys, size, batch = 64, 2048, 50

    def scenario():
        store = KeyValueStore()
        for first in range(0, 2000, batch):
            store.execute_batch([
                (b"SET key%02d " % (n % keys) + (b"%04d" % n) * (size // 4), "client")
                for n in range(first, first + batch)
            ])
        return store

    assert _traced_bytes(scenario) <= 1.25 * (keys * size)
