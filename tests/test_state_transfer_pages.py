"""Property and protocol tests for hierarchical page-level state transfer.

Covers the page-transfer contract of this PR:

* the page-level export surface (``page_digests``/``snapshot_pages``),
  read out of the partition tree, equals a from-scratch re-encode of every
  page, for a live copy-on-write handle and its portable form alike, for
  the KV store and the file service;
* installing a page delta (``install_pages``) converges a diverged service
  to exactly the source state, for randomized divergences;
* the replica-level protocol: a lagging KV or BFS replica converges to the
  stable-checkpoint digest the others hold, fetching only stale pages;
* a faulty sender cannot poison the transfer: corrupted pages and
  unverifiable META-DATA are rejected without touching the cursor, and
  the page is re-requested from another replica;
* a transfer interrupted by a newer stable checkpoint *resumes*: pages
  already fetched and still valid are installed without being re-fetched;
* a root META-DATA for a checkpoint newer than the target is followed only
  when a matching stable certificate is held, and hostile DATA bytes are
  rejected by their digest before anything decodes them;
* the tables a replica serves META-DATA from are dropped with the
  checkpoint record they were computed from.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import preload_kv_state
from repro.core.config import ReplicaSetConfig
from repro.core.messages import Checkpoint, Data, MetaData, Request
from repro.core.replica import CheckpointSnapshot, Replica
from repro.crypto.signatures import SignatureRegistry
from repro.fs.nfs import NFSClientOps, NFSService
from repro.library import BFTCluster
from repro.services.kvstore import KeyValueStore
from repro.statetransfer.partition_tree import (
    ADHASH_MODULUS,
    content_page_digest,
    group_level_digests,
)
from repro.statetransfer.transfer import (
    StateTransferManager,
    _ServedCheckpoint,
    combined_state_digest,
    reply_entry_digest,
)

from tests.conftest import make_replica

KEYS = [b"alpha", b"beta", b"gamma", b"delta", b"epsilon", b"zeta",
        b"eta", b"theta"]

kv_ops = st.lists(
    st.one_of(
        st.tuples(st.just(b"SET"), st.sampled_from(KEYS),
                  st.binary(min_size=1, max_size=32).filter(lambda v: b" " not in v)),
        st.tuples(st.just(b"DEL"), st.sampled_from(KEYS)),
    ),
    min_size=0,
    max_size=30,
)


def _apply(service, ops) -> None:
    """Run KV-shaped ops; on the file service a SET creates and writes the
    file ``/<key>`` and a DEL removes it."""
    for op in ops:
        if isinstance(service, NFSService):
            path = b"/" + op[1]
            if op[0] == b"SET":
                service.execute(NFSClientOps.create(path), "client")
                service.execute(NFSClientOps.write(path, 0, op[2]), "client")
            else:
                service.execute(NFSClientOps.remove(path), "client")
        elif op[0] == b"SET":
            service.execute(b"SET " + op[1] + b" " + op[2], "client")
        else:
            service.execute(b"DEL " + op[1], "client")


services = st.sampled_from([KeyValueStore, NFSService])


# ---------------------------------------------------------------- exports
@settings(max_examples=50, deadline=None)
@given(ops=kv_ops, service=services)
def test_page_exports_identical_across_modes(ops, service):
    """``page_digests`` and ``snapshot_pages`` read out of the partition
    tree equal a from-scratch re-encode of every page, for a live handle
    and for its portable form alike."""
    optimized = service()
    _apply(optimized, ops)
    handle = optimized.snapshot()
    # From scratch: every populated page re-encoded, then hashed.
    scratch_pages = {
        index: page for index in optimized._page_indexes()
        if (page := optimized._encode_page(index))
    }
    scratch_digests = {
        index: content_page_digest(index, page)
        for index, page in scratch_pages.items()
    }
    assert optimized.page_digests() == scratch_digests
    assert optimized.snapshot_pages(handle) == scratch_pages
    assert optimized.snapshot_page_digests(handle) == scratch_digests
    # A live copy-on-write handle and its portable form export the same.
    portable = optimized.export_snapshot(handle)
    assert optimized.snapshot_pages(portable) == scratch_pages
    assert optimized.snapshot_page_digests(portable) == scratch_digests
    # The root the digests AdHash up to matches the service digest both
    # report, and the level-1 grouping is consistent with the leaf map.
    digests = optimized.page_digests()
    root = sum(digests.values()) % ADHASH_MODULUS
    level1 = group_level_digests(
        digests, 1, optimized.tree_fanout, optimized.tree_levels
    )
    assert sum(level1.values()) % ADHASH_MODULUS == root
    optimized.release_snapshot(handle)


@settings(max_examples=50, deadline=None)
@given(source_ops=kv_ops, follower_ops=kv_ops, service=services)
def test_install_pages_converges_to_source_state(source_ops, follower_ops, service):
    """Installing the page delta (differing pages + removals) converges a
    diverged follower to exactly the source state."""
    source = service()
    follower = service()
    _apply(source, source_ops)
    _apply(follower, follower_ops)
    target_pages = source.snapshot_pages(source.snapshot())
    target_digests = {
        index: content_page_digest(index, value)
        for index, value in target_pages.items()
    }
    local = follower.page_digests()
    updates = {
        index: target_pages[index]
        for index, digest_value in target_digests.items()
        if local.get(index) != digest_value
    }
    removals = set(local) - set(target_digests)
    follower.install_pages(updates, removals)
    assert follower.state_digest() == source.state_digest()
    assert follower._export_state() == source._export_state()


# ---------------------------------------------------- protocol end to end
def _partition_scenario(service_factory=KeyValueStore):
    cluster = BFTCluster.create(
        f=1, service_factory=service_factory, checkpoint_interval=4
    )
    client = cluster.new_client()
    # A heavy identical warm state on every replica (installed directly,
    # like the benchmarks do) plus some replicated traffic: the blob path
    # must ship all of it, the page path only what the churn dirties.
    preload_kv_state(cluster, keys=512, value_size=128)
    for index in range(24):
        client.invoke(b"SET warm%03d w%03d" % (index, index))
    for other in ("replica0", "replica1", "replica2", client.id):
        cluster.conditions.partition("replica3", other)
    for index in range(8):
        client.invoke(b"SET churn%d c%d" % (index, index))
    cluster.conditions.heal_all()
    for index in range(8):
        client.invoke(b"SET heal%d h%d" % (index, index))
    cluster.run(duration=30_000_000)
    # A last round of traffic makes the healed replica advertise its gap
    # (status/retransmission) and execute the tail it missed.
    for index in range(8):
        client.invoke(b"SET tail%d t%d" % (index, index))
    cluster.run(duration=10_000_000)
    return cluster


def test_page_transfer_converges_like_whole_snapshot_with_fewer_bytes():
    """The healed replica converges to the digest every replica holds while
    fetching far fewer bytes than the whole state: the byte count is pinned
    at the value this deterministic scenario gives."""
    cluster = _partition_scenario()
    lagging = cluster.replicas["replica3"]
    metrics = lagging.state_transfer.metrics
    assert metrics.transfers_completed >= 1
    assert lagging.stable_checkpoint_seq >= 24
    digests = {
        replica.service.state_digest() for replica in cluster.replicas.values()
    }
    assert len(digests) == 1
    whole_state = sum(len(page) for page in lagging.service.pages().values())
    assert metrics.bytes_fetched == 16088 < whole_state // 4
    assert metrics.pages_fetched > 0
    assert metrics.pages_skipped_local > 0


def _bfs_partition_scenario():
    """The BFS twin of :func:`_partition_scenario`: a warm file tree on
    every replica, churn while replica3 is partitioned away, then a heal."""
    cluster = BFTCluster.create(
        f=1, service_factory=NFSService, checkpoint_interval=4
    )
    client = cluster.new_client()
    for index in range(32):
        client.invoke(NFSClientOps.create(b"/warm%02d" % index))
    for other in ("replica0", "replica1", "replica2", client.id):
        cluster.conditions.partition("replica3", other)
    for index in range(8):
        client.invoke(NFSClientOps.write(b"/warm%02d" % index, 0, b"churn"))
        client.invoke(NFSClientOps.create(b"/churn%d" % index))
    cluster.conditions.heal_all()
    for index in range(8):
        client.invoke(NFSClientOps.create(b"/heal%d" % index))
    cluster.run(duration=30_000_000)
    for index in range(8):
        client.invoke(NFSClientOps.create(b"/tail%d" % index))
    cluster.run(duration=10_000_000)
    return cluster


def test_lagging_bfs_replica_catches_up_by_page_transfer():
    """A BFS replica that missed churn fetches only the pages that differ
    and converges to the healthy replicas' digest."""
    cluster = _bfs_partition_scenario()
    lagging = cluster.replicas["replica3"]
    metrics = lagging.state_transfer.metrics
    assert metrics.transfers_completed >= 1
    assert metrics.pages_fetched > 0
    assert metrics.pages_skipped_local > 0
    digests = {
        replica.service.state_digest() for replica in cluster.replicas.values()
    }
    assert len(digests) == 1


# ------------------------------------------------------- driven harness
def _driven_cluster(first_ops=8, prefix=b"a", service_factory=KeyValueStore):
    """A cluster whose replica3 is partitioned away while the healthy side
    advances; the tests then drive replica3's transfer manager directly
    with replies built by replica0's server side (deterministic, no
    network timing involved)."""
    cluster = BFTCluster.create(
        f=1, service_factory=service_factory, checkpoint_interval=4
    )
    client = cluster.new_client()
    for other in ("replica0", "replica1", "replica2", client.id):
        cluster.conditions.partition("replica3", other)
    for index in range(first_ops):
        client.invoke(b"SET %s%03d v%03d" % (prefix, index, index))
    # Let the checkpoint round drain so the last interval becomes stable.
    cluster.run(duration=2_000_000)
    return cluster, client


def _pump_metadata(manager, server, seq):
    """Answer every outstanding interior-partition request from ``server``;
    returns once only page (leaf) requests remain."""
    for _ in range(16):
        interior = [
            key for key in list(manager._pending)
            if key[0] < manager.replica.service.tree_levels - 1
        ]
        if not interior:
            return
        for level, index in interior:
            reply = server.build_metadata(seq, level, index)
            assert reply is not None
            manager.handle(reply)


def _deliver_pages(manager, server, seq):
    """Answer interior requests, then every wanted page, from ``server``."""
    for _ in range(6):
        if not manager.in_progress:
            return
        _pump_metadata(manager, server, seq)
        for page in sorted(manager._wanted):
            manager.handle(server.build_data(seq, page))


def test_corrupt_page_rejected_without_poisoning_cursor():
    cluster, _client = _driven_cluster()
    replica0 = cluster.replicas["replica0"]
    lagging = cluster.replicas["replica3"]
    manager = lagging.state_transfer
    server = replica0.state_transfer
    seq = replica0.stable_checkpoint_seq
    assert seq >= 8
    target_digest = replica0.checkpoints[seq].state_digest

    manager.start(seq, target_digest)
    root = server.build_metadata(seq, 0, 0)
    # A tampered root reply does not recombine to the certified digest.
    tampered = server.build_metadata(seq, 0, 0)
    entries = list(tampered.entries)
    entries[0] = (entries[0][0], entries[0][1], b"\xff" * 16)
    tampered.entries = tuple(entries)
    manager.handle(tampered)
    assert not manager._root_proven
    assert manager.metrics.metadata_rejected == 1

    manager.handle(root)
    assert manager._root_proven
    _pump_metadata(manager, server, seq)
    wanted = dict(manager._wanted)
    assert wanted

    victim = sorted(wanted)[0]
    before_cursor = dict(manager._fetched)
    evil = Data(index=victim, last_modified=seq, page=b"garbage", seq=seq,
                sender="replica1")
    manager.handle(evil)
    assert manager.metrics.pages_rejected == 1
    assert manager._fetched == before_cursor  # cursor untouched
    assert victim in manager._wanted          # still being fetched

    for page in sorted(wanted):
        reply = server.build_data(seq, page)
        assert reply is not None
        manager.handle(reply)
    assert not manager.in_progress
    assert manager.metrics.transfers_completed == 1
    assert lagging.service.state_digest() == replica0.service.state_digest()
    assert lagging.stable_checkpoint_seq == seq


def test_forged_interior_metadata_is_evicted_and_refetched():
    """Interior digests are additive sums, so a faulty sender can hand out
    child entries that sum correctly but are individually wrong.  Honest
    pages then keep failing verification — after every replica has had a
    chance, the forged metadata is evicted and re-fetched, and the
    transfer completes instead of looping forever."""
    cluster, _client = _driven_cluster(first_ops=24)
    replica0 = cluster.replicas["replica0"]
    lagging = cluster.replicas["replica3"]
    manager = lagging.state_transfer
    server = replica0.state_transfer
    seq = replica0.stable_checkpoint_seq
    manager.start(seq, replica0.checkpoints[seq].state_digest)
    manager.handle(server.build_metadata(seq, 0, 0))

    interior = [key for key in manager._pending if key[0] == 1]
    victim = None
    for _level, index in sorted(interior):
        honest = server.build_metadata(seq, 1, index)
        if len(honest.entries) >= 2:
            victim = (index, honest)
            break
    assert victim is not None, "need a partition with at least two pages"
    index, honest = victim
    # Swap the digests of the first two pages: the sum (and therefore the
    # parent check) still passes, but both entries are individually wrong.
    entries = list(honest.entries)
    entries[0], entries[1] = (
        (entries[0][0], entries[0][1], entries[1][2]),
        (entries[1][0], entries[1][1], entries[0][2]),
    )
    forged = MetaData(seq=seq, level=1, index=index, entries=tuple(entries),
                      replica="replica1", sender="replica1")
    manager.handle(forged)
    assert (1, index) in manager._proven_children  # forgery accepted (sums ok)
    _pump_metadata(manager, server, seq)

    poisoned = entries[0][0]
    assert poisoned in manager._wanted
    honest_page = server.build_data(seq, poisoned)
    rounds = len(lagging.others())
    for _ in range(rounds):
        manager.handle(honest_page)
    assert manager.metrics.pages_rejected == rounds
    # The forged proof is gone and the partition metadata is being
    # re-fetched.
    assert (1, index) not in manager._proven_children

    # The evicted partition's metadata is re-requested once the other
    # pendings drain; keep answering until the transfer completes.
    _deliver_pages(manager, server, seq)
    assert not manager.in_progress
    assert manager.metrics.transfers_completed == 1
    assert lagging.service.state_digest() == replica0.service.state_digest()


def test_interrupted_transfer_resumes_without_refetching_valid_pages():
    cluster, client = _driven_cluster(first_ops=8, prefix=b"a")
    replica0 = cluster.replicas["replica0"]
    lagging = cluster.replicas["replica3"]
    manager = lagging.state_transfer
    server = replica0.state_transfer

    first_seq = replica0.stable_checkpoint_seq
    assert first_seq >= 8
    manager.start(first_seq, replica0.checkpoints[first_seq].state_digest)
    manager.handle(server.build_metadata(first_seq, 0, 0))
    _pump_metadata(manager, server, first_seq)
    wanted = sorted(manager._wanted)
    assert len(wanted) >= 2
    # Deliver only part of the pages, then interrupt: the healthy side
    # advances to a new stable checkpoint over *different* keys.
    delivered = wanted[: len(wanted) // 2]
    for page in delivered:
        manager.handle(server.build_data(first_seq, page))
    assert manager.in_progress

    for index in range(4):
        client.invoke(b"SET b%03d w%03d" % (index, index))
    cluster.run(duration=2_000_000)
    second_seq = replica0.stable_checkpoint_seq
    assert second_seq > first_seq

    manager.start(second_seq, replica0.checkpoints[second_seq].state_digest)
    assert manager.metrics.transfers_resumed == 1
    pages_fetched_before_resume = manager.metrics.pages_fetched
    manager.handle(server.build_metadata(second_seq, 0, 0))
    _pump_metadata(manager, server, second_seq)
    # Pages fetched before the interruption are still valid under the new
    # checkpoint (their keys were untouched) and must not be re-requested.
    assert not set(delivered) & set(manager._wanted)
    for page in sorted(manager._wanted):
        manager.handle(server.build_data(second_seq, page))
    assert not manager.in_progress
    assert manager.metrics.transfers_completed == 1
    assert manager.metrics.pages_fetched > pages_fetched_before_resume
    assert lagging.service.state_digest() == replica0.service.state_digest()
    assert lagging.stable_checkpoint_seq == second_seq
    assert lagging.service.get(b"a001") == b"v001"
    assert lagging.service.get(b"b001") == b"w001"


def test_whole_snapshot_newer_state_requires_certificate():
    """A root META-DATA for a checkpoint *newer* than the transfer target is
    followed only once a stable certificate for it is in the log; a root
    META-DATA that does not recombine to that certificate is refused and
    leaves the state untouched."""
    cluster, client = _driven_cluster(first_ops=8, prefix=b"a")
    replica0 = cluster.replicas["replica0"]
    lagging = cluster.replicas["replica3"]
    manager = lagging.state_transfer
    server = replica0.state_transfer

    first_seq = replica0.stable_checkpoint_seq
    manager.start(first_seq, replica0.checkpoints[first_seq].state_digest)

    # The healthy side moves on; the old checkpoint is garbage
    # collected, so only newer state can be served.
    for index in range(4):
        client.invoke(b"SET b%03d w%03d" % (index, index))
    cluster.run(duration=2_000_000)
    newer_seq = replica0.stable_checkpoint_seq
    assert newer_seq > first_seq
    newer_digest = replica0.checkpoints[newer_seq].state_digest
    root = server.build_metadata(newer_seq, 0, 0)
    before = lagging._state_digest()

    # Without a certificate for newer_seq the reply is not followed.
    manager.handle(root)
    assert manager.target_seq == first_seq
    assert not manager._root_proven
    assert lagging.last_executed == 0

    # With a stable certificate (2f+1 matching checkpoint messages in the
    # log) the newer checkpoint is followed — but a root reply that does
    # not recombine to the certified digest is still refused.
    for sender in ("replica0", "replica1", "replica2"):
        lagging.log.checkpoint_record(newer_seq).add(
            Checkpoint(seq=newer_seq, state_digest=newer_digest,
                       replica=sender, sender=sender)
        )
    forged = server.build_metadata(newer_seq, 0, 0)
    entries = list(forged.entries)
    entries[0] = (entries[0][0], entries[0][1], b"\xff" * 16)
    forged.entries = tuple(entries)
    manager.handle(forged)
    assert manager.metrics.metadata_rejected == 1
    assert not manager._root_proven
    assert manager.in_progress
    assert lagging.last_executed == 0
    assert lagging._state_digest() == before

    manager.handle(root)
    assert manager._root_proven and manager.target_seq == newer_seq
    _deliver_pages(manager, server, newer_seq)
    assert not manager.in_progress
    assert lagging.last_executed == newer_seq
    assert lagging.service.state_digest() == replica0.service.state_digest()


def _nfs_with(*paths: bytes) -> NFSService:
    service = NFSService()
    for path in paths:
        service.execute(NFSClientOps.create(path), "client0")
    return service


def _kv_with(*keys: bytes) -> KeyValueStore:
    store = KeyValueStore()
    for key in keys:
        store.execute(b"SET " + key + b" value", "client0")
    return store


def _serving_replica(service, seq, reply_table):
    """A replica holding ``service`` as its checkpoint at ``seq``, and the
    transfer manager that answers FETCHes from it."""
    server, _env = make_replica(
        ReplicaSetConfig(n=4, checkpoint_interval=4), SignatureRegistry(),
        "replica0", service=service,
    )
    server.checkpoints[seq] = CheckpointSnapshot(
        seq=seq, state_digest=b"", service_snapshot=service.snapshot(),
        last_reply_timestamp=dict(reply_table), last_reply={},
    )
    return StateTransferManager(server)


@pytest.mark.parametrize("build,probe", [
    (_nfs_with, NFSClientOps.readdir(b"/")),
    (_kv_with, b"KEYS"),
], ids=["NFSService", "KeyValueStore"])
def test_refused_whole_snapshot_leaves_nothing_behind(build, probe):
    """A forged root META-DATA (a sender serving another state) and forged
    DATA pages are refused before anything is installed: the state, the
    reply tables and their digest are as they were, and the honest replies
    that follow still install."""
    replica, _env = make_replica(
        ReplicaSetConfig(n=4, checkpoint_interval=4), SignatureRegistry(),
        service=build(b"/mine", b"/also-mine"),
    )
    manager = replica.state_transfer = StateTransferManager(replica)
    replica._execute_batch(
        [Request(operation=probe, timestamp=3, client="client0", sender="client0")],
        b"", tentative=False,
    )
    target = build(b"/theirs")
    honest_table = {"client0": 7, "client1": 2}
    certified = combined_state_digest(
        target.state_digest(),
        sum(reply_entry_digest(c, t) for c, t in honest_table.items()) % ADHASH_MODULUS,
    )
    honest = _serving_replica(target, 8, honest_table)
    evil = _serving_replica(build(b"/evil"), 8, {"mallory": 5})
    digest_before = replica._state_digest()
    timestamps_before = dict(replica.last_reply_timestamp)
    replies_before = dict(replica.last_reply)
    probe_before = replica.service.execute(probe, "probe", read_only=True).result

    def unchanged():
        assert replica._state_digest() == digest_before
        assert replica._reply_digest == replica._recompute_reply_digest()
        assert replica.last_reply_timestamp == timestamps_before == {"client0": 3}
        assert replica.last_reply == replies_before and replies_before
        assert replica.service.execute(probe, "probe", read_only=True).result == (
            probe_before
        )
        assert replica.last_executed == 0 and 8 not in replica.checkpoints

    manager.start(8, certified)
    manager.handle(evil.build_metadata(8, 0, 0))
    assert manager.metrics.metadata_rejected == 1
    unchanged()

    manager.handle(honest.build_metadata(8, 0, 0))
    _pump_metadata(manager, honest, 8)
    wanted = sorted(manager._wanted)
    assert wanted
    for page in wanted:
        forged = b"forged" + honest.build_data(8, page).page
        manager.handle(Data(index=page, last_modified=8, seq=8, sender="replica2",
                            page=forged))
    assert manager.metrics.pages_rejected == len(wanted)
    assert manager.in_progress
    unchanged()

    _deliver_pages(manager, honest, 8)
    assert not manager.in_progress
    assert replica._state_digest() == certified
    assert replica.last_reply_timestamp == honest_table
    assert replica.last_executed == replica.stable_checkpoint_seq == 8
    assert replica.service.execute(probe, "probe", read_only=True).result == (
        target.execute(probe, "probe", read_only=True).result
    )


class _TouchesFilesystem:
    """Unpickling this with ``pickle.loads`` creates a directory."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def test_whole_snapshot_blob_from_a_faulty_replica_runs_nothing(tmp_path):
    """DATA bytes a Byzantine peer chose — a pickle that names a callable,
    a truncated page, another page's bytes, junk — are each rejected by the
    page digest and counted; a page labelled with another index or
    checkpoint is dropped.  Nothing is decoded or run, nothing escapes
    ``handle``, the transfer keeps waiting, and honest pages still install."""
    cluster, _client = _driven_cluster()
    replica0 = cluster.replicas["replica0"]
    lagging = cluster.replicas["replica3"]
    manager = lagging.state_transfer
    server = replica0.state_transfer
    seq = replica0.stable_checkpoint_seq
    manager.start(seq, replica0.checkpoints[seq].state_digest)
    manager.handle(server.build_metadata(seq, 0, 0))
    _pump_metadata(manager, server, seq)
    # One hostile reply per wanted page, so no page's proof is suspected.
    wanted = sorted(manager._wanted)
    assert len(wanted) >= 4
    honest = server.build_data(seq, wanted[0]).page
    marker = tmp_path / "created-by-unpickling"
    hostile = [
        (wanted[0], pickle.dumps(_TouchesFilesystem(str(marker)))),
        (wanted[1], server.build_data(seq, wanted[1]).page[:-1]),
        (wanted[2], honest),
        (wanted[3], b"\x80\x04not a pickle"),
    ]
    for count, (index, page) in enumerate(hostile, start=1):
        manager.handle(Data(index=index, last_modified=seq, seq=seq,
                            page=page, sender="replica2"))
        assert manager.metrics.pages_rejected == count
    for index, label in ((KeyValueStore.num_buckets - 1, seq), (wanted[0], seq + 4)):
        manager.handle(Data(index=index, last_modified=label, seq=label,
                            page=honest, sender="replica2"))
    assert manager.metrics.pages_rejected == len(hostile)
    assert manager.metrics.pages_fetched == 0
    assert not marker.exists()
    assert manager.in_progress and set(wanted) == set(manager._wanted)
    assert lagging.last_executed == 0

    _deliver_pages(manager, server, seq)
    assert not manager.in_progress
    assert lagging.service.state_digest() == replica0.service.state_digest()


def test_kv_page_decoder_rejects_overrunning_length_prefix():
    """A page whose last length prefix overruns the blob (or is cut short)
    is refused whole, by the KV store and the file service alike: the
    decoder raises ``ValueError``, nothing is installed, the service is
    unchanged."""
    store = KeyValueStore()
    store.execute(b"SET kept value", "client")
    good = KeyValueStore()
    good.execute(b"SET k v", "client")
    (index, page), = good.pages().items()
    overrun = page[:-5] + (9).to_bytes(4, "big") + b"v"
    nfs = _nfs_with(b"/kept")
    donor = _nfs_with(b"/f")
    donor.execute(NFSClientOps.write(b"/f", 0, b"data"), "client0")
    nfs_index = NFSService.bucket_of(2)
    nfs_page = donor.pages()[nfs_index]
    cases = [
        (store, index, (overrun, page[:-1], page + b"\x00\x00", page[: 4 + 1])),
        (nfs, nfs_index, (nfs_page[:-1], nfs_page + b"\x00", b"X" + nfs_page[1:],
                          nfs_page[:9] + b"\x07" + nfs_page[10:],
                          donor.pages()[NFSService.allocator_page] + b"\x00")),
    ]
    for service, index, malformed in cases:
        before = service.state_digest()
        exported = service._export_state()
        for bad in malformed:
            with pytest.raises(ValueError):
                service.install_pages({index: bad}, removals=service.pages())
        assert service.state_digest() == before
        assert service._export_state() == exported
    assert store.get(b"kept") == b"value"
    assert nfs.execute(NFSClientOps.lookup(b"/kept"), "probe").result == b"FH:2"


def test_serve_cache_never_outlives_checkpoint_records(monkeypatch):
    """The served tables for a checkpoint go when the replica discards the
    checkpoint record, not when some later fetch happens to miss."""
    make_stable = Replica._make_checkpoint_stable
    dropped = []

    def checked(self, seq):
        before = set(self.state_transfer._serve_cache)
        make_stable(self, seq)
        after = set(self.state_transfer._serve_cache)
        assert after <= set(self.checkpoints)
        dropped.extend(before - after)

    assert [f.name for f in dataclasses.fields(_ServedCheckpoint)] == ["level_sums"]
    monkeypatch.setattr(Replica, "_make_checkpoint_stable", checked)
    cluster = _partition_scenario()
    assert cluster.replicas["replica3"].state_transfer.metrics.transfers_completed
    # Somebody served the lagging replica, and those tables are gone again.
    assert dropped
    for replica in cluster.replicas.values():
        assert set(replica.state_transfer._serve_cache) <= set(replica.checkpoints)
