"""Fault-injection and protocol tests for bucket-range migration.

Mirrors the corruption cases of ``tests/test_state_transfer_pages.py``
for the migration path (ISSUE satellite): a source group saturated with
``f`` Byzantine replicas that corrupt the DATA pages they serve (and, in
the hardest variant, claim self-consistent forged digests) must not be
able to poison the migration — forged pages are rejected by the per-page
digest check and the migration completes from the honest senders.
"""

from __future__ import annotations

import pytest

from repro.services.kvstore import KeyValueStore
from repro.sharding import MigrationError, ShardedKVCluster
from repro.statetransfer.transfer import vote_page_digests


def _populated_range(sharded, group: int):
    """Every populated bucket the group owns: each one holds a page, so a
    migration over this range exercises the full sender round-robin."""
    owned = set(sharded.router.buckets_owned_by(group))
    replica0 = sharded.group(group).replicas[f"g{group}:replica0"]
    return tuple(
        b for b in replica0.service.populated_buckets() if b in owned
    )


def _populated_cluster(groups: int = 2, f: int = 1, keys: int = 40):
    sharded = ShardedKVCluster(groups=groups, f=f, checkpoint_interval=8)
    client = sharded.new_client()
    written = {}
    for i in range(keys):
        key = b"key%03d" % i
        value = b"value%03d" % i
        client.invoke(b"SET " + key + b" " + value)
        written[key] = value
    return sharded, client, written


def _assert_moved(sharded, client, written, moved_buckets, source, target):
    """The moved keys live only at the target, everything reads back, and
    every group's replicas agree on their state."""
    moved_keys = {
        key for key in written if KeyValueStore.bucket_of(key) in set(moved_buckets)
    }
    assert moved_keys, "scenario must actually move some keys"
    for key, value in written.items():
        assert client.invoke(b"GET " + key, read_only=True) == value
    for group in (source, target):
        for replica in sharded.group(group).replicas.values():
            for key in moved_keys:
                present = replica.service.get(key) is not None
                assert present == (group == target), (replica.id, key)
    assert sharded.group_digests_converged()


def test_f_byzantine_senders_with_forged_claims_cannot_poison_migration():
    """f self-consistent liars (forged DATA *and* matching forged digest
    claims): the f+1 vote out-votes them and the per-page hash check
    rejects their pages, so the migration completes from honest senders."""
    sharded, client, written = _populated_cluster(f=1)
    liars = {"g0:replica2"}

    def tamper(replica_id: str, bucket: int, payload: bytes) -> bytes:
        if replica_id in liars:
            return b"forged!" + payload
        return payload

    moved = _populated_range(sharded, 0)
    metrics = sharded.migrate_buckets(moved, 1, tamper=tamper)
    assert metrics.pages_moved > 0
    # The round-robin fan-out hit a liar at least once, and every forged
    # page was rejected and re-fetched from an honest replica.
    assert metrics.pages_rejected > 0
    assert not set(metrics.pages_per_sender) & liars
    _assert_moved(sharded, client, written, moved, 0, 1)


def test_forged_data_with_honest_claims_is_rejected():
    """Corruption only at DATA time (claims honest): every claimed digest
    agrees, the forged bytes fail the hash check, and the pages come from
    the honest senders instead."""
    sharded, client, written = _populated_cluster(f=1)
    liars = {"g0:replica1"}

    def tamper(replica_id: str, bucket: int, payload: bytes) -> bytes:
        if replica_id in liars:
            return payload[::-1]
        return payload

    moved = _populated_range(sharded, 0)
    metrics = sharded.migrate_buckets(moved, 1, tamper=tamper, tamper_claims=False)
    assert metrics.pages_moved > 0
    assert metrics.pages_rejected > 0
    assert not set(metrics.pages_per_sender) & liars
    _assert_moved(sharded, client, written, moved, 0, 1)


def test_f2_group_saturated_with_two_byzantine_senders():
    """An f=2 group (n=7) with two coordinated liars: 2 forged claims
    never reach the f+1 = 3 votes needed, and fetches route around both."""
    sharded, client, written = _populated_cluster(f=2, keys=24)
    liars = {"g0:replica0", "g0:replica4"}

    def tamper(replica_id: str, bucket: int, payload: bytes) -> bytes:
        if replica_id in liars:
            return b"coordinated-forgery"  # identical lies: 2 votes, not 3
        return payload

    moved = _populated_range(sharded, 0)
    metrics = sharded.migrate_buckets(moved, 1, tamper=tamper)
    assert metrics.pages_moved > 0
    assert not set(metrics.pages_per_sender) & liars
    _assert_moved(sharded, client, written, moved, 0, 1)


def test_migration_moves_only_the_requested_buckets_bytes():
    """Modeled byte accounting: the migration ships the moved buckets'
    pages (plus digest metadata), not the whole store."""
    sharded, client, written = _populated_cluster(keys=60)
    owned = sharded.router.buckets_owned_by(0)
    populated = set(
        sharded.group(0).replicas["g0:replica0"].service.populated_buckets()
    )
    # Move roughly a tenth of the source group's populated buckets.
    moved = [b for b in owned if b in populated][: max(1, len(populated) // 10)]
    metrics = sharded.migrate_buckets(moved, 1)
    assert metrics.pages_moved == len(moved)
    assert metrics.bytes_moved < metrics.whole_store_bytes
    assert metrics.data_bytes < metrics.whole_store_bytes
    source_service = sharded.group(0).replicas["g0:replica0"].service
    assert not source_service.keys_in_buckets(moved)
    target_service = sharded.group(1).replicas["g1:replica0"].service
    assert target_service.keys_in_buckets(moved)
    _assert_moved(sharded, client, written, moved, 0, 1)


def test_migration_rejects_bad_ranges():
    sharded, _client, _written = _populated_cluster(keys=8)
    owned0 = sharded.router.buckets_owned_by(0)
    owned1 = sharded.router.buckets_owned_by(1)
    with pytest.raises(MigrationError):
        sharded.migrate_buckets([owned0[0], owned1[0]], 1)  # spans owners
    with pytest.raises(MigrationError):
        sharded.migrate_buckets(owned0[:4], 0)  # already owned by target
    with pytest.raises(ValueError):
        sharded.migrate_buckets([], 1)
    assert sharded.router.epoch == 0  # failed migrations change nothing


def test_lagging_replica_recovers_to_post_migration_state():
    """A source replica partitioned across the migration must, once
    healed, state-transfer to a *post-migration* stable checkpoint: the
    post-install fence guarantees the newest stable certificate reflects
    the moved-out state, so recovery can never resurrect moved keys from
    a pre-migration snapshot."""
    sharded, client, written = _populated_cluster(keys=30)
    lagging = "g0:replica3"
    peers = ["g0:replica0", "g0:replica1", "g0:replica2"]
    for other in peers + [f"{client.name}@g0", "migrate@g0"]:
        sharded.conditions.partition(lagging, other)

    # Traffic the partitioned replica misses, then the migration itself.
    extra = {}
    for i in range(12):
        key = b"late%03d" % i
        client.invoke(b"SET " + key + b" v")
        extra[key] = b"v"
    moved = _populated_range(sharded, 0)
    metrics = sharded.migrate_buckets(moved, 1)
    assert metrics.post_barrier_ops > 0  # the post-install fence ran

    sharded.conditions.heal_all()
    # Post-heal traffic to the source group crosses checkpoint intervals,
    # whose CHECKPOINT certificates tell the healed replica to fetch.
    healed_writes = 0
    i = 0
    while healed_writes < 3 * 8:  # 3 checkpoint intervals of group traffic
        key = b"heal%03d" % i
        i += 1
        if sharded.router.group_of_key(key) != 0:
            continue
        client.invoke(b"SET " + key + b" done")
        healed_writes += 1
    replica = sharded.group(0).replicas[lagging]
    for _ in range(20):
        if replica.state_transfer.metrics.transfers_completed >= 1:
            break
        sharded.run(duration=2_000_000)
    assert replica.state_transfer.metrics.transfers_completed >= 1

    # Keep the group under light traffic until the recovered replica has
    # executed its way up to its peers (retransmissions and checkpoint
    # certificates drive the catch-up).
    group0 = sharded.group(0).replicas
    for round_index in range(20):
        if replica.last_executed == max(r.last_executed for r in group0.values()):
            break
        key = b"settle%03d" % i
        i += 1
        if sharded.router.group_of_key(key) == 0:
            client.invoke(b"SET " + key + b" x")
        sharded.run(duration=1_000_000)
    top = max(r.last_executed for r in group0.values())
    assert replica.last_executed == top  # the lagging replica caught up
    # ...to the identical state: one live digest across the whole group.
    live_digests = {r.service.state_digest() for r in group0.values()}
    assert len(live_digests) == 1
    moved_keys = {
        key
        for key in list(written) + list(extra)
        if KeyValueStore.bucket_of(key) in set(moved)
    }
    assert moved_keys
    for key in moved_keys:
        assert replica.service.get(key) is None, key
    for key, value in written.items():
        assert client.invoke(b"GET " + key, read_only=True) == value


def test_vote_page_digests_agreement_and_undecided():
    claims = {
        "a": {1: 10, 2: 20, 3: None},
        "b": {1: 10, 2: 99, 3: None},
        "c": {1: 10, 2: 98, 3: 30},
    }
    agreed, undecided = vote_page_digests(claims, need=2)
    assert agreed[1] == 10
    assert agreed[3] is None
    assert undecided == {2}
    agreed, undecided = vote_page_digests(claims, need=3)
    assert agreed == {1: 10}
    assert undecided == {2, 3}


def test_sharded_service_library_api():
    """The Figure 6-2 shape over groups: sharded invoke + migrate."""
    sharded = ShardedKVCluster(groups=2, f=1, checkpoint_interval=8)
    client = sharded.new_client()
    assert client.invoke(b"SET colour blue") == b"OK"
    assert client.invoke(b"GET colour", read_only=True) == b"blue"
    bucket = KeyValueStore.bucket_of(b"colour")
    source = sharded.router.group_of_bucket(bucket)
    metrics = sharded.migrate_buckets([bucket], 1 - source)
    assert metrics.pages_moved >= 1
    assert sharded.router.epoch == 1
    assert client.invoke(b"GET colour", read_only=True) == b"blue"
