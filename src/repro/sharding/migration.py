"""Bucket-range migration between replica groups.

Moving a bucket range from group *S* to group *T* reuses the page-level
export/import surface that hierarchical state transfer introduced
(``page_digests``/``snapshot_pages``/``install_pages``) and the same
per-page digest verification, but the trust model is different: there is
no checkpoint certificate spanning *both* groups, so the coordinator
cross-checks the digests **claimed by the source replicas themselves** —
``f + 1`` matching claims contain at least one honest replica, which
proves the digest (the quorum argument of Section 2.3 applied to reads).
The protocol:

1. **Freeze + quiesce** — the router stops routing new operations into
   the source and target groups (they are queued for redirection) and the
   coordinator waits for both groups' in-flight requests to drain, so the
   cut-over cannot race request execution.
2. **Fence** — the coordinator drives fence writes through the source
   group until a stable checkpoint at least as new as everything the
   group executed exists at ``2f + 1`` replicas: the exported pages then
   come from a *stable* snapshot every honest replica agrees on.
3. **Export + vote** — each source replica claims the per-page content
   digests of the moved buckets in that snapshot
   (:func:`repro.statetransfer.transfer.vote_page_digests` agrees on them
   with ``f + 1`` votes), then the coordinator fetches page bytes
   round-robin across the claimers and rejects any page that does not
   hash to the agreed digest
   (:func:`repro.statetransfer.transfer.verify_page_payload`) — a
   Byzantine sender can cost retries, never correctness.
4. **Install + cut over** — verified pages are installed into every
   target replica (``install_pages``), removed from every source replica,
   *both* groups are fenced to a fresh stable checkpoint **past** the
   install (so the newest stable certificate — the one any recovering or
   lagging replica will state-transfer to — reflects the post-migration
   state and can never resurrect moved keys), fence keys are deleted, the
   routing epoch advances, and the queued operations are re-issued at the
   buckets' new owner.

Byte accounting is modeled (message overhead + payload sizes), so the
migration-vs-whole-store ratios the E16 benchmark gates on are
deterministic, machine-independent quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.statetransfer.partition_tree import content_page_digest
from repro.statetransfer.transfer import verify_page_payload, vote_page_digests

#: Modeled wire cost of one page-carrying message (header + auth framing),
#: mirroring the DATA framing of hierarchical state transfer.
PAGE_MESSAGE_OVERHEAD = 48
#: Modeled wire cost of one claimed digest entry (4-byte page index +
#: 16-byte truncated digest).
DIGEST_ENTRY_BYTES = 20

#: A hook tests use to model Byzantine source replicas: maps
#: ``(replica_id, bucket, payload)`` to the bytes that replica actually
#: serves.  Applied to the DATA pages a replica serves and (by default)
#: to the digests it claims, so a tamperer is self-consistent — the
#: hardest case for the vote.
Tamper = Callable[[str, int, bytes], bytes]


class MigrationError(RuntimeError):
    """The migration could not complete (no quorum, no honest sender...)."""


@dataclass
class MigrationMetrics:
    """What one bucket-range migration moved and cost (all modeled)."""

    source_group: int
    target_group: int
    epoch: int
    stable_seq: int
    buckets_requested: int
    #: Pages that crossed (verified and installed at the target).
    pages_moved: int = 0
    #: Fetch attempts rejected because the bytes did not hash to the
    #: agreed digest (Byzantine senders).
    pages_rejected: int = 0
    #: Requested buckets that held nothing in the stable snapshot.
    buckets_empty: int = 0
    metadata_bytes: int = 0
    data_bytes: int = 0
    #: Modeled cost of shipping the source group's entire store instead
    #: (the pre-sharding alternative: whole-store transfer).
    whole_store_bytes: int = 0
    #: Fence operations driven through the source group to reach a fresh
    #: stable checkpoint before the export.
    barrier_ops: int = 0
    #: Fence operations driven through both groups *after* the install,
    #: so the newest stable checkpoint covers the post-migration state.
    post_barrier_ops: int = 0
    #: Operations queued during the freeze and re-issued at the new owner.
    redirected_ops: int = 0
    #: Per-sender fetch counts (round-robin fan-out evidence).
    pages_per_sender: Dict[str, int] = field(default_factory=dict)

    @property
    def bytes_moved(self) -> int:
        """Total modeled bytes the migration put on the wire."""
        return self.metadata_bytes + self.data_bytes

    def modeled_view(self) -> Dict[str, object]:
        """The comparison form the cache-mode bit-identity tests use."""
        return {
            "source_group": self.source_group,
            "target_group": self.target_group,
            "epoch": self.epoch,
            "stable_seq": self.stable_seq,
            "buckets_requested": self.buckets_requested,
            "pages_moved": self.pages_moved,
            "pages_rejected": self.pages_rejected,
            "buckets_empty": self.buckets_empty,
            "metadata_bytes": self.metadata_bytes,
            "data_bytes": self.data_bytes,
            "whole_store_bytes": self.whole_store_bytes,
            "barrier_ops": self.barrier_ops,
            "post_barrier_ops": self.post_barrier_ops,
            "pages_per_sender": dict(self.pages_per_sender),
        }


def modeled_pages_cost(pages: Dict[int, bytes]) -> int:
    """Modeled wire cost of shipping a page map outright."""
    return sum(PAGE_MESSAGE_OVERHEAD + len(value) for value in pages.values())


def _served_pages(
    replica_id: str,
    service,
    snapshot: object,
    buckets: Tuple[int, ...],
    tamper: Optional[Tamper],
) -> Dict[int, bytes]:
    """The (possibly tampered) page bytes one source replica serves for
    the moved buckets."""
    # Read from a stable-checkpoint snapshot, so every honest replica of the
    # group extracts identical bytes.
    pages = service.snapshot_page_subset(snapshot, buckets)
    if tamper is not None:
        pages = {
            index: tamper(replica_id, index, value)
            for index, value in pages.items()
        }
        pages = {index: value for index, value in pages.items() if value}
    return pages


def migrate_bucket_range(
    sharded,
    buckets: Iterable[int],
    target_group: int,
    tamper: Optional[Tamper] = None,
    tamper_claims: bool = True,
    quiesce_timeout: float = 120_000_000.0,
    max_barrier_ops: Optional[int] = None,
) -> MigrationMetrics:
    """Move a bucket range to ``target_group``; returns the metrics.

    ``tamper`` models Byzantine source replicas corrupting the DATA pages
    they serve; with ``tamper_claims`` (default) the same corruption
    flows into the digests they claim, making them self-consistent liars.
    """
    router = sharded.router
    bucket_set = tuple(sorted(set(buckets)))
    if not bucket_set:
        raise ValueError("no buckets to migrate")
    owners = {router.group_of_bucket(bucket) for bucket in bucket_set}
    if len(owners) != 1:
        raise MigrationError(f"buckets span multiple owners: {sorted(owners)}")
    source_group = owners.pop()
    if source_group == target_group:
        raise MigrationError("bucket range already owned by the target group")

    source = sharded.group(source_group)
    target = sharded.group(target_group)
    f = source.config.f
    need_stable = source.config.quorum  # 2f + 1

    # One migration at a time: the fence/quiesce phases below drive the
    # shared scheduler, so a timer callback (e.g. a rebalancer tick) can
    # run while this migration is in flight — a nested call would clobber
    # ``frozen_groups`` and silently unfreeze the outer migration's groups
    # mid-export.  Refuse loudly instead; ownership stays unchanged.
    if router.frozen_groups:
        raise MigrationError(
            "a migration is already in flight (router groups "
            f"{sorted(router.frozen_groups)} are frozen)"
        )

    # 1. Freeze both groups and drain their in-flight router requests.
    router.freeze({source_group, target_group})
    try:
        sharded.run(
            stop_when=lambda: (
                sharded.outstanding[source_group] == 0
                and sharded.outstanding[target_group] == 0
            ),
            duration=quiesce_timeout,
        )
        if (
            sharded.outstanding[source_group] != 0
            or sharded.outstanding[target_group] != 0
        ):
            raise MigrationError("could not quiesce the source/target groups")

        # 2. Fence: drive the source group to a stable checkpoint covering
        # everything it has executed.
        cap = (
            max_barrier_ops
            if max_barrier_ops is not None
            else 4 * source.config.checkpoint_interval + 16
        )
        target_seq = max(r.last_executed for r in source.replicas.values())
        stable_seq, barrier_ops, fence_keys = _drive_stable_checkpoint(
            sharded, source, source_group, target_seq, bucket_set, cap
        )

        metrics = MigrationMetrics(
            source_group=source_group,
            target_group=target_group,
            epoch=router.epoch,  # updated at cut-over
            stable_seq=stable_seq,
            buckets_requested=len(bucket_set),
            barrier_ops=barrier_ops,
        )

        # 3. Export: collect per-page digest claims from every replica
        # holding the stable checkpoint, vote, then fetch and verify.
        served: Dict[str, Dict[int, bytes]] = {}
        claims: Dict[str, Dict[int, Optional[int]]] = {}
        honest_snapshot: Optional[Tuple[str, object]] = None
        for replica_id in sorted(source.replicas):
            replica = source.replicas[replica_id]
            record = replica.checkpoints.get(stable_seq)
            if record is None:
                continue
            pages = _served_pages(
                replica_id,
                replica.service,
                record.service_snapshot,
                bucket_set,
                tamper if tamper_claims else None,
            )
            served[replica_id] = pages
            claims[replica_id] = {
                bucket: (
                    content_page_digest(bucket, pages[bucket])
                    if bucket in pages
                    else None
                )
                for bucket in bucket_set
            }
            metrics.metadata_bytes += (
                PAGE_MESSAGE_OVERHEAD + len(bucket_set) * DIGEST_ENTRY_BYTES
            )
            if honest_snapshot is None:
                honest_snapshot = (replica_id, record.service_snapshot)
        if len(claims) < f + 1:
            raise MigrationError(
                f"only {len(claims)} replicas hold checkpoint {stable_seq}"
            )

        agreed, undecided = vote_page_digests(claims, need=f + 1)
        if undecided:
            raise MigrationError(
                f"no f+1 digest agreement for buckets {sorted(undecided)[:8]}"
            )

        senders = sorted(claims)
        if tamper is not None and not tamper_claims:
            # Tampering only at DATA time: claimed digests are honest, so
            # serve the tampered bytes for the fetch phase.
            for replica_id in senders:
                replica = source.replicas[replica_id]
                served[replica_id] = _served_pages(
                    replica_id,
                    replica.service,
                    replica.checkpoints[stable_seq].service_snapshot,
                    bucket_set,
                    tamper,
                )

        verified: Dict[int, bytes] = {}
        for position, bucket in enumerate(bucket_set):
            expected = agreed.get(bucket)
            if expected is None:
                metrics.buckets_empty += 1
                continue
            for attempt in range(len(senders)):
                sender = senders[(position + attempt) % len(senders)]
                payload = served[sender].get(bucket, b"")
                metrics.data_bytes += PAGE_MESSAGE_OVERHEAD + len(payload)
                if verify_page_payload(bucket, payload, expected):
                    verified[bucket] = payload
                    metrics.pages_per_sender[sender] = (
                        metrics.pages_per_sender.get(sender, 0) + 1
                    )
                    break
                metrics.pages_rejected += 1
            else:
                raise MigrationError(
                    f"no sender produced a page matching the agreed digest "
                    f"for bucket {bucket}"
                )
        metrics.pages_moved = len(verified)

        # The whole-store alternative this migration avoided: shipping
        # every page of an honest replica's stable snapshot.
        honest_id = next(
            (
                replica_id
                for replica_id in senders
                if claims[replica_id] == {b: agreed.get(b) for b in bucket_set}
            ),
            None,
        )
        if honest_id is not None:
            replica = source.replicas[honest_id]
            snapshot = replica.checkpoints[stable_seq].service_snapshot
            metrics.whole_store_bytes = modeled_pages_cost(
                replica.service.snapshot_pages(snapshot)
            )

        # 4. Install into every target replica, drop from every source
        # replica (both groups are quiesced, so all replicas mutate at the
        # same point of their execution streams and digests stay in
        # agreement), then cut the routing table over.
        removals = tuple(b for b in bucket_set if b not in verified)
        for replica_id in sorted(target.replicas):
            target.replicas[replica_id].service.install_pages(verified, removals)
        for replica_id in sorted(source.replicas):
            source.replicas[replica_id].service.install_pages({}, bucket_set)

        # Fence both groups past the install: a checkpoint at a sequence
        # number beyond anything executed so far must have been *taken*
        # after the install, so the newest stable certificate covers the
        # post-migration state — a crashed or lagging replica that
        # state-transfers to it converges instead of resurrecting moved
        # keys from a pre-migration snapshot.
        for group_index, cluster in (
            (source_group, source),
            (target_group, target),
        ):
            floor = max(r.last_executed for r in cluster.replicas.values()) + 1
            _seq, ops, keys = _drive_stable_checkpoint(
                sharded, cluster, group_index, floor, bucket_set, cap
            )
            metrics.post_barrier_ops += ops
            fence_keys.update(keys)

        # Fence keys are migration bookkeeping, not data: delete them so
        # they never surface through GET/KEYS or later migrations.
        for group_index, key in sorted(fence_keys):
            sharded.coordinator_client(group_index).invoke(b"DEL " + key)

        metrics.epoch = router.assign(bucket_set, target_group)
    finally:
        # Lift the freeze and re-issue the queued operations whether the
        # migration succeeded (they route to the new owner) or failed
        # (ownership unchanged) — redirected, never lost.
        drained = router.unfreeze()
        for client, operation, read_only in drained:
            client.submit(operation, read_only=read_only, external=True)

    metrics.redirected_ops = len(drained)
    sharded.migrations.append(metrics)
    return metrics


def _fence_key(router, group: int, bucket_set: Tuple[int, ...]) -> bytes:
    """A key owned by ``group`` but outside the moved range, so fence
    writes reach the group without racing the exported buckets."""
    moving = set(bucket_set)
    for attempt in range(100_000):
        key = b"__fence:g%d:%d" % (group, attempt)
        bucket = router.bucket_of_key(key)
        if router.group_of_bucket(bucket) == group and bucket not in moving:
            return key
    raise MigrationError("could not find a fence key outside the moved range")


def _drive_stable_checkpoint(
    sharded,
    cluster,
    group: int,
    target_seq: int,
    bucket_set: Tuple[int, ...],
    cap: int,
):
    """Fence ``cluster`` until a stable checkpoint at seq >= ``target_seq``
    (with its snapshot) is held by 2f+1 replicas.

    Returns ``(stable_seq, fence_ops, fence_keys)`` where ``fence_keys``
    is a set of ``(group, key)`` pairs for the caller to clean up.
    """
    need = cluster.config.quorum
    stable = _stable_export_seq(cluster, target_seq, need)
    ops = 0
    fence_key = None
    fence = None
    while stable is None:
        if ops >= cap:
            raise MigrationError(
                f"group {group}: no stable checkpoint past seq {target_seq} "
                f"after {ops} fence operations"
            )
        if fence_key is None:
            fence_key = _fence_key(sharded.router, group, bucket_set)
            fence = sharded.coordinator_client(group)
        fence.invoke(b"SET %s %d" % (fence_key, ops))
        ops += 1
        stable = _stable_export_seq(cluster, target_seq, need)
    fence_keys = {(group, fence_key)} if fence_key is not None else set()
    return stable, ops, fence_keys


def _stable_export_seq(source, target_seq: int, need: int) -> Optional[int]:
    """The newest stable checkpoint sequence >= ``target_seq`` held (with
    its snapshot) by at least ``need`` replicas, or None."""
    counts: Dict[int, int] = {}
    for replica in source.replicas.values():
        seq = replica.stable_checkpoint_seq
        if seq >= target_seq and seq in replica.checkpoints:
            counts[seq] = counts.get(seq, 0) + 1
    winners = [seq for seq, count in counts.items() if count >= need]
    return max(winners) if winners else None
