"""Replica-attached state transfer (Section 5.3.2).

Brings a lagging or corrupted replica up to the most recent stable
checkpoint.  The manager learns the target checkpoint digest from a weak
certificate (the stable-checkpoint proof the replica already verified), so
everything it fetches can be validated against that digest without
trusting any single sender.

The fetcher walks the partition tree top-down (the FETCH / META-DATA /
DATA protocol; every service is paged, so this is the only one): a root
FETCH returns META-DATA whose sub-partition digests — combined with the
checkpoint's reply table — must recombine to the certified checkpoint
digest; each interior META-DATA reply must AdHash-sum to its
already-proven parent digest; and each DATA page must hash to its proven
leaf digest.  The fetcher diffs every proven digest against its *local*
pages and fetches only the partitions and pages that differ (delta
fetch), spreads page requests round-robin across the other replicas so no
single sender carries the whole transfer, and keeps the validated pages in
a cursor: when a newer checkpoint becomes stable mid-transfer the walk
restarts against the new digests but every page whose digest still
matches is kept — the transfer *resumes* instead of starting over.  A root
META-DATA for a checkpoint newer than the target is followed only once the
fetcher holds a stable certificate for it (a faulty replica must not be
able to feed us an unproven "newer" state).  A corrupted page from a
faulty sender fails its digest check, is dropped without touching the
cursor, and is re-requested from the next replica.

The AdHash combination inherits the collision-resistance assumption the
content-digest partition tree (and the replica state digest built on it)
already makes; per-page SHA-256 checks reject any page whose bytes do not
match the proven digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.messages import Data, Fetch, Message, MetaData, pack
from repro.crypto.digests import DIGEST_SIZE, digest
from repro.statetransfer.partition_tree import (
    ADHASH_MODULUS,
    content_page_digest,
    group_level_digests,
    pages_per_partition,
)


def reply_entry_digest(client: str, timestamp: int) -> int:
    """AdHash contribution of one ``last_reply_timestamp`` entry.

    Canonical definition shared by the replica's incremental reply-table
    digest and the transfer fetcher's root-metadata verification.
    """
    return int.from_bytes(digest(pack(client, timestamp)), "big") % ADHASH_MODULUS


def service_root_digest(root: int) -> bytes:
    """The service state digest corresponding to a partition-tree root.

    Canonical definition shared by ``Service.state_digest`` and the
    transfer fetcher's root-metadata verification.
    """
    return digest(root.to_bytes(DIGEST_SIZE, "big"))


def combined_state_digest(service_digest: bytes, reply_sum: int) -> bytes:
    """Combine a service state digest and a reply-table AdHash sum into the
    replica state digest the checkpoint certificates cover.

    Canonical definition shared by ``Replica._state_digest`` and the
    transfer fetcher — both sides call this one helper, so the formula
    cannot drift.
    """
    return digest(pack(service_digest, reply_sum.to_bytes(DIGEST_SIZE, "big")))


def verify_page_payload(index: int, payload: bytes, expected: int) -> bool:
    """True when a fetched page's bytes hash to the proven content digest.

    The same per-page check the transfer fetcher applies to DATA
    replies; bucket migration (:mod:`repro.sharding.migration`) reuses it
    to reject forged pages served by Byzantine source replicas.
    """
    return content_page_digest(index, payload) == expected


def vote_page_digests(
    claims: Dict[str, Dict[int, Optional[int]]], need: int
) -> Tuple[Dict[int, Optional[int]], Set[int]]:
    """Agree on per-page content digests claimed by multiple replicas.

    ``claims`` maps a sender to its claimed page-index -> digest map
    (``None`` marks a page the sender claims is absent).  A value wins a
    page when at least ``need`` senders claim it — with ``need = f + 1``
    at least one of them is honest, so the winning digest is the honest
    one.  Returns the agreed map plus the set of pages where no value
    reached ``need`` votes (the caller must gather more claims or fail).

    This is the migration-side analogue of the transfer fetcher's
    META-DATA proof: instead of chaining digests from a checkpoint
    certificate, the coordinator cross-checks the digests claimed by the
    source group's replicas directly.
    """
    indexes: Set[int] = set()
    for claim in claims.values():
        indexes.update(claim)
    agreed: Dict[int, Optional[int]] = {}
    undecided: Set[int] = set()
    for index in indexes:
        votes: Dict[Optional[int], int] = {}
        for claim in claims.values():
            value = claim.get(index)
            votes[value] = votes.get(value, 0) + 1
        winner = max(votes.items(), key=lambda item: item[1])
        if winner[1] >= need:
            agreed[index] = winner[0]
        else:
            undecided.add(index)
    return agreed, undecided


@dataclass
class TransferMetrics:
    """Counters for the state-transfer benchmarks."""

    transfers_started: int = 0
    transfers_completed: int = 0
    #: Retargets to a newer stable checkpoint that kept the page cursor.
    transfers_resumed: int = 0
    #: Wire bytes of every accepted META-DATA / DATA reply.
    bytes_fetched: int = 0
    fetch_messages: int = 0
    metadata_messages: int = 0
    pages_fetched: int = 0
    #: Local pages the final walk proved identical to the target (their
    #: page or subtree digest matched), so they never crossed the wire.
    pages_skipped_local: int = 0
    #: Pages rejected because their bytes did not hash to the proven digest.
    pages_rejected: int = 0
    #: META-DATA replies rejected because they failed digest verification.
    metadata_rejected: int = 0
    #: Simulated duration of the most recent completed transfer.
    last_transfer_duration: float = 0.0
    total_transfer_time: float = 0.0


@dataclass
class _ServedCheckpoint:
    """Server-side table for one checkpoint: the partition digest sums of
    every level below the root (the leaf level is the page digests)."""

    level_sums: Dict[int, Dict[int, int]]


class StateTransferManager:
    """Handles FETCH / META-DATA / DATA messages on behalf of one replica."""

    def __init__(self, replica) -> None:
        self.replica = replica
        self.target_seq: Optional[int] = None
        self.target_digest: Optional[bytes] = None
        self.metrics = TransferMetrics()
        # ---- fetcher state ----
        self._root_proven = False
        #: Verified child-digest maps: (level, index) -> {child index -> digest}.
        self._proven_children: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._reply_table: Dict[str, int] = {}
        #: Pages currently on the wire: page index -> proven digest.
        self._wanted: Dict[int, int] = {}
        #: Outstanding requests: (level, index) -> (replica or None, sent at).
        self._pending: Dict[Tuple[int, int], Tuple[Optional[str], float]] = {}
        #: The resumable cursor: validated page values and their digests.
        self._fetched: Dict[int, bytes] = {}
        self._fetched_digests: Dict[int, int] = {}
        #: Failed verifications per partition/page, for proof eviction.
        self._reject_counts: Dict[Tuple[int, int], int] = {}
        self._round_robin = 0
        self._started_at = 0.0
        # ---- server state ----
        self._serve_cache: Dict[int, _ServedCheckpoint] = {}

    # -------------------------------------------------------------- initiate
    def start(self, seq: int, state_digest: bytes) -> None:
        """Begin (or retarget) a fetch of the checkpoint at ``seq``."""
        replica = self.replica
        if seq <= replica.stable_checkpoint_seq:
            return
        if self.target_seq is not None:
            if seq <= self.target_seq:
                return
            # A newer checkpoint became stable while fetching: resume the
            # walk against the new digests, keeping the validated cursor.
            self.target_seq = seq
            self.target_digest = state_digest
            self.metrics.transfers_resumed += 1
            self._reset_walk()
            self._send_root_fetch()
            return
        self._begin(seq, state_digest)

    def restart(self, seq: int, state_digest: bytes) -> None:
        """Force a fresh transfer toward ``seq``, even if that checkpoint is
        already stable locally — proactive recovery uses this to re-fetch
        state whose local copy proved corrupt (Section 4.3.3).  The page
        diff then moves only the corrupted pages."""
        self._abandon()
        if seq <= 0:
            return
        self._begin(seq, state_digest)

    def _begin(self, seq: int, state_digest: bytes) -> None:
        replica = self.replica
        self.target_seq = seq
        self.target_digest = state_digest
        self.metrics.transfers_started += 1
        self._started_at = replica.env.now()
        self._reset_walk()
        self._fetched.clear()
        self._fetched_digests.clear()
        self._send_root_fetch()

    def _reset_walk(self) -> None:
        """Drop everything proven for the current target (the cursor of
        fetched pages is kept — resume revalidates it against the new
        digests)."""
        self._root_proven = False
        self._proven_children.clear()
        self._reply_table = {}
        self._wanted.clear()
        self._pending.clear()
        self._reject_counts.clear()

    @property
    def in_progress(self) -> bool:
        return self.target_seq is not None

    # ------------------------------------------------------------- requests
    def _send_root_fetch(self) -> None:
        replica = self.replica
        fetch = Fetch(
            level=0,
            index=0,
            last_checkpoint=replica.stable_checkpoint_seq,
            target_seq=self.target_seq,
            replica=replica.id,
            sender=replica.id,
        )
        self.metrics.fetch_messages += 1
        replica.auth.sign_multicast(fetch, replica.others())
        replica.env.broadcast(replica.others(), fetch)
        self._pending[(0, 0)] = (None, replica.env.now())

    def _request(self, level: int, index: int, expected: Optional[int] = None) -> None:
        """Ask one replica (round-robin) for a partition's metadata or, at
        the leaf level, for a page."""
        key = (level, index)
        if key in self._pending:
            return
        replica = self.replica
        others = replica.others()
        target = others[self._round_robin % len(others)]
        self._round_robin += 1
        if expected is not None:
            self._wanted[index] = expected
        fetch = Fetch(
            level=level,
            index=index,
            last_checkpoint=replica.stable_checkpoint_seq,
            target_seq=self.target_seq,
            designated_replier=target,
            replica=replica.id,
            sender=replica.id,
        )
        self.metrics.fetch_messages += 1
        replica.auth.sign_point_to_point(fetch, target)
        replica.env.send(target, fetch)
        self._pending[key] = (target, replica.env.now())

    def tick(self) -> None:
        """Periodic retry hook (driven by the replica's status timer): any
        request outstanding for longer than a status interval is re-issued
        to the next replica in round-robin order, so a crashed, partitioned
        or faulty sender cannot stall the transfer."""
        if self.target_seq is None:
            return
        replica = self.replica
        now = replica.env.now()
        interval = replica.config.status_interval
        stale = [
            key
            for key, (_target, sent_at) in self._pending.items()
            if now - sent_at >= interval
        ]
        for key in stale:
            level, index = key
            del self._pending[key]
            if level == 0:
                self._send_root_fetch()
            else:
                self._request(level, index)
        if not self._pending:
            if not self._root_proven:
                self._send_root_fetch()
            else:
                self._advance()

    # ---------------------------------------------------------------- handle
    def handle(self, message: Message) -> None:
        if isinstance(message, Fetch):
            self._handle_fetch(message)
        elif isinstance(message, MetaData):
            self._handle_metadata(message)
        elif isinstance(message, Data):
            self._handle_data(message)

    # ---------------------------------------------------------- server side
    def _choose_served_seq(self, message: Fetch) -> Optional[int]:
        """The checkpoint to answer a root fetch from: the *oldest* one at
        or above the requested target — the exact target whenever it is
        still held, so the fetcher's certificate applies directly; anything
        newer forces the fetcher to find its own certificate first."""
        replica = self.replica
        candidates = [
            seq
            for seq in replica.checkpoints
            if seq >= max(message.target_seq, 0) and seq >= message.last_checkpoint
        ]
        if not candidates:
            return None
        return min(candidates)

    def _handle_fetch(self, message: Fetch) -> None:
        replica = self.replica
        levels = replica.service.tree_levels
        if message.level < 0 or message.level >= levels:
            return
        if message.level == 0:
            seq = self._choose_served_seq(message)
        else:
            # Interior and leaf fetches are bound to the digests the
            # fetcher already proved for one specific checkpoint.
            seq = message.target_seq if message.target_seq in replica.checkpoints else None
        if seq is None:
            return
        if message.level == levels - 1:
            reply: Optional[Message] = self.build_data(seq, message.index)
        else:
            reply = self.build_metadata(seq, message.level, message.index)
        if reply is None:
            return
        replica.auth.sign_point_to_point(reply, message.replica)
        replica.env.send(message.replica, reply)

    def _served_tables(self, seq: int) -> Optional[_ServedCheckpoint]:
        replica = self.replica
        snapshot = replica.checkpoints.get(seq)
        if snapshot is None:
            return None
        cached = self._serve_cache.get(seq)
        if cached is None:
            service = replica.service
            page_digests = service.snapshot_page_digests(snapshot.service_snapshot)
            level_sums = {
                level: group_level_digests(
                    page_digests, level, service.tree_fanout, service.tree_levels
                )
                for level in range(1, service.tree_levels)
            }
            cached = self._serve_cache[seq] = _ServedCheckpoint(level_sums)
        return cached

    def discard_checkpoint(self, seq: int) -> None:
        """The replica dropped or replaced its record for ``seq``: forget the
        tables served from it (the cache never outgrows ``replica.checkpoints``)."""
        self._serve_cache.pop(seq, None)

    def build_metadata(self, seq: int, level: int, index: int) -> Optional[MetaData]:
        """The META-DATA reply for partition ``(level, index)`` at ``seq``:
        the digests of its sub-partitions (level-0 replies also carry the
        checkpoint's reply table, which the fetcher needs to recombine the
        certified state digest)."""
        replica = self.replica
        service = replica.service
        tables = self._served_tables(seq)
        if tables is None:
            return None
        levels = service.tree_levels
        fanout = service.tree_fanout
        if level < 0 or level >= levels - 1:
            return None
        child_digests = tables.level_sums[level + 1]
        if level == 0:
            children = child_digests
        else:
            children = {
                child: child_digest
                for child, child_digest in child_digests.items()
                if child // fanout == index
            }
        last_modified = seq if level + 1 == levels - 1 else 0
        entries = tuple(
            (child, last_modified, children[child].to_bytes(DIGEST_SIZE, "big"))
            for child in sorted(children)
        )
        reply_timestamps: Tuple[Tuple[str, int], ...] = ()
        if level == 0:
            snapshot = replica.checkpoints[seq]
            reply_timestamps = tuple(sorted(snapshot.last_reply_timestamp.items()))
        return MetaData(
            seq=seq,
            level=level,
            index=index,
            entries=entries,
            replica=replica.id,
            sender=replica.id,
            reply_timestamps=reply_timestamps,
        )

    def build_data(self, seq: int, index: int) -> Optional[Data]:
        """The DATA reply carrying one page of the checkpoint at ``seq``,
        encoded for this message alone."""
        snapshot = self.replica.checkpoints.get(seq)
        if snapshot is None:
            return None
        value = self.replica.service.snapshot_page_subset(
            snapshot.service_snapshot, (index,)
        ).get(index)
        if not value:
            return None
        return Data(
            index=index,
            last_modified=seq,
            page=value,
            seq=seq,
            sender=self.replica.id,
        )

    # --------------------------------------------------------- fetcher side
    def _certified_digest(self, seq: int) -> Optional[bytes]:
        """The digest this replica can *prove* for checkpoint ``seq``: the
        certificate the transfer started from, or a stable certificate
        collected in its own log."""
        if seq == self.target_seq:
            return self.target_digest
        record = self.replica.log.checkpoints.get(seq)
        if record is None:
            return None
        return record.stable_digest(self.replica._checkpoint_stability_threshold())

    def _handle_metadata(self, message: MetaData) -> None:
        if self.target_seq is None:
            return
        replica = self.replica
        fanout = replica.service.tree_fanout
        if message.seq != self.target_seq:
            # A sender no longer holding our target answered the root fetch
            # with a newer checkpoint: follow it only with certified proof.
            if message.level != 0 or message.seq < self.target_seq:
                return
            certified = self._certified_digest(message.seq)
            if certified is None:
                return
            self.target_seq = message.seq
            self.target_digest = certified
            self.metrics.transfers_resumed += 1
            self._reset_walk()
        if (message.level, message.index) in self._proven_children:
            # Duplicate reply (a retried request answered twice).
            return
        entries: Dict[int, int] = {}
        for index, _last_modified, digest_bytes in message.entries:
            entries[index] = int.from_bytes(digest_bytes, "big") % ADHASH_MODULUS
        total = 0
        for child_digest in entries.values():
            total = (total + child_digest) % ADHASH_MODULUS
        if message.level == 0:
            reply_table = dict(message.reply_timestamps)
            reply_sum = 0
            for client, timestamp in reply_table.items():
                reply_sum = (
                    reply_sum + reply_entry_digest(client, timestamp)
                ) % ADHASH_MODULUS
            if (
                combined_state_digest(service_root_digest(total), reply_sum)
                != self.target_digest
            ):
                # Does not recombine to the certified checkpoint digest:
                # the sender is faulty (or serving a different state).
                self.metrics.metadata_rejected += 1
                return
            self._reply_table = reply_table
            self._proven_children[(0, 0)] = entries
            self._root_proven = True
        else:
            proven = self._proven_children.get(
                (message.level - 1, message.index // fanout)
            )
            expected = proven.get(message.index) if proven is not None else None
            if expected is None or total != expected:
                # Unverifiable (we never proved this partition) or the
                # children do not sum to the proven partition digest.  If
                # every replica's reply has failed against this proof, the
                # proof itself (the parent's metadata) gets evicted.
                self.metrics.metadata_rejected += 1
                if expected is not None and self._note_bad_proof(
                    message.level, message.index
                ):
                    self._pending.pop((message.level, message.index), None)
                    if not self._pending:
                        self._advance()
                return
            self._proven_children[(message.level, message.index)] = entries
        self._pending.pop((message.level, message.index), None)
        self.metrics.metadata_messages += 1
        self.metrics.bytes_fetched += message.wire_size()
        self._advance()

    def _handle_data(self, message: Data) -> None:
        if self.target_seq is None or message.seq != self.target_seq:
            return
        expected = self._wanted.get(message.index)
        if expected is None:
            return
        leaf_level = self.replica.service.tree_levels - 1
        actual = content_page_digest(message.index, message.page)
        if actual != expected:
            # A corrupted page from a faulty sender: reject it (the cursor
            # keeps only validated pages) and re-ask the next replica.
            # Once every replica has failed to satisfy the proven digest,
            # the partition metadata that proved it is the suspect — evict
            # it and re-walk instead of re-asking forever.
            self.metrics.pages_rejected += 1
            self._pending.pop((leaf_level, message.index), None)
            if self._note_bad_proof(leaf_level, message.index):
                if not self._pending:
                    self._advance()
            else:
                self._request(leaf_level, message.index, expected=expected)
            return
        self._fetched[message.index] = message.page
        self._fetched_digests[message.index] = actual
        del self._wanted[message.index]
        self._pending.pop((leaf_level, message.index), None)
        self.metrics.pages_fetched += 1
        self.metrics.bytes_fetched += message.wire_size()
        if not self._pending:
            self._advance()

    # ------------------------------------------------------ proof eviction
    def _subtree_contains(
        self, level: int, index: int, child_level: int, child_index: int
    ) -> bool:
        fanout = self.replica.service.tree_fanout
        return child_index // fanout ** (child_level - level) == index

    def _evict_partition_proof(self, level: int, index: int) -> None:
        """Forget the proven children of partition ``(level, index)`` and
        every in-flight request or wanted page that depended on them.

        Interior digests are additive AdHash sums, so a faulty sender can
        fabricate child entries that sum to the proven parent but name
        page digests nobody can supply — every honest DATA reply would
        then fail verification forever.  After enough failures below a
        partition, its metadata is the prime suspect: drop it so the next
        walk re-fetches it from another replica.  The chain terminates at
        the root, which is always re-provable against the certificate.
        """
        self._proven_children.pop((level, index), None)
        service = self.replica.service
        span = pages_per_partition(level, service.tree_fanout, service.tree_levels)
        for page in [p for p in self._wanted if p // span == index]:
            del self._wanted[page]
        for key in [
            k for k in self._pending
            if k[0] > level and self._subtree_contains(level, index, *k)
        ]:
            del self._pending[key]
        for key in [
            k for k in self._reject_counts
            if k[0] > level and self._subtree_contains(level, index, *k)
        ]:
            del self._reject_counts[key]

    def _note_bad_proof(self, level: int, index: int) -> bool:
        """Record one failed verification at ``(level, index)``; once every
        replica has had a chance to answer it, evict the parent's proof
        and return True."""
        key = (level, index)
        count = self._reject_counts.get(key, 0) + 1
        if level > 0 and count >= len(self.replica.others()):
            fanout = self.replica.service.tree_fanout
            self._evict_partition_proof(level - 1, index // fanout)
            return True
        self._reject_counts[key] = count
        return False

    # ----------------------------------------------------------- tree walk
    def _advance(self) -> None:
        """Re-walk the proven digests against the local pages, issue the
        fetches still missing, and install once nothing is outstanding."""
        if self.target_seq is None or not self._root_proven:
            return
        if self._pending:
            return
        service = self.replica.service
        fanout = service.tree_fanout
        levels = service.tree_levels
        current = service.page_digests()
        local_by_level = {
            level: group_level_digests(current, level, fanout, levels)
            for level in range(1, levels)
        }
        local_children: Dict[int, Dict[int, List[int]]] = {}
        for level in range(2, levels):
            grouped: Dict[int, List[int]] = {}
            for index in local_by_level[level]:
                grouped.setdefault(index // fanout, []).append(index)
            local_children[level] = grouped

        updates: Dict[int, bytes] = {}
        removals: Set[int] = set()
        requests: List[Tuple[int, int]] = []
        wanted: Dict[int, int] = {}
        blocked = False
        skipped = 0

        root_children = self._proven_children[(0, 0)]
        stack: List[Tuple[int, int, int]] = [
            (1, index, root_children.get(index, 0))
            for index in set(root_children) | set(local_by_level[1])
        ]
        while stack:
            level, index, proven = stack.pop()
            local = local_by_level[level].get(index, 0)
            if local == proven:
                if proven:
                    # The whole subtree already matches the target: every
                    # local page under it is a page that never crosses the
                    # wire (the delta-fetch win the metrics report).
                    if level == levels - 1:
                        skipped += 1
                    else:
                        span = pages_per_partition(level, fanout, levels)
                        skipped += sum(
                            1 for page in current if page // span == index
                        )
                continue
            if level == levels - 1:
                if proven == 0:
                    removals.add(index)
                elif self._fetched_digests.get(index) == proven:
                    updates[index] = self._fetched[index]
                else:
                    wanted[index] = proven
                continue
            children = self._proven_children.get((level, index))
            if children is None:
                if proven == 0:
                    # The target holds nothing under this partition; every
                    # local page below it must go.
                    span = pages_per_partition(level, fanout, levels)
                    removals.update(
                        page for page in current if page // span == index
                    )
                else:
                    requests.append((level, index))
                    blocked = True
                continue
            child_indexes = set(children)
            child_indexes.update(local_children.get(level + 1, {}).get(index, ()))
            for child in child_indexes:
                stack.append((level + 1, child, children.get(child, 0)))

        for level, index in requests:
            self._request(level, index)
        for page, page_digest in wanted.items():
            self._request(levels - 1, page, expected=page_digest)
        if blocked or wanted or self._pending:
            return
        self._install(updates, removals, skipped)

    def _abandon(self) -> None:
        """Drop the transfer without installing anything."""
        self._reset_walk()
        self._fetched.clear()
        self._fetched_digests.clear()
        self.target_seq = None
        self.target_digest = None

    def _install(
        self, updates: Dict[int, bytes], removals: Set[int], skipped: int
    ) -> None:
        replica = self.replica
        seq = self.target_seq
        state_digest = self.target_digest
        if seq < replica.stable_checkpoint_seq:
            # The replica outran the transfer on its own (its stable
            # checkpoint moved past the target while pages were in flight);
            # batches at or below the new stable mark are garbage collected,
            # so installing the old state would strand it.  Nothing to do.
            self._abandon()
            return
        duration = replica.env.now() - self._started_at
        installed = replica.install_fetched_pages(
            seq, state_digest, updates, removals, self._reply_table
        )
        if not installed:
            # Defensive: the assembled state failed the certified digest
            # check (every page was individually verified, so this should
            # be unreachable).  Drop the cursor and restart from the root —
            # the diff against the now-current local pages self-heals.
            self._reset_walk()
            self._fetched.clear()
            self._fetched_digests.clear()
            self._send_root_fetch()
            return
        self.metrics.transfers_completed += 1
        self.metrics.pages_skipped_local += skipped
        self.metrics.last_transfer_duration = duration
        self.metrics.total_transfer_time += duration
        recovery = replica.recovery
        self._abandon()
        if recovery is not None:
            recovery.on_state_fetched(seq)
        # Chain straight to any checkpoint certified while this transfer
        # was in flight (after the wind-down, so a restart is not wiped).
        replica.recheck_newer_checkpoints(seq)
