"""Hierarchical state partitions with incremental digests (Section 5.3.1).

The service state is divided into fixed-size pages (the leaves); interior
partitions group ``fanout`` children each.  Every partition stores the
sequence number of the checkpoint at the end of the last checkpoint epoch
in which it was modified and a digest; page digests hash the page contents
together with the page index and last-modified number, and meta-data
digests combine child digests with modular addition (AdHash), so a parent
digest can be updated incrementally when one child changes.

Checkpoints are logical copies implemented with copy-on-write: taking a
checkpoint records only the pages modified since the previous one.

Two digest modes are supported:

* the default (historical) mode hashes each page together with its
  last-modified checkpoint number, exactly as in Section 5.3.1; it is what
  the partition-tree benchmarks (experiments E7 and E8) measure;
* ``content_digests=True`` hashes page contents only, so the root digest is
  a pure function of the current state — independent of *when* pages were
  written.  Digests and the root are maintained eagerly in
  :meth:`write_page`, an empty page contributes nothing (writing ``b""``
  deletes a page for digest purposes), and :meth:`take_checkpoint` only has
  to record copy-on-write snapshots of the dirty pages.  A checkpoint holds
  the working record itself, not a copy of it, and a captured record never
  changes: ``write_page`` replaces the working record instead.  This mode
  backs the incremental ``state_digest``/``snapshot`` implementation of
  :class:`repro.services.interface.Service`, which stores each page
  as an opaque immutable *payload* (truthy unless the page is empty) and
  supplies the ``encode`` function that turns one into the bytes its digest
  hashes; the tree holds the payload and the digest, never the encoding.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: Modulus used by the AdHash combination of child digests.  Public so the
#: replica's incremental reply-table digest can reuse the same group.
ADHASH_MODULUS = 2 ** 128 - 159
_ADHASH_MODULUS = ADHASH_MODULUS


def _page_digest(index: int, last_modified: int, value: bytes) -> int:
    data = f"{index}:{last_modified}:".encode() + value
    return int.from_bytes(hashlib.sha256(data).digest()[:16], "big")


def content_page_digest(index: int, value: bytes) -> int:
    """Content-only page digest: a pure function of ``(index, value)``.

    An empty page contributes ``0`` so that a page written and later
    emptied is indistinguishable from one that never existed — which is
    what makes the incremental root digest equal a from-scratch recompute
    over only the populated pages.
    """
    if not value:
        return 0
    data = f"{index}:".encode() + value
    return int.from_bytes(hashlib.sha256(data).digest()[:16], "big")


def _combine(child_digests: Iterable[int]) -> int:
    total = 0
    for child in child_digests:
        total = (total + child) % _ADHASH_MODULUS
    return total


def pages_per_partition(level: int, fanout: int, levels: int) -> int:
    """How many pages one partition at ``level`` covers (1 at the leaf
    level, ``fanout`` one level up, and so on to the root)."""
    return fanout ** (levels - 1 - level)


def partition_of(page_index: int, level: int, fanout: int, levels: int) -> int:
    """Index of the partition at ``level`` that contains ``page_index``."""
    return page_index // pages_per_partition(level, fanout, levels)


def group_level_digests(
    page_digests: Mapping[int, int], level: int, fanout: int, levels: int
) -> Dict[int, int]:
    """Partition digests at ``level`` from a sparse page-digest map.

    The digest of an interior partition is the AdHash sum of the page
    digests it covers, exactly the quantity META-DATA replies prove during
    hierarchical state transfer; an empty partition has digest 0 and is
    omitted.  At the leaf level this is the identity map.
    """
    span = pages_per_partition(level, fanout, levels)
    if span == 1:
        return {index: d for index, d in page_digests.items() if d}
    grouped: Dict[int, int] = {}
    for page_index, page_digest in page_digests.items():
        index = page_index // span
        grouped[index] = (grouped.get(index, 0) + page_digest) % _ADHASH_MODULUS
    return {index: d for index, d in grouped.items() if d}


@dataclass(slots=True)
class PageRecord:
    """State of one page in the working tree or a checkpoint copy.

    ``last_modified`` is ``-1`` until a checkpoint captures the record.  In
    content-digest mode a record is not changed once a checkpoint holds it.
    """

    index: int
    last_modified: int
    value: Any  # bytes, or the payload ``encode`` turns into them
    digest: int


@dataclass
class CheckpointCopy:
    """A copy-on-write checkpoint: only pages modified since the previous
    checkpoint are stored; unmodified pages are found in older copies."""

    seq: int
    root_digest: int
    #: Pages captured by this checkpoint (page index -> record).
    pages: Dict[int, PageRecord] = field(default_factory=dict)


@dataclass
class TransferPlan:
    """What a state transfer would move: produced by :meth:`PartitionTree.plan_transfer`."""

    out_of_date_pages: List[int]
    pages_transferred: int
    bytes_transferred: int
    metadata_messages: int


class PartitionTree:
    """The hierarchical partition tree for one replica's service state."""

    def __init__(
        self,
        page_size: Optional[int] = 4096,
        fanout: int = 256,
        levels: int = 3,
        content_digests: bool = False,
        encode: Optional[Callable[[Any], bytes]] = None,
    ) -> None:
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if levels < 2:
            raise ValueError("the tree needs at least a root and a leaf level")
        #: ``None`` disables the size cap: content-digest trees store
        #: variable-length logical buckets rather than fixed wire pages.
        self.page_size = page_size
        self.fanout = fanout
        self.levels = levels
        self.content_digests = content_digests
        #: Content mode: page value -> the bytes hashed (``None``: identity).
        self._encode = encode
        self._pages: Dict[int, PageRecord] = {}
        self._dirty: set[int] = set()
        self._checkpoints: Dict[int, CheckpointCopy] = {}
        #: Checkpoint sequence numbers in ascending order, maintained so the
        #: copy-on-write walks need no per-call sort.
        self._checkpoint_order: List[int] = []
        #: Leaf metadata memoized per checkpoint seq; invalidated whenever a
        #: checkpoint is taken, discarded, or state is installed.
        self._metadata_cache: Dict[int, Dict[int, Tuple[int, int]]] = {}
        self._last_checkpoint_seq = 0
        self._root_digest = 0

    # ------------------------------------------------------------------ pages
    @property
    def capacity_pages(self) -> int:
        """Maximum number of pages addressable by the tree."""
        return self.fanout ** (self.levels - 1)

    def write_page(self, index: int, value: Any) -> None:
        if index < 0 or index >= self.capacity_pages:
            raise IndexError(f"page index {index} out of range")
        if self.page_size is not None and len(value) > self.page_size:
            raise ValueError("page value exceeds the page size")
        record = self._pages.get(index)
        if record is not None and record.value == value:
            return
        self._dirty.add(index)
        if self.content_digests:
            # Content mode: digests depend only on (index, value), so the
            # page digest and the root can be maintained right here and
            # ``take_checkpoint`` never has to rehash anything.
            new_digest = content_page_digest(
                index, value if self._encode is None else self._encode(value)
            )
            old_digest = 0 if record is None else record.digest
            self._pages[index] = PageRecord(
                index=index, last_modified=-1, value=value, digest=new_digest
            )
            self._root_digest = (
                self._root_digest - old_digest + new_digest
            ) % _ADHASH_MODULUS
            return
        if record is None:
            self._pages[index] = PageRecord(
                index=index, last_modified=-1, value=value, digest=0
            )
        else:
            # Keep the old digest until the next checkpoint so the
            # incremental root update can subtract it.
            record.value = value

    def read_page(self, index: int) -> Any:
        record = self._pages.get(index)
        return record.value if record is not None else None

    def page_count(self) -> int:
        return len(self._pages)

    def page_items(self) -> Iterable[Tuple[int, Any]]:
        """Iterate over ``(index, value)`` for every page currently stored."""
        for index, record in self._pages.items():
            yield index, record.value

    def digest_items(self) -> Dict[int, int]:
        """Sparse map of page index -> current page digest (non-empty pages
        only).  In content-digest mode the values are maintained eagerly by
        :meth:`write_page`, so this costs no hashing."""
        return {
            index: record.digest
            for index, record in self._pages.items()
            if record.value
        }

    # ------------------------------------------------------------ checkpoints
    def take_checkpoint(self, seq: int) -> CheckpointCopy:
        """Create the checkpoint for sequence number ``seq``.

        Digests of unmodified pages are reused; only dirty pages are
        re-hashed and captured, which is what makes checkpoint creation
        cheap when the working set between checkpoints is small (Section
        8.4.1).
        """
        if seq <= self._last_checkpoint_seq and self._checkpoints:
            raise ValueError("checkpoint sequence numbers must increase")
        modified: Dict[int, PageRecord] = {}
        if self.content_digests:
            # Digests and the root are already current (maintained by
            # write_page); only the copy-on-write capture remains.  The
            # copy shares the working record.  A record some copy already
            # stamped (a page re-captured after its newest copy was
            # discarded) is copied instead, so no captured record changes.
            pages = self._pages
            for index in sorted(self._dirty):
                record = pages[index]
                if record.last_modified < 0:
                    record.last_modified = seq
                else:
                    record = pages[index] = PageRecord(
                        index=index,
                        last_modified=seq,
                        value=record.value,
                        digest=record.digest,
                    )
                modified[index] = record
        else:
            old_digest_sum = 0
            new_digest_sum = 0
            for index in sorted(self._dirty):
                record = self._pages[index]
                old_digest_sum = (old_digest_sum + record.digest) % _ADHASH_MODULUS
                record.last_modified = seq
                record.digest = _page_digest(index, seq, record.value)
                new_digest_sum = (new_digest_sum + record.digest) % _ADHASH_MODULUS
                modified[index] = PageRecord(
                    index=index,
                    last_modified=seq,
                    value=record.value,
                    digest=record.digest,
                )
            # Incremental root update: subtract old page digests, add new ones.
            self._root_digest = (
                self._root_digest - old_digest_sum + new_digest_sum
            ) % _ADHASH_MODULUS
        copy = CheckpointCopy(seq=seq, root_digest=self._root_digest, pages=modified)
        self._checkpoints[seq] = copy
        insort(self._checkpoint_order, seq)
        self._metadata_cache.clear()
        self._last_checkpoint_seq = seq
        self._dirty.clear()
        return copy

    def discard_checkpoints_before(self, seq: int) -> None:
        """Garbage-collect checkpoint copies older than ``seq``.

        Pages captured only by discarded copies are folded into the oldest
        surviving copy so page lookups keep working.
        """
        surviving = [s for s in self._checkpoint_order if s >= seq]
        discarded = [s for s in self._checkpoint_order if s < seq]
        if not discarded:
            return
        self._metadata_cache.clear()
        self._checkpoint_order = surviving
        if not surviving:
            for old in discarded:
                del self._checkpoints[old]
            return
        target = self._checkpoints[surviving[0]]
        for old in discarded:
            for index, record in self._checkpoints[old].pages.items():
                target.pages.setdefault(index, record)
            del self._checkpoints[old]

    def discard_checkpoint(self, seq: int) -> None:
        """Garbage-collect one specific checkpoint copy.

        Pages captured only by this copy are folded into its immediate
        successor (there is no surviving copy in between, so a lookup at any
        later checkpoint still finds the same value).  When the copy is the
        newest one there is no successor to fold into, but its captured
        records are still the base layer that *future* checkpoints will
        walk back into for pages left untouched in between — so those page
        indexes are marked dirty, which makes the next ``take_checkpoint``
        re-capture their current (identical) values.  In content-digest
        mode the re-capture is digest-neutral.  Used by the refcounted
        snapshot handles of :class:`repro.services.interface.Service`,
        where snapshots are released out of order (tentative-execution
        snapshots die young while older checkpoint snapshots live on).
        """
        copy = self._checkpoints.get(seq)
        if copy is None:
            return
        self._metadata_cache.clear()
        position = self._checkpoint_order.index(seq)
        del self._checkpoint_order[position]
        if position < len(self._checkpoint_order):
            successor = self._checkpoints[self._checkpoint_order[position]]
            if len(copy.pages) > len(successor.pages):
                # Fold the smaller map into the larger one: the oldest copy
                # holds every page ever loaded, its successor a few dirty
                # ones.  The successor's records still win.
                copy.pages.update(successor.pages)
                successor.pages = copy.pages
            else:
                for index, record in copy.pages.items():
                    successor.pages.setdefault(index, record)
        else:
            self._dirty.update(copy.pages)
        del self._checkpoints[seq]

    def checkpoint_seqs(self) -> Tuple[int, ...]:
        return tuple(self._checkpoint_order)

    def root_digest(self, seq: Optional[int] = None) -> int:
        if seq is None:
            return self._root_digest
        return self._checkpoints[seq].root_digest

    def page_at_checkpoint(self, index: int, seq: int) -> Optional[PageRecord]:
        """The value of a page as of checkpoint ``seq`` (walking copies back
        in time, copy-on-write style)."""
        position = bisect_right(self._checkpoint_order, seq)
        for checkpoint_seq in reversed(self._checkpoint_order[:position]):
            record = self._checkpoints[checkpoint_seq].pages.get(index)
            if record is not None:
                return record
        # Never modified since tracking began: current value (if any, and if
        # it was already checkpointed).
        record = self._pages.get(index)
        if record is not None and 0 <= record.last_modified <= seq:
            return record
        return None

    def known_page_indexes(self) -> set:
        """Every page index the tree has a record for, in the working state
        or in any checkpoint copy."""
        indexes = set(self._pages)
        for copy in self._checkpoints.values():
            indexes.update(copy.pages)
        return indexes

    # -------------------------------------------------------- partition meta
    def metadata_at_checkpoint(self, seq: int) -> Dict[int, Tuple[int, int]]:
        """Leaf-level metadata at a checkpoint: page index -> (last-modified,
        digest).  This is what META-DATA replies carry during state
        transfer."""
        cached = self._metadata_cache.get(seq)
        if cached is not None:
            return dict(cached)
        result: Dict[int, Tuple[int, int]] = {}
        for index in self.known_page_indexes():
            record = self.page_at_checkpoint(index, seq)
            if record is not None:
                result[index] = (record.last_modified, record.digest)
        self._metadata_cache[seq] = result
        return dict(result)

    # ---------------------------------------------------------- state transfer
    def plan_transfer(self, source: "PartitionTree", seq: int) -> TransferPlan:
        """Compute what must be fetched to bring *this* tree up to the state
        ``source`` had at checkpoint ``seq``.

        Mirrors the recursive fetch of Section 5.3.2: compare partition
        digests level by level and fetch only pages that differ.  Returns
        the work involved (pages and bytes moved, meta-data messages
        exchanged) so benchmarks can report transfer costs.
        """
        source_meta = source.metadata_at_checkpoint(seq)
        metadata_messages = 1  # the root/leaf-level metadata reply
        out_of_date: List[int] = []
        bytes_transferred = 0
        for index, (last_modified, digest_value) in sorted(source_meta.items()):
            mine = self._pages.get(index)
            if mine is not None and mine.digest == digest_value:
                continue
            record = source.page_at_checkpoint(index, seq)
            if record is None:
                continue
            out_of_date.append(index)
            bytes_transferred += len(record.value)
        return TransferPlan(
            out_of_date_pages=out_of_date,
            pages_transferred=len(out_of_date),
            bytes_transferred=bytes_transferred,
            metadata_messages=metadata_messages,
        )

    def apply_transfer(self, source: "PartitionTree", seq: int) -> TransferPlan:
        """Fetch out-of-date pages from ``source`` (at checkpoint ``seq``) and
        install them, then recompute the root digest."""
        plan = self.plan_transfer(source, seq)
        for index in plan.out_of_date_pages:
            record = source.page_at_checkpoint(index, seq)
            if record is None:
                continue
            self._pages[index] = PageRecord(
                index=index,
                last_modified=record.last_modified,
                value=record.value,
                digest=record.digest,
            )
            self._dirty.discard(index)
        self._metadata_cache.clear()
        self._root_digest = _combine(r.digest for r in self._pages.values())
        return plan

    # -------------------------------------------------------------- integrity
    def verify_against(self, other: "PartitionTree", seq: int) -> List[int]:
        """Return the indexes of pages whose digests differ from ``other`` at
        checkpoint ``seq`` — the state-checking pass a recovering replica
        runs (Section 5.3.3)."""
        other_meta = other.metadata_at_checkpoint(seq)
        mismatches = []
        for index, (last_modified, digest_value) in other_meta.items():
            mine = self._pages.get(index)
            if mine is None or mine.digest != digest_value:
                mismatches.append(index)
        return sorted(mismatches)
