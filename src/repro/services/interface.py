"""The service interface (the ``execute`` upcall of Section 6.2).

Every replicated service derives from the one :class:`Service` class.  A
service implements:

* ``execute(operation, client, nondet, read_only)`` — run one operation and
  return its result, mirroring the library's ``execute`` upcall;
* ``propose_nondet(now)`` — the primary-side hook that chooses
  non-deterministic values for a batch (Section 5.4);
* ``check_nondet(...)`` — the backup-side validity check for those values;
* the page hooks below, from which the base class builds ``state_digest``,
  ``snapshot``/``restore`` (checkpoints, tentative-execution rollback) and
  the page surface state transfer reads and writes.

Dirty-page contract (Section 5.3.1)
-----------------------------------

* the service maps its state onto integer-indexed *pages* and calls
  :meth:`Service._touch` with the page index on **every** mutation;
* ``state_digest()`` then only re-encodes and re-hashes the pages touched
  since the last digest/snapshot — the digests of clean pages live in a
  persistent :class:`~repro.statetransfer.partition_tree.PartitionTree`
  (content-digest mode) whose root is maintained incrementally.  The tree
  keeps a page as an immutable *payload* sharing the service's own objects
  (the KV store: a bucket's sorted ``(key, value)`` pairs); its encoding
  exists only while it is hashed or a DATA message / migrated bucket is built;
* ``snapshot()`` is a copy-on-write partition-tree checkpoint: only dirty
  pages are captured, and the returned :class:`PageSnapshot` handle is
  immune to later mutation of the service;
* ``restore()`` accepts both a :class:`PageSnapshot` handle and the
  *portable* (plain-object) form produced by :meth:`Service.export_snapshot`;
* handles are refcounted: the replica calls
  ``acquire_snapshot``/``release_snapshot`` as checkpoint records are
  shared and garbage-collected, which lets the tree fold dead
  copy-on-write copies away.

Subclasses provide the hooks ``_page_payload``, ``_page_indexes``,
``_state_from_payloads``, ``_payloads_from_portable``, ``_import_payload``,
``_export_state`` and ``_import_state`` — plus ``_encode_payload`` /
``_decode_payload`` unless payloads are bytes (``NullService`` and
``CounterService`` inherit the identity defaults) — and the base class
supplies digesting, snapshots, restore and ``pages()``.

Page-level state transfer (Section 5.3.2)
-----------------------------------------

State transfer moves the pages that differ, and nothing else:

* :meth:`Service.page_digests` — the current per-page content digests
  (what the fetcher diffs proven META-DATA entries against);
* :meth:`Service.snapshot_pages` / ``snapshot_page_subset`` /
  ``snapshot_page_digests`` — the page encodings and content digests of a
  checkpoint snapshot (what a replica serves FETCH requests from), read
  from the partition tree's records when the snapshot is a live
  copy-on-write handle and rebuilt from the portable state otherwise
  (a handle detached by a restore) — both forms are byte-identical;
* :meth:`Service.install_pages` — install fetched pages
  *individually*, so a transfer replaces only out-of-date pages instead
  of rebuilding the whole state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple
)

from repro.statetransfer.partition_tree import (
    ADHASH_MODULUS,
    PageRecord,
    PartitionTree,
    content_page_digest,
)
from repro.statetransfer.transfer import service_root_digest


@dataclass
class ExecutionResult:
    """Result of executing one operation."""

    result: bytes
    #: True when the operation did not modify the service state; used by the
    #: read-only check of Section 5.1.3.
    was_read_only: bool = False


#: One operation of a batch handed to :meth:`Service.execute_batch`:
#: ``(operation, client)``.
BatchOp = Tuple[bytes, str]


class PageSnapshot:
    """Opaque copy-on-write snapshot handle returned by
    :meth:`Service.snapshot`.

    The handle references a partition-tree checkpoint inside its owning
    service; :meth:`materialize` resolves it to the portable state, caching
    the result so the handle stays valid even after the owner's tree is
    reset by a restore.
    """

    __slots__ = ("owner", "snap_id", "refs", "_portable", "_materialized")

    def __init__(self, owner: "Service", snap_id: int) -> None:
        self.owner = owner
        self.snap_id = snap_id
        self.refs = 1
        self._portable: object = None
        self._materialized = False

    def materialize(self) -> object:
        """The portable state captured by this snapshot (cached)."""
        if not self._materialized:
            self._portable = self.owner._materialize_snapshot(self.snap_id)
            self._materialized = True
        return self._portable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PageSnapshot(id={self.snap_id}, refs={self.refs}, "
            f"materialized={self._materialized})"
        )


class Service:
    """Base class for deterministic replicated services.

    See the module docstring for the dirty-page contract.  Subclasses
    implement ``execute``, call :meth:`_touch` on every mutation and
    implement the ``_``-hooks below; everything else — incremental digests,
    copy-on-write snapshots, refcounted handles, portable export and the
    page-level transfer surface — is inherited.
    """

    #: Geometry of the backing partition tree.  Pages here are logical
    #: hash buckets whose encodings grow with the records mapped to them,
    #: so the tree's size cap is disabled.
    tree_fanout: int = 256
    tree_levels: int = 3

    def __init__(self) -> None:
        #: Monotonic mutation counter: bumped on every state mutation
        #: (including restores), never by digest/snapshot work.  Unlike the
        #: dirty set — which any flush clears — it survives intermediate
        #: ``state_digest()``/``snapshot()`` calls, so the replica compares
        #: it across checkpoint boundaries to prove "unchanged since the
        #: last checkpoint".
        self.state_version = 0
        self._tree = self._new_tree()
        self._dirty: set[int] = set()
        #: Pages that exist at construction are only discoverable once the
        #: subclass has initialised its state, so the dirty set is seeded
        #: from ``_page_indexes()`` lazily, on the first flush.
        self._dirty_seeded = False
        self._snap_counter = 0
        #: Live copy-on-write handles by snapshot id.
        self._snapshots: Dict[int, PageSnapshot] = {}

    def _new_tree(self) -> PartitionTree:
        return PartitionTree(
            page_size=None,
            fanout=self.tree_fanout,
            levels=self.tree_levels,
            content_digests=True,
            encode=self._encode_payload,
        )

    # ------------------------------------------------------------- execution
    def execute(
        self,
        operation: bytes,
        client: str,
        nondet: bytes = b"",
        read_only: bool = False,
    ) -> ExecutionResult:
        raise NotImplementedError

    def execute_batch(
        self, ops: Sequence[BatchOp], nondet: bytes = b""
    ) -> List[ExecutionResult]:
        """Execute one committed batch of operations in order.

        Must behave exactly like calling :meth:`execute` once per entry
        (same results, same final state, same ``state_version`` total):
        replicas execute every committed batch through this method, and
        read-only requests through :meth:`execute`.
        Subclasses override to amortize per-operation work: dirty-set and
        mutation-counter bookkeeping.  The default is the per-op fallback.
        """
        return [
            self.execute(operation, client, nondet=nondet)
            for operation, client in ops
        ]

    def is_read_only(self, operation: bytes) -> bool:
        """Service-specific check that an operation really is read-only.

        A faulty client could mark a mutating request read-only; replicas
        call this before executing it via the read-only path.
        """
        return False

    # -------------------------------------------------------- non-determinism
    def propose_nondet(self, now: float) -> bytes:
        """Primary hook: propose non-deterministic values for a batch."""
        return b""

    def check_nondet(self, nondet: bytes, now: float) -> bool:
        """Backup hook: decide deterministically whether the primary's
        proposed value is acceptable."""
        return True

    # ------------------------------------------------------------- corruption
    def corrupt(self) -> None:
        """Deliberately corrupt the state (fault injection for recovery
        tests); implementations mutate through :meth:`_touch` like any
        operation."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support corruption injection"
        )

    # ----------------------------------------------------- subclass contract
    def _page_payload(self, index: int) -> Any:
        """The content of one page as an immutable value that shares the
        service's own objects; falsy when the page holds nothing."""
        raise NotImplementedError

    def _encode_payload(self, payload: Any) -> bytes:
        """Canonical encoding of a payload — the bytes hashed and shipped
        (``b""`` for an empty page).  Identity: payloads that are bytes."""
        return payload

    def _decode_payload(self, value: bytes) -> Any:
        """Inverse of :meth:`_encode_payload` for bytes from another
        replica; a malformed page is a ``ValueError``."""
        return value

    def _page_indexes(self) -> Iterable[int]:
        """Indexes of every page that currently holds content."""
        raise NotImplementedError

    def _state_from_payloads(self, payloads: Dict[int, Any]) -> object:
        """Assemble page payloads into portable state."""
        raise NotImplementedError

    def _export_state(self) -> object:
        """A portable copy of the current native state."""
        raise NotImplementedError

    def _import_state(self, state: object) -> None:
        """Replace the native state with a portable copy."""
        raise NotImplementedError

    def _import_payload(self, index: int, payload: Any) -> None:
        """Replace the native content of one page; a falsy payload empties
        it.  Must not call ``_touch`` — :meth:`install_pages` does."""
        raise NotImplementedError

    def _payloads_from_portable(
        self, state: Any, wanted: Optional[Set[int]] = None
    ) -> Dict[int, Any]:
        """The non-empty page payloads of a portable state copy (what
        ``export_snapshot`` returns); ``wanted`` lets a service skip the
        pages nobody asked for.  Must equal what ``_page_payload`` yields
        after importing ``state`` — state transfer relies on it."""
        raise NotImplementedError

    def _encode_page(self, index: int) -> bytes:
        """One current page encoded from scratch, past the tree (the tests'
        reference)."""
        return self._encode_payload(self._page_payload(index))

    def _encoded(self, payloads: Mapping[int, Any]) -> Dict[int, bytes]:
        encode = self._encode_payload
        return {index: encode(payload) for index, payload in payloads.items()}

    # --------------------------------------------------------- dirty tracking
    def _touch(self, index: int) -> None:
        self.state_version += 1
        self._dirty.add(index)

    def _apply_batch_dirty(self, indexes: Iterable[int], mutations: int) -> None:
        """One dirty-set/``state_version`` bookkeeping pass for a batch.

        Equivalent to ``mutations`` individual :meth:`_touch` calls whose
        indexes union to ``indexes`` — ``execute_batch`` implementations
        accumulate locally and apply once, so a 64-operation batch costs
        one set union and one counter add instead of 64."""
        if mutations:
            self.state_version += mutations
            self._dirty.update(indexes)

    def dirty_pages(self) -> FrozenSet[int]:
        return frozenset(self._dirty)

    def _flush(self) -> None:
        """Write the dirty pages' payloads into the tree, which encodes
        each just long enough to hash it (incremental rehash)."""
        if not self._dirty_seeded:
            self._dirty.update(self._page_indexes())
            self._dirty_seeded = True
        if not self._dirty:
            return
        tree = self._tree
        for index in self._dirty:
            tree.write_page(index, self._page_payload(index))
        self._dirty.clear()

    # ---------------------------------------------------------------- digest
    def state_digest(self) -> bytes:
        self._flush()
        return service_root_digest(self._tree.root_digest())

    def _scratch_root(self) -> int:
        """From-scratch recompute of the root digest: what the property
        tests compare the incremental value against."""
        total = 0
        for index in self._page_indexes():
            total = (total + content_page_digest(index, self._encode_page(index)))
        return total % ADHASH_MODULUS

    # ------------------------------------------------------------- snapshots
    def snapshot(self) -> object:
        self._flush()
        self._snap_counter += 1
        snap_id = self._snap_counter
        self._tree.take_checkpoint(snap_id)
        handle = PageSnapshot(self, snap_id)
        self._snapshots[snap_id] = handle
        return handle

    def acquire_snapshot(self, snapshot: PageSnapshot) -> PageSnapshot:
        if snapshot.snap_id in self._snapshots:
            snapshot.refs += 1
        return snapshot

    def release_snapshot(self, snapshot: PageSnapshot) -> None:
        live = self._snapshots.get(snapshot.snap_id)
        if live is not snapshot:
            # Detached by a tree reset (or foreign): nothing to reclaim.
            return
        snapshot.refs -= 1
        if snapshot.refs <= 0:
            del self._snapshots[snapshot.snap_id]
            self._tree.discard_checkpoint(snapshot.snap_id)

    def export_snapshot(self, snapshot: object) -> object:
        if isinstance(snapshot, PageSnapshot):
            return snapshot.materialize()
        return snapshot

    def restore(self, snapshot: object) -> None:
        self._import_state(self.export_snapshot(snapshot))
        self._reset_tree()

    def _checkpoint_records(
        self, snap_id: int, indexes: Optional[Iterable[int]] = None
    ) -> Iterator[PageRecord]:
        """The non-empty page records of a tree checkpoint (copy-on-write
        walk), all of them or only ``indexes``; shared by snapshot
        materialization and page serving."""
        tree = self._tree
        for index in tree.known_page_indexes() if indexes is None else indexes:
            record = tree.page_at_checkpoint(index, snap_id)
            if record is not None and record.value:
                yield record

    def _materialize_snapshot(self, snap_id: int) -> object:
        """Resolve a tree checkpoint to portable state (copy-on-write walk)."""
        return self._state_from_payloads(
            {r.index: r.value for r in self._checkpoint_records(snap_id)}
        )

    def _reset_tree(self) -> None:
        """Discard the tree after a wholesale state replacement.

        Live handles are materialized first so older checkpoint records
        (still referenced by the replica for state-transfer serving) keep
        working after their backing tree copies disappear.
        """
        for handle in self._snapshots.values():
            handle.materialize()
        self._snapshots.clear()
        self._tree = self._new_tree()
        self.state_version += 1
        self._dirty = set(self._page_indexes())
        self._dirty_seeded = True

    # ------------------------------------------------------------------ pages
    def pages(self) -> Dict[int, bytes]:
        self._flush()
        return self._encoded({i: v for i, v in self._tree.page_items() if v})

    def load_pages(self, pages: Dict[int, bytes]) -> None:
        decode = self._decode_payload
        self._import_state(self._state_from_payloads(
            {index: decode(value) for index, value in pages.items()}
        ))
        self._reset_tree()

    # ------------------------------------------------- page-level transfer
    def page_digests(self) -> Dict[int, int]:
        """Sparse map of page index -> content digest of the *current*
        state, read out of the partition tree."""
        self._flush()
        return self._tree.digest_items()

    def _live_snap_id(self, snapshot: object) -> Optional[int]:
        """The tree checkpoint behind a snapshot handle this service still
        holds; ``None`` for a portable snapshot or a handle detached by a
        tree reset."""
        if (
            isinstance(snapshot, PageSnapshot)
            and snapshot.owner is self
            and self._snapshots.get(snapshot.snap_id) is snapshot
        ):
            return snapshot.snap_id
        return None

    def _snapshot_payloads(
        self, snapshot: object, wanted: Optional[Set[int]] = None
    ) -> Dict[int, Any]:
        """The non-empty page payloads a snapshot captured, all or only
        ``wanted``: the tree's records for a live handle (O(wanted), not
        O(store)), regrouped from the portable state otherwise — equal."""
        snap_id = self._live_snap_id(snapshot)
        if snap_id is not None:
            return {r.index: r.value for r in self._checkpoint_records(snap_id, wanted)}
        payloads = self._payloads_from_portable(self.export_snapshot(snapshot), wanted)
        if wanted is None:
            return payloads
        return {index: payloads[index] for index in wanted.intersection(payloads)}

    def snapshot_pages(self, snapshot: object) -> Dict[int, bytes]:
        """The page encodings captured by a snapshot, encoded on demand."""
        return self._encoded(self._snapshot_payloads(snapshot))

    def snapshot_page_subset(
        self, snapshot: object, indexes: Iterable[int]
    ) -> Dict[int, bytes]:
        """The page encodings of just ``indexes`` captured by a snapshot —
        what one DATA reply and bucket-range migration serve.  Byte-identical
        to filtering :meth:`snapshot_pages`."""
        return self._encoded(self._snapshot_payloads(snapshot, set(indexes)))

    def snapshot_page_digests(self, snapshot: object) -> Dict[int, int]:
        """Page index -> content digest as of a snapshot (what META-DATA
        replies are built from).  A live handle reads the digests the tree's
        records already hold at that checkpoint and hashes nothing; a
        portable snapshot is encoded and hashed from scratch — same values."""
        snap_id = self._live_snap_id(snapshot)
        if snap_id is not None:
            return {r.index: r.digest for r in self._checkpoint_records(snap_id)}
        return {
            index: content_page_digest(index, page)
            for index, page in self.snapshot_pages(snapshot).items()
        }

    def install_pages(
        self, updates: Mapping[int, bytes], removals: Iterable[int] = ()
    ) -> None:
        """Install a fetched page delta: drop ``removals``, then import
        ``updates``.  Pages not named are left untouched — the caller has
        already proven they match the target state.  All are decoded before
        any is installed (a malformed one leaves the state as it was); each
        install marks the page dirty and advances ``state_version``, so
        digests stay incremental and checkpoint reuse can never mask it."""
        decode = self._decode_payload
        installs = [(index, decode(b"")) for index in sorted(removals)]
        installs += [(index, decode(updates[index])) for index in sorted(updates)]
        for index, payload in installs:
            self._import_payload(index, payload)
            self._touch(index)
