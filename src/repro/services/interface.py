"""The service interface (the ``execute`` upcall of Section 6.2).

Every replicated service derives from the one :class:`Service` class.  A
service implements:

* ``execute(operation, client, nondet, read_only)`` — run one operation and
  return its result bytes, mirroring the library's ``execute`` upcall; it is
  the only place a service states its operations (a committed batch is
  :meth:`Service.execute_batch`, a loop over it);
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
  whose root is maintained incrementally.  The tree
  keeps a page as an immutable *payload* sharing the service's own objects
  (the KV store: a bucket's sorted ``(key, value)`` pairs); its encoding
  exists only while it is hashed or a DATA message / migrated bucket is built;
* ``snapshot()`` is a copy-on-write partition-tree checkpoint: only dirty
  pages are captured, and the returned :class:`PageSnapshot` handle is
  immune to later mutation of the service;
* ``restore()`` rolls back to a held handle page by page (Sections 5.1.2,
  5.3.1): only the pages written since its checkpoint go back, and every
  other held handle stays valid;
* each handle has one owner: the replica's checkpoint record (or its
  pre-tentative rollback point) calls ``release_snapshot`` when it is
  dropped, which discards the handle and lets the tree fold its dead
  copy-on-write copy away.

Subclasses provide the hooks ``_page_payload``, ``_page_indexes``,
``_import_payload`` and ``_export_state`` (the tests' native-state
reference) — plus ``_encode_payload`` / ``_decode_payload`` unless payloads
are bytes (``NullService`` and ``CounterService`` inherit the identity
defaults) — and the base class supplies digesting, snapshots, restore and
``pages()``.

Page-level state transfer (Section 5.3.2)
-----------------------------------------

State transfer moves the pages that differ, and nothing else:

* :meth:`Service.page_digests` — the current per-page content digests
  (what the fetcher diffs proven META-DATA entries against);
* :meth:`Service.snapshot_pages` / ``snapshot_page_subset`` /
  ``snapshot_page_digests`` — the page encodings and content digests of a
  held checkpoint snapshot (what a replica serves FETCH requests from),
  read from the partition tree's records;
* :meth:`Service.install_pages` — install fetched pages
  *individually*, so a transfer replaces only out-of-date pages instead
  of rebuilding the whole state.
"""

from __future__ import annotations

from typing import (
    Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple
)

from repro.statetransfer.partition_tree import (
    ADHASH_MODULUS,
    PageRecord,
    PartitionTree,
    content_page_digest,
)
from repro.statetransfer.transfer import service_root_digest


#: One operation of a batch handed to :meth:`Service.execute_batch`:
#: ``(operation, client)``.
BatchOp = Tuple[bytes, str]


class PageSnapshot:
    """Opaque copy-on-write snapshot handle returned by
    :meth:`Service.snapshot`: a partition-tree checkpoint inside the service
    that took it, valid until it is released."""

    __slots__ = ("snap_id",)

    def __init__(self, snap_id: int) -> None:
        self.snap_id = snap_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PageSnapshot(id={self.snap_id})"


class Service:
    """Base class for deterministic replicated services.

    See the module docstring for the dirty-page contract.  Subclasses
    implement ``execute``, call :meth:`_touch` on every mutation and
    implement the ``_``-hooks below; everything else — incremental digests,
    copy-on-write snapshots, rollback and the page-level transfer surface —
    is inherited.
    """

    #: Geometry of the backing partition tree.  Pages here are logical
    #: hash buckets whose encodings grow with the records mapped to them.
    tree_fanout: int = 256
    tree_levels: int = 3

    def __init__(self) -> None:
        self._tree = PartitionTree(
            fanout=self.tree_fanout,
            levels=self.tree_levels,
            encode=self._encode_payload,
        )
        self._dirty: set[int] = set()
        #: Pages that exist at construction are only discoverable once the
        #: subclass has initialised its state, so the dirty set is seeded
        #: from ``_page_indexes()`` lazily, on the first flush.
        self._dirty_seeded = False
        self._snap_counter = 0
        #: Live copy-on-write handles by snapshot id.
        self._snapshots: Dict[int, PageSnapshot] = {}

    # ------------------------------------------------------------- execution
    def execute(
        self,
        operation: bytes,
        client: str,
        nondet: bytes = b"",
        read_only: bool = False,
    ) -> bytes:
        raise NotImplementedError

    def execute_batch(
        self, ops: Sequence[BatchOp], nondet: bytes = b""
    ) -> List[bytes]:
        """Execute one committed batch of operations in order: one
        :meth:`execute` per entry, sharing the batch's ``nondet``.

        Replicas execute every committed batch through this method and
        read-only requests through :meth:`execute`; batching (Section 5.1.4)
        is the library's business, so services do not override it.
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

    def _export_state(self) -> object:
        """A plain copy of the current native state (the tests' reference
        for "same state")."""
        raise NotImplementedError

    def _import_payload(self, index: int, payload: Any) -> None:
        """Replace the native content of one page; a falsy payload empties
        it.  Must not call ``_touch`` — :meth:`install_pages` and
        :meth:`restore` do."""
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
        self._dirty.add(index)

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
        handle = PageSnapshot(snap_id)
        self._snapshots[snap_id] = handle
        return handle

    def release_snapshot(self, snapshot: PageSnapshot) -> None:
        snap_id = self._live_snap_id(snapshot)
        del self._snapshots[snap_id]
        self._tree.discard_checkpoint(snap_id)

    def restore(self, snapshot: object) -> None:
        """Roll the state back to a held snapshot (Sections 5.1.2, 5.3.1).

        Each page written since its checkpoint gets back the payload it had
        there (an empty one where it held nothing) and is touched like any
        mutation, so digests stay incremental; no other page is read, and
        every held handle stays valid."""
        snap_id = self._live_snap_id(snapshot)
        self._flush()
        tree = self._tree
        empty = self._decode_payload(b"")
        for index in sorted(tree.pages_written_since(snap_id)):
            record = tree.page_at_checkpoint(index, snap_id)
            self._import_payload(index, empty if record is None else record.value)
            self._touch(index)

    def _live_snap_id(self, snapshot: object) -> int:
        """The tree checkpoint behind a handle this service holds; any other
        handle is a ``ValueError``."""
        if (
            not isinstance(snapshot, PageSnapshot)
            or self._snapshots.get(snapshot.snap_id) is not snapshot
        ):
            raise ValueError(f"{snapshot!r} is not a snapshot this service holds")
        return snapshot.snap_id

    def _checkpoint_records(
        self, snapshot: object, indexes: Optional[Iterable[int]] = None
    ) -> Iterator[PageRecord]:
        """The non-empty page records a held snapshot captured (copy-on-write
        walk), all of them or only ``indexes``: O(indexes), not O(store)."""
        snap_id = self._live_snap_id(snapshot)
        tree = self._tree
        for index in tree.known_page_indexes() if indexes is None else indexes:
            record = tree.page_at_checkpoint(index, snap_id)
            if record is not None and record.value:
                yield record

    # ------------------------------------------------------------------ pages
    def pages(self) -> Dict[int, bytes]:
        self._flush()
        return self._encoded({i: v for i, v in self._tree.page_items() if v})

    # ------------------------------------------------- page-level transfer
    def page_digests(self) -> Dict[int, int]:
        """Sparse map of page index -> content digest of the *current*
        state, read out of the partition tree."""
        self._flush()
        return self._tree.digest_items()

    def snapshot_pages(self, snapshot: object) -> Dict[int, bytes]:
        """The page encodings captured by a snapshot, encoded on demand."""
        return self._encoded(
            {r.index: r.value for r in self._checkpoint_records(snapshot)}
        )

    def snapshot_page_subset(
        self, snapshot: object, indexes: Iterable[int]
    ) -> Dict[int, bytes]:
        """The page encodings of just ``indexes`` captured by a snapshot —
        what one DATA reply and bucket-range migration serve.  Byte-identical
        to filtering :meth:`snapshot_pages`."""
        return self._encoded(
            {r.index: r.value for r in self._checkpoint_records(snapshot, set(indexes))}
        )

    def snapshot_page_digests(self, snapshot: object) -> Dict[int, int]:
        """Page index -> content digest as of a snapshot (what META-DATA
        replies are built from), read from the digests the tree's records
        already hold at that checkpoint: nothing is hashed."""
        return {r.index: r.digest for r in self._checkpoint_records(snapshot)}

    def install_pages(
        self, updates: Mapping[int, bytes], removals: Iterable[int] = ()
    ) -> None:
        """Install a fetched page delta: drop ``removals``, then import
        ``updates``.  Pages not named are left untouched — the caller has
        already proven they match the target state.  All are decoded before
        any is installed (a malformed one leaves the state as it was); each
        install marks the page dirty, so digests stay incremental."""
        decode = self._decode_payload
        installs = [(index, decode(b"")) for index in sorted(removals)]
        installs += [(index, decode(updates[index])) for index in sorted(updates)]
        for index, payload in installs:
            self._import_payload(index, payload)
            self._touch(index)
