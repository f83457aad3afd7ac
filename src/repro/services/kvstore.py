"""A replicated key-value store.

Operations are encoded as simple byte strings:

* ``GET <key>`` — read a value (read-only),
* ``SET <key> <value>`` — write a value,
* ``DEL <key>`` — delete a key,
* ``CAS <key> <expected> <new>`` — compare-and-swap,
* ``KEYS`` — list keys (read-only).

The store demonstrates the paper's point about complex operations
(Section 2.2): invariants can be enforced inside operations (CAS) rather
than trusted to clients, which defends against Byzantine-faulty clients.

State is mapped onto pages by hashing each key into one of
``num_buckets`` buckets (a page holds the sorted records of its bucket),
so a mutation dirties exactly one page and the incremental checkpoint
machinery of :class:`~repro.services.interface.Service` only rehashes
the touched buckets.  Each bucket's keys are kept as one sorted tuple, the
order its page lists them in.  The bucket function (CRC-32 of the key) is
deterministic across processes, which keeps digests replica-independent.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.services.interface import BatchOp, ExecutionResult, Service


def _parse_operation(operation: bytes) -> Tuple[bytes, ...]:
    """Resolve one operation encoding to its canonical parsed form.

    The result depends only on the operation bytes (never on store state).
    The parse mirrors :meth:`KeyValueStore.execute` exactly, including the
    case-insensitive verb and the argument-count fallthroughs: a mutating
    verb with too few arguments parses to ``(b"",)`` (bad operation), just
    as ``execute`` falls through its arity-guarded branches.
    """
    parts = operation.split(b" ")
    verb = parts[0].upper() if parts else b""
    if verb == b"GET":
        return (b"GET", parts[1]) if len(parts) > 1 else (b"GET",)
    if verb == b"KEYS":
        return (b"KEYS",)
    if verb == b"SET" and len(parts) >= 3:
        return (b"SET", parts[1], b" ".join(parts[2:]))
    if verb == b"DEL" and len(parts) >= 2:
        return (b"DEL", parts[1])
    if verb == b"CAS" and len(parts) >= 4:
        return (b"CAS", parts[1], parts[2], parts[3])
    return (b"",)


def _encode_records(items: Iterable[tuple[bytes, bytes]]) -> bytes:
    """Length-prefixed ``(key, value)`` records; unambiguous and compact."""
    out = bytearray()
    for key, value in items:
        out += len(key).to_bytes(4, "big")
        out += key
        out += len(value).to_bytes(4, "big")
        out += value
    return bytes(out)


def _decode_records(blob: bytes) -> Tuple[Tuple[bytes, bytes], ...]:
    """Inverse of :func:`_encode_records`.  A length prefix that is cut short
    or overruns the blob is a ``ValueError``, never a shortened record."""
    fields = []
    position = 0
    total = len(blob)
    while position < total:
        start = position + 4
        position = start + int.from_bytes(blob[position:start], "big")
        if position > total or start > total:
            raise ValueError("record runs past the end of the page")
        fields.append(blob[start:position])
    if len(fields) % 2:
        raise ValueError("page ends after a key")
    return tuple(zip(fields[::2], fields[1::2]))


def _with_key(keys: Tuple[bytes, ...], key: bytes) -> Tuple[bytes, ...]:
    """``keys`` (sorted, without ``key``) with ``key`` inserted in order."""
    position = bisect_left(keys, key)
    return keys[:position] + (key,) + keys[position:]


def _without_key(keys: Tuple[bytes, ...], key: bytes) -> Tuple[bytes, ...]:
    """``keys`` (sorted, holding ``key``) with ``key`` taken out."""
    position = bisect_left(keys, key)
    return keys[:position] + keys[position + 1:]


class KeyValueStore(Service):
    """An in-memory key-value store with optional per-client access control."""

    #: Number of hash buckets the key space is spread over; each bucket is
    #: one page of the digest/snapshot machinery.  Part of the digest
    #: definition — all replicas must agree on it.  Fine-grained so the
    #: pages dirtied per checkpoint interval track the write working set
    #: (few keys per bucket) rather than the whole store.
    num_buckets: int = 4096

    def __init__(self, writers: Optional[Set[str]] = None) -> None:
        super().__init__()
        self._data: Dict[bytes, bytes] = {}
        #: Bucket index -> the keys currently mapped to it, sorted; a
        #: bucket with no keys has no entry.
        self._buckets: Dict[int, Tuple[bytes, ...]] = {}
        #: Clients allowed to mutate state; ``None`` means everyone.
        self._writers = writers

    # ------------------------------------------------------------- buckets
    @classmethod
    def bucket_of(cls, key: bytes) -> int:
        return zlib.crc32(key) % cls.num_buckets

    def _store(self, key: bytes, value: bytes) -> None:
        bucket = self.bucket_of(key)
        if key not in self._data:
            self._buckets[bucket] = _with_key(self._buckets.get(bucket, ()), key)
        self._data[key] = value
        self._touch(bucket)

    def _delete(self, key: bytes) -> bool:
        if key not in self._data:
            return False
        del self._data[key]
        bucket = self.bucket_of(key)
        keys = _without_key(self._buckets[bucket], key)
        if keys:
            self._buckets[bucket] = keys
        else:
            del self._buckets[bucket]
        self._touch(bucket)
        return True

    # ------------------------------------------------------------- execution
    def execute(
        self,
        operation: bytes,
        client: str,
        nondet: bytes = b"",
        read_only: bool = False,
    ) -> ExecutionResult:
        parts = operation.split(b" ")
        verb = parts[0].upper() if parts else b""
        if verb == b"GET":
            value = self._data.get(parts[1], b"") if len(parts) > 1 else b""
            return ExecutionResult(result=value, was_read_only=True)
        if verb == b"KEYS":
            keys = b",".join(sorted(self._data))
            return ExecutionResult(result=keys, was_read_only=True)
        if read_only:
            # A mutating operation routed through the read-only path is
            # rejected without touching state.
            return ExecutionResult(result=b"ERR not-read-only", was_read_only=True)
        if not self._may_write(client):
            return ExecutionResult(result=b"ERR access-denied")
        if verb == b"SET" and len(parts) >= 3:
            self._store(parts[1], b" ".join(parts[2:]))
            return ExecutionResult(result=b"OK")
        if verb == b"DEL" and len(parts) >= 2:
            existed = self._delete(parts[1])
            return ExecutionResult(result=b"OK" if existed else b"MISSING")
        if verb == b"CAS" and len(parts) >= 4:
            current = self._data.get(parts[1])
            if current == parts[2] or (current is None and parts[2] == b"-"):
                self._store(parts[1], parts[3])
                return ExecutionResult(result=b"OK")
            return ExecutionResult(result=b"FAIL " + (current or b"-"))
        return ExecutionResult(result=b"ERR bad-operation")

    def execute_batch(
        self, ops: Sequence[BatchOp], nondet: bytes = b""
    ) -> List[ExecutionResult]:
        """Vectorized execution of one committed batch (Section 5.1.4).

        Byte-identical to calling :meth:`execute` per operation; the
        amortizations are wall-clock only: the store's dicts are bound
        once per batch, and the dirty-set/``state_version`` bookkeeping is
        applied in a single pass at the end instead of one ``_touch`` per
        mutation.
        """
        data = self._data
        buckets = self._buckets
        writers = self._writers
        bucket_of = self.bucket_of
        dirty: Set[int] = set()
        mutations = 0
        results: List[ExecutionResult] = []
        append = results.append
        for operation, client in ops:
            parsed = _parse_operation(operation)
            verb = parsed[0]
            if verb == b"GET":
                value = data.get(parsed[1], b"") if len(parsed) > 1 else b""
                append(ExecutionResult(result=value, was_read_only=True))
                continue
            if verb == b"KEYS":
                append(
                    ExecutionResult(
                        result=b",".join(sorted(data)), was_read_only=True
                    )
                )
                continue
            if writers is not None and client not in writers:
                append(ExecutionResult(result=b"ERR access-denied"))
                continue
            if verb == b"SET":
                key = parsed[1]
                bucket = bucket_of(key)
                if key not in data:
                    buckets[bucket] = _with_key(buckets.get(bucket, ()), key)
                data[key] = parsed[2]
                dirty.add(bucket)
                mutations += 1
                append(ExecutionResult(result=b"OK"))
                continue
            if verb == b"DEL":
                key = parsed[1]
                if key in data:
                    del data[key]
                    bucket = bucket_of(key)
                    keys = _without_key(buckets[bucket], key)
                    if keys:
                        buckets[bucket] = keys
                    else:
                        del buckets[bucket]
                    dirty.add(bucket)
                    mutations += 1
                    append(ExecutionResult(result=b"OK"))
                else:
                    append(ExecutionResult(result=b"MISSING"))
                continue
            if verb == b"CAS":
                key, expected, new = parsed[1], parsed[2], parsed[3]
                current = data.get(key)
                if current == expected or (current is None and expected == b"-"):
                    bucket = bucket_of(key)
                    if key not in data:
                        buckets[bucket] = _with_key(buckets.get(bucket, ()), key)
                    data[key] = new
                    dirty.add(bucket)
                    mutations += 1
                    append(ExecutionResult(result=b"OK"))
                else:
                    append(ExecutionResult(result=b"FAIL " + (current or b"-")))
                continue
            append(ExecutionResult(result=b"ERR bad-operation"))
        self._apply_batch_dirty(dirty, mutations)
        return results

    def is_read_only(self, operation: bytes) -> bool:
        verb = operation.split(b" ", 1)[0].upper()
        return verb in (b"GET", b"KEYS")

    def _may_write(self, client: str) -> bool:
        return self._writers is None or client in self._writers

    # ------------------------------------------------------------- inspection
    def get(self, key: bytes) -> Optional[bytes]:
        return self._data.get(key)

    def size(self) -> int:
        return len(self._data)

    def items(self) -> Tuple[Tuple[bytes, bytes], ...]:
        """The store's records in canonical (sorted) order."""
        return tuple(sorted(self._data.items()))

    # ------------------------------------------------------- bucket ranges
    def populated_buckets(self) -> Tuple[int, ...]:
        """Indexes of every bucket that currently holds at least one key."""
        return tuple(sorted(self._buckets))

    def keys_in_buckets(self, buckets: Iterable[int]) -> Tuple[bytes, ...]:
        """The keys currently mapped to the given buckets, sorted."""
        wanted = set(buckets)
        found = []
        for bucket in wanted:
            found.extend(self._buckets.get(bucket, ()))
        return tuple(sorted(found))

    def bucket_range_pages(
        self, snapshot: object, buckets: Iterable[int]
    ) -> Dict[int, bytes]:
        """The page encodings of the given buckets captured by a snapshot.

        This is the export side of bucket-range migration: the moved
        buckets' pages are read out of a *stable-checkpoint* snapshot (so
        every honest replica of the group extracts identical bytes) and
        installed into the target group via ``install_pages``.  Buckets
        that hold nothing in the snapshot are simply absent from the
        result.  Cost is proportional to the moved range, not the store
        (``snapshot_page_subset``).
        """
        return self.snapshot_page_subset(snapshot, buckets)

    # ----------------------------------------------------- dirty-page hooks
    def _page_payload(self, index: int) -> Tuple[Tuple[bytes, bytes], ...]:
        """A bucket's records in key order, sharing ``_data``'s objects."""
        data = self._data
        return tuple((key, data[key]) for key in self._buckets.get(index, ()))

    _encode_payload = staticmethod(_encode_records)
    _decode_payload = staticmethod(_decode_records)

    def _page_indexes(self) -> Iterable[int]:
        return tuple(self._buckets)

    def _state_from_payloads(self, payloads: Dict[int, Any]) -> object:
        data: Dict[bytes, bytes] = {}
        for records in payloads.values():
            data.update(records)
        return data

    def _payloads_from_portable(
        self, state: Any, wanted: Optional[Set[int]] = None
    ) -> Dict[int, Any]:
        buckets: Dict[int, List[bytes]] = {}
        for key in state:
            bucket = self.bucket_of(key)
            if wanted is None or bucket in wanted:
                buckets.setdefault(bucket, []).append(key)
        return {
            index: tuple((key, state[key]) for key in sorted(keys))
            for index, keys in buckets.items()
        }

    def _import_payload(self, index: int, payload: Any) -> None:
        # A page is one whole bucket: drop whatever the bucket holds now,
        # then adopt the fetched records.
        for key in self._buckets.pop(index, ()):
            self._data.pop(key, None)
        if payload:
            self._data.update(payload)
            self._buckets[index] = tuple(sorted({key for key, _value in payload}))

    def _export_state(self) -> object:
        return dict(self._data)

    def _import_state(self, state: object) -> None:
        self._data = dict(state)  # type: ignore[arg-type]
        buckets: Dict[int, List[bytes]] = {}
        for key in sorted(self._data):
            buckets.setdefault(self.bucket_of(key), []).append(key)
        self._buckets = {index: tuple(keys) for index, keys in buckets.items()}

    # ------------------------------------------------------------ corruption
    def corrupt(self) -> None:
        self._store(b"__corrupted__", b"garbage")
