"""A replicated key-value store.

Operations are encoded as simple byte strings:

* ``GET <key>`` — read a value (read-only),
* ``SET <key> <value>`` — write a value,
* ``DEL <key>`` — delete a key,
* ``CAS <key> <expected> <new>`` — compare-and-swap (``-`` expects an
  absent key); a failed one answers ``FAIL <current>``, ``FAIL -`` when
  the key is absent,
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

Every value a store keeps goes through one process-wide pool keyed by
content (:func:`_shared`), so equal values held by any replica of any group
in the process are one ``bytes`` object.  The pool only saves memory: what
it holds never changes a digest, a page or a reply.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from sys import getrefcount
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.services.interface import Service


#: Every value a store in this process holds, keyed by its content, and
#: values no store holds any more until they are released or swept.
_POOL: Dict[bytes, bytes] = {}
#: The pool sweeps when it grows past ``max(_POOL_FLOOR, 2 x`` its size
#: after the last sweep ``)``.
_POOL_FLOOR = 256
_sweep_at = _POOL_FLOOR
#: ``getrefcount`` inside :func:`_release` of a value only the pool holds:
#: the pool's key and value, the caller's one local name, the parameter and
#: ``getrefcount``'s argument.
_POOL_ONLY = 5


def _shared(value: bytes) -> bytes:
    """The pooled object equal to ``value``; ``value`` itself if none was."""
    pooled = _POOL.setdefault(value, value)
    if pooled is value and len(_POOL) > _sweep_at:
        _sweep()
    return pooled


def _release(value: Optional[bytes]) -> None:
    """Drop ``value`` from the pool unless something besides the pool and
    the caller's one local name holds it."""
    if (value is not None and getrefcount(value) <= _POOL_ONLY
            and _POOL.get(value) is value):
        del _POOL[value]


def _sweep() -> None:
    """Drop every value only the pool holds: those of dead stores and of
    discarded checkpoints."""
    global _sweep_at
    values = list(_POOL)
    while values:
        value = values.pop()  # popped: only this name holds it, as _release expects
        _release(value)
    _sweep_at = max(_POOL_FLOOR, 2 * len(_POOL))


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
        old = self._data.get(key)
        if old is None:
            self._buckets[bucket] = _with_key(self._buckets.get(bucket, ()), key)
        self._data[key] = _shared(value)
        self._touch(bucket)
        _release(old)

    def _delete(self, key: bytes) -> bool:
        old = self._data.pop(key, None)
        if old is None:
            return False
        _release(old)
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
    ) -> bytes:
        parts = operation.split(b" ")
        verb = parts[0].upper()
        if verb == b"GET":
            return self._data.get(parts[1], b"") if len(parts) > 1 else b""
        if verb == b"KEYS":
            return b",".join(sorted(self._data))
        if read_only:
            # A mutating operation routed through the read-only path is
            # rejected without touching state.
            return b"ERR not-read-only"
        if not self._may_write(client):
            return b"ERR access-denied"
        if verb == b"SET" and len(parts) >= 3:
            self._store(parts[1], b" ".join(parts[2:]))
            return b"OK"
        if verb == b"DEL" and len(parts) >= 2:
            return b"OK" if self._delete(parts[1]) else b"MISSING"
        if verb == b"CAS" and len(parts) >= 4:
            current = self._data.get(parts[1])
            if current == parts[2] or (current is None and parts[2] == b"-"):
                del current  # else _store could not release the old value
                self._store(parts[1], parts[3])
                return b"OK"
            return b"FAIL " + (b"-" if current is None else current)
        return b"ERR bad-operation"

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

    # ----------------------------------------------------- dirty-page hooks
    def _page_payload(self, index: int) -> Tuple[Tuple[bytes, bytes], ...]:
        """A bucket's records in key order, sharing ``_data``'s objects."""
        data = self._data
        return tuple((key, data[key]) for key in self._buckets.get(index, ()))

    _encode_payload = staticmethod(_encode_records)
    _decode_payload = staticmethod(_decode_records)

    def _page_indexes(self) -> Iterable[int]:
        return tuple(self._buckets)

    def _import_payload(self, index: int, payload: Any) -> None:
        # A page is one whole bucket: drop whatever the bucket holds now,
        # then adopt the fetched records.
        data = self._data
        for key in self._buckets.pop(index, ()):
            old = data.pop(key)
            _release(old)
        if payload:
            for key, value in payload:
                data[key] = _shared(value)
            self._buckets[index] = tuple(sorted({key for key, _value in payload}))

    def _export_state(self) -> object:
        return dict(self._data)

    # ------------------------------------------------------------ corruption
    def corrupt(self) -> None:
        self._store(b"__corrupted__", b"garbage")
