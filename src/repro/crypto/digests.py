"""Message digests.

The paper uses MD5; we use SHA-256 truncated to 16 bytes so digests have the
same length as in the paper (16 bytes) while using a modern hash.  The
digest of a protocol message or of a state partition is always computed over
a canonical byte encoding produced by the caller.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

#: Length, in bytes, of every digest in the system.
DIGEST_SIZE = 16

#: Digest value used for the special *null* request in view changes.
NULL_DIGEST = b"\x00" * DIGEST_SIZE

#: The byte-like types hashlib consumes without a copy.
BytesLike = Union[bytes, bytearray, memoryview]


def digest(data: BytesLike) -> bytes:
    """Return the 16-byte digest of ``data``.

    ``bytes``, ``bytearray`` and ``memoryview`` inputs are hashed directly —
    hashlib reads them through the buffer protocol, so no intermediate copy
    is made.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"digest expects bytes, got {type(data).__name__}")
    return hashlib.sha256(data).digest()[:DIGEST_SIZE]


def digest_hex(data: BytesLike) -> str:
    """Hex form of :func:`digest`, for logging and table output."""
    return digest(data).hex()


def combine_digests(parts: Iterable[bytes]) -> bytes:
    """Combine sub-digests into a parent digest.

    Used by the hierarchical partition tree (Section 5.3.1).  The paper uses
    AdHash (sum modulo a large integer) so parent digests can be updated
    incrementally; we provide the same additive structure in
    :mod:`repro.statetransfer.partition_tree` and use this order-sensitive
    combination only where incrementality is not required.
    """
    acc = hashlib.sha256()
    for part in parts:
        acc.update(part)
    return acc.digest()[:DIGEST_SIZE]
