"""Message authentication codes.

A MAC authenticates a message between two parties that share a session key.
The paper uses UMAC32 (64-bit tags), chosen because a MAC over a fixed-size
digest is three orders of magnitude cheaper than a signature.  The stand-in
here is keyed BLAKE2b truncated to 8 bytes: it preserves the interface and
the security property that matters to the protocol (a third party cannot
verify or forge a tag without the key), and — like UMAC — it is a MAC by
construction, so one tag is one call into C with nothing to prepare or
cache per key.  The modeled cost of a MAC is a constant of the cost model
(``CryptoCosts.mac``) and does not depend on the primitive.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Union

#: Length of a MAC tag in bytes (UMAC32 produces a 64-bit tag).
MAC_SIZE = 8

BytesLike = Union[bytes, bytearray, memoryview]


@dataclass(frozen=True, slots=True)
class MACKey:
    """A symmetric session key shared by a sender/receiver pair."""

    key_id: int
    material: bytes
    #: What the primitive is keyed with: ``material`` itself, or its hash
    #: when it is longer than BLAKE2b's 64-byte key limit.
    keying: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.material:
            raise ValueError("MAC key material must be non-empty")
        keying = self.material
        if len(keying) > blake2b.MAX_KEY_SIZE:
            keying = blake2b(keying).digest()
        object.__setattr__(self, "keying", keying)


def compute_mac(key: MACKey, data: BytesLike) -> bytes:
    """Compute the 8-byte MAC tag of ``data`` under ``key``.

    Accepts any byte-like ``data`` (``bytes``, ``bytearray``,
    ``memoryview``) without copying it.
    """
    return blake2b(data, digest_size=MAC_SIZE, key=key.keying).digest()


def verify_mac(key: MACKey, data: BytesLike, tag: bytes) -> bool:
    """Constant-time verification of a MAC tag."""
    expected = compute_mac(key, data)
    return hmac.compare_digest(expected, tag)
