"""Simulated public-key signatures.

BFT-PK signs every message; BFT signs only new-key messages and recovery
requests.  The protocol needs two properties from signatures: they are
unforgeable, and any third party can verify them.  We model this with a
registry that maps public keys to secret signing keys and computes an HMAC
of the message under the secret key.  Verification looks the secret key up
by public key — something an adversary in the simulation cannot do because
faulty nodes never receive other nodes' :class:`KeyPair` objects.

The *cost* of signing/verifying (which is what makes BFT-PK slow) is charged
separately by the performance model.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
from dataclasses import dataclass
from typing import Dict, Optional

#: Size, in bytes, of a signature (Rabin-Williams with a 1024-bit modulus).
SIGNATURE_SIZE = 128

_key_counter = itertools.count(1)


@dataclass(frozen=True)
class KeyPair:
    """A public/secret key pair held by one principal; the registry records
    whose it is."""

    public_key: str
    _secret: bytes

    def sign(self, data: bytes) -> "Signature":
        tag = hmac.new(self._secret, data, hashlib.sha256).digest()
        return Signature(public_key=self.public_key, tag=tag)


@dataclass(frozen=True)
class Signature:
    """A signature over some message bytes.  It names no signer: the
    registry knows who owns ``public_key`` (``SignatureRegistry.owner_of``)."""

    public_key: str
    tag: bytes

    def size_bytes(self) -> int:
        return SIGNATURE_SIZE


class SignatureRegistry:
    """Key generation and signature verification.

    One registry instance is shared by a simulated deployment; it plays the
    role of the PKI plus the mathematical hardness assumption.  ``forge`` is
    intentionally absent: the adversary cannot produce valid signatures for
    keys it does not hold, matching the non-forgeability assumption of
    Section 2.1.
    """

    def __init__(self) -> None:
        self._secrets: Dict[str, bytes] = {}
        self._owners: Dict[str, str] = {}

    def generate(self, owner: str) -> KeyPair:
        index = next(_key_counter)
        public_key = f"pk:{owner}:{index}"
        secret = hashlib.sha256(public_key.encode()).digest()
        self._secrets[public_key] = secret
        self._owners[public_key] = owner
        return KeyPair(public_key=public_key, _secret=secret)

    def owner_of(self, public_key: str) -> Optional[str]:
        return self._owners.get(public_key)

    def verify(self, data: bytes, signature: Signature) -> bool:
        secret = self._secrets.get(signature.public_key)
        if secret is None:
            return False
        expected = hmac.new(secret, data, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature.tag)
