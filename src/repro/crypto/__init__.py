"""Cryptography substrate.

The BFT algorithms need three primitives (Section 2.1 / 3.2.1):

* a collision-resistant digest function (the paper uses MD5),
* message authentication codes between pairs of nodes (UMAC32), arranged
  into *authenticators* (a vector with one MAC per replica), and
* digital signatures (Rabin-Williams, 1024-bit modulus) used by BFT-PK for
  every message and by BFT only for key-exchange and recovery requests.

This package provides functionally-equivalent constructions: SHA-256
digests, keyed-BLAKE2b MACs, and a simulated signature scheme backed by a key
registry.  The *cost* of each primitive (which drives the performance
results) is charged separately via :mod:`repro.perfmodel.params`.
"""

from repro.crypto.digests import digest, digest_hex, combine_digests, NULL_DIGEST
from repro.crypto.mac import MACKey, compute_mac, verify_mac
from repro.crypto.authenticator import Authenticator, make_authenticator
from repro.crypto.signatures import KeyPair, SignatureRegistry, Signature
from repro.crypto.keys import SessionKeyTable

__all__ = [
    "digest",
    "digest_hex",
    "combine_digests",
    "NULL_DIGEST",
    "MACKey",
    "compute_mac",
    "verify_mac",
    "Authenticator",
    "make_authenticator",
    "KeyPair",
    "SignatureRegistry",
    "Signature",
    "SessionKeyTable",
]
