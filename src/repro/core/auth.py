"""Message authentication shared by replicas and clients.

One :class:`Authentication` instance per node wraps the cryptographic
substrate: in MAC mode (BFT) multicast messages carry authenticators and
point-to-point messages carry a single MAC; in signature mode (BFT-PK)
every message carries a signature.  The object both performs the real
cryptography (so tampering is detectable in tests) and charges the
simulated CPU cost of each operation through the environment, which is what
makes BFT-PK slow in the reproduced benchmarks.

MACs and signatures are computed over the message digest (Section 3.2.1),
which the message memoizes, so authenticating a multicast costs one
encoding, one digest and one keyed-hash call per receiver, joined into one
flat vector (``crypto/authenticator.py``) whose receiver -> position table
this object builds once per receiver set.  Tags are not cached: measured
over the benchmark workloads a per-node tag cache hit on 0.5-6.8 % of
lookups (only retransmissions repeat a (peer, key, digest) triple) and cost
about what it saved.

Every sign or verify is on the path of every delivered message, so what
is constant per node — the environment's ``charge``, the cost-model
constants — is resolved once in :meth:`Authentication.bind_env`, and each
operation makes exactly one call into ``Message.payload_bytes``, one into
``Message.payload_digest`` and one ``compute_mac`` per tag.  The charges are
issued as the same additions in the same order whatever the route (digest
cost first, then the MAC or signature cost): the node's pending charge is a
float sum, and regrouping it would move modeled times in their last bits.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from hmac import compare_digest
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.core.config import AuthMode
from repro.core.env import Env
from repro.core.messages import Message
from repro.crypto.authenticator import Authenticator, positions_of
# Unused here since signing reads ``Message.payload_digest``; kept because
# ``perf/test_perf_smoke.py`` asserts ``repro.core.auth.digest`` is the one
# ``digest`` (its check that tracing was unwound), and ``perf/`` is frozen.
from repro.crypto.digests import digest  # noqa: F401
from repro.crypto.keys import SessionKeyTable
from repro.crypto.mac import compute_mac
from repro.crypto.signatures import KeyPair, Signature, SignatureRegistry
from repro.perfmodel.params import CryptoCosts


def _charge_nothing(micros: float) -> None:
    """Stands in for ``Env.charge`` while no environment is bound."""


@dataclass
class MACAuth:
    """A single MAC tag attached to a point-to-point message."""

    sender: str
    receiver: str
    tag: bytes

    def size_bytes(self) -> int:
        return 16


class Authentication:
    """Authenticates outgoing messages and verifies incoming ones."""

    def __init__(
        self,
        owner: str,
        mode: AuthMode,
        keys: SessionKeyTable,
        registry: SignatureRegistry,
        keypair: Optional[KeyPair] = None,
        crypto_costs: Optional[CryptoCosts] = None,
        env: Optional[Env] = None,
        real_crypto: bool = True,
    ) -> None:
        self.owner = owner
        self.mode = mode
        self.keys = keys
        self.registry = registry
        self.keypair = keypair or registry.generate(owner)
        self.costs = crypto_costs or CryptoCosts()
        self.real_crypto = real_crypto
        self._digest_fixed = self.costs.digest_fixed
        self._digest_per_byte = self.costs.digest_per_byte
        self._mac_cost = self.costs.mac
        self._receiver_sets: Dict[
            Tuple[str, ...], Tuple[Tuple[str, ...], Mapping[str, int]]
        ] = {}
        self.bind_env(env)

    # -------------------------------------------------------------- internals
    def bind_env(self, env: Optional[Env]) -> None:
        """Charge simulated CPU time to ``env`` from now on.  Always through
        ``Env.charge`` — tests and the sharded tier bind environments that
        are not backed by a simulator node."""
        self.env = env
        self._charge = env.charge if env is not None else _charge_nothing

    def _receiver_set(
        self, receivers: Iterable[str]
    ) -> Tuple[Tuple[str, ...], Mapping[str, int]]:
        """``receivers`` without this node, and the position table every
        authenticator to that set shares.  A node multicasts to a handful
        of sets (the other replicas; a client's group), so each is worked
        out once."""
        key = receivers if type(receivers) is tuple else tuple(receivers)
        known = self._receiver_sets.get(key)
        if known is None:
            others = tuple(r for r in key if r != self.owner)
            known = self._receiver_sets[key] = (others, positions_of(others))
        return known

    def _auth_digest(self, message: Message) -> bytes:
        """The digest MACs and signatures are computed over.

        The paper authenticates the *digest* of a message, not its full
        encoding (Section 3.2.1) — that is what keeps authenticator entries
        cheap.  The cost of digesting the payload is charged here, once per
        sign/verify, whether or not the message already holds the digest.
        """
        payload = message.payload_bytes()
        self._charge(self._digest_fixed + self._digest_per_byte * len(payload))
        return message.payload_digest()

    # ---------------------------------------------------------------- signing
    def sign_multicast(self, message: Message, receivers: Iterable[str]) -> Message:
        """Attach an authenticator (MAC mode) or a signature (PK mode).

        Returns the signed message: ``message`` itself on first signing, a
        shallow copy when it already carries authentication.  That is a
        retransmission of an object the log (and possibly an in-flight
        envelope) still references, and overwriting ``auth`` in place would
        corrupt the authenticator every other receiver sees — so
        retransmission paths must send the return value, not the original."""
        if message.auth is not None:
            message = copy.copy(message)
        owner = self.owner
        receivers, positions = self._receiver_set(receivers)
        signed = self._auth_digest(message)
        if self.mode is AuthMode.SIGNATURE:
            self._charge(self.costs.signature_sign)
            if self.real_crypto:
                message.auth = self.keypair.sign(signed)
            else:
                message.auth = Signature(owner, self.keypair.public_key, b"")
            return message
        self._charge(self._mac_cost * len(receivers))
        vector = b""
        if self.real_crypto:
            # One payload serialization and digest (memoized on the message)
            # and one keyed-hash call per receiver, joined into the vector
            # in one pass.
            outbound = self.keys.outbound
            if not positions.keys() <= outbound.keys():
                # No key for some receiver: it gets no entry (and was still
                # charged for), so the vector is laid out over the rest.
                receivers, positions = self._receiver_set(
                    tuple(r for r in receivers if r in outbound)
                )
            vector = b"".join([compute_mac(outbound[r], signed) for r in receivers])
        message.auth = Authenticator(owner, vector, positions)
        return message

    def sign_with_private_key(self, message: Message) -> Message:
        """Sign a message with the node's private key regardless of the
        authentication mode.  Used for new-key messages and recovery
        requests (Sections 4.3.1 and 5.5), which must stay verifiable even
        when session keys are stale."""
        signed = self._auth_digest(message)
        self._charge(self.costs.signature_sign)
        if self.real_crypto:
            message.auth = self.keypair.sign(signed)
        else:
            message.auth = Signature(self.owner, self.keypair.public_key, b"")
        return message

    def sign_point_to_point(self, message: Message, receiver: str) -> Message:
        """Attach a single MAC (or a signature in PK mode).  Like
        :meth:`sign_multicast`, re-signing returns a copy to send."""
        if message.auth is not None:
            message = copy.copy(message)
        signed = self._auth_digest(message)
        if self.mode is AuthMode.SIGNATURE:
            self._charge(self.costs.signature_sign)
            if self.real_crypto:
                message.auth = self.keypair.sign(signed)
            else:
                message.auth = Signature(self.owner, self.keypair.public_key, b"")
            return message
        self._charge(self._mac_cost)
        key = self.keys.outbound.get(receiver) if self.real_crypto else None
        if key is not None:
            message.auth = MACAuth(self.owner, receiver, compute_mac(key, signed))
        else:
            message.auth = MACAuth(self.owner, receiver, b"")
        return message

    def point_to_point_signer(self) -> Callable[[Message, str], Message]:
        """A per-batch point-to-point signing closure (MAC mode).

        ``signer(message, receiver)`` behaves exactly like
        :meth:`sign_point_to_point` — same charges, in the same order, with
        the same values, and the same MAC tags — but the per-call mode
        dispatch and attribute lookups are hoisted out of the loop.  This
        is what lets the replica's batch pipeline sign a 64-reply fan-out
        without re-resolving the signing configuration 64 times.  Falls
        back to the plain method outside the batchable configuration
        (signature mode, or no environment bound to charge against).
        """
        if self.mode is AuthMode.SIGNATURE or self.env is None:
            return self.sign_point_to_point
        digest_fixed = self._digest_fixed
        digest_per_byte = self._digest_per_byte
        mac_cost = self._mac_cost
        charge = self._charge
        outbound = self.keys.outbound
        owner = self.owner
        real_crypto = self.real_crypto

        def signer(message: Message, receiver: str) -> Message:
            payload = message.payload_bytes()
            charge(digest_fixed + digest_per_byte * len(payload))
            signed = message.payload_digest()
            charge(mac_cost)
            key = outbound.get(receiver) if real_crypto else None
            if key is not None:
                message.auth = MACAuth(owner, receiver, compute_mac(key, signed))
            else:
                message.auth = MACAuth(owner, receiver, b"")
            return message

        return signer

    # ------------------------------------------------------------ verification
    def verify(self, message: Message) -> bool:
        """Verify an incoming message's authentication metadata.

        Unauthenticated messages are rejected, matching the DoS defence of
        Section 5.5 (replicas only accept messages authenticated by a known
        principal).
        """
        auth = message.auth
        charge = self._charge
        payload = message.payload_bytes()
        charge(self._digest_fixed + self._digest_per_byte * len(payload))
        if auth is None:
            return False
        signed = message.payload_digest()
        kind = type(auth)
        if kind is Authenticator:
            charge(self._mac_cost)
            owner = self.owner
            if not self.real_crypto:
                return owner not in auth.corrupt_for
            key = self.keys.inbound.get(auth.sender)
            entry = auth.entry(owner)
            if key is None or entry is None or owner in auth.corrupt_for:
                return False
            return compare_digest(compute_mac(key, signed), entry)
        if kind is MACAuth:
            charge(self._mac_cost)
            if not self.real_crypto:
                return True
            key = self.keys.inbound.get(auth.sender)
            if key is None:
                return False
            return compare_digest(compute_mac(key, signed), auth.tag)
        if kind is Signature:
            charge(self.costs.signature_verify)
            if not self.real_crypto:
                return True
            return self.registry.verify(signed, auth)
        return False

    # -------------------------------------------------------------- execution
    def charge_digest(self, size_bytes: int) -> None:
        self._charge(self.costs.digest_cost(size_bytes))


def build_session_keys(owner: str, peers: Iterable[str]) -> SessionKeyTable:
    """Session keys between ``owner`` and every peer, using the deterministic
    initial-key derivation (the simulation's stand-in for the key-exchange
    protocol of Section 4.3.1)."""
    table = SessionKeyTable(owner=owner)
    for peer in peers:
        if peer != owner:
            table.install_pair(peer)
    return table
