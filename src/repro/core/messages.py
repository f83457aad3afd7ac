"""Protocol messages.

Every message the BFT family exchanges, with a canonical byte encoding
(used for digests and authentication) and a wire-size estimate that follows
the formats of Figure 6-1 in the thesis.  The dataclasses are deliberately
plain: the protocol logic lives in :mod:`repro.core.replica` and
:mod:`repro.core.viewchange`.

Authentication metadata (a signature, an authenticator, or a single MAC) is
attached to messages in the ``auth`` field by :mod:`repro.core.auth`; it is
excluded from the canonical encoding, which covers only the protocol
payload.

Canonical encodings and digests are memoized per instance: message payload
fields are never mutated after construction (faulty behaviour is modeled
with ``dataclasses.replace``, which builds a fresh instance and therefore a
fresh cache), so ``payload_bytes``/``payload_digest``/``request_digest``/
``batch_digest`` each compute once and then serve the cached value.  The
cache lives in the instance ``__dict__`` under non-field keys, so it is
invisible to ``==``, ``repr`` and ``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.crypto.digests import DIGEST_SIZE, NULL_DIGEST, digest

# Size, in bytes, of the generic message header (Figure 6-1).
GENERIC_HEADER_SIZE = 8
# Per-type fixed header sizes, approximating Figure 6-1.
REQUEST_HEADER_SIZE = 40
REPLY_HEADER_SIZE = 48
PRE_PREPARE_HEADER_SIZE = 48
PREPARE_HEADER_SIZE = 48
COMMIT_HEADER_SIZE = 48
CHECKPOINT_HEADER_SIZE = 40
VIEW_CHANGE_HEADER_SIZE = 48
NEW_VIEW_HEADER_SIZE = 32
STATUS_HEADER_SIZE = 40
MAC_FIELD_SIZE = 16  # nonce + tag


def pack(*fields: Any) -> bytes:
    """Encode heterogeneous fields into a canonical byte string.

    Handles the types that appear in protocol messages: ``bytes``, ``str``,
    ``int``, ``bool``, ``None``, and (nested) tuples.  The encoding is
    length-prefixed so it is unambiguous.  The encoder appends into one
    shared buffer (no per-value intermediate bytes) and dispatches on exact
    type for the common cases, falling back to the general encoder for
    subclasses and the rarer container types.
    """
    out = bytearray()
    for value in fields:
        _append_one(out, value)
    return bytes(out)


def _pack_general(value: Any) -> bytes:
    """The general encoder: any packable value, by ``isinstance``, one
    ``bytes`` per value.  ``_append_one`` falls back to it, and the tests
    use it as the definition of the format."""
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"B1" if value else b"B0"
    if isinstance(value, int):
        encoded = str(value).encode()
        return b"I" + len(encoded).to_bytes(4, "big") + encoded
    if isinstance(value, str):
        encoded = value.encode()
        return b"S" + len(encoded).to_bytes(4, "big") + encoded
    if isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        return b"Y" + len(raw).to_bytes(4, "big") + raw
    if isinstance(value, (tuple, list, frozenset)):
        items = list(value)
        if isinstance(value, frozenset):
            items = sorted(items, key=repr)
        body = b"".join(_pack_general(item) for item in items)
        return b"T" + len(items).to_bytes(4, "big") + body
    raise TypeError(f"cannot pack value of type {type(value).__name__}")


def _append_one(out: bytearray, value: Any) -> None:
    kind = type(value)
    if kind is bytes:
        out += b"Y"
        out += len(value).to_bytes(4, "big")
        out += value
        return
    if kind is int:
        encoded = str(value).encode()
        out += b"I"
        out += len(encoded).to_bytes(4, "big")
        out += encoded
        return
    if kind is str:
        encoded = value.encode()
        out += b"S"
        out += len(encoded).to_bytes(4, "big")
        out += encoded
        return
    if kind is bool:
        out += b"B1" if value else b"B0"
        return
    if value is None:
        out += b"N"
        return
    if kind is tuple:
        out += b"T"
        out += len(value).to_bytes(4, "big")
        for item in value:
            _append_one(out, item)
        return
    # Subclasses of the primitives and the rarer containers: the format
    # lives in two places only, the exact-type cases above and this.
    out += _pack_general(value)


@dataclass
class Message:
    """Base class for protocol messages.

    ``sender`` is the node that produced the message and the one identity
    it speaks for: the ``i`` of ``<..., i>`` (a request's client, a vote's
    replica).  Verification picks the key by it (Section 3.2.1), so no
    other field names the speaker.  ``auth`` holds the authentication
    metadata (set by :class:`repro.core.auth.Authentication`) and is not
    part of the canonical payload.
    """

    sender: str = field(default="", kw_only=True)
    auth: Any = field(default=None, kw_only=True, compare=False, repr=False)

    # Subclasses override.
    def payload_fields(self) -> Tuple[Any, ...]:
        raise NotImplementedError

    def payload_bytes(self) -> bytes:
        cached = self.__dict__.get("_payload_bytes_cache")
        if cached is None:
            cached = pack(type(self).__name__, self.sender, *self.payload_fields())
            self.__dict__["_payload_bytes_cache"] = cached
        return cached

    def payload_digest(self) -> bytes:
        cached = self.__dict__.get("_payload_digest_cache")
        if cached is None:
            cached = digest(self.payload_bytes())
            self.__dict__["_payload_digest_cache"] = cached
        return cached

    def auth_size(self) -> int:
        if self.auth is None:
            return 0
        if hasattr(self.auth, "size_bytes"):
            return self.auth.size_bytes()
        return MAC_FIELD_SIZE

    def wire_size(self) -> int:
        # The size depends on ``auth``, which is reassigned when a stored
        # message is re-signed for retransmission — guard the memo on the
        # identity of the auth object it was computed under.
        cached = self.__dict__.get("_wire_size_cache")
        if cached is not None and cached[0] is self.auth:
            return cached[1]
        size = GENERIC_HEADER_SIZE + self.body_size() + self.auth_size()
        self.__dict__["_wire_size_cache"] = (self.auth, size)
        return size

    def body_size(self) -> int:
        return 32


# --------------------------------------------------------------------------
# Client-facing messages
# --------------------------------------------------------------------------


@dataclass
class Request(Message):
    """A client request (REQUEST, o, t, c).

    The client ``c`` is the sender.  ``operation`` is the opaque operation
    encoding handed to the service's ``execute`` upcall; ``timestamp``
    orders the client's requests and provides exactly-once semantics;
    ``read_only`` marks requests eligible for the read-only optimization;
    ``designated_replier`` selects the replica that returns the full result
    under the digest-replies optimization.
    """

    operation: bytes = b""
    timestamp: int = 0
    read_only: bool = False
    designated_replier: Optional[str] = None
    #: True for the special null request used to fill gaps in view changes.
    is_null: bool = False

    def payload_fields(self) -> Tuple[Any, ...]:
        return (
            self.operation,
            self.timestamp,
            self.sender,
            self.read_only,
            self.is_null,
        )

    def request_digest(self) -> bytes:
        """The digest that identifies this request in the protocol."""
        if self.is_null:
            return NULL_DIGEST
        cached = self.__dict__.get("_request_digest_cache")
        if cached is None:
            cached = digest(pack(self.sender, self.timestamp, self.operation))
            self.__dict__["_request_digest_cache"] = cached
        return cached

    @property
    def client(self) -> str:
        """The client that issued the request: its sender (read by span
        tagging in ``perf/trace.py``, which names a request by client and
        timestamp as it does a reply)."""
        return self.sender

    def body_size(self) -> int:
        return REQUEST_HEADER_SIZE + len(self.operation)

    @staticmethod
    def null_request() -> "Request":
        """The null request: goes through the protocol but executes as a no-op."""
        return Request(operation=b"", timestamp=0, is_null=True, sender="")


@dataclass
class Reply(Message):
    """A reply (REPLY, v, t, c, i, r) from replica ``i``, the sender, to
    client ``c``.

    Under the digest-replies optimization only the designated replier sets
    ``result``; other replicas send only ``result_digest``.  ``tentative``
    marks replies sent after tentative execution (Section 5.1.2): the client
    needs a quorum of matching tentative replies instead of a weak
    certificate.
    """

    view: int = 0
    timestamp: int = 0
    client: str = ""
    result: Optional[bytes] = None
    result_digest: bytes = b""
    tentative: bool = False

    def payload_fields(self) -> Tuple[Any, ...]:
        return (
            self.view,
            self.timestamp,
            self.client,
            self.sender,
            self.result_digest,
            self.tentative,
        )

    def body_size(self) -> int:
        result_len = len(self.result) if self.result is not None else 0
        return REPLY_HEADER_SIZE + result_len


# --------------------------------------------------------------------------
# Normal-case agreement messages
# --------------------------------------------------------------------------


@dataclass
class PrePrepare(Message):
    """A pre-prepare (PRE-PREPARE, v, n, d) carrying a batch of requests.

    ``requests`` are the requests inlined in the message; ``separate_digests``
    are digests of requests transmitted separately by their clients
    (Section 5.1.5).  ``nondet`` carries the primary's proposed
    non-deterministic choices for the batch (Section 5.4).
    """

    view: int = 0
    seq: int = 0
    requests: Tuple[Request, ...] = ()
    separate_digests: Tuple[bytes, ...] = ()
    nondet: bytes = b""

    def _inline_request_digests(self) -> Tuple[bytes, ...]:
        """Digests of the inlined requests, shared by ``payload_fields``,
        ``batch_digest`` and ``all_request_digests``."""
        cached = self.__dict__.get("_inline_digests_cache")
        if cached is None:
            cached = tuple(r.request_digest() for r in self.requests)
            self.__dict__["_inline_digests_cache"] = cached
        return cached

    def payload_fields(self) -> Tuple[Any, ...]:
        return (
            self.view,
            self.seq,
            self._inline_request_digests(),
            tuple(self.separate_digests),
            self.nondet,
        )

    def batch_digest(self) -> bytes:
        """Digest identifying the ordered batch (request digests + nondet)."""
        cached = self.__dict__.get("_batch_digest_cache")
        if cached is None:
            cached = digest(
                pack(
                    self._inline_request_digests(),
                    tuple(self.separate_digests),
                    self.nondet,
                )
            )
            self.__dict__["_batch_digest_cache"] = cached
        return cached

    def all_request_digests(self) -> Tuple[bytes, ...]:
        return self._inline_request_digests() + tuple(self.separate_digests)

    def body_size(self) -> int:
        inlined = sum(r.body_size() for r in self.requests)
        return (
            PRE_PREPARE_HEADER_SIZE
            + inlined
            + DIGEST_SIZE * len(self.separate_digests)
            + len(self.nondet)
        )


@dataclass
class Prepare(Message):
    """A prepare (PREPARE, v, n, d, i)."""

    view: int = 0
    seq: int = 0
    digest: bytes = b""

    def payload_fields(self) -> Tuple[Any, ...]:
        return (self.view, self.seq, self.digest, self.sender)

    def body_size(self) -> int:
        return PREPARE_HEADER_SIZE


@dataclass
class Commit(Message):
    """A commit (COMMIT, v, n, d, i)."""

    view: int = 0
    seq: int = 0
    digest: bytes = b""

    def payload_fields(self) -> Tuple[Any, ...]:
        return (self.view, self.seq, self.digest, self.sender)

    def body_size(self) -> int:
        return COMMIT_HEADER_SIZE


@dataclass
class Checkpoint(Message):
    """A checkpoint (CHECKPOINT, n, d, i): replica ``i`` produced a
    checkpoint with sequence number ``n`` and state digest ``d``."""

    seq: int = 0
    state_digest: bytes = b""

    def payload_fields(self) -> Tuple[Any, ...]:
        return (self.seq, self.state_digest, self.sender)

    def body_size(self) -> int:
        return CHECKPOINT_HEADER_SIZE


# --------------------------------------------------------------------------
# View changes (Chapter 3 protocol)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PSetEntry:
    """An entry of the P set: request ``digest`` prepared with sequence
    number ``seq`` in ``view`` and no request prepared later at this
    replica."""

    seq: int
    digest: bytes
    view: int


@dataclass(frozen=True)
class QSetEntry:
    """An entry of the Q set: for sequence number ``seq``, the latest view in
    which each digest pre-prepared at this replica."""

    seq: int
    #: Mapping digest -> latest view in which it pre-prepared.
    digests: Tuple[Tuple[bytes, int], ...]

    def as_dict(self) -> Dict[bytes, int]:
        return dict(self.digests)


@dataclass
class ViewChange(Message):
    """A view-change (VIEW-CHANGE, v, h, C, P, Q, i) message.

    ``h`` is the sequence number of the sender's last stable checkpoint;
    ``checkpoints`` (C) holds (seq, digest) pairs for the checkpoints it
    stores; ``prepared`` (P) and ``pre_prepared`` (Q) summarise what
    prepared / pre-prepared at the sender in previous views.
    """

    new_view: int = 0
    h: int = 0
    checkpoints: Tuple[Tuple[int, bytes], ...] = ()
    prepared: Tuple[PSetEntry, ...] = ()
    pre_prepared: Tuple[QSetEntry, ...] = ()

    def payload_fields(self) -> Tuple[Any, ...]:
        return (
            self.new_view,
            self.h,
            tuple((seq, dig) for seq, dig in self.checkpoints),
            tuple((e.seq, e.digest, e.view) for e in self.prepared),
            tuple((e.seq, tuple(e.digests)) for e in self.pre_prepared),
            self.sender,
        )

    def prepared_for(self, seq: int) -> Optional[PSetEntry]:
        for entry in self.prepared:
            if entry.seq == seq:
                return entry
        return None

    def pre_prepared_for(self, seq: int) -> Optional[QSetEntry]:
        for entry in self.pre_prepared:
            if entry.seq == seq:
                return entry
        return None

    def body_size(self) -> int:
        return (
            VIEW_CHANGE_HEADER_SIZE
            + 24 * len(self.checkpoints)
            + 28 * len(self.prepared)
            + sum(8 + 24 * len(e.digests) for e in self.pre_prepared)
        )


@dataclass
class ViewChangeAck(Message):
    """An acknowledgement (VIEW-CHANGE-ACK, v, i, j, d) sent to the new
    primary: replica ``i``, the sender, vouches that replica ``j``
    (``origin``) sent the view-change message with digest ``d``."""

    new_view: int = 0
    origin: str = ""
    view_change_digest: bytes = b""

    def payload_fields(self) -> Tuple[Any, ...]:
        return (self.new_view, self.sender, self.origin, self.view_change_digest)

    def body_size(self) -> int:
        return 48


@dataclass
class NewView(Message):
    """A new-view (NEW-VIEW, v, V, X) message.

    ``view_change_digests`` (V) identifies the view-change certificate: one
    (replica, digest) pair per accepted view-change message.
    ``checkpoint_seq``/``checkpoint_digest`` select the starting checkpoint;
    ``selections`` maps each sequence number in (h, h+L] to the digest of the
    chosen request batch (the null digest selects the null request).
    ``batches`` carries the original pre-prepare bodies the primary holds for
    the selected digests so backups can pre-prepare them without a separate
    fetch.
    """

    new_view: int = 0
    view_change_digests: Tuple[Tuple[str, bytes], ...] = ()
    checkpoint_seq: int = 0
    checkpoint_digest: bytes = b""
    selections: Tuple[Tuple[int, bytes], ...] = ()
    batches: Tuple["PrePrepare", ...] = ()

    def payload_fields(self) -> Tuple[Any, ...]:
        return (
            self.new_view,
            tuple(self.view_change_digests),
            self.checkpoint_seq,
            self.checkpoint_digest,
            tuple(self.selections),
        )

    def selection_map(self) -> Dict[int, bytes]:
        return dict(self.selections)

    def body_size(self) -> int:
        return (
            NEW_VIEW_HEADER_SIZE
            + 24 * len(self.view_change_digests)
            + 24 * len(self.selections)
            + sum(b.body_size() for b in self.batches)
        )


# --------------------------------------------------------------------------
# Retransmission (status) messages — Section 5.2
# --------------------------------------------------------------------------


@dataclass
class StatusActive(Message):
    """Status summary multicast by a replica whose view is active."""

    view: int = 0
    last_stable: int = 0
    last_executed: int = 0
    #: Sequence numbers (above last_executed) already prepared at the sender.
    prepared_seqs: Tuple[int, ...] = ()
    #: Sequence numbers already committed at the sender.
    committed_seqs: Tuple[int, ...] = ()

    def payload_fields(self) -> Tuple[Any, ...]:
        return (
            self.view,
            self.last_stable,
            self.last_executed,
            self.sender,
            tuple(self.prepared_seqs),
            tuple(self.committed_seqs),
        )

    def body_size(self) -> int:
        return STATUS_HEADER_SIZE + len(self.prepared_seqs) + len(self.committed_seqs)


@dataclass
class StatusPending(Message):
    """Status summary multicast by a replica whose view change is pending."""

    view: int = 0
    last_stable: int = 0
    last_executed: int = 0
    has_new_view: bool = False
    #: Replicas whose view-change messages for ``view`` the sender holds.
    view_changes_from: Tuple[str, ...] = ()

    def payload_fields(self) -> Tuple[Any, ...]:
        return (
            self.view,
            self.last_stable,
            self.last_executed,
            self.sender,
            self.has_new_view,
            tuple(self.view_changes_from),
        )

    def body_size(self) -> int:
        return STATUS_HEADER_SIZE + len(self.view_changes_from)


# --------------------------------------------------------------------------
# Proactive recovery (Chapter 4) and key exchange
# --------------------------------------------------------------------------


@dataclass
class NewKey(Message):
    """A new-key message (Section 4.3.1): fresh inbound session keys for the
    sender, signed by its secure co-processor.  ``keys`` maps each peer to an
    opaque key token (the simulation does not need the encryption layer)."""

    keys: Tuple[Tuple[str, bytes], ...] = ()
    counter: int = 0

    def payload_fields(self) -> Tuple[Any, ...]:
        return (self.sender, tuple(self.keys), self.counter)

    def body_size(self) -> int:
        return 16 + 40 * len(self.keys)


@dataclass
class QueryStable(Message):
    """Recovery estimation query (QUERY-STABLE, i) — Section 4.3.2."""

    nonce: int = 0

    def payload_fields(self) -> Tuple[Any, ...]:
        return (self.sender, self.nonce)

    def body_size(self) -> int:
        return 24


@dataclass
class ReplyStable(Message):
    """Reply to a stability query (REPLY-STABLE, c, p, i): ``c`` is the last
    checkpoint sequence number and ``p`` the last prepared sequence number at
    the sender."""

    last_checkpoint: int = 0
    last_prepared: int = 0
    nonce: int = 0

    def payload_fields(self) -> Tuple[Any, ...]:
        return (self.last_checkpoint, self.last_prepared, self.sender, self.nonce)

    def body_size(self) -> int:
        return 32


# --------------------------------------------------------------------------
# State transfer (Section 5.3.2)
# --------------------------------------------------------------------------


@dataclass
class Fetch(Message):
    """A fetch (FETCH, l, i, lc, c, k, i) for partition ``index`` at ``level``.

    ``last_checkpoint`` is the latest checkpoint the sender knows for the
    partition; ``target_seq``/``designated_replier`` ask a specific replica
    for the value at a specific checkpoint.  The receiver answers an
    interior partition with a META-DATA reply (sub-partition digests) and a
    leaf with a single-page DATA reply (Section 5.3.2).
    """

    level: int = 0
    index: int = 0
    last_checkpoint: int = -1
    target_seq: int = -1
    designated_replier: Optional[str] = None

    def payload_fields(self) -> Tuple[Any, ...]:
        return (
            self.level,
            self.index,
            self.last_checkpoint,
            self.target_seq,
            self.designated_replier or "",
            self.sender,
            # Once the protocol flag; kept so the digested payload bytes
            # (and the modeled per-byte digest cost) stay unchanged.
            True,
        )

    def body_size(self) -> int:
        return 40


@dataclass
class MetaData(Message):
    """Meta-data reply: digests of the sub-partitions of a partition at a
    checkpoint (META-DATA, c, l, i, {(x, lm, d)}, j).

    During hierarchical state transfer the root-level (level 0) reply also
    carries ``reply_timestamps`` — the checkpoint's ``last_reply_timestamp``
    table — because the certified checkpoint digest covers the service
    state *and* the reply table: the fetcher recombines both and checks the
    result against the stable-certificate digest, which proves every
    sub-partition digest in the reply without trusting the sender.
    """

    seq: int = 0
    level: int = 0
    index: int = 0
    #: (sub-partition index, last-modified seq, digest) triples.
    entries: Tuple[Tuple[int, int, bytes], ...] = ()
    #: Sorted (client, timestamp) pairs of the checkpoint's reply table;
    #: only populated on level-0 replies.
    reply_timestamps: Tuple[Tuple[str, int], ...] = ()

    def payload_fields(self) -> Tuple[Any, ...]:
        return (
            self.seq,
            self.level,
            self.index,
            tuple(self.entries),
            self.sender,
            tuple(self.reply_timestamps),
        )

    def body_size(self) -> int:
        return 32 + 28 * len(self.entries) + 16 * len(self.reply_timestamps)


@dataclass
class Data(Message):
    """A page of state (DATA, i, lm, p).

    ``seq`` names the checkpoint the page belongs to: a transfer fetches
    the pages of one specific certified checkpoint.
    """

    index: int = 0
    last_modified: int = 0
    page: bytes = b""
    seq: int = 0

    def payload_fields(self) -> Tuple[Any, ...]:
        return (self.index, self.last_modified, self.page, self.seq)

    def body_size(self) -> int:
        return 24 + len(self.page)


# Names exported for the benefit of ``from messages import *`` in tests.
__all__ = [
    "Message",
    "Request",
    "Reply",
    "PrePrepare",
    "Prepare",
    "Commit",
    "Checkpoint",
    "PSetEntry",
    "QSetEntry",
    "ViewChange",
    "ViewChangeAck",
    "NewView",
    "StatusActive",
    "StatusPending",
    "NewKey",
    "QueryStable",
    "ReplyStable",
    "Fetch",
    "MetaData",
    "Data",
    "pack",
]
