"""The replica message log: slots, certificates and water marks.

Each sequence number maps to a :class:`Slot` that holds the pre-prepare and
counts the prepares and commits seen for it — as votes, one bit per
replica, not as stored messages.  A request is *pre-prepared* once the slot
holds a pre-prepare (or the replica sent one), *prepared* once 2f distinct
backups additionally sent a prepare for that pre-prepare's batch, and
*committed* once 2f+1 replicas sent a matching commit (Section 2.3.3).

The log also tracks the water marks ``h`` (last stable checkpoint) and
``H = h + L``; messages outside the window are refused, which is what lets
garbage collection bound memory use (Section 2.3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.messages import Checkpoint, Commit, PrePrepare, Prepare, Request
from repro.crypto.digests import NULL_DIGEST


def _cast_early(votes: Dict[bytes, int], digest: bytes, bit: int) -> bool:
    """Record a vote that arrived ahead of the pre-prepare.  One vote per
    replica, the first one wins: whatever a replica sends afterwards, it
    holds one bit in one entry."""
    for mask in votes.values():
        if mask & bit:
            return False
    votes[digest] = votes.get(digest, 0) | bit
    return True


@dataclass(slots=True)
class Slot:
    """Protocol state for one (view, sequence-number) assignment.

    A slot is keyed by sequence number; messages for older views are
    discarded when the replica moves to a new view, so at any time the slot
    holds messages for at most one view.

    The certificates only *count* matching messages from distinct replicas,
    so a slot keeps votes, not messages: per phase one bitmask (bit =
    replica index) of the replicas whose PREPARE / COMMIT names the
    attached pre-prepare's batch.  A vote that arrives ahead of the
    pre-prepare may name any digest; those wait in a digest -> bitmask map,
    at most one per replica, and when the pre-prepare attaches the entry
    for its digest becomes the counted mask and the rest are dropped —
    votes for another batch never count for this one.  The only messages
    kept are the replica's own, which status retransmission re-sends
    (Section 5.2).
    """

    seq: int
    view: int = 0
    pre_prepare: Optional[PrePrepare] = None
    prepare_mask: int = 0
    commit_mask: int = 0
    early_prepares: Optional[Dict[bytes, int]] = None
    early_commits: Optional[Dict[bytes, int]] = None
    own_prepare: Optional[Prepare] = None
    own_commit: Optional[Commit] = None
    #: Set when this replica sent a pre-prepare or prepare for the digest.
    pre_prepared_locally: bool = False
    prepared: bool = False
    committed: bool = False
    executed: bool = False
    executed_tentatively: bool = False

    def digest(self) -> Optional[bytes]:
        if self.pre_prepare is None:
            return None
        return self.pre_prepare.batch_digest()

    def attach(self, pre_prepare: PrePrepare, batch_digest: bytes) -> None:
        """Install the pre-prepare; the early votes for its batch count from
        now on, the others are forgotten."""
        self.pre_prepare = pre_prepare
        if self.early_prepares:
            self.prepare_mask |= self.early_prepares.get(batch_digest, 0)
        if self.early_commits:
            self.commit_mask |= self.early_commits.get(batch_digest, 0)
        self.early_prepares = self.early_commits = None

    def add_prepare(self, prepare: Prepare, voter: int) -> bool:
        """Record the prepare of replica number ``voter``; returns True if
        it was that replica's first and does not contradict the pre-prepare."""
        if prepare.seq != self.seq or prepare.view != self.view:
            return False
        bit = 1 << voter
        if self.pre_prepare is None:
            if self.early_prepares is None:
                self.early_prepares = {}
            return _cast_early(self.early_prepares, prepare.digest, bit)
        if prepare.digest != self.digest() or self.prepare_mask & bit:
            return False
        self.prepare_mask |= bit
        return True

    def add_commit(self, commit: Commit, voter: int) -> bool:
        if commit.seq != self.seq or commit.view != self.view:
            return False
        bit = 1 << voter
        if self.pre_prepare is None:
            if self.early_commits is None:
                self.early_commits = {}
            return _cast_early(self.early_commits, commit.digest, bit)
        if self.commit_mask & bit or commit.digest != self.digest():
            return False
        self.commit_mask |= bit
        return True

    def early_prepares_for(self, batch_digest: bytes) -> int:
        """Distinct replicas whose prepare named ``batch_digest`` while no
        pre-prepare was attached."""
        return (self.early_prepares or {}).get(batch_digest, 0).bit_count()

    def prepare_count(self) -> int:
        """Prepares matching the attached pre-prepare."""
        return self.prepare_mask.bit_count()

    def commit_count(self) -> int:
        return self.commit_mask.bit_count()


@dataclass
class CheckpointRecord:
    """Checkpoint messages collected for one sequence number."""

    seq: int
    #: Checkpoint messages keyed by (replica, digest).
    messages: Dict[str, Checkpoint] = field(default_factory=dict)

    def add(self, message: Checkpoint) -> bool:
        if message.seq != self.seq:
            return False
        existing = self.messages.get(message.replica)
        if existing is not None and existing.state_digest == message.state_digest:
            return False
        self.messages[message.replica] = message
        return True

    def count_for(self, state_digest: bytes) -> int:
        return sum(
            1 for m in self.messages.values() if m.state_digest == state_digest
        )

    def digests(self) -> List[bytes]:
        return sorted({m.state_digest for m in self.messages.values()})

    def stable_digest(self, threshold: int) -> Optional[bytes]:
        """Return the digest with at least ``threshold`` votes, if any."""
        votes: Dict[bytes, int] = {}
        for message in self.messages.values():
            votes[message.state_digest] = votes.get(message.state_digest, 0) + 1
        for candidate in sorted(votes):
            if votes[candidate] >= threshold:
                return candidate
        return None


class MessageLog:
    """The per-replica log of agreement and checkpoint messages."""

    def __init__(self, log_size: int) -> None:
        self.log_size = log_size
        self.low_water_mark = 0
        self.slots: Dict[int, Slot] = {}
        #: Number of slots holding a pre-prepare that has not executed.
        #: Maintained by :meth:`attach_pre_prepare`/:meth:`note_executed` so
        #: idle checks need no scan over the log.
        self.unexecuted_batches = 0
        self.checkpoints: Dict[int, CheckpointRecord] = {}
        #: Requests known to this replica, keyed by request digest.  Used to
        #: execute batches whose requests travelled separately.  Entries
        #: leave with the batch that carried them (:meth:`collect_garbage`).
        self.requests: Dict[bytes, Request] = {}
        #: Batch contents keyed by batch digest.  Used to re-propose requests
        #: across view changes (condition A3 of the decision procedure needs
        #: the primary to hold the batch for the digest it selects).  Pruned
        #: at the low water mark like the slots.
        self.batches: Dict[bytes, PrePrepare] = {}

    # ------------------------------------------------------------ water marks
    @property
    def high_water_mark(self) -> int:
        return self.low_water_mark + self.log_size

    def in_window(self, seq: int) -> bool:
        """True when ``h < seq <= H`` (Section 2.3.3)."""
        low = self.low_water_mark
        return low < seq <= low + self.log_size

    # ----------------------------------------------------------------- slots
    def slot(self, seq: int, view: Optional[int] = None) -> Slot:
        slot = self.slots.get(seq)
        if slot is None:
            slot = Slot(seq=seq, view=view or 0)
            self.slots[seq] = slot
        elif view is not None and view > slot.view:
            # Entering a later view for this sequence number resets the slot's
            # agreement state; execution flags persist.
            if slot.pre_prepare is not None and not slot.executed:
                self.unexecuted_batches -= 1
            executed = slot.executed
            executed_tentatively = slot.executed_tentatively
            slot = Slot(seq=seq, view=view)
            slot.executed = executed
            slot.executed_tentatively = executed_tentatively
            self.slots[seq] = slot
        return slot

    def attach_pre_prepare(self, slot: Slot, pre_prepare: PrePrepare) -> None:
        """Install a pre-prepare in ``slot`` and remember its batch, keeping
        the outstanding-batch counter consistent.  All replica code assigns
        through here."""
        if slot.pre_prepare is None and not slot.executed:
            self.unexecuted_batches += 1
        slot.attach(pre_prepare, self.remember_batch(pre_prepare))

    def note_executed(self, slot: Slot) -> None:
        """Mark ``slot`` executed, keeping the outstanding-batch counter
        consistent."""
        if not slot.executed and slot.pre_prepare is not None:
            self.unexecuted_batches -= 1
        slot.executed = True

    def existing_slot(self, seq: int) -> Optional[Slot]:
        return self.slots.get(seq)

    def iter_slots(self) -> Iterable[Slot]:
        return iter(sorted(self.slots.values(), key=lambda s: s.seq))

    # ------------------------------------------------------------ checkpoints
    def checkpoint_record(self, seq: int) -> CheckpointRecord:
        record = self.checkpoints.get(seq)
        if record is None:
            record = CheckpointRecord(seq=seq)
            self.checkpoints[seq] = record
        return record

    # --------------------------------------------------------------- requests
    def remember_request(self, request: Request) -> None:
        self.requests[request.request_digest()] = request

    def request_by_digest(self, request_digest: bytes) -> Optional[Request]:
        if request_digest == NULL_DIGEST:
            return Request.null_request()
        return self.requests.get(request_digest)

    def remember_batch(self, pre_prepare: PrePrepare) -> bytes:
        """Keep the batch for re-proposal; returns its digest."""
        # Keep the first-seen instance for a digest: equal batch digests
        # imply identical batch contents, and the stored instance already
        # carries warm encoding/digest caches.
        batch_digest = pre_prepare.batch_digest()
        self.batches.setdefault(batch_digest, pre_prepare)
        return batch_digest

    def batch_by_digest(self, batch_digest: bytes) -> Optional[PrePrepare]:
        return self.batches.get(batch_digest)

    def has_batch(self, batch_digest: bytes) -> bool:
        return batch_digest == NULL_DIGEST or batch_digest in self.batches

    # ------------------------------------------------------- garbage collect
    def collect_garbage(self, stable_seq: int) -> None:
        """Discard everything at or below the new stable checkpoint."""
        if stable_seq <= self.low_water_mark:
            return
        self.low_water_mark = stable_seq
        for seq, slot in self.slots.items():
            if seq <= stable_seq and slot.pre_prepare is not None and not slot.executed:
                self.unexecuted_batches -= 1
        self.slots = {seq: s for seq, s in self.slots.items() if seq > stable_seq}
        self.checkpoints = {
            seq: record
            for seq, record in self.checkpoints.items()
            if seq >= stable_seq
        }
        self._forget_batches(stable_seq)

    def _forget_batches(self, stable_seq: int) -> None:
        """Drop the batches ordered at or below ``stable_seq`` and the
        request bodies only they carried.  A view change re-proposes
        sequence numbers above the stable checkpoint only, so nothing can
        ask for these again; a request a surviving batch also names (the
        primary ordered a retransmission twice) stays."""
        dropped = [
            batch_digest
            for batch_digest, batch in self.batches.items()
            if batch.seq <= stable_seq
        ]
        if not dropped:
            return
        carried = set()
        for batch_digest in dropped:
            carried.update(self.batches.pop(batch_digest).all_request_digests())
        for batch in self.batches.values():
            carried.difference_update(batch.all_request_digests())
        for request_digest in carried:
            self.requests.pop(request_digest, None)

    # -------------------------------------------------------------- summaries
    def prepared_seqs(self) -> Tuple[int, ...]:
        return tuple(sorted(s.seq for s in self.slots.values() if s.prepared))

    def committed_seqs(self) -> Tuple[int, ...]:
        return tuple(sorted(s.seq for s in self.slots.values() if s.committed))
