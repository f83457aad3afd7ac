"""The replica message log: slots, certificates and water marks.

Each sequence number maps to a :class:`Slot` that holds the pre-prepare and
counts the prepares and commits seen for it — as votes, one bit per
replica, not as stored messages; the pre-prepare is the only message a
slot keeps.  A request is *pre-prepared* once the slot
holds a pre-prepare (or the replica sent one), *prepared* once 2f distinct
backups additionally sent a prepare for that pre-prepare's batch, and
*committed* once 2f+1 replicas sent a matching commit (Section 2.3.3).

The log also tracks the water marks ``h`` (last stable checkpoint) and
``H = h + L``; messages outside the window are refused, which is what lets
garbage collection bound memory use (Section 2.3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.messages import Commit, PrePrepare, Prepare, Request
from repro.core.quorum import Certificate
from repro.crypto.digests import NULL_DIGEST


@dataclass(slots=True)
class Slot:
    """Protocol state for one (view, sequence-number) assignment.

    A slot is keyed by sequence number; messages for older views are
    discarded when the replica moves to a new view, so at any time the slot
    holds messages for at most one view.

    The certificates only *count* matching messages from distinct replicas,
    so a slot keeps votes, not messages: per phase one :class:`Certificate`
    of the replicas whose PREPARE / COMMIT names a batch digest.  A vote
    that arrives ahead of the pre-prepare may name any digest; the first
    vote of each replica wins, and when the pre-prepare attaches the votes
    for any other digest are dropped — votes for another batch never count
    for this one, and from then on each phase names one value.  Once the
    slot commits both certificates go (:meth:`mark_committed`): no vote is
    read again, and ``prepared`` / ``committed`` stand for them.  The
    pre-prepare is the only message kept: status retransmission (Section
    5.2) rebuilds the replica's own PREPARE / COMMIT from
    ``pre_prepared_locally`` and ``prepared``, what the replica did, never
    from the votes.

    Two modeled times let a status be answered with what is missing, not
    what is still in flight: ``started_at``, when this replica attached or
    sent the pre-prepare (the commit turns ``now - started_at`` into a
    round-trip sample), and ``sent_at``, when it last multicast its own
    PRE-PREPARE, PREPARE or COMMIT for the slot.  A status answer moves
    neither.
    """

    seq: int
    view: int = 0
    pre_prepare: Optional[PrePrepare] = None
    prepares: Optional[Certificate] = field(default_factory=Certificate)
    commits: Optional[Certificate] = field(default_factory=Certificate)
    #: Set when this replica sent a pre-prepare or prepare for the digest.
    pre_prepared_locally: bool = False
    prepared: bool = False
    committed: bool = False
    executed: bool = False
    executed_tentatively: bool = False
    started_at: float = 0.0
    sent_at: float = 0.0

    def digest(self) -> Optional[bytes]:
        if self.pre_prepare is None:
            return None
        return self.pre_prepare.batch_digest()

    def attach(self, pre_prepare: PrePrepare, batch_digest: bytes) -> None:
        """Install the pre-prepare; the early votes for its batch count from
        now on, the others are forgotten."""
        self.pre_prepare = pre_prepare
        self.prepares.keep_only(batch_digest)
        self.commits.keep_only(batch_digest)

    def add_prepare(self, prepare: Prepare, voter: int) -> bool:
        """Record the prepare of replica number ``voter``; returns True if
        it was that replica's first and does not contradict the pre-prepare."""
        if prepare.seq != self.seq or prepare.view != self.view or self.committed:
            return False
        if self.pre_prepare is None:
            if self.prepares.holds(voter):
                return False
        elif prepare.digest != self.digest():
            return False
        return self.prepares.add(voter, prepare.digest)

    def add_commit(self, commit: Commit, voter: int) -> bool:
        if commit.seq != self.seq or commit.view != self.view or self.committed:
            return False
        # A repeated COMMIT is refused before the digest is compared.
        if self.commits.holds(voter):
            return False
        if self.pre_prepare is not None and commit.digest != self.digest():
            return False
        return self.commits.add(voter, commit.digest)

    def mark_committed(self) -> None:
        """The commit certificate is complete: no vote of either phase is
        read again (``Replica.receive`` drops a later PREPARE or COMMIT for
        the slot unchecked), so the certificates go."""
        self.committed = True
        self.prepares = self.commits = None


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
        #: CHECKPOINT votes per sequence number: state digest -> replicas.
        self.checkpoints: Dict[int, Certificate] = {}
        #: Requests this replica received from their clients, keyed by
        #: request digest.  Used to execute batches whose requests travelled
        #: separately; a request a PRE-PREPARE inlines lives in the batch
        #: and is not added.  Entries leave with the batch that carried them
        #: (:meth:`collect_garbage`).
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

    # ------------------------------------------------------------ checkpoints
    def checkpoint_votes(self, seq: int) -> Certificate:
        votes = self.checkpoints.get(seq)
        if votes is None:
            votes = self.checkpoints[seq] = Certificate()
        return votes

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
            seq: votes
            for seq, votes in self.checkpoints.items()
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
