"""The view-change protocol (Chapter 3).

This module contains the *pure* parts of the protocol — computing the P and
Q sets a replica reports in its view-change message (Figure 3-2) and the
primary's decision procedure over a set of view-change messages
(Figure 3-3) — as functions with no side effects, so they can be tested
exhaustively.  The replica drives them from
:mod:`repro.core.replica`.

Terminology (Section 3.2.4):

* The **P set** records, per sequence number, the request that *prepared*
  at this replica in the latest view, as a ``(seq, digest, view)`` tuple.
* The **Q set** records, per sequence number, the latest view in which each
  request digest *pre-prepared* at this replica.
* The primary collects view-change messages (supported by
  view-change-acks) into a set ``S`` and runs the decision procedure to
  choose a starting checkpoint and a request (or the null request) for
  every sequence number above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.config import ReplicaSetConfig
from repro.core.log import MessageLog
from repro.core.messages import (
    NewView,
    PSetEntry,
    QSetEntry,
    Request,
    ViewChange,
)
from repro.core.quorum import Certificate
from repro.crypto.digests import NULL_DIGEST


# ---------------------------------------------------------------------------
# P / Q set computation (Figure 3-2)
# ---------------------------------------------------------------------------


def compute_view_change_sets(
    log: MessageLog,
    prior_pset: Mapping[int, PSetEntry],
    prior_qset: Mapping[int, QSetEntry],
    max_qset_pairs: Optional[int] = None,
) -> Tuple[Dict[int, PSetEntry], Dict[int, QSetEntry]]:
    """Compute the P and Q sets to report in a view-change message.

    ``log`` reflects the view the replica is leaving; ``prior_pset`` and
    ``prior_qset`` carry information from even earlier views.  When
    ``max_qset_pairs`` is given, each Q-set tuple is bounded to that many
    (digest, view) pairs, discarding the lowest views first — the
    bounded-space variant of Section 3.2.5.
    """
    new_pset: Dict[int, PSetEntry] = {}
    new_qset: Dict[int, QSetEntry] = {}
    h = log.low_water_mark
    high = log.high_water_mark

    for seq in range(h + 1, high + 1):
        slot = log.existing_slot(seq)
        slot_digest = slot.digest() if slot is not None else None
        prepared_here = slot is not None and (slot.prepared or slot.committed)
        pre_prepared_here = slot is not None and (
            slot.pre_prepared_locally or prepared_here
        ) and slot_digest is not None

        # --- P set -------------------------------------------------------
        if prepared_here and slot_digest is not None:
            new_pset[seq] = PSetEntry(seq=seq, digest=slot_digest, view=slot.view)
        elif seq in prior_pset:
            new_pset[seq] = prior_pset[seq]

        # --- Q set -------------------------------------------------------
        if pre_prepared_here and slot_digest is not None:
            prior = prior_qset.get(seq)
            pairs: Dict[bytes, int] = dict(prior.digests) if prior is not None else {}
            pairs[slot_digest] = slot.view
            new_qset[seq] = QSetEntry(
                seq=seq, digests=_bound_pairs(pairs, max_qset_pairs)
            )
        elif seq in prior_qset:
            new_qset[seq] = prior_qset[seq]

    return new_pset, new_qset


def _bound_pairs(
    pairs: Mapping[bytes, int], max_pairs: Optional[int]
) -> Tuple[Tuple[bytes, int], ...]:
    ordered = sorted(pairs.items(), key=lambda item: (item[1], item[0]))
    if max_pairs is not None and len(ordered) > max_pairs:
        ordered = ordered[-max_pairs:]
    return tuple(ordered)


# ---------------------------------------------------------------------------
# The primary's decision procedure (Figure 3-3)
# ---------------------------------------------------------------------------


@dataclass
class NewViewDecision:
    """The outcome of the decision procedure."""

    checkpoint_seq: int
    checkpoint_digest: bytes
    #: Mapping sequence number -> selected request digest (NULL_DIGEST for
    #: the null request).  Only sequence numbers above the checkpoint appear.
    selections: Dict[int, bytes] = field(default_factory=dict)

    def max_seq(self) -> int:
        return max(self.selections, default=self.checkpoint_seq)


def select_checkpoint(
    view_changes: Iterable[ViewChange],
    quorum: int,
    weak: int,
) -> Optional[Tuple[int, bytes]]:
    """Select the starting checkpoint for the new view.

    Returns the ``(seq, digest)`` pair with the highest sequence number such
    that at least ``quorum`` view-change messages report a low water mark at
    or below ``seq`` and at least ``weak`` report the pair in their
    checkpoint set, or None if no such pair exists yet.
    """
    messages = list(view_changes)
    candidates: Dict[Tuple[int, bytes], int] = {}
    for message in messages:
        for seq, digest_value in message.checkpoints:
            candidates[(seq, digest_value)] = (
                candidates.get((seq, digest_value), 0) + 1
            )

    best: Optional[Tuple[int, bytes]] = None
    for (seq, digest_value), weak_count in candidates.items():
        if weak_count < weak:
            continue
        reachable = sum(1 for m in messages if m.h <= seq)
        if reachable < quorum:
            continue
        if best is None or seq > best[0]:
            best = (seq, digest_value)
    return best


def select_request(
    view_changes: List[ViewChange],
    seq: int,
    quorum: int,
    weak: int,
    has_request: Callable[[bytes], bool],
) -> Optional[bytes]:
    """Run conditions A and B of Figure 3-3 for one sequence number.

    Returns the selected digest (``NULL_DIGEST`` selects the null request)
    or None if the procedure cannot decide yet.
    """
    # Condition A: some view-change message proposes a prepared request.
    proposals = []
    for message in view_changes:
        entry = message.prepared_for(seq)
        if entry is not None:
            proposals.append(entry)
    # Try higher views first: only one can satisfy A1.
    proposals.sort(key=lambda e: e.view, reverse=True)

    for proposal in proposals:
        if _condition_a1(view_changes, proposal, quorum) and _condition_a2(
            view_changes, proposal, weak
        ):
            if has_request(proposal.digest):  # Condition A3.
                return proposal.digest
            # A1 and A2 hold but the request body is missing; the primary
            # must wait until retransmission supplies it.
            return None

    # Condition B: a quorum saw nothing prepare with this sequence number.
    empty = sum(
        1
        for message in view_changes
        if message.h < seq and message.prepared_for(seq) is None
    )
    if empty >= quorum:
        return NULL_DIGEST
    return None


def _condition_a1(
    view_changes: Iterable[ViewChange], proposal: PSetEntry, quorum: int
) -> bool:
    """A1: 2f+1 messages either did not prepare anything conflicting for this
    sequence number in a view at or after the proposal's view."""
    supporting = 0
    for message in view_changes:
        if message.h >= proposal.seq:
            continue
        entry = message.prepared_for(proposal.seq)
        if entry is None:
            supporting += 1
            continue
        if entry.view < proposal.view or (
            entry.view == proposal.view and entry.digest == proposal.digest
        ):
            supporting += 1
    return supporting >= quorum


def _condition_a2(
    view_changes: Iterable[ViewChange], proposal: PSetEntry, weak: int
) -> bool:
    """A2: f+1 messages pre-prepared the same digest at or after the
    proposal's view, so the proposal comes from a certificate that really
    existed (and every replica will be able to authenticate the request)."""
    supporting = 0
    for message in view_changes:
        entry = message.pre_prepared_for(proposal.seq)
        if entry is None:
            continue
        for digest_value, view in entry.digests:
            if digest_value == proposal.digest and view >= proposal.view:
                supporting += 1
                break
    return supporting >= weak


def compute_decision(
    view_changes: List[ViewChange],
    config: ReplicaSetConfig,
    has_request: Callable[[bytes], bool],
) -> Optional[NewViewDecision]:
    """Run the full decision procedure over the view-change set ``S``.

    Returns a complete decision, or None if the procedure cannot yet decide
    (not enough messages, a missing request body, or an undecidable
    sequence number).
    """
    if len(view_changes) < config.quorum:
        return None
    checkpoint = select_checkpoint(view_changes, config.quorum, config.weak)
    if checkpoint is None:
        return None
    checkpoint_seq, checkpoint_digest = checkpoint

    max_seq = checkpoint_seq
    for message in view_changes:
        for entry in message.prepared:
            max_seq = max(max_seq, entry.seq)

    selections: Dict[int, bytes] = {}
    for seq in range(checkpoint_seq + 1, max_seq + 1):
        selected = select_request(
            view_changes, seq, config.quorum, config.weak, has_request
        )
        if selected is None:
            return None
        selections[seq] = selected

    return NewViewDecision(
        checkpoint_seq=checkpoint_seq,
        checkpoint_digest=checkpoint_digest,
        selections=selections,
    )


def verify_new_view(
    new_view: NewView,
    view_changes_by_digest: Mapping[bytes, ViewChange],
    config: ReplicaSetConfig,
    has_request: Callable[[bytes], bool],
) -> bool:
    """Backup-side verification of a new-view message (Section 3.2.4).

    The backup re-runs the decision procedure over exactly the view-change
    messages named in the new-view certificate and checks that it reaches
    the same decision the primary reported.
    """
    if len(new_view.view_change_digests) < config.quorum:
        return False
    selected: List[ViewChange] = []
    for _replica, vc_digest in new_view.view_change_digests:
        message = view_changes_by_digest.get(vc_digest)
        if message is None:
            return False
        if message.new_view != new_view.new_view:
            return False
        selected.append(message)

    decision = compute_decision(selected, config, has_request)
    if decision is None:
        return False
    if decision.checkpoint_seq != new_view.checkpoint_seq:
        return False
    if decision.checkpoint_digest != new_view.checkpoint_digest:
        return False
    return decision.selections == new_view.selection_map()


# ---------------------------------------------------------------------------
# View-change bookkeeping used by the replica
# ---------------------------------------------------------------------------


@dataclass
class ViewChangeState:
    """Per-target-view bookkeeping at one replica."""

    target_view: int
    #: View-change messages received, keyed by origin replica.
    view_changes: Dict[str, ViewChange] = field(default_factory=dict)
    #: Acks received by the new primary: per origin replica, the acking
    #: replicas.  An acker may ack several origins.
    acks: Certificate = field(default_factory=Certificate)
    #: The set S: view-change messages with a complete view-change
    #: certificate (origin -> message).
    accepted: Dict[str, ViewChange] = field(default_factory=dict)
    new_view: Optional[NewView] = None
    new_view_sent: bool = False

    def record_view_change(self, message: ViewChange) -> bool:
        if message.sender in self.view_changes:
            return False
        self.view_changes[message.sender] = message
        return True

    def by_digest(self) -> Dict[bytes, ViewChange]:
        return {m.payload_digest(): m for m in self.view_changes.values()}
