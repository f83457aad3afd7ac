"""The BFT replica.

Implements the replica side of the protocol family:

* the normal-case three-phase protocol (pre-prepare, prepare, commit) of
  Section 2.3.3 / 3.2.2, with request batching (Section 5.1.4), tentative
  execution (5.1.2), digest replies (5.1.1), separate request transmission
  (5.1.5) and the read-only optimization (5.1.3);
* checkpointing and garbage collection (Sections 2.3.4, 3.2.3);
* the MAC-based view-change protocol of Chapter 3 (P/Q sets,
  view-change-acks, the primary's decision procedure), which is also used
  in signature (BFT-PK) mode — the modes differ in how messages are
  authenticated and therefore in cost;
* a receiver-based status/retransmission mechanism (Section 5.2);
* hooks for proactive recovery (Chapter 4) and state transfer (Section 5.3).

The replica is deliberately free of any direct dependency on the simulator:
it interacts with the world only through an :class:`repro.core.env.Env`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.auth import Authentication
from repro.core.config import AuthMode, ProtocolOptions, ReplicaSetConfig, DEFAULT_OPTIONS
from repro.core.env import Env
from repro.core.log import MessageLog, Slot
from repro.core.messages import (
    Checkpoint,
    Commit,
    Data,
    Fetch,
    Message,
    MetaData,
    NewKey,
    NewView,
    PrePrepare,
    Prepare,
    QueryStable,
    Reply,
    ReplyStable,
    Request,
    StatusActive,
    StatusPending,
    ViewChange,
    ViewChangeAck,
)
from repro.core.viewchange import (
    NewViewDecision,
    ViewChangeState,
    compute_decision,
    compute_view_change_sets,
    verify_new_view,
)
from repro.core.messages import pack
from repro.crypto.digests import DIGEST_SIZE, NULL_DIGEST, digest
from repro.perfmodel.params import ModelParameters, PAPER_PARAMETERS
from repro.services.interface import Service
from repro.statetransfer.partition_tree import ADHASH_MODULUS
from repro.statetransfer.transfer import (
    combined_state_digest,
    reply_entry_digest as _reply_entry_digest,
)

VIEW_CHANGE_TIMER = "view-change"
STATUS_TIMER = "status"
#: Armed by a primary whose CPU is busy when it could propose: fires at the
#: end of that backlog (:meth:`Replica._try_send_pre_prepare`).
PROPOSE_TIMER = "propose"

#: Bound on the replies' result-digest memo (result bytes -> digest);
#: cleared wholesale when exceeded.  KV-style services return a
#: small set of distinct results (``OK``, ``MISSING``, read values), so
#: the memo collapses one digest computation per reply to a dict hit.
_RESULT_DIGEST_MEMO_LIMIT = 2048


@dataclass
class CheckpointSnapshot:
    """A logical copy of the service state taken at a checkpoint.

    Every record is built by ``Replica._record_checkpoint``.
    ``service_snapshot`` is the copy-on-write
    :class:`~repro.services.interface.PageSnapshot` handle the service's
    ``snapshot()`` returned; this record is its one owner and releases it
    when it is dropped or replaced.  Consumers must treat it as immutable
    and read it through the service (``snapshot_pages`` and friends,
    ``restore``).  ``last_reply_timestamp`` is the reply table's part of
    the checkpointed state: what the digest covers and state transfer
    ships.  Replies are not checkpointed (nothing reads them at a
    checkpoint): a replica that installs a checkpoint by state transfer
    holds timestamps only, and leaves a retransmission of a request it
    never executed to the replicas that did.  ``level_sums`` holds the
    partition digest sums of every level below the root (the leaf level is
    the page digests), filled by the first FETCH served from this
    checkpoint, so they go when the record goes.
    """

    seq: int
    state_digest: bytes
    service_snapshot: object
    last_reply_timestamp: Dict[str, int]
    level_sums: Optional[Dict[int, Dict[int, int]]] = None


class ReplyRecord(NamedTuple):
    """What a replica keeps of the last reply it sent a client (Section 4.1).

    With the client's ``last_reply_timestamp`` entry and the replica's own
    id, these are every field of that REPLY, so a retransmission rebuilds
    it with the same payload bytes and signs it under the session key that
    holds then.  ``entry_digest`` is the AdHash entry of that timestamp,
    subtracted from the reply-table digest when the client's next request
    executes.
    """

    view: int
    result: bytes
    result_digest: bytes
    tentative: bool
    entry_digest: int


# The AdHash contribution of one ``last_reply_timestamp`` entry is defined
# in repro.statetransfer.transfer (imported above as ``_reply_entry_digest``)
# so the transfer fetcher verifies root META-DATA replies with the exact
# formula the replica digests its reply table with.


@dataclass
class ReplicaMetrics:
    """Counters the benchmarks report."""

    requests_executed: int = 0
    batches_committed: int = 0
    checkpoints_taken: int = 0
    stable_checkpoints: int = 0
    view_changes_started: int = 0
    view_changes_completed: int = 0
    read_only_executed: int = 0
    messages_rejected: int = 0
    #: PRE-PREPAREs, PREPAREs and COMMITs re-sent in answer to a STATUS.
    status_retransmissions: int = 0


class Replica:
    """One replica of the replicated state machine."""

    def __init__(
        self,
        replica_id: str,
        config: ReplicaSetConfig,
        service: Service,
        env: Env,
        auth: Authentication,
        options: ProtocolOptions = DEFAULT_OPTIONS,
        params: ModelParameters = PAPER_PARAMETERS,
    ) -> None:
        self.id = replica_id
        self.config = config
        self.service = service
        self.env = env
        self.auth = auth
        self.auth.bind_env(env)
        self.options = options
        self.params = params

        self._others = config.others(replica_id)
        #: Replica id -> index: the bit a replica's vote sets in a slot.
        self._replica_indexes = config.replica_indexes
        self._index = config.replica_index(replica_id)
        self.view = 0
        self.active_view = True
        self.seqno = 0
        self.last_executed = 0
        self.last_tentative = 0
        self.log = MessageLog(config.log_size)
        self.metrics = ReplicaMetrics()
        self._handlers = self._handler_table()

        self.last_reply_timestamp: Dict[str, int] = {}
        #: client -> :class:`ReplyRecord` of the reply last sent for
        #: ``last_reply_timestamp[client]``: a retransmission rebuilds the
        #: REPLY from it, and its AdHash entry is the subtrahend when the
        #: client's next request executes.  A client with a timestamp may
        #: have no record (a state transfer installs timestamps only).
        self.last_reply: Dict[str, ReplyRecord] = {}
        #: Running AdHash over ``last_reply_timestamp`` entries, updated at
        #: execute time so checkpoints never re-pack the whole reply table.
        self._reply_digest = 0

        self.checkpoints: Dict[int, CheckpointSnapshot] = {}
        self.stable_checkpoint_seq = 0
        self._record_checkpoint(0, self._state_digest(), {})

        #: Requests waiting for a sequence number (primary only).
        self.request_queue: List[Request] = []
        #: client -> timestamp of its newest request in ``request_queue``,
        #: so a retransmission of a queued request is not queued again.
        self._queued: Dict[str, int] = {}
        #: Requests this replica authenticated from their clients while a
        #: backup, not yet executed: client -> its newest one.  A backup
        #: that becomes primary proposes them (:meth:`_enter_new_view`).
        self.awaited_requests: Dict[str, Request] = {}
        #: Pre-prepares of the current view buffered because a request body
        #: is still missing or the NEW-VIEW has not arrived yet:
        #: (view, seq) -> message.
        self.pending_pre_prepares: Dict[Tuple[int, int], PrePrepare] = {}

        #: P and Q sets carried across view changes (Section 3.2.4).
        self.pset: Dict[int, object] = {}
        self.qset: Dict[int, object] = {}
        self.view_change_states: Dict[int, ViewChangeState] = {}
        self._view_change_timeout = config.view_change_timeout
        #: Smoothed round trip of a batch, PRE-PREPARE to commit, and its
        #: variation (RFC 6298): what a status answer waits for before it
        #: re-sends (:meth:`_status_timeout`).  ``None`` until the first
        #: sample.
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        #: When this replica last sent a STATUS.  A batch that started
        #: before it may have been helped by the status round and gives no
        #: round-trip sample (Karn's rule).
        self._status_sent_at = float("-inf")
        #: Snapshot used to roll back a tentative execution aborted by a
        #: view change (Section 5.1.2).
        self._pre_tentative_snapshot: Optional[object] = None
        #: Undo log for the reply-table side of that rollback: one
        #: (client, previous timestamp, previous reply record) entry per
        #: tentatively executed request.  Without it an aborted operation
        #: would leave ``last_reply_timestamp`` advanced, so re-executing
        #: the same request in the new view would be skipped as a
        #: retransmission and this replica would diverge.
        self._tentative_undo: List[
            Tuple[str, Optional[int], Optional[ReplyRecord]]
        ] = []

        #: Attached by the recovery manager / state transfer manager.
        self.state_transfer = None
        self.recovery = None

        #: Reply memos (wall-clock only — both map pure functions,
        #: so a stale entry can never change a value, only cost a recompute).
        #: ``_result_digest_memo``: result bytes -> digest(result).
        self._result_digest_memo: Dict[bytes, bytes] = {}
        #: client -> canonical ``pack(client)`` encoding, for the bulk
        #: reply encoder (clients repeat every batch).
        self._client_enc_memo: Dict[str, bytes] = {}

        self.env.set_timer(STATUS_TIMER, self.config.status_interval)

    # ------------------------------------------------------------------ intro
    @property
    def is_primary(self) -> bool:
        return self.config.is_primary(self.id, self.view)

    def primary(self) -> str:
        return self.config.primary_of(self.view)

    def others(self) -> Tuple[str, ...]:
        return self._others

    def _state_digest(self) -> bytes:
        """Digest of service state plus the reply table.

        The reply-table contribution is a commutative AdHash sum, so it is
        maintained incrementally as replies are produced.
        """
        return combined_state_digest(self.service.state_digest(), self._reply_digest)

    def _recompute_reply_digest(self) -> int:
        """The reply-table sum from scratch: what ``_reply_digest`` is reset
        to after a wholesale table replacement, and the tests' reference."""
        total = 0
        for client, timestamp in self.last_reply_timestamp.items():
            total += _reply_entry_digest(client, timestamp)
        return total % ADHASH_MODULUS

    # =====================================================================
    # Message entry point
    # =====================================================================
    def receive(self, message: Message) -> None:
        """Entry point for every protocol message delivered to this replica.

        Replies never reach replicas; everything else must carry valid
        authentication from the known principal it names as its sender
        (Section 5.5), the one identity it speaks for.  Types without a
        handler are dropped.

        A PREPARE for a slot already prepared in its view, or a COMMIT for
        one already committed, can change nothing: the certificate it would
        join is complete and no mask is read again.  It is charged what
        verifying it costs and dropped unchecked — like ``real_crypto``
        off, the modeled charges stay and only cryptography whose outcome
        cannot matter is skipped.
        """
        kind = type(message)
        if kind is Prepare or kind is Commit:
            slot = self.log.slots.get(message.seq)
            if (
                slot is not None
                and slot.view == message.view
                and message.auth is not None
                and (slot.committed if kind is Commit else slot.prepared)
            ):
                self.auth.charge_verify(message)
                return
        if message.auth is None or not self.auth.verify(message):
            self.metrics.messages_rejected += 1
            return
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(message)

    def _handler_table(self) -> Dict[type, Callable[[Message], None]]:
        """Message type -> bound handler.  Built per instance, from bound
        methods, so a handler replaced on the class before the replica is
        constructed (a tracer, a test double) is the one deliveries reach."""
        return {
            Request: self.handle_request,
            PrePrepare: self.handle_pre_prepare,
            Prepare: self.handle_prepare,
            Commit: self.handle_commit,
            Checkpoint: self.handle_checkpoint,
            ViewChange: self.handle_view_change,
            ViewChangeAck: self.handle_view_change_ack,
            NewView: self.handle_new_view,
            StatusActive: self.handle_status_active,
            StatusPending: self.handle_status_pending,
            QueryStable: self._handle_recovery_message,
            ReplyStable: self._handle_recovery_message,
            NewKey: self._handle_recovery_message,
            Fetch: self._handle_state_transfer_message,
            MetaData: self._handle_state_transfer_message,
            Data: self._handle_state_transfer_message,
        }

    def _handle_recovery_message(self, message: Message) -> None:
        if self.recovery is not None:
            self.recovery.handle(message)

    def _handle_state_transfer_message(self, message: Message) -> None:
        if self.state_transfer is not None:
            self.state_transfer.handle(message)

    # =====================================================================
    # Timers
    # =====================================================================
    def on_timer(self, label: str) -> None:
        if label == VIEW_CHANGE_TIMER:
            self._on_view_change_timeout()
        elif label == STATUS_TIMER:
            if self.state_transfer is not None:
                # Retry hook for hierarchical state transfer: re-issues
                # requests a crashed or faulty sender never answered.
                self.state_transfer.tick()
            self._send_status()
            self.env.set_timer(STATUS_TIMER, self.config.status_interval)
        elif label == PROPOSE_TIMER:
            self._try_send_pre_prepare(drained=True)

    # =====================================================================
    # Client requests
    # =====================================================================
    def handle_request(self, request: Request) -> None:
        client = request.sender
        last_timestamp = self.last_reply_timestamp.get(client, 0)
        if request.timestamp < last_timestamp:
            return
        if request.timestamp == last_timestamp:
            record = self.last_reply.get(client)
            if record is not None:
                # Retransmission of an executed request: resend its reply.
                self._send_reply_message(self._rebuild_reply(client, record))
                return

        if request.read_only and self.options.read_only_optimization:
            self._execute_read_only(request)
            return

        self.log.remember_request(request)
        if self.is_primary and self.active_view:
            self._enqueue(request)
            self._try_send_pre_prepare()
        else:
            held = self.awaited_requests.get(client)
            if held is None or held.timestamp < request.timestamp:
                self.awaited_requests[client] = request
            # A backup waiting for a request starts its view-change timer so
            # a mute primary is eventually replaced — but only if the timer
            # is not already running (Section 2.3.5): a retransmitted
            # request must not push detection of the current stall out.
            if self.active_view and not self.env.timer_running(VIEW_CHANGE_TIMER):
                self._start_view_change_timer()
        # Buffered pre-prepares may now be processable.
        self._retry_pending_pre_prepares()

    def _execute_read_only(self, request: Request) -> None:
        """Read-only optimization (Section 5.1.3)."""
        if not self.service.is_read_only(request.operation):
            # A faulty client marked a mutating operation read-only; fall
            # back to the normal protocol path.
            self.log.remember_request(request)
            if self.is_primary and self.active_view:
                self._enqueue(request)
                self._try_send_pre_prepare()
            return
        result = self.service.execute(
            request.operation, request.sender, read_only=True
        )
        self.env.charge(
            self.params.execution_cost(len(request.operation), len(result))
        )
        self.metrics.read_only_executed += 1
        self._send_reply_message(Reply(
            view=self.view,
            timestamp=request.timestamp,
            client=request.sender,
            result=result if self._carries_result(request, result) else None,
            result_digest=self._result_digest(result),
            tentative=False,
            sender=self.id,
        ))

    def _carries_result(self, request: Request, result: bytes) -> bool:
        """Digest replies (Section 5.1.1): a reply carries its result unless
        the optimization applies to it (on, a result of at least
        ``digest_replies_threshold`` bytes, a designated replier) and
        another replica is the designated one.  Both reply paths ask this."""
        designated = request.designated_replier
        options = self.options
        return (
            not options.digest_replies
            or len(result) < options.digest_replies_threshold
            or designated is None
            or designated == self.id
        )

    def _result_digest(self, result: bytes) -> bytes:
        """``digest(result)``, through the memo both reply paths share."""
        memo = self._result_digest_memo
        result_digest = memo.get(result)
        if result_digest is None:
            result_digest = digest(result)
            if len(memo) >= _RESULT_DIGEST_MEMO_LIMIT:
                memo.clear()
            memo[result] = result_digest
        return result_digest

    # =====================================================================
    # Pre-prepare (primary side)
    # =====================================================================
    def _enqueue(self, request: Request) -> None:
        """Queue ``request`` for a sequence number, unless it is a
        retransmission of a request already queued."""
        if self._queued.get(request.sender) == request.timestamp:
            return
        self._queued[request.sender] = request.timestamp
        self.request_queue.append(request)

    def _may_propose(self) -> bool:
        """Whether a request waits, the window has room for one more batch
        and the newest batch is answered (:meth:`_newest_batch_answered`)."""
        return bool(
            self.request_queue
            and self.log.in_window(self.seqno + 1)
            and self._newest_batch_answered()
        )

    def _newest_batch_answered(self) -> bool:
        """Whether the newest batch this primary proposed in its view has
        been acknowledged: a backup's PREPARE for its digest arrived.  A
        batch that executed, tentatively or committed, has prepared, so it
        counts too.  Read from that batch's slot; a slot that holds no
        batch of this view, or is gone with the checkpoint below it, waits
        for nothing."""
        slot = self.log.existing_slot(self.seqno)
        if slot is None or slot.view != self.view or slot.pre_prepare is None:
            return True
        return slot.prepared or slot.prepares.count(slot.digest()) > 0

    def _propose_if_newest(self, seq: int) -> None:
        """Batch ``seq`` was just acknowledged or executed: if it is the
        newest, propose what queued behind it at once, without draining."""
        if seq == self.seqno:
            self._try_send_pre_prepare(drained=True)

    def _try_send_pre_prepare(self, drained: bool = False) -> None:
        """Propose the queued requests, as one batch :meth:`_take_batch`
        bounds, when :meth:`_may_propose` (Section 5.1.4): one
        unacknowledged PRE-PREPARE at a time.

        A primary whose CPU is still busy with earlier arrivals has not
        handled the requests among them yet, so it first drains them: it
        arms the propose timer for the end of that backlog, once, and the
        timer proposes ``drained``, without asking again.  An idle primary
        proposes at once, and so does the acknowledgement or execution of
        the newest batch (DESIGN.md, "When the primary proposes")."""
        if not (self.is_primary and self.active_view and self._may_propose()):
            return
        if not drained:
            backlog = self.env.cpu_backlog()
            if backlog > 0.0:
                if not self.env.timer_running(PROPOSE_TIMER):
                    self.env.set_timer(PROPOSE_TIMER, backlog)
                return
        inline, separate = self._take_batch()
        self.seqno += 1
        self._send_pre_prepare(self.seqno, inline, separate)

    def _take_batch(self) -> Tuple[List[Request], List[bytes]]:
        """Take requests from the head of the queue, in order, while they
        fit one PRE-PREPARE's budget of ``max_batch_size`` slots of
        ``separate_request_threshold + 1`` bytes (Section 5.1.4): an inlined
        request costs a whole slot, one its client transmitted separately
        (Section 5.1.5) only its digest (DESIGN.md, "What a batch holds").
        Returns the inlined requests and the separate digests."""
        options = self.options
        slot_bytes = options.separate_request_threshold + 1
        budget = max(1, options.max_batch_size) * slot_bytes
        inline: List[Request] = []
        separate: List[bytes] = []
        queued = self._queued
        spent = taken = 0
        for request in self.request_queue:
            apart = options.transmits_separately(request.operation)
            cost = DIGEST_SIZE if apart else slot_bytes
            if spent + cost > budget and taken:
                break
            spent += cost
            taken += 1
            if apart:
                separate.append(request.request_digest())
            else:
                inline.append(request)
            if queued.get(request.sender) == request.timestamp:
                del queued[request.sender]
        del self.request_queue[:taken]
        return inline, separate

    def _send_pre_prepare(
        self, seq: int, inline: List[Request], separate: List[bytes]
    ) -> None:
        nondet = self.service.propose_nondet(self.env.now())
        pre_prepare = PrePrepare(
            view=self.view,
            seq=seq,
            requests=tuple(inline),
            separate_digests=tuple(separate),
            nondet=nondet,
            sender=self.id,
        )
        slot = self.log.slot(seq, self.view)
        self.log.attach_pre_prepare(slot, pre_prepare)
        slot.pre_prepared_locally = True
        slot.started_at = slot.sent_at = self.env.now()
        self.auth.sign_multicast(pre_prepare, self.others())
        self.env.broadcast(self.others(), pre_prepare)
        self.env.record("pre-prepare-sent", seq=seq, batch=len(inline) + len(separate))
        self._check_prepared(slot)

    # =====================================================================
    # Pre-prepare (backup side)
    # =====================================================================
    def handle_pre_prepare(self, message: PrePrepare) -> None:
        if message.sender != self.config.primary_of(message.view):
            return
        if message.view != self.view or not self.log.in_window(message.seq):
            return
        if not self.active_view:
            # The new primary's first PRE-PREPAREs can overtake its larger
            # NEW-VIEW: keep them until the view is entered.
            self.pending_pre_prepares[(message.view, message.seq)] = message
            return
        slot = self.log.slot(message.seq, self.view)
        existing = slot.digest()
        if existing is not None and existing != message.batch_digest():
            # Conflicting assignment from the primary (or with a batch the
            # NEW-VIEW re-proposed): refuse it.  The view-change timer
            # started when the request arrived will fire.
            return
        if not self._have_all_requests(message):
            self.pending_pre_prepares[(message.view, message.seq)] = message
            return
        self._accept_pre_prepare(message, slot)

    def _have_all_requests(self, message: PrePrepare) -> bool:
        """A backup accepts a pre-prepare only when it can authenticate every
        request in the batch (Section 3.2.2): inlined requests carry their
        own authentication, and their bodies live in the batch; separately
        transmitted ones must have arrived from the client already."""
        for request_digest in message.separate_digests:
            if self.log.request_by_digest(request_digest) is None:
                return False
        return True

    def _retry_pending_pre_prepares(self) -> None:
        """Put each buffered pre-prepare through every check of
        :meth:`handle_pre_prepare` again; one still waiting is buffered
        again.  Nothing is retried before the view is entered."""
        if not self.active_view:
            return
        pending = self.pending_pre_prepares
        for key in sorted(pending):
            self.handle_pre_prepare(pending.pop(key))

    def _accept_pre_prepare(self, message: PrePrepare, slot: Slot) -> None:
        if slot.pre_prepare is not None:
            return
        if not self.service.check_nondet(message.nondet, self.env.now()):
            return
        self.log.attach_pre_prepare(slot, message)
        slot.pre_prepared_locally = True
        slot.started_at = slot.sent_at = self.env.now()
        self._start_view_change_timer()

        prepare = self._own_vote(Prepare, slot)
        slot.add_prepare(prepare, self._index)
        self.auth.sign_multicast(prepare, self.others())
        self.env.broadcast(self.others(), prepare)
        self._check_prepared(slot)

    # =====================================================================
    # Prepare / commit
    # =====================================================================
    def handle_prepare(self, message: Prepare) -> None:
        if message.sender == self.config.primary_of(message.view):
            # The primary never sends prepares; ignore forgeries.
            return
        if message.view != self.view or not self.log.in_window(message.seq):
            return
        voter = self._replica_indexes.get(message.sender)
        if voter is None:
            return
        slot = self.log.slot(message.seq, self.view)
        if slot.add_prepare(message, voter):
            self._check_prepared(slot)
            # A buffered pre-prepare may become acceptable once f prepares
            # vouch for the batch digest (condition 2 of Section 3.2.2).
            self._maybe_accept_by_prepares(message)
            # At the primary, a matching PREPARE acknowledges the batch.
            self._propose_if_newest(message.seq)

    def _maybe_accept_by_prepares(self, prepare: Prepare) -> None:
        key = (prepare.view, prepare.seq)
        pending = self.pending_pre_prepares.get(key)
        if pending is None or not self.active_view:
            return
        slot = self.log.slot(prepare.seq, prepare.view)
        if (
            slot.pre_prepare is None
            and slot.prepares.count(pending.batch_digest()) >= self.config.f
            and self._have_all_requests(pending)
        ):
            del self.pending_pre_prepares[key]
            self._accept_pre_prepare(pending, slot)

    def _check_prepared(self, slot: Slot) -> None:
        if slot.prepared or slot.pre_prepare is None or not slot.pre_prepared_locally:
            return
        if slot.prepares.winner(2 * self.config.f) is None:
            return
        slot.prepared = True
        slot.sent_at = self.env.now()
        commit = self._own_vote(Commit, slot)
        slot.add_commit(commit, self._index)
        self.auth.sign_multicast(commit, self.others())
        self.env.broadcast(self.others(), commit)
        if self.options.tentative_execution:
            self._try_execute_tentative()
        self._check_committed(slot)

    def handle_commit(self, message: Commit) -> None:
        if message.view != self.view or not self.log.in_window(message.seq):
            return
        voter = self._replica_indexes.get(message.sender)
        if voter is None:
            return
        slot = self.log.slot(message.seq, self.view)
        if slot.add_commit(message, voter):
            self._check_committed(slot)

    def _check_committed(self, slot: Slot) -> None:
        if slot.committed or not slot.prepared:
            return
        if slot.commits.winner(self.config.quorum) is None:
            return
        slot.mark_committed()
        self.metrics.batches_committed += 1
        if slot.started_at > self._status_sent_at:
            self._sample_round_trip(self.env.now() - slot.started_at)
        self._try_execute()

    def _sample_round_trip(self, sample: float) -> None:
        """Fold one PRE-PREPARE-to-commit time into the estimate (RFC 6298,
        section 2: gains 1/8 and 1/4; the first sample sets the variation to
        half of itself)."""
        if self._srtt is None:
            self._srtt, self._rttvar = sample, sample / 2
            return
        self._rttvar += (abs(self._srtt - sample) - self._rttvar) / 4
        self._srtt += (sample - self._srtt) / 8

    # =====================================================================
    # Execution
    # =====================================================================
    def _try_execute_tentative(self) -> None:
        """Tentative execution (Section 5.1.2): execute a prepared batch as
        soon as every earlier batch has committed and executed."""
        seq = self.last_executed + 1
        if self.last_tentative >= seq:
            return
        slot = self.log.existing_slot(seq)
        if slot is None or not slot.prepared or slot.executed_tentatively:
            return
        self._pre_tentative_snapshot = self.service.snapshot()
        self._execute_slot(slot, tentative=True)
        slot.executed_tentatively = True
        self.last_tentative = seq
        self._propose_if_newest(seq)

    def _try_execute(self) -> None:
        while True:
            seq = self.last_executed + 1
            slot = self.log.existing_slot(seq)
            if slot is None or not slot.committed:
                break
            if not slot.executed_tentatively:
                self._execute_slot(slot, tentative=False)
            self.log.note_executed(slot)
            self.last_executed = seq
            self.last_tentative = max(self.last_tentative, seq)
            self._drop_pre_tentative_snapshot()
            self._stop_view_change_timer_if_idle()
            if seq % self.config.checkpoint_interval == 0:
                self._take_checkpoint(seq)
            if self.options.tentative_execution:
                self._try_execute_tentative()
            self._propose_if_newest(seq)

    def _execute_slot(self, slot: Slot, tentative: bool) -> None:
        pre_prepare = slot.pre_prepare
        if pre_prepare is None:
            return
        self._execute_batch(self._batch_requests(pre_prepare), pre_prepare.nondet, tentative)
        self.env.record("batch-executed", seq=slot.seq, tentative=tentative)

    def _batch_requests(self, pre_prepare: PrePrepare) -> List[Request]:
        """The requests ``pre_prepare`` orders, inlined first, that this
        replica holds."""
        requests = list(pre_prepare.requests)
        for request_digest in pre_prepare.separate_digests:
            request = self.log.request_by_digest(request_digest)
            if request is not None:
                requests.append(request)
        return requests

    def _execute_batch(
        self, requests: List[Request], nondet: bytes, tentative: bool
    ) -> None:
        """Execute one batch of requests, in order (Section 5.1.4).

        The rule, per request: a null request does nothing; a request older
        than the client's last executed one is dropped; a retransmission of
        the last one re-sends its reply, rebuilt from the client's reply
        record, at its position in the batch (exactly-once, Section 3.1);
        anything newer executes, is charged
        ``execution_cost(len(operation), len(result))``, replaces the
        client's reply-table entry and reply record — with the full result,
        so a retransmission gets it whoever is designated then — and is
        answered, with the result digest alone when
        :meth:`_carries_result` says so (Section 5.1.1).
        Under ``tentative`` every executed request logs what it overwrote,
        so a view change can undo the batch (Section 5.1.2).

        The per-request overheads are amortized across the batch:

        * timestamps are deduplicated in one pass;
        * the service executes the whole batch through one
          :meth:`~repro.services.interface.Service.execute_batch` call;
        * the reply-table AdHash delta accumulates as a plain integer and
          is reduced modulo once per batch;
        * replies are built in bulk with memoized result digests and
          signed through one per-batch point-to-point signer; and
        * every reply joins the handler's outbox, which the node flushes
          as a single delivery train.
        """
        last_ts = self.last_reply_timestamp
        last_reply = self.last_reply
        #: Execution plan, in request order: a Request executes; a plain
        #: ``str`` (the client) re-sends that client's last reply.
        plan: List[object] = []
        ops: List[Tuple[bytes, str]] = []
        batch_ts: Dict[str, int] = {}
        for request in requests:
            if request.is_null:
                continue
            client = request.sender
            timestamp = request.timestamp
            previous = batch_ts.get(client)
            if previous is None:
                previous = last_ts.get(client, 0)
            if timestamp <= previous:
                if timestamp == previous:
                    plan.append(client)
                continue
            batch_ts[client] = timestamp
            plan.append(request)
            ops.append((request.operation, client))
        if not plan:
            return
        results = (
            self.service.execute_batch(ops, nondet=nondet) if ops else []
        )

        env = self.env
        charge = env.charge
        send = env.send
        params = self.params
        exec_fixed = params.execution_fixed
        exec_per_byte = params.execution_per_byte
        carries_result = self._carries_result
        result_digest_of = self._result_digest
        sign = self.auth.point_to_point_signer()
        undo = self._tentative_undo
        awaited = self.awaited_requests
        view = self.view
        own_id = self.id
        reply_delta = 0
        executed = 0
        result_index = 0
        # Bulk reply encoder: the canonical ``payload_bytes`` of every
        # reply in the batch shares the constant pieces — type tag,
        # sender, view, replica, tentative flag — so they are encoded
        # once per batch and each reply's payload is a 6-piece join of
        # memoized fragments.  Byte-identical to ``pack(...)`` (the
        # property tests assert it); the per-instance payload caches
        # are prefilled so signing and downstream verification reuse
        # the bytes without re-encoding.
        reply_prefix = pack("Reply", own_id, view)
        replica_enc = pack(own_id)
        tent_enc = b"B1" if tentative else b"B0"
        rd_prefix = b"Y" + DIGEST_SIZE.to_bytes(4, "big")
        client_encs = self._client_enc_memo
        join = b"".join
        for entry in plan:
            if type(entry) is str:
                # Retransmission ordered into the batch: re-send the reply
                # recorded earlier in this very batch, or before it.
                record = last_reply.get(entry)
                if record is not None:
                    resent = self._rebuild_reply(entry, record)
                    sign(resent, entry)
                    send(entry, resent)
                continue
            request = entry
            result = results[result_index]
            result_index += 1
            charge(
                exec_fixed
                + exec_per_byte * (len(request.operation) + len(result))
            )
            executed += 1
            client = request.sender
            timestamp = request.timestamp
            previous = last_ts.get(client)
            record = last_reply.get(client)
            if tentative:
                undo.append((client, previous, record))
            new_entry = _reply_entry_digest(client, timestamp)
            reply_delta += new_entry
            if record is not None:
                # A record is always of the client's current timestamp.
                reply_delta -= record.entry_digest
            elif previous is not None:
                reply_delta -= _reply_entry_digest(client, previous)
            last_ts[client] = timestamp
            held = awaited.get(client)
            if held is not None and held.timestamp <= timestamp:
                del awaited[client]
            result_digest = result_digest_of(result)
            last_reply[client] = ReplyRecord(
                view, result, result_digest, tentative, new_entry
            )
            # ``result`` is not part of the payload.
            reply = Reply(
                view=view,
                timestamp=timestamp,
                client=client,
                result=result if carries_result(request, result) else None,
                result_digest=result_digest,
                tentative=tentative,
                sender=own_id,
            )
            client_enc = client_encs.get(client)
            if client_enc is None:
                client_enc = pack(client)
                client_encs[client] = client_enc
            ts_enc = str(timestamp).encode()
            payload = join(
                (
                    reply_prefix,
                    b"I",
                    len(ts_enc).to_bytes(4, "big"),
                    ts_enc,
                    client_enc,
                    replica_enc,
                    rd_prefix,
                    result_digest,
                    tent_enc,
                )
            )
            cache = reply.__dict__
            cache["_payload_bytes_cache"] = payload
            cache["_payload_digest_cache"] = digest(payload)
            sign(reply, client)
            send(client, reply)
        self.metrics.requests_executed += executed
        self._reply_digest = (self._reply_digest + reply_delta) % ADHASH_MODULUS

    def _rebuild_reply(self, client: str, record: ReplyRecord) -> Reply:
        """The reply ``record`` was made from, unsigned: its payload bytes
        are those of the reply first sent."""
        return Reply(
            view=record.view,
            timestamp=self.last_reply_timestamp[client],
            client=client,
            result=record.result,
            result_digest=record.result_digest,
            tentative=record.tentative,
            sender=self.id,
        )

    def _send_reply_message(self, reply: Reply) -> None:
        reply = self.auth.sign_point_to_point(reply, reply.client)
        self.env.send(reply.client, reply)

    # =====================================================================
    # Checkpoints and garbage collection
    # =====================================================================
    def _record_checkpoint(
        self, seq: int, state_digest: bytes, reply_timestamps: Dict[str, int]
    ) -> None:
        """Hold the current state as the checkpoint at ``seq``: the initial
        one, each one taken and each one a state transfer adopts.  A record
        already held for ``seq`` (recovery re-fetching a checkpoint it
        holds) is released first, so every snapshot handle has one owner."""
        existing = self.checkpoints.get(seq)
        if existing is not None:
            self.service.release_snapshot(existing.service_snapshot)
        self.checkpoints[seq] = CheckpointSnapshot(
            seq=seq,
            state_digest=state_digest,
            service_snapshot=self.service.snapshot(),
            last_reply_timestamp=dict(reply_timestamps),
        )

    def _take_checkpoint(self, seq: int) -> None:
        state_digest = self._state_digest()
        self._record_checkpoint(seq, state_digest, self.last_reply_timestamp)
        self.metrics.checkpoints_taken += 1
        message = Checkpoint(seq=seq, state_digest=state_digest, sender=self.id)
        self._count_checkpoint(message)
        self.auth.sign_multicast(message, self.others())
        self.env.broadcast(self.others(), message)
        self._check_checkpoint_stable(seq)

    def handle_checkpoint(self, message: Checkpoint) -> None:
        if message.seq <= self.stable_checkpoint_seq:
            return
        self._count_checkpoint(message)
        # Re-evaluate stability even for duplicate messages: whether a
        # completed certificate is *actionable* depends on state that
        # changes after it first completes (view activity, water marks,
        # our own checkpoints) — and a peer retransmitting its stable
        # checkpoint is precisely the signal that the group has moved on
        # while we have not.  Edge-triggering this check once wedged a
        # healed replica forever: its certificate completed while the
        # trigger conditions were false, and no later receipt re-ran it.
        self._check_checkpoint_stable(message.seq)

    def _count_checkpoint(self, message: Checkpoint) -> None:
        """One vote per replica and sequence number: a CHECKPOINT naming a
        new digest replaces the replica's earlier one."""
        voter = self._replica_indexes.get(message.sender)
        if voter is None:
            return
        votes = self.log.checkpoint_votes(message.seq)
        votes.discard(voter)
        votes.add(voter, message.state_digest)

    def stable_digest(self, seq: int) -> Optional[bytes]:
        """The state digest certified stable at ``seq``, if any.  BFT needs
        a quorum certificate for stability (Section 3.2.3); BFT-PK only a
        weak certificate (Section 2.3.4), because checkpoint messages are
        signed and can be exchanged as proofs."""
        votes = self.log.checkpoints.get(seq)
        signed = self.options.auth_mode is AuthMode.SIGNATURE
        need = self.config.weak if signed else self.config.quorum
        return None if votes is None else votes.winner(need)

    def _check_checkpoint_stable(self, seq: int) -> None:
        if seq <= self.stable_checkpoint_seq:
            return
        certified = self.stable_digest(seq)
        if certified is None:
            return
        own = self.checkpoints.get(seq)
        if own is None:
            # We have proof that a checkpoint we do not hold is stable: we
            # are out of date and must fetch state (Section 5.3.2).  The
            # boundary case matters: once the certificate reaches our high
            # water mark, peers that made ``seq`` stable have garbage-
            # collected every slot up to it, so the prepares/commits we
            # are missing can never be retransmitted — waiting (as the old
            # strict ``>`` did) deadlocked a lagging replica exactly at
            # ``stable + log_size`` under heavy batching load.  A replica
            # whose view is not active cannot commit forward through the
            # normal case at all (its group moved on without it), so for
            # it any certified checkpoint it does not hold is fetchable.
            if seq >= self.log.high_water_mark or not self.active_view:
                self._request_state_transfer(seq, certified)
            return
        if own.state_digest != certified:
            # Our state diverged from the stable checkpoint: treat it as
            # corruption and fetch the correct state.
            self._request_state_transfer(seq, certified)
            return
        self._make_checkpoint_stable(seq)

    def _make_checkpoint_stable(self, seq: int) -> None:
        self.stable_checkpoint_seq = seq
        self.metrics.stable_checkpoints += 1
        self._collect_garbage(seq)
        for old_seq in [s for s in self.checkpoints if s < seq]:
            self.service.release_snapshot(self.checkpoints.pop(old_seq).service_snapshot)
        self.env.record("checkpoint-stable", seq=seq)
        if self.is_primary:
            self._try_send_pre_prepare()
        if self.recovery is not None:
            self.recovery.on_stable_checkpoint(seq)

    def _collect_garbage(self, seq: int) -> None:
        """Discard the log at or below the stable checkpoint ``seq``, and
        the buffered pre-prepares with it."""
        self.log.collect_garbage(seq)
        self.pending_pre_prepares = {
            key: message
            for key, message in self.pending_pre_prepares.items()
            if message.seq > seq
        }

    def _request_state_transfer(self, seq: int, state_digest: bytes) -> None:
        if self.state_transfer is not None:
            self.state_transfer.start(seq, state_digest)

    def install_fetched_pages(
        self,
        seq: int,
        state_digest: bytes,
        updates: Dict[int, bytes],
        removals,
        last_reply_timestamp: Dict[str, int],
    ) -> bool:
        """Install state assembled page by page by the hierarchical state
        transfer (Section 5.3.2).

        Only the pages named in ``updates``/``removals`` are touched — the
        fetcher proved every other local page already matches the target.
        The combined digest of the resulting state is checked against the
        certified checkpoint digest; on a mismatch the checkpoint is not
        adopted and ``False`` is returned (the transfer manager restarts
        and re-diffs against the now-current pages).
        """
        self._drop_pre_tentative_snapshot()
        self.service.install_pages(updates, removals)
        self.last_reply_timestamp = dict(last_reply_timestamp)
        self.last_reply = {}
        self._reply_digest = self._recompute_reply_digest()
        if self._state_digest() != state_digest:
            self.env.record("state-transfer-digest-mismatch", seq=seq)
            return False
        self.last_executed = seq
        self.last_tentative = seq
        self.seqno = max(self.seqno, seq)
        self._record_checkpoint(seq, state_digest, last_reply_timestamp)
        self.stable_checkpoint_seq = seq
        self._collect_garbage(seq)
        self.env.record(
            "state-transfer-installed", seq=seq, pages=len(updates)
        )
        return True

    def recheck_newer_checkpoints(self, seq: int) -> None:
        """Re-examine checkpoint records newer than ``seq``.

        Called by the state-transfer manager *after* it has wound down a
        completed transfer: a newer checkpoint may have been certified
        while the transfer was in flight, and re-checking here chains the
        next fetch immediately instead of waiting for a retransmission.
        (It must not run during the install itself — a ``start`` issued
        mid-install would be wiped by the manager's own wind-down.)
        """
        for newer_seq in sorted(self.log.checkpoints):
            if newer_seq > seq:
                self._check_checkpoint_stable(newer_seq)

    # =====================================================================
    # View changes
    # =====================================================================
    def _start_view_change_timer(self) -> None:
        self.env.set_timer(VIEW_CHANGE_TIMER, self._view_change_timeout)

    def _stop_view_change_timer_if_idle(self) -> None:
        # The timer only needs to keep running while there are accepted
        # requests that have not executed.
        if self.log.unexecuted_batches == 0 and not self.request_queue:
            self.env.cancel_timer(VIEW_CHANGE_TIMER)
            self._view_change_timeout = self.config.view_change_timeout

    def _on_view_change_timeout(self) -> None:
        if not self.active_view:
            # Waiting for a new-view that never came: double the timeout
            # before moving to the next view (Section 2.3.5, liveness).
            self._view_change_timeout *= 2
        self.start_view_change(self.view + 1)

    def start_view_change(self, target_view: int) -> None:
        """Move to ``target_view`` and broadcast a view-change message."""
        if target_view <= self.view:
            return
        self._abort_tentative_execution()
        self.view = target_view
        self.active_view = False
        self.metrics.view_changes_started += 1

        pset, qset = compute_view_change_sets(self.log, self.pset, self.qset)
        self.pset, self.qset = pset, qset

        own_checkpoints = tuple(
            (seq, snap.state_digest) for seq, snap in sorted(self.checkpoints.items())
        )
        message = ViewChange(
            new_view=target_view,
            h=self.stable_checkpoint_seq,
            checkpoints=own_checkpoints,
            prepared=tuple(pset.values()),
            pre_prepared=tuple(qset.values()),
            sender=self.id,
        )
        state = self._view_change_state(target_view)
        state.record_view_change(message)
        if self.config.primary_of(target_view) == self.id:
            state.accepted[self.id] = message

        self.auth.sign_multicast(message, self.others())
        self.env.broadcast(self.others(), message)
        self.env.record("view-change-started", view=target_view)
        # Wait for the new view; if it does not arrive, move further.
        self.env.set_timer(VIEW_CHANGE_TIMER, self._view_change_timeout)
        if self.config.primary_of(target_view) == self.id:
            self._maybe_send_new_view(target_view)

    def _drop_pre_tentative_snapshot(self) -> None:
        if self._pre_tentative_snapshot is not None:
            self.service.release_snapshot(self._pre_tentative_snapshot)
            self._pre_tentative_snapshot = None
        self._tentative_undo.clear()

    def _abort_tentative_execution(self) -> None:
        """Roll back a tentatively-executed batch that has not committed."""
        if self.last_tentative <= self.last_executed:
            return
        if self._pre_tentative_snapshot is not None:
            self.service.restore(self._pre_tentative_snapshot)
        # Unwind the reply-table entries the tentative execution wrote, so
        # the aborted operations can re-execute in the new view instead of
        # being skipped as retransmissions (and so the incremental reply
        # digest matches replicas that never executed tentatively).  A
        # record holds the AdHash entry of its client's current timestamp;
        # only a timestamp a state transfer installed has no record.
        for client, prev_ts, prev_record in reversed(self._tentative_undo):
            delta = -self.last_reply[client].entry_digest
            if prev_ts is None:
                self.last_reply_timestamp.pop(client, None)
            else:
                self.last_reply_timestamp[client] = prev_ts
                delta += (
                    _reply_entry_digest(client, prev_ts)
                    if prev_record is None
                    else prev_record.entry_digest
                )
            self._reply_digest = (self._reply_digest + delta) % ADHASH_MODULUS
            if prev_record is None:
                self.last_reply.pop(client, None)
            else:
                self.last_reply[client] = prev_record
        self._drop_pre_tentative_snapshot()
        slot = self.log.existing_slot(self.last_tentative)
        if slot is not None:
            slot.executed_tentatively = False
        self.last_tentative = self.last_executed

    def _view_change_state(self, target_view: int) -> ViewChangeState:
        state = self.view_change_states.get(target_view)
        if state is None:
            state = ViewChangeState(target_view=target_view)
            self.view_change_states[target_view] = state
        return state

    def handle_view_change(self, message: ViewChange) -> None:
        if message.new_view < self.view:
            return
        # Reject messages whose P/Q components claim views at or after the
        # view they are changing to (Section 3.2.4).
        for entry in message.prepared:
            if entry.view >= message.new_view:
                return
        for entry in message.pre_prepared:
            if any(view >= message.new_view for _d, view in entry.digests):
                return

        state = self._view_change_state(message.new_view)
        if not state.record_view_change(message):
            return
        self.env.record("view-change-received", view=message.new_view,
                        origin=message.sender)

        new_primary = self.config.primary_of(message.new_view)
        if new_primary == self.id:
            # As the new primary we accept our own and others' messages once
            # acknowledged; record and re-evaluate.
            self._maybe_accept_view_change(state, message.sender)
            self._maybe_send_new_view(message.new_view)
        else:
            if message.sender != self.id:
                ack = ViewChangeAck(
                    new_view=message.new_view,
                    origin=message.sender,
                    view_change_digest=message.payload_digest(),
                    sender=self.id,
                )
                self.auth.sign_point_to_point(ack, new_primary)
                self.env.send(new_primary, ack)

        # Liveness: if f+1 replicas are already changing to views beyond
        # ours, join the smallest such view without waiting for our timer.
        self._maybe_join_view_change()

        # A pending new-view may now be verifiable.
        if state.new_view is not None and not self.active_view:
            self._try_accept_new_view(state.new_view)

    def _maybe_join_view_change(self) -> None:
        ahead = [
            target_view
            for target_view, state in self.view_change_states.items()
            if target_view > self.view
            and len(state.view_changes.keys() - {self.id}) >= self.config.weak
        ]
        if ahead:
            self.start_view_change(min(ahead))

    def handle_view_change_ack(self, message: ViewChangeAck) -> None:
        if self.config.primary_of(message.new_view) != self.id:
            return
        acker = self._replica_indexes.get(message.sender)
        if acker is None:
            return
        state = self._view_change_state(message.new_view)
        state.acks.add(acker, message.origin)
        self._maybe_accept_view_change(state, message.origin)
        self._maybe_send_new_view(message.new_view)

    def _maybe_accept_view_change(self, state: ViewChangeState, origin: str) -> None:
        """The new primary adds a view-change message to S once it has a
        view-change certificate: the message plus 2f-1 acks (its own
        potential ack and the original message complete the quorum)."""
        if origin in state.accepted:
            return
        message = state.view_changes.get(origin)
        if message is None:
            return
        if origin == self.id or state.acks.count(origin) >= 2 * self.config.f - 1:
            state.accepted[origin] = message

    def _maybe_send_new_view(self, target_view: int) -> None:
        if self.config.primary_of(target_view) != self.id:
            return
        if target_view < self.view:
            return
        state = self._view_change_state(target_view)
        if state.new_view_sent:
            return
        if len(state.accepted) < self.config.quorum:
            return
        accepted = list(state.accepted.values())
        decision = compute_decision(accepted, self.config, self.log.has_batch)
        if decision is None:
            return

        batches = []
        for seq in sorted(decision.selections):
            selection = decision.selections[seq]
            if selection == NULL_DIGEST:
                continue
            batch = self.log.batch_by_digest(selection)
            if batch is not None:
                batches.append(batch)
        new_view = NewView(
            new_view=target_view,
            view_change_digests=tuple(
                (origin, message.payload_digest())
                for origin, message in state.accepted.items()
            ),
            checkpoint_seq=decision.checkpoint_seq,
            checkpoint_digest=decision.checkpoint_digest,
            selections=tuple(sorted(decision.selections.items())),
            batches=tuple(batches),
            sender=self.id,
        )
        state.new_view = new_view
        state.new_view_sent = True
        self.auth.sign_multicast(new_view, self.others())
        self.env.broadcast(self.others(), new_view)
        self.env.record("new-view-sent", view=target_view)
        self._enter_new_view(new_view, decision)

    def handle_new_view(self, message: NewView) -> None:
        if message.new_view == 0 or message.new_view < self.view:
            return
        if message.sender != self.config.primary_of(message.new_view):
            return
        state = self._view_change_state(message.new_view)
        if state.new_view is None:
            state.new_view = message
        self._try_accept_new_view(message)

    def _try_accept_new_view(self, message: NewView) -> None:
        if self.active_view and message.new_view <= self.view:
            return
        state = self._view_change_state(message.new_view)
        for batch in message.batches:
            self.log.remember_batch(batch)
        by_digest = state.by_digest()
        if not verify_new_view(message, by_digest, self.config, self.log.has_batch):
            return
        # Reconstruct the decision the primary reported so the local state
        # can be updated identically.
        selected = []
        for _origin, vc_digest in message.view_change_digests:
            selected.append(by_digest[vc_digest])
        decision = compute_decision(selected, self.config, self.log.has_batch)
        if decision is None:
            return
        self._enter_new_view(message, decision, send_prepares=True)

    def _enter_new_view(
        self,
        message: NewView,
        decision: NewViewDecision,
        send_prepares: bool = False,
    ) -> None:
        self._abort_tentative_execution()
        self.view = message.new_view
        self.active_view = True
        self.metrics.view_changes_completed += 1
        self.env.cancel_timer(VIEW_CHANGE_TIMER)
        self._view_change_timeout = self.config.view_change_timeout

        # Adopt the checkpoint selected by the view change if we are behind.
        if decision.checkpoint_seq > self.stable_checkpoint_seq:
            if decision.checkpoint_seq in self.checkpoints:
                self._make_checkpoint_stable(decision.checkpoint_seq)
            else:
                self._request_state_transfer(
                    decision.checkpoint_seq, decision.checkpoint_digest
                )

        if self.config.primary_of(self.view) == self.id:
            self.seqno = max(self.seqno, decision.max_seq())

        prepares_to_send: List[Prepare] = []
        reproposed: List[PrePrepare] = []
        for seq in sorted(decision.selections):
            if seq <= self.last_executed:
                continue
            selection = decision.selections[seq]
            batch = self._batch_for_selection(selection)
            if batch is None:
                continue
            reproposed.append(batch)
            new_pre_prepare = PrePrepare(
                view=self.view,
                seq=seq,
                requests=batch.requests,
                separate_digests=batch.separate_digests,
                nondet=batch.nondet,
                sender=self.config.primary_of(self.view),
            )
            slot = self.log.slot(seq, self.view)
            self.log.attach_pre_prepare(slot, new_pre_prepare)
            slot.pre_prepared_locally = True
            slot.started_at = slot.sent_at = self.env.now()
            if send_prepares:
                prepare = self._own_vote(Prepare, slot)
                slot.add_prepare(prepare, self._index)
                prepares_to_send.append(prepare)

        for prepare in prepares_to_send:
            self.auth.sign_multicast(prepare, self.others())
            self.env.broadcast(self.others(), prepare)

        self.env.record("new-view-entered", view=self.view)

        if self.is_primary:
            self._refill_queue(reproposed)
            self._try_send_pre_prepare()
        for seq in sorted(decision.selections):
            slot = self.log.existing_slot(seq)
            if slot is not None:
                self._check_prepared(slot)
        # PRE-PREPAREs of this view that arrived ahead of the NEW-VIEW; the
        # retry drops those of any other view.
        self._retry_pending_pre_prepares()

    def _refill_queue(self, reproposed: List[PrePrepare]) -> None:
        """A new primary queues what waits for a sequence number: the
        requests left in its queue, then those it holds from their clients
        (the requests whose wait made the backups change view), keeping
        each that has not executed and that no re-proposed batch carries.
        A request executed since it was queued is dropped: the backups may
        have discarded its body with the batch that ordered it, and could
        never accept a PRE-PREPARE naming it."""
        carried = {
            (request.sender, request.timestamp)
            for batch in reproposed
            for request in self._batch_requests(batch)
        }
        executed = self.last_reply_timestamp
        candidates = self.request_queue + list(self.awaited_requests.values())
        self.request_queue = []
        self._queued = {}
        for request in candidates:
            if (
                request.timestamp > executed.get(request.sender, 0)
                and (request.sender, request.timestamp) not in carried
            ):
                self._enqueue(request)

    def _batch_for_selection(self, selection: bytes) -> Optional[PrePrepare]:
        if selection == NULL_DIGEST:
            return PrePrepare(
                view=0, seq=0, requests=(Request.null_request(),), sender=self.id
            )
        return self.log.batch_by_digest(selection)

    # =====================================================================
    # Status / retransmission (Section 5.2)
    # =====================================================================
    def _send_status(self) -> None:
        self._status_sent_at = self.env.now()
        if self.active_view:
            # Receiver-based recovery (Section 5.2) only works if the
            # periodic status goes out even when this replica *believes*
            # nothing is outstanding: a backup that dropped a pre-prepare
            # as out-of-window has no record it exists, and only its
            # status (last-executed below the primary's seqno) prompts the
            # primary to retransmit it.  An earlier "skip when idle"
            # fast-out here silenced exactly those replicas and wedged the
            # group under heavy batching load.
            prepared, committed = self._status_seqs()
            message = StatusActive(
                view=self.view,
                last_stable=self.stable_checkpoint_seq,
                last_executed=self.last_executed,
                prepared_seqs=prepared,
                committed_seqs=committed,
                sender=self.id,
            )
        else:
            state = self._view_change_state(self.view)
            message = StatusPending(
                view=self.view,
                last_stable=self.stable_checkpoint_seq,
                last_executed=self.last_executed,
                has_new_view=state.new_view is not None,
                view_changes_from=tuple(sorted(state.view_changes)),
                sender=self.id,
            )
        self.auth.sign_multicast(message, self.others())
        self.env.broadcast(self.others(), message)

    def _status_seqs(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The sequence numbers a STATUS lists as prepared and as committed:
        those that are, plus every slot whose own last message is younger
        than :meth:`_status_timeout`.  Such a slot is still in flight here,
        so this replica asks for nothing for it yet (Section 5.2: the
        receiver says what it misses).  A status is read after its
        multicast and the reader's backlog, at n = 31 about half a batch's
        round trip later, so the reader's clock alone cannot tell a slot
        that was in flight when the status was built."""
        now = self.env.now()
        timeout = self._status_timeout()
        waiting = {
            seq
            for seq, slot in self.log.slots.items()
            if slot.pre_prepare is not None
            and not slot.committed
            and now - slot.sent_at < timeout
        }
        return (
            tuple(sorted(waiting.union(self.log.prepared_seqs()))),
            tuple(sorted(waiting.union(self.log.committed_seqs()))),
        )

    def _retransmit_stable_checkpoint(self, peer: str) -> None:
        """Unicast our stable checkpoint to a peer whose status shows it
        behind (Section 5.2) — shared by the active and pending handlers,
        since a peer stuck in a view change also needs the certificate to
        state-transfer forward."""
        own = self.checkpoints.get(self.stable_checkpoint_seq)
        if own is None:
            return
        checkpoint = Checkpoint(
            seq=self.stable_checkpoint_seq,
            state_digest=own.state_digest,
            sender=self.id,
        )
        self.auth.sign_point_to_point(checkpoint, peer)
        self.env.send(peer, checkpoint)

    def handle_status_active(self, message: StatusActive) -> None:
        if message.view != self.view or not self.active_view:
            return
        peer = message.sender
        # Retransmit what the peer is missing and we have, using unicast
        # (receiver-based recovery, Section 5.2).
        if message.last_stable < self.stable_checkpoint_seq:
            self._retransmit_stable_checkpoint(peer)
        prepared = set(message.prepared_seqs)
        committed = set(message.committed_seqs)
        now = self.env.now()
        timeout = self._status_timeout()
        for slot in self.log.slots.values():
            if slot.pre_prepare is None:
                continue
            if slot.seq <= message.last_executed:
                continue
            if now - slot.sent_at < timeout:
                # What this replica sent for the slot is still in flight.
                continue
            # The logged pre-prepare is a shared object (and may still sit
            # in an undelivered train): re-signing returns a copy, which is
            # what must be sent — never the original.  Own votes are not
            # kept; each is rebuilt from what this replica did — never from
            # the masks, where a vote forged under its name can set its bit.
            if slot.seq not in prepared:
                if self.is_primary:
                    self._resend(peer, slot.pre_prepare)
                if slot.pre_prepared_locally and self.config.primary_of(slot.view) != self.id:
                    self._resend(peer, self._own_vote(Prepare, slot))
            if slot.seq not in committed and slot.prepared:
                self._resend(peer, self._own_vote(Commit, slot))

    def _resend(self, peer: str, original: Message) -> None:
        """Unicast a copy of ``original``, authenticated for ``peer`` alone,
        in answer to the peer's status."""
        self.env.send(peer, self.auth.sign_point_to_point(original, peer))
        self.metrics.status_retransmissions += 1

    def _status_timeout(self) -> float:
        """How old this replica's last message for a slot must be before a
        status re-sends it: the retransmission timeout of RFC 6298 (smoothed
        round trip plus four variations), capped at a quarter of the status
        interval so a stall (a recovery reboot) cannot hold re-sends back
        for long; 0, every slot re-sent, before the first sample."""
        if self._srtt is None:
            return 0.0
        return min(self._srtt + 4 * self._rttvar, self.config.status_interval / 4)

    def _own_vote(self, kind: type, slot: Slot) -> Message:
        """This replica's PREPARE or COMMIT for ``slot``'s batch."""
        return kind(view=slot.view, seq=slot.seq, digest=slot.digest(), sender=self.id)

    def handle_status_pending(self, message: StatusPending) -> None:
        peer = message.sender
        # A peer stuck in a view change the group never joined may have
        # state transfer as its only way forward, and it can only fetch a
        # checkpoint it holds a certificate for — so retransmit our stable
        # checkpoint exactly as for active peers (Section 5.2).  Without
        # this, a replica that missed some of the original CHECKPOINT
        # multicasts while partitioned could never assemble the
        # certificate and stayed wedged behind the group forever.
        if message.last_stable < self.stable_checkpoint_seq:
            self._retransmit_stable_checkpoint(peer)
        state = self.view_change_states.get(message.view)
        # Retransmit our view-change message for the view the peer is in.
        if state is not None:
            own_vc = state.view_changes.get(self.id)
            if own_vc is not None and self.id not in message.view_changes_from:
                resigned = self.auth.sign_point_to_point(own_vc, peer)
                self.env.send(peer, resigned)
            if (
                not message.has_new_view
                and state.new_view is not None
                and self.config.primary_of(message.view) == self.id
            ):
                resigned = self.auth.sign_point_to_point(state.new_view, peer)
                self.env.send(peer, resigned)
