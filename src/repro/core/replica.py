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

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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
KEY_REFRESH_TIMER = "key-refresh"

#: Bound on the batch pipeline's result-digest memo (result bytes ->
#: digest); cleared wholesale when exceeded.  KV-style services return a
#: small set of distinct results (``OK``, ``MISSING``, read values), so
#: the memo collapses one digest computation per reply to a dict hit.
_RESULT_DIGEST_MEMO_LIMIT = 2048


class ReplicaStatus(enum.Enum):
    """Whether the replica's current view is active or a change is pending."""

    NORMAL = "normal"
    VIEW_CHANGE = "view-change"


@dataclass
class CheckpointSnapshot:
    """A logical copy of the service state taken at a checkpoint.

    ``service_snapshot`` is the refcounted copy-on-write
    :class:`~repro.services.interface.PageSnapshot` handle the service's
    ``snapshot()`` returned.  Consumers must treat it as immutable and go
    through ``Service.export_snapshot`` to obtain the portable form.
    """

    seq: int
    state_digest: bytes
    service_snapshot: object
    last_reply_timestamp: Dict[str, int]
    last_reply: Dict[str, Reply]


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
        self.status = ReplicaStatus.NORMAL
        self.active_view = True
        self.seqno = 0
        self.last_executed = 0
        self.last_tentative = 0
        self.log = MessageLog(config.log_size)
        self.metrics = ReplicaMetrics()
        self._handlers = self._handler_table()

        self.last_reply_timestamp: Dict[str, int] = {}
        self.last_reply: Dict[str, Reply] = {}
        #: Running AdHash over ``last_reply_timestamp`` entries, updated at
        #: execute time so checkpoints never re-pack the whole reply table.
        self._reply_digest = 0
        #: Operations executed since the last checkpoint; when zero, a new
        #: checkpoint can reuse the previous digest and snapshot outright.
        self._executed_since_checkpoint = 0
        #: ``service.state_version`` at the latest checkpoint.  Reuse also
        #: requires it unchanged: out-of-band mutations (fault injection,
        #: bench preloads) bump it, and unlike the dirty set it survives a
        #: flush between checkpoints.
        self._state_version_at_checkpoint = service.state_version
        self._last_checkpoint_seq = 0

        self.checkpoints: Dict[int, CheckpointSnapshot] = {}
        self.stable_checkpoint_seq = 0
        self._take_initial_checkpoint()

        #: Requests waiting for a sequence number (primary only).
        self.request_queue: List[Request] = []
        #: Pre-prepares buffered because a request body or its
        #: authentication is still missing: (view, seq) -> message.
        self.pending_pre_prepares: Dict[Tuple[int, int], PrePrepare] = {}

        #: P and Q sets carried across view changes (Section 3.2.4).
        self.pset: Dict[int, object] = {}
        self.qset: Dict[int, object] = {}
        self.view_change_states: Dict[int, ViewChangeState] = {}
        self._view_change_timeout = config.view_change_timeout
        #: Snapshot used to roll back a tentative execution aborted by a
        #: view change (Section 5.1.2).
        self._pre_tentative_snapshot: Optional[object] = None
        #: Undo log for the reply-table side of that rollback: one
        #: (client, previous timestamp, previous cached reply) entry per
        #: tentatively executed request.  Without it an aborted operation
        #: would leave ``last_reply_timestamp`` advanced, so re-executing
        #: the same request in the new view would be skipped as a
        #: retransmission and this replica would diverge.
        self._tentative_undo: List[Tuple[str, Optional[int], Optional[Reply]]] = []

        #: Attached by the recovery manager / state transfer manager.
        self.state_transfer = None
        self.recovery = None

        #: Batch-pipeline memos (wall-clock only — both map pure functions,
        #: so a stale entry can never change a value, only cost a recompute).
        #: ``_result_digest_memo``: result bytes -> digest(result).
        #: ``_reply_entry_memo``: client -> (timestamp, AdHash entry), the
        #: subtrahend of the next reply-digest delta for that client.
        self._result_digest_memo: Dict[bytes, bytes] = {}
        self._reply_entry_memo: Dict[str, Tuple[int, int]] = {}
        #: client -> canonical ``pack(client)`` encoding, for the bulk
        #: reply encoder (clients repeat every batch).
        self._client_enc_memo: Dict[str, bytes] = {}

        if self.options.batching:
            self._max_batch = max(1, self.options.max_batch_size)
        else:
            self._max_batch = 1

        self.env.set_timer(STATUS_TIMER, self.config.status_interval)

    # ------------------------------------------------------------------ intro
    @property
    def is_primary(self) -> bool:
        return self.config.is_primary(self.id, self.view)

    def primary(self) -> str:
        return self.config.primary_of(self.view)

    def others(self) -> Tuple[str, ...]:
        return self._others

    def _take_initial_checkpoint(self) -> None:
        snapshot = CheckpointSnapshot(
            seq=0,
            state_digest=self._state_digest(),
            service_snapshot=self.service.snapshot(),
            last_reply_timestamp={},
            last_reply={},
        )
        self.checkpoints[0] = snapshot

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
        authentication from a known principal (Section 5.5).  Types without
        a handler are dropped.
        """
        if message.auth is None or not self.auth.verify(message):
            self.metrics.messages_rejected += 1
            return
        handler = self._handlers.get(type(message))
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
        elif label == KEY_REFRESH_TIMER and self.recovery is not None:
            self.recovery.refresh_keys()

    # =====================================================================
    # Client requests
    # =====================================================================
    def handle_request(self, request: Request) -> None:
        client = request.client
        last_timestamp = self.last_reply_timestamp.get(client, 0)
        if request.timestamp < last_timestamp:
            return
        if request.timestamp == last_timestamp and client in self.last_reply:
            # Retransmission of an executed request: resend the cached reply.
            self._send_reply_message(self.last_reply[client])
            return

        if request.read_only and self.options.read_only_optimization:
            self._execute_read_only(request)
            return

        self.log.remember_request(request)
        if self.is_primary and self.active_view:
            self.request_queue.append(request)
            self._try_send_pre_prepare()
        else:
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
                self.request_queue.append(request)
                self._try_send_pre_prepare()
            return
        outcome = self.service.execute(
            request.operation, request.client, read_only=True
        )
        self.env.charge(
            self.params.execution_cost(len(request.operation), len(outcome.result))
        )
        self.metrics.read_only_executed += 1
        reply = self._build_reply(request, outcome.result, tentative=False)
        self._send_reply_message(reply)

    # =====================================================================
    # Pre-prepare (primary side)
    # =====================================================================
    def _try_send_pre_prepare(self) -> None:
        if not (self.is_primary and self.active_view):
            return
        while (
            self.request_queue
            and self.log.in_window(self.seqno + 1)
            and self.seqno - self.last_executed < self.options.pipeline_depth
        ):
            batch = self.request_queue[: self._max_batch]
            del self.request_queue[: len(batch)]
            self.seqno += 1
            self._send_pre_prepare(self.seqno, batch)

    def _send_pre_prepare(self, seq: int, batch: List[Request]) -> None:
        inline: List[Request] = []
        separate: List[bytes] = []
        for request in batch:
            if (
                self.options.separate_request_transmission
                and len(request.operation) > self.options.separate_request_threshold
            ):
                separate.append(request.request_digest())
            else:
                inline.append(request)
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
        self.auth.sign_multicast(pre_prepare, self.others())
        self.env.broadcast(self.others(), pre_prepare)
        self.env.record("pre-prepare-sent", seq=seq, batch=len(batch))
        self._check_prepared(slot)

    # =====================================================================
    # Pre-prepare (backup side)
    # =====================================================================
    def handle_pre_prepare(self, message: PrePrepare) -> None:
        if message.sender != self.config.primary_of(message.view):
            return
        if message.view != self.view or not self.active_view:
            return
        if not self.log.in_window(message.seq):
            return
        slot = self.log.slot(message.seq, self.view)
        existing = slot.digest()
        if existing is not None and existing != message.batch_digest():
            # Conflicting assignment from the primary: refuse it.  The
            # view-change timer started when the request arrived will fire.
            return
        if not self._have_all_requests(message):
            self.pending_pre_prepares[(message.view, message.seq)] = message
            return
        self._accept_pre_prepare(message, slot)

    def _have_all_requests(self, message: PrePrepare) -> bool:
        """A backup accepts a pre-prepare only when it can authenticate every
        request in the batch (Section 3.2.2): inlined requests carry their
        own authentication; separately-transmitted ones must have arrived
        from the client already."""
        for request in message.requests:
            self.log.remember_request(request)
        for request_digest in message.separate_digests:
            if self.log.request_by_digest(request_digest) is None:
                return False
        return True

    def _retry_pending_pre_prepares(self) -> None:
        for key in sorted(self.pending_pre_prepares):
            message = self.pending_pre_prepares[key]
            if message.view != self.view:
                continue
            if self._have_all_requests(message):
                del self.pending_pre_prepares[key]
                slot = self.log.slot(message.seq, self.view)
                self._accept_pre_prepare(message, slot)

    def _accept_pre_prepare(self, message: PrePrepare, slot: Slot) -> None:
        if slot.pre_prepare is not None:
            return
        if not self.service.check_nondet(message.nondet, self.env.now()):
            return
        self.log.attach_pre_prepare(slot, message)
        slot.pre_prepared_locally = True
        self._start_view_change_timer()

        prepare = Prepare(
            view=message.view,
            seq=message.seq,
            digest=message.batch_digest(),
            replica=self.id,
            sender=self.id,
        )
        slot.add_prepare(prepare, self._index)
        slot.own_prepare = prepare
        self.auth.sign_multicast(prepare, self.others())
        self.env.broadcast(self.others(), prepare)
        self._check_prepared(slot)

    # =====================================================================
    # Prepare / commit
    # =====================================================================
    def handle_prepare(self, message: Prepare) -> None:
        if message.replica == self.config.primary_of(message.view):
            # The primary never sends prepares; ignore forgeries.
            return
        if message.view != self.view or not self.log.in_window(message.seq):
            return
        voter = self._replica_indexes.get(message.replica)
        if voter is None:
            return
        slot = self.log.slot(message.seq, self.view)
        if slot.add_prepare(message, voter):
            self._check_prepared(slot)
            # A buffered pre-prepare may become acceptable once f prepares
            # vouch for the batch digest (condition 2 of Section 3.2.2).
            self._maybe_accept_by_prepares(message)

    def _maybe_accept_by_prepares(self, prepare: Prepare) -> None:
        key = (prepare.view, prepare.seq)
        pending = self.pending_pre_prepares.get(key)
        if pending is None:
            return
        slot = self.log.slot(prepare.seq, prepare.view)
        matching = slot.early_prepares_for(pending.batch_digest())
        if matching >= self.config.f and self._have_all_requests(pending):
            del self.pending_pre_prepares[key]
            self._accept_pre_prepare(pending, slot)

    def _check_prepared(self, slot: Slot) -> None:
        if slot.prepared or slot.pre_prepare is None or not slot.pre_prepared_locally:
            return
        if slot.prepare_count() < 2 * self.config.f:
            return
        slot.prepared = True
        commit = Commit(
            view=slot.view,
            seq=slot.seq,
            digest=slot.digest() or b"",
            replica=self.id,
            sender=self.id,
        )
        slot.add_commit(commit, self._index)
        slot.own_commit = commit
        self.auth.sign_multicast(commit, self.others())
        self.env.broadcast(self.others(), commit)
        if self.options.tentative_execution:
            self._try_execute_tentative()
        self._check_committed(slot)

    def handle_commit(self, message: Commit) -> None:
        if message.view != self.view or not self.log.in_window(message.seq):
            return
        voter = self._replica_indexes.get(message.replica)
        if voter is None:
            return
        slot = self.log.slot(message.seq, self.view)
        if slot.add_commit(message, voter):
            self._check_committed(slot)

    def _check_committed(self, slot: Slot) -> None:
        if slot.committed or not slot.prepared:
            return
        if slot.commit_count() < self.config.quorum:
            return
        slot.committed = True
        self.metrics.batches_committed += 1
        self._try_execute()

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
            if self.is_primary:
                self._try_send_pre_prepare()

    def _execute_slot(self, slot: Slot, tentative: bool) -> None:
        pre_prepare = slot.pre_prepare
        if pre_prepare is None:
            return
        requests = list(pre_prepare.requests)
        for request_digest in pre_prepare.separate_digests:
            request = self.log.request_by_digest(request_digest)
            if request is not None:
                requests.append(request)
        self._execute_batch(requests, pre_prepare.nondet, tentative)
        self.env.record("batch-executed", seq=slot.seq, tentative=tentative)

    def _execute_batch(
        self, requests: List[Request], nondet: bytes, tentative: bool
    ) -> None:
        """Execute one batch of requests, in order (Section 5.1.4).

        The rule, per request: a null request does nothing; a request older
        than the client's last executed one is dropped; a retransmission of
        the last one re-sends the cached reply, at its position in the
        batch (exactly-once, Section 3.1); anything newer executes, is
        charged ``execution_cost(len(operation), len(result))``, replaces
        the client's reply-table entry and cached reply — the full one, so
        a retransmission gets the result whoever is designated then — and
        is answered, with the result digest alone when digest replies apply
        and another replica is the designated replier (Section 5.1.1).
        Under ``tentative`` every executed request logs what it overwrote,
        so a view change can undo the batch (Section 5.1.2).

        The per-request overheads are amortized across the batch:

        * timestamps are deduplicated in one pass;
        * the service executes the whole batch through one
          :meth:`~repro.services.interface.Service.execute_batch` call
          (one dirty-set pass);
        * the reply-table AdHash delta accumulates as a plain integer and
          is reduced modulo once per batch;
        * replies are built in bulk with memoized result digests and
          signed through one per-batch point-to-point signer; and
        * the whole reply fan-out goes to the network through
          ``Env.send_many``, which builds a single delivery train.
        """
        last_ts = self.last_reply_timestamp
        last_reply = self.last_reply
        #: Execution plan, in request order: a Request executes; a plain
        #: ``str`` (the client) re-sends that client's cached reply.
        plan: List[object] = []
        ops: List[Tuple[bytes, str]] = []
        batch_ts: Dict[str, int] = {}
        for request in requests:
            if request.is_null:
                continue
            client = request.client
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
        outcomes = (
            self.service.execute_batch(ops, nondet=nondet) if ops else []
        )

        env = self.env
        charge = env.charge
        params = self.params
        exec_fixed = params.execution_fixed
        exec_per_byte = params.execution_per_byte
        options = self.options
        digest_replies = options.digest_replies
        digest_threshold = options.digest_replies_threshold
        sign = self.auth.point_to_point_signer()
        result_digests = self._result_digest_memo
        entry_memo = self._reply_entry_memo
        undo = self._tentative_undo
        view = self.view
        own_id = self.id
        sends: List[Tuple[str, Reply]] = []
        reply_delta = 0
        executed = 0
        outcome_index = 0
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
                # Retransmission ordered into the batch: re-send the cached
                # reply (built earlier in this very batch, or before it).
                cached = last_reply.get(entry)
                if cached is not None:
                    sign(cached, entry)
                    sends.append((entry, cached))
                continue
            request = entry
            outcome = outcomes[outcome_index]
            outcome_index += 1
            result = outcome.result
            charge(
                exec_fixed
                + exec_per_byte * (len(request.operation) + len(result))
            )
            executed += 1
            client = request.client
            timestamp = request.timestamp
            previous = last_ts.get(client)
            if tentative:
                undo.append((client, previous, last_reply.get(client)))
            new_entry = _reply_entry_digest(client, timestamp)
            reply_delta += new_entry
            if previous is not None:
                memo = entry_memo.get(client)
                if memo is not None and memo[0] == previous:
                    reply_delta -= memo[1]
                else:
                    reply_delta -= _reply_entry_digest(client, previous)
            entry_memo[client] = (timestamp, new_entry)
            last_ts[client] = timestamp
            result_digest = result_digests.get(result)
            if result_digest is None:
                result_digest = digest(result)
                if len(result_digests) >= _RESULT_DIGEST_MEMO_LIMIT:
                    result_digests.clear()
                result_digests[result] = result_digest
            reply = Reply(
                view=view,
                timestamp=timestamp,
                client=client,
                replica=own_id,
                result=result,
                result_digest=result_digest,
                tentative=tentative,
                sender=own_id,
            )
            last_reply[client] = reply
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
            if (
                digest_replies
                and len(result) >= digest_threshold
                and request.designated_replier is not None
                and request.designated_replier != own_id
            ):
                stripped = Reply(
                    view=view,
                    timestamp=timestamp,
                    client=client,
                    replica=own_id,
                    result=None,
                    result_digest=result_digest,
                    tentative=tentative,
                    sender=own_id,
                )
                # ``result`` is excluded from the canonical payload, so
                # the stripped variant shares the full reply's bytes.
                stripped.__dict__["_payload_bytes_cache"] = payload
                stripped.__dict__["_payload_digest_cache"] = (
                    reply.__dict__["_payload_digest_cache"]
                )
                reply = stripped
            sign(reply, client)
            sends.append((client, reply))
        self.metrics.requests_executed += executed
        self._executed_since_checkpoint += executed
        self._reply_digest = (self._reply_digest + reply_delta) % ADHASH_MODULUS
        env.send_many(sends)

    def _build_reply(
        self, request: Request, result: bytes, tentative: bool
    ) -> Reply:
        return Reply(
            view=self.view,
            timestamp=request.timestamp,
            client=request.client,
            replica=self.id,
            result=result,
            result_digest=digest(result),
            tentative=tentative,
            sender=self.id,
        )

    def _send_reply_message(self, reply: Reply) -> None:
        self.auth.sign_point_to_point(reply, reply.client)
        self.env.send(reply.client, reply)

    # =====================================================================
    # Checkpoints and garbage collection
    # =====================================================================
    def _take_checkpoint(self, seq: int) -> None:
        previous = self.checkpoints.get(self._last_checkpoint_seq)
        if (
            self._executed_since_checkpoint == 0
            and previous is not None
            and self.service.state_version == self._state_version_at_checkpoint
        ):
            # Nothing executed since the previous checkpoint (e.g. a batch
            # of null requests or pure retransmissions) and the service's
            # mutation counter is unchanged — no out-of-band mutation
            # (fault injection, bench preloading) happened either, even if
            # an intermediate flush already cleared the dirty set.  The
            # state and the reply table are unchanged, so reuse the digest
            # and share the snapshot instead of redoing the work.
            state_digest = previous.state_digest
            snapshot = CheckpointSnapshot(
                seq=seq,
                state_digest=state_digest,
                service_snapshot=self.service.acquire_snapshot(
                    previous.service_snapshot
                ),
                last_reply_timestamp=previous.last_reply_timestamp,
                last_reply=previous.last_reply,
            )
            self.env.record("checkpoint-reused", seq=seq)
        else:
            state_digest = self._state_digest()
            snapshot = CheckpointSnapshot(
                seq=seq,
                state_digest=state_digest,
                service_snapshot=self.service.snapshot(),
                last_reply_timestamp=dict(self.last_reply_timestamp),
                last_reply=dict(self.last_reply),
            )
        self.checkpoints[seq] = snapshot
        self._last_checkpoint_seq = seq
        self._executed_since_checkpoint = 0
        self._state_version_at_checkpoint = self.service.state_version
        self.metrics.checkpoints_taken += 1
        message = Checkpoint(
            seq=seq, state_digest=state_digest, replica=self.id, sender=self.id
        )
        record = self.log.checkpoint_record(seq)
        record.add(message)
        self.auth.sign_multicast(message, self.others())
        self.env.broadcast(self.others(), message)
        self._check_checkpoint_stable(seq)

    def handle_checkpoint(self, message: Checkpoint) -> None:
        if message.seq <= self.stable_checkpoint_seq:
            return
        record = self.log.checkpoint_record(message.seq)
        record.add(message)
        # Re-evaluate stability even for duplicate messages: whether a
        # completed certificate is *actionable* depends on state that
        # changes after it first completes (view activity, water marks,
        # our own checkpoints) — and a peer retransmitting its stable
        # checkpoint is precisely the signal that the group has moved on
        # while we have not.  Edge-triggering this check once wedged a
        # healed replica forever: its certificate completed while the
        # trigger conditions were false, and no later receipt re-ran it.
        self._check_checkpoint_stable(message.seq)

    def _checkpoint_stability_threshold(self) -> int:
        """BFT needs a quorum certificate for stability (Section 3.2.3);
        BFT-PK only needs a weak certificate (Section 2.3.4) because
        checkpoint messages are signed and can be exchanged as proofs."""
        if self.options.auth_mode is AuthMode.SIGNATURE:
            return self.config.weak
        return self.config.quorum

    def _check_checkpoint_stable(self, seq: int) -> None:
        if seq <= self.stable_checkpoint_seq:
            return
        record = self.log.checkpoints.get(seq)
        if record is None:
            return
        stable_digest = record.stable_digest(self._checkpoint_stability_threshold())
        if stable_digest is None:
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
                self._request_state_transfer(seq, stable_digest)
            return
        if own.state_digest != stable_digest:
            # Our state diverged from the stable checkpoint: treat it as
            # corruption and fetch the correct state.
            self._request_state_transfer(seq, stable_digest)
            return
        self._make_checkpoint_stable(seq)

    def _make_checkpoint_stable(self, seq: int) -> None:
        self.stable_checkpoint_seq = seq
        self.metrics.stable_checkpoints += 1
        self.log.collect_garbage(seq)
        for old_seq in [s for s in self.checkpoints if s < seq]:
            self.service.release_snapshot(self.checkpoints[old_seq].service_snapshot)
            del self.checkpoints[old_seq]
            if self.state_transfer is not None:
                self.state_transfer.discard_checkpoint(old_seq)
        self.env.record("checkpoint-stable", seq=seq)
        if self.is_primary:
            self._try_send_pre_prepare()
        if self.recovery is not None:
            self.recovery.on_stable_checkpoint(seq)

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
        self._adopt_fetched_checkpoint(seq, state_digest, last_reply_timestamp)
        self.env.record(
            "state-transfer-installed", seq=seq, pages=len(updates)
        )
        return True

    def _adopt_fetched_checkpoint(
        self, seq: int, state_digest: bytes, last_reply_timestamp: Dict[str, int]
    ) -> None:
        existing = self.checkpoints.get(seq)
        if existing is not None:
            # Re-fetch of a checkpoint we already held (recovery replacing
            # a corrupt copy): release the stale snapshot handle.
            self.service.release_snapshot(existing.service_snapshot)
            if self.state_transfer is not None:
                self.state_transfer.discard_checkpoint(seq)
        snapshot = CheckpointSnapshot(
            seq=seq,
            state_digest=state_digest,
            service_snapshot=self.service.snapshot(),
            last_reply_timestamp=dict(last_reply_timestamp),
            last_reply={},
        )
        self.checkpoints[seq] = snapshot
        self._last_checkpoint_seq = seq
        self._executed_since_checkpoint = 0
        self._state_version_at_checkpoint = self.service.state_version
        self.stable_checkpoint_seq = seq
        self.log.collect_garbage(seq)

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
            # Waiting for a new-view that never came: move to the next view
            # and double the timeout (Section 2.3.5, liveness).
            self._view_change_timeout *= 2
            self.start_view_change(self.view + 1)
        else:
            self.start_view_change(self.view + 1)

    def start_view_change(self, target_view: int) -> None:
        """Move to ``target_view`` and broadcast a view-change message."""
        if target_view <= self.view and not self.active_view:
            return
        if target_view <= self.view:
            return
        self._abort_tentative_execution()
        self.view = target_view
        self.active_view = False
        self.status = ReplicaStatus.VIEW_CHANGE
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
            replica=self.id,
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
        # digest matches replicas that never executed tentatively).
        for client, prev_ts, prev_reply in reversed(self._tentative_undo):
            current = self.last_reply_timestamp.get(client)
            delta = 0
            if current is not None:
                delta -= _reply_entry_digest(client, current)
            if prev_ts is None:
                self.last_reply_timestamp.pop(client, None)
            else:
                self.last_reply_timestamp[client] = prev_ts
                delta += _reply_entry_digest(client, prev_ts)
            self._reply_digest = (self._reply_digest + delta) % ADHASH_MODULUS
            if prev_reply is None:
                self.last_reply.pop(client, None)
            else:
                self.last_reply[client] = prev_reply
            self._executed_since_checkpoint -= 1
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
                        origin=message.replica)

        new_primary = self.config.primary_of(message.new_view)
        if new_primary == self.id:
            # As the new primary we accept our own and others' messages once
            # acknowledged; record and re-evaluate.
            self._maybe_accept_view_change(state, message.replica)
            self._maybe_send_new_view(message.new_view)
        else:
            if message.replica != self.id:
                ack = ViewChangeAck(
                    new_view=message.new_view,
                    replica=self.id,
                    origin=message.replica,
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
        ahead: Dict[int, set] = {}
        for target_view, state in self.view_change_states.items():
            if target_view <= self.view or (target_view == self.view and not self.active_view):
                continue
            for origin in state.view_changes:
                if origin != self.id:
                    ahead.setdefault(target_view, set()).add(origin)
        candidates = sorted(
            view for view, origins in ahead.items() if len(origins) >= self.config.weak
        )
        if candidates and candidates[0] > self.view:
            self.start_view_change(candidates[0])

    def handle_view_change_ack(self, message: ViewChangeAck) -> None:
        if self.config.primary_of(message.new_view) != self.id:
            return
        state = self._view_change_state(message.new_view)
        state.record_ack(message.origin, message.replica)
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
        if origin == self.id or state.ack_count(origin) >= 2 * self.config.f - 1:
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
        self.view = message.new_view
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
        self.status = ReplicaStatus.NORMAL
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
        for seq in sorted(decision.selections):
            if seq <= self.last_executed:
                continue
            selection = decision.selections[seq]
            batch = self._batch_for_selection(selection)
            if batch is None:
                continue
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
            if send_prepares:
                prepare = Prepare(
                    view=self.view,
                    seq=seq,
                    digest=new_pre_prepare.batch_digest(),
                    replica=self.id,
                    sender=self.id,
                )
                slot.add_prepare(prepare, self._index)
                slot.own_prepare = prepare
                prepares_to_send.append(prepare)

        for prepare in prepares_to_send:
            self.auth.sign_multicast(prepare, self.others())
            self.env.broadcast(self.others(), prepare)

        self.env.record("new-view-entered", view=self.view)

        # Requests queued while the view change was in progress.
        if self.is_primary:
            self._try_send_pre_prepare()
        for seq in sorted(decision.selections):
            slot = self.log.existing_slot(seq)
            if slot is not None:
                self._check_prepared(slot)

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
        if self.active_view:
            # Receiver-based recovery (Section 5.2) only works if the
            # periodic status goes out even when this replica *believes*
            # nothing is outstanding: a backup that dropped a pre-prepare
            # as out-of-window has no record it exists, and only its
            # status (last-executed below the primary's seqno) prompts the
            # primary to retransmit it.  An earlier "skip when idle"
            # fast-out here silenced exactly those replicas and wedged the
            # group under heavy batching load.
            message = StatusActive(
                view=self.view,
                last_stable=self.stable_checkpoint_seq,
                last_executed=self.last_executed,
                replica=self.id,
                prepared_seqs=self.log.prepared_seqs(),
                committed_seqs=self.log.committed_seqs(),
                sender=self.id,
            )
        else:
            state = self._view_change_state(self.view)
            message = StatusPending(
                view=self.view,
                last_stable=self.stable_checkpoint_seq,
                last_executed=self.last_executed,
                replica=self.id,
                has_new_view=state.new_view is not None,
                view_changes_from=tuple(sorted(state.view_changes)),
                sender=self.id,
            )
        self.auth.sign_multicast(message, self.others())
        self.env.broadcast(self.others(), message)

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
            replica=self.id,
            sender=self.id,
        )
        self.auth.sign_point_to_point(checkpoint, peer)
        self.env.send(peer, checkpoint)

    def handle_status_active(self, message: StatusActive) -> None:
        if message.view != self.view or not self.active_view:
            return
        peer = message.replica
        # Retransmit what the peer is missing and we have, using unicast
        # (receiver-based recovery, Section 5.2).
        if message.last_stable < self.stable_checkpoint_seq:
            self._retransmit_stable_checkpoint(peer)
        prepared = set(message.prepared_seqs)
        committed = set(message.committed_seqs)
        for slot in self.log.slots.values():
            if slot.pre_prepare is None:
                continue
            if slot.seq <= message.last_executed:
                continue
            # The logged messages are shared objects (and may still sit in
            # an undelivered envelope): re-signing returns a copy, which is
            # what must be sent — never the original.
            if slot.seq not in prepared:
                if self.is_primary:
                    resigned = self.auth.sign_point_to_point(slot.pre_prepare, peer)
                    self.env.send(peer, resigned)
                if slot.own_prepare is not None:
                    resigned = self.auth.sign_point_to_point(slot.own_prepare, peer)
                    self.env.send(peer, resigned)
            if slot.seq not in committed and slot.own_commit is not None:
                resigned = self.auth.sign_point_to_point(slot.own_commit, peer)
                self.env.send(peer, resigned)

    def handle_status_pending(self, message: StatusPending) -> None:
        peer = message.replica
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
