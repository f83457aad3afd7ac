"""The proactive-recovery manager (Sections 4.3.1–4.3.3).

Each replica owns a :class:`RecoveryManager`.  A recovery proceeds through
the phases the paper describes:

1. **Reboot** — the replica restarts from saved state; the simulation
   charges a configurable reboot cost.
2. **New keys** — the replica discards the session keys it shares with
   other nodes and distributes fresh ones (new-key messages), so an
   attacker who learned the old keys cannot impersonate it.
3. **Estimation** — the replica runs the query-stable protocol to compute
   an upper bound ``H_M`` on the high water mark it would have if it were
   not faulty, bounding the damage corrupt state can cause.
4. **State check / fetch** — the replica compares its checkpoint digest
   against the stable-certificate digest and fetches correct state if they
   differ (detecting state corruption by an attacker).
5. **Completion** — the recovery is complete when a checkpoint at or above
   the recovery point becomes stable, so other replicas can observe that
   the recovering replica is again up to date.

The manager records per-phase durations; the recovery benchmarks report
them (experiment E12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.messages import Message, NewKey, QueryStable, ReplyStable
from repro.crypto.mac import MACKey


#: Simulated cost of rebooting and restarting the replica, in microseconds.
#: The paper reboots from saved state in well under a second; the watchdog
#: period must be several times larger so that at most f replicas are ever
#: recovering at once (Section 4.3.3).
DEFAULT_REBOOT_COST = 250_000.0
#: Simulated cost of checking the local copy of the state, per checkpoint.
DEFAULT_STATE_CHECK_COST = 200_000.0


@dataclass
class RecoveryRecord:
    """Timing record of one recovery."""

    started_at: float
    reboot_done_at: float = 0.0
    estimation_done_at: float = 0.0
    state_checked_at: float = 0.0
    completed_at: Optional[float] = None
    recovery_point: int = 0
    state_was_corrupt: bool = False

    def duration(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def phase_durations(self) -> Dict[str, float]:
        done = self.completed_at if self.completed_at is not None else self.state_checked_at
        return {
            "reboot": self.reboot_done_at - self.started_at,
            "estimation": self.estimation_done_at - self.reboot_done_at,
            "state_check": self.state_checked_at - self.estimation_done_at,
            "catch_up": max(0.0, done - self.state_checked_at),
        }


class RecoveryManager:
    """Drives proactive recovery for one replica."""

    def __init__(
        self,
        replica,
        reboot_cost: float = DEFAULT_REBOOT_COST,
        state_check_cost: float = DEFAULT_STATE_CHECK_COST,
    ) -> None:
        self.replica = replica
        self.reboot_cost = reboot_cost
        self.state_check_cost = state_check_cost
        self.records: List[RecoveryRecord] = []
        self.current: Optional[RecoveryRecord] = None
        self._estimation_nonce = 0
        self._stable_replies: Dict[str, ReplyStable] = {}
        self.key_epochs_distributed = 0

    # ---------------------------------------------------------------- recovery
    @property
    def recovering(self) -> bool:
        return self.current is not None and self.current.completed_at is None

    def start_recovery(self) -> None:
        """Watchdog entry point: begin a proactive recovery."""
        if self.recovering:
            return
        replica = self.replica
        now = replica.env.now()
        record = RecoveryRecord(started_at=now)
        self.current = record
        self.records.append(record)

        # Phase 1: reboot from saved state (charged, not simulated in detail).
        replica.env.charge(self.reboot_cost)
        record.reboot_done_at = now + self.reboot_cost

        # If the replica believes it is the primary, hand off the view right
        # away so availability does not suffer while it recovers.
        if replica.is_primary and replica.active_view:
            replica.env.record("recovery-primary-handoff", view=replica.view)

        # Phase 2: refresh session keys.
        self.refresh_keys()

        # Phase 3: estimation protocol.
        self._stable_replies = {}
        self._estimation_nonce += 1
        query = QueryStable(nonce=self._estimation_nonce, sender=replica.id)
        # Like new-key messages, the estimation exchange is signed so it
        # remains verifiable while session keys are being replaced.
        replica.auth.sign_with_private_key(query)
        replica.env.broadcast(replica.others(), query)
        replica.env.record("recovery-started", replica=replica.id)

    def refresh_keys(self) -> None:
        """Distribute fresh inbound session keys (new-key message).

        Only replica-to-replica keys are refreshed here; keys shared with
        clients are refreshed by the clients' own new-key messages in the
        paper, which the simulated clients do not need to model.
        """
        replica = self.replica
        fresh = replica.auth.keys.refresh_inbound(
            peers=replica.config.replica_ids
        )
        self.key_epochs_distributed += 1
        message = NewKey(
            keys=tuple((peer, key.material) for peer, key in sorted(fresh.items())),
            counter=replica.auth.keys.epoch,
            sender=replica.id,
        )
        # New-key messages are signed with the co-processor's private key so
        # they remain verifiable even when the session keys they replace are
        # already stale at the receiver (Section 4.3.1).
        replica.auth.sign_with_private_key(message)
        replica.env.broadcast(replica.others(), message)

    # ----------------------------------------------------------------- handle
    def handle(self, message: Message) -> None:
        if isinstance(message, QueryStable):
            self._handle_query_stable(message)
        elif isinstance(message, ReplyStable):
            self._handle_reply_stable(message)
        elif isinstance(message, NewKey):
            self._handle_new_key(message)

    def _handle_query_stable(self, message: QueryStable) -> None:
        replica = self.replica
        prepared = replica.log.prepared_seqs()
        reply = ReplyStable(
            last_checkpoint=replica.stable_checkpoint_seq,
            last_prepared=max(prepared) if prepared else replica.stable_checkpoint_seq,
            nonce=message.nonce,
            sender=replica.id,
        )
        replica.auth.sign_with_private_key(reply)
        replica.env.send(message.sender, reply)

    def _handle_new_key(self, message: NewKey) -> None:
        replica = self.replica
        replica.env.charge(replica.params.crypto.signature_verify)
        for peer, material in message.keys:
            if peer == replica.id:
                replica.auth.keys.accept_new_key(
                    message.sender, MACKey(key_id=message.counter, material=material)
                )

    def _handle_reply_stable(self, message: ReplyStable) -> None:
        if not self.recovering or message.nonce != self._estimation_nonce:
            return
        self._stable_replies[message.sender] = message
        self._try_finish_estimation()

    def _try_finish_estimation(self) -> None:
        replica = self.replica
        record = self.current
        if record is None or record.estimation_done_at:
            return
        config = replica.config
        replies = list(self._stable_replies.values())
        if len(replies) < config.quorum:
            return
        # Choose c_M: a checkpoint value c from some replica such that 2f
        # other replicas reported checkpoints at or below c and f other
        # replicas reported prepared requests at or above c (Section 4.3.2).
        chosen: Optional[int] = None
        for candidate in sorted({r.last_checkpoint for r in replies}, reverse=True):
            below = sum(1 for r in replies if r.last_checkpoint <= candidate)
            above = sum(1 for r in replies if r.last_prepared >= candidate)
            if below >= 2 * config.f and above >= config.f:
                chosen = candidate
                break
        if chosen is None:
            chosen = min(r.last_checkpoint for r in replies)
        recovery_point = chosen + config.log_size
        record.recovery_point = recovery_point
        record.estimation_done_at = replica.env.now()

        # Phase 4: state check.  Compare our checkpoint digest for the
        # current stable sequence number against the digest proven stable by
        # the certificate; mismatches mean the state was corrupted.
        replica.env.charge(self.state_check_cost)
        record.state_checked_at = replica.env.now() + self.state_check_cost
        stable_seq = replica.stable_checkpoint_seq
        own = replica.checkpoints.get(stable_seq)
        expected = replica.stable_digest(stable_seq)
        current_digest = replica._state_digest()
        corrupt = False
        if own is not None and expected is not None and own.state_digest != expected:
            corrupt = True
        if own is not None and stable_seq == replica.last_executed:
            if current_digest != own.state_digest:
                corrupt = True
        if corrupt and expected is not None:
            record.state_was_corrupt = True
            # Refetch the stable checkpoint whose local copy proved corrupt.
            # ``restart`` forces a fresh transfer even though the checkpoint
            # is already stable locally; with page-level transfer the digest
            # diff then moves only the corrupted pages.
            replica.state_transfer.restart(stable_seq, expected)

        self._maybe_complete()

    # ------------------------------------------------------------- completion
    def on_stable_checkpoint(self, seq: int) -> None:
        self._maybe_complete()

    def on_state_fetched(self, seq: int) -> None:
        if self.current is not None and self.current.completed_at is None:
            # Fetching state during a recovery means the local copy was
            # corrupt or stale; record it for the operator (Section 4.1).
            self.current.state_was_corrupt = True
        self._maybe_complete()

    def _maybe_complete(self) -> None:
        record = self.current
        if record is None or record.completed_at is not None:
            return
        if not record.estimation_done_at:
            return
        if self.replica.stable_checkpoint_seq >= record.recovery_point or (
            record.recovery_point <= self.replica.config.log_size
            and self.replica.stable_checkpoint_seq > 0
        ):
            record.completed_at = self.replica.env.now()
            self.replica.env.record(
                "recovery-complete",
                replica=self.replica.id,
                duration=record.duration(),
            )
            self.current = None
