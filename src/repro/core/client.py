"""The BFT client protocol (Section 2.3.2 and the Chapter-5 optimizations).

A client sends a request to the primary (or multicasts it, for read-only
and separately-transmitted requests), collects replies, and accepts a
result once it holds a large-enough certificate of matching replies:

* a weak certificate (f+1) of non-tentative replies in the base protocol,
* a quorum certificate (2f+1) of tentative replies when replicas execute
  tentatively (Section 5.1.2), and
* a quorum certificate for read-only requests (Section 5.1.3).

Under digest replies (Section 5.1.1) each request names a designated
replier, the one replica that returns a large result in full; the others
return its digest, on the read-write and the read-only path alike.  The
client rotates the designation among the replicas that backed the result
of its last completed request (among all of them before the first), so a
replica that stopped answering is not designated; one that goes silent or
wrong while designated costs one retransmission timeout.

If replies do not arrive before the retransmission timeout, the client
retransmits the request to all replicas with exponential backoff, asking
every replica for the full result; a read-only request that cannot gather
a quorum is retried through the normal read-write path.  The client sends
to the primary of the highest view that f + 1 replicas named in their
replies, so one faulty replica cannot redirect it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.auth import Authentication
from repro.core.config import ProtocolOptions, ReplicaSetConfig, DEFAULT_OPTIONS
from repro.core.env import Env
from repro.core.messages import Message, Reply, Request
from repro.core.quorum import Certificate
from repro.crypto.digests import digest

RETRANSMIT_TIMER = "client-retransmit"

CompletionCallback = Callable[["CompletedRequest"], None]


@dataclass
class CompletedRequest:
    """Delivered to the completion callback when an operation finishes."""

    operation: bytes
    timestamp: int
    result: bytes
    latency: float
    sent_at: float
    completed_at: float
    read_only: bool
    retransmissions: int
    view: int


@dataclass
class _PendingRequest:
    request: Request
    sent_at: float
    read_only: bool
    #: The replicas that replied, per (result digest, tentative flag).  A
    #: replica may back several values: a tentative result and, after a
    #: retransmission, the committed one.
    votes: Certificate = field(default_factory=Certificate)
    #: Full results seen, keyed by result digest.
    results: Dict[bytes, bytes] = field(default_factory=dict)
    #: Each replica's latest reply view, by replica index.
    reply_views: Dict[int, int] = field(default_factory=dict)
    retransmissions: int = 0


class Client:
    """One BFT client.

    Completion state is O(1): at most one request is outstanding and
    timestamps only grow, so the client keeps just its newest completion
    (``last_completed``).  Per-operation records reach the caller through
    ``on_complete`` and nowhere else.
    """

    def __init__(
        self,
        client_id: str,
        config: ReplicaSetConfig,
        env: Env,
        auth: Authentication,
        options: ProtocolOptions = DEFAULT_OPTIONS,
        on_complete: Optional[CompletionCallback] = None,
    ) -> None:
        self.id = client_id
        self.config = config
        self.env = env
        self.auth = auth
        self.auth.bind_env(env)
        self.options = options
        self.on_complete = on_complete

        self.view = 0
        self.last_timestamp = 0
        self.pending: Optional[_PendingRequest] = None
        self.last_completed: Optional[CompletedRequest] = None
        self._replier_rotation = 0
        #: The voters for the winning result of the last completed request
        #: (a bitmask of replica indexes); 0 before the first completion.
        self._last_voters = 0
        self._timeout = config.client_retransmission_timeout

    # ------------------------------------------------------------------ API
    def invoke(self, operation: bytes, read_only: bool = False) -> int:
        """Issue an operation; returns the request timestamp.

        The client protocol assumes one outstanding operation at a time
        (Section 2.3.2); callers wait for completion before invoking again.
        """
        if self.pending is not None:
            raise RuntimeError(
                f"client {self.id} already has an outstanding request"
            )
        self.last_timestamp += 1
        timestamp = self.last_timestamp
        request = Request(
            operation=operation,
            timestamp=timestamp,
            read_only=read_only and self.options.read_only_optimization,
            designated_replier=self._pick_designated_replier(),
            sender=self.id,
        )
        self.pending = _PendingRequest(
            request=request, sent_at=self.env.now(), read_only=request.read_only
        )
        self._transmit(first=True)
        return timestamp

    def is_complete(self, timestamp: int) -> bool:
        last = self.last_completed
        return last is not None and timestamp <= last.timestamp

    def result_of(self, timestamp: int) -> Optional[CompletedRequest]:
        """The record of ``timestamp`` if it is the newest completion."""
        last = self.last_completed
        return last if last is not None and last.timestamp == timestamp else None

    @property
    def busy(self) -> bool:
        return self.pending is not None

    def stall_report(self) -> str:
        """Where the outstanding request stands: its timestamp, path,
        designated replier and retransmissions, then one line per (result
        digest, tentative) naming its voters and whether the full result is
        held.  It reads state only."""
        pending = self.pending
        if pending is None:
            return f"{self.id} idle"
        request = pending.request
        lines = [
            f"{self.id} pending timestamp {request.timestamp} "
            f"{'read-only' if pending.read_only else 'read-write'} "
            f"designated {request.designated_replier or '-'} "
            f"retransmissions {pending.retransmissions}"
        ]
        replicas = self.config.replica_ids
        for result_digest, tentative in pending.votes:
            voters = pending.votes.voters((result_digest, tentative))
            lines.append(
                f"  result {result_digest.hex()[:16]} "
                f"{'tentative' if tentative else 'committed'} voters "
                + ",".join(r for i, r in enumerate(replicas) if voters >> i & 1)
                + (" full result held" if result_digest in pending.results
                   else " full result not held")
            )
        return "\n".join(lines)

    # ---------------------------------------------------------------- sending
    def _pick_designated_replier(self) -> Optional[str]:
        """Rotate the designated replier among the replicas that backed the
        last completed result (every replica before the first completion):
        one that stopped answering is not asked for the next full result."""
        if not self.options.digest_replies:
            return None
        replicas = self.config.replica_ids
        voters = self._last_voters
        if voters:
            replicas = [r for i, r in enumerate(replicas) if voters >> i & 1]
        choice = replicas[self._replier_rotation % len(replicas)]
        self._replier_rotation += 1
        return choice

    def _transmit(self, first: bool) -> None:
        assert self.pending is not None
        request = self.pending.request
        broadcast = (
            request.read_only
            or not first
            or self.options.transmits_separately(request.operation)
        )
        # A retransmission re-signs the pending request, whose first copy
        # may still be in flight: send the (possibly copied) return value.
        if broadcast:
            request = self.auth.sign_multicast(request, self.config.replica_ids)
            self.env.broadcast(self.config.replica_ids, request)
        else:
            primary = self.config.primary_of(self.view)
            request = self.auth.sign_multicast(request, self.config.replica_ids)
            self.env.send(primary, request)
        self.env.set_timer(RETRANSMIT_TIMER, self._timeout)

    # --------------------------------------------------------------- receiving
    def receive(self, message: Message) -> None:
        if not isinstance(message, Reply):
            return
        # A reply counts for the replica that authenticated it and for no
        # other, so one faulty replica cannot supply a whole certificate.
        if not self.auth.verify(message) or message.sender not in self.config.replica_indexes:
            self.env.record("reply-rejected", replica=message.sender)
            return
        self.handle_reply(message)

    def handle_reply(self, reply: Reply) -> None:
        pending = self.pending
        if pending is None or reply.timestamp != pending.request.timestamp:
            return
        if reply.client != self.id:
            return
        voter = self.config.replica_indexes[reply.sender]
        pending.reply_views[voter] = reply.view
        if reply.view > self.view:
            self._adopt_view(pending)

        pending.votes.add(voter, (reply.result_digest, reply.tentative))
        if reply.result is not None:
            if digest(reply.result) != reply.result_digest:
                return
            pending.results[reply.result_digest] = reply.result

        self._check_complete()

    def _adopt_view(self, pending: _PendingRequest) -> None:
        """Send future requests to the primary of the highest view that
        f + 1 replicas named, so at least one correct replica is in it: one
        faulty replica's reply cannot redirect the client."""
        views = sorted(pending.reply_views.values(), reverse=True)
        f = self.config.f
        if len(views) > f and views[f] > self.view:
            self.view = views[f]

    def _required_votes(self, tentative: bool) -> int:
        if self.pending is not None and self.pending.read_only:
            return self.config.quorum
        if tentative:
            return self.config.quorum
        return self.config.weak

    def _check_complete(self) -> None:
        pending = self.pending
        if pending is None:
            return
        votes = pending.votes
        for result_digest, tentative in votes:
            # Tentative and non-tentative replies with the same result digest
            # support each other; count the union but apply the stricter
            # threshold only to purely-tentative certificates.
            voters = votes.voters((result_digest, tentative))
            if tentative:
                voters |= votes.voters((result_digest, False))
            if voters.bit_count() < self._required_votes(tentative):
                continue
            if result_digest not in pending.results:
                # Certificate complete but the full result has not arrived
                # (digest replies): wait for the designated replier or for a
                # retransmission to request full replies.
                continue
            self._complete(result_digest, voters)
            return

    def _complete(self, result_digest: bytes, voters: int) -> None:
        pending = self.pending
        assert pending is not None
        now = self.env.now()
        completed = CompletedRequest(
            operation=pending.request.operation,
            timestamp=pending.request.timestamp,
            result=pending.results[result_digest],
            latency=now - pending.sent_at,
            sent_at=pending.sent_at,
            completed_at=now,
            read_only=pending.read_only,
            retransmissions=pending.retransmissions,
            view=self.view,
        )
        self.last_completed = completed
        self._last_voters = voters
        self.pending = None
        self.env.cancel_timer(RETRANSMIT_TIMER)
        self._timeout = self.config.client_retransmission_timeout
        self.env.record("request-complete", timestamp=completed.timestamp,
                        latency=completed.latency)
        if self.on_complete is not None:
            self.on_complete(completed)

    # ----------------------------------------------------------------- timers
    def on_timer(self, label: str) -> None:
        if label != RETRANSMIT_TIMER or self.pending is None:
            return
        pending = self.pending
        pending.retransmissions += 1
        # Randomised exponential backoff in the paper; here deterministic
        # doubling with a cap so transient unavailability (e.g. overlapping
        # proactive recoveries) does not push completion out indefinitely.
        self._timeout = min(
            self._timeout * 2, 8 * self.config.client_retransmission_timeout
        )
        if pending.read_only:
            # A read-only request that cannot gather a quorum (e.g. because
            # of concurrent writes) is retried as a regular request.
            pending.request = Request(
                operation=pending.request.operation,
                timestamp=pending.request.timestamp,
                read_only=False,
                designated_replier=None,
                sender=self.id,
            )
            pending.read_only = False
            pending.votes = Certificate()
            pending.results.clear()
        elif pending.request.designated_replier is not None:
            # Ask every replica for a full reply.  Once the request is
            # already in this plain form, later retransmissions reuse the
            # same message object (and its cached encoding and MAC tags).
            pending.request = Request(
                operation=pending.request.operation,
                timestamp=pending.request.timestamp,
                read_only=False,
                designated_replier=None,
                sender=self.id,
            )
        self._transmit(first=False)
