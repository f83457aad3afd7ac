"""Load generators: a closed loop and an open loop over the public cluster API.

Both run inside the simulation, on the cluster's own scheduler, in the one
thread the simulator has.  They work on a ``BFTCluster`` and on a
``ShardedKVCluster`` alike (anything with ``new_client``/``run``/
``scheduler``).

* **Closed loop** — each client issues its next operation only when the
  previous one completes, so a slow system receives less load.  Stated by
  its client count.
* **Open loop** — operations arrive on a schedule fixed before the run,
  whatever the system does.  PBFT allows one outstanding request per
  client, so arrivals draw from a pool of clients; an arrival that finds
  no free client waits, and its latency counts from its *due* time.

Every completion is checked against the operation that client had
outstanding: a wrong result, a completion nobody asked for, or an operation
still missing at the deadline counts as failed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from repro.sim.events import EventKind

#: ``(client_index, op_index) -> (operation, read_only)``
MakeOp = Callable[[int, int], Tuple[bytes, bool]]
#: ``(operation, result) -> result is acceptable``
CheckResult = Callable[[bytes, bytes], bool]


@dataclass
class Ledger:
    """What one measured span attempted and what came back."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    #: Simulated µs from issue (closed loop) or due time (open loop) to the
    #: reply quorum, one per correctly completed operation.
    latencies: List[float] = field(default_factory=list)
    #: Simulated completion times, in completion order.
    completion_times: List[float] = field(default_factory=list)
    retransmissions: int = 0
    per_client: List[int] = field(default_factory=list)
    # Open loop only.
    backlog_max: int = 0
    backlog_at_last_arrival: int = 0
    max_lateness_us: float = 0.0

    def steady_window(self) -> Tuple[int, float]:
        """``(completions, simulated µs)`` of the central 80% of the span's
        completions.  Throughput is their ratio: it leaves out the ramp-up
        and the tail in which a closed loop's clients finish one by one, so
        one straggler does not set the figure."""
        times = self.completion_times
        skip = len(times) // 10
        if len(times) - 2 * skip < 2:
            return 0, 0.0
        return len(times) - 2 * skip - 1, times[-skip - 1] - times[skip]

    @property
    def longest_gap_us(self) -> float:
        """Longest simulated time between two consecutive completions."""
        times = self.completion_times
        return max((b - a for a, b in zip(times, times[1:])), default=0.0)


class _Loop:
    """Client pool plus the completion bookkeeping both loops share."""

    def __init__(
        self, cluster: Any, num_clients: int, make_op: MakeOp, check: CheckResult
    ) -> None:
        self.cluster = cluster
        self.scheduler = cluster.scheduler
        self.make_op = make_op
        self.check = check
        self.clients = [
            cluster.new_client(on_complete=partial(self._on_complete, index))
            for index in range(num_clients)
        ]
        #: Per client: ``(operation, time latency counts from)`` or None.
        self._outstanding: List[Optional[Tuple[bytes, float]]] = [None] * num_clients
        self._issued = [0] * num_clients
        self._remaining = 0
        self.ledger = Ledger()

    def _begin(self, attempted: int) -> None:
        self.ledger = Ledger(attempted=attempted, per_client=[0] * len(self.clients))
        self._remaining = attempted

    def _issue(self, index: int, timed_from: float, in_handler: bool) -> None:
        operation, read_only = self.make_op(index, self._issued[index])
        self._issued[index] += 1
        self._outstanding[index] = (operation, timed_from)
        client = self.clients[index]
        if hasattr(client, "submit"):  # ShardClient routes by key
            client.submit(operation, read_only=read_only, external=not in_handler)
        elif in_handler:
            # Inside this client's own reply handler: its node flushes the
            # send when the handler returns.
            client.protocol.invoke(operation, read_only=read_only)
        else:
            client.invoke_async(operation, read_only=read_only)

    def _record(self, index: int, completed: Any) -> bool:
        """Book one completion; False when nobody was waiting for it."""
        ledger = self.ledger
        entry = self._outstanding[index]
        if entry is None:
            ledger.failed += 1
            return False
        self._outstanding[index] = None
        self._remaining -= 1
        operation, timed_from = entry
        ledger.retransmissions += completed.retransmissions
        if completed.operation != operation or not self.check(operation, completed.result):
            ledger.failed += 1
            return True
        ledger.completed += 1
        ledger.per_client[index] += 1
        ledger.latencies.append(completed.completed_at - timed_from)
        ledger.completion_times.append(completed.completed_at)
        return True

    def _drive(self, deadline_us: float) -> Ledger:
        self.cluster.run(duration=deadline_us, stop_when=lambda: self._remaining <= 0)
        ledger = self.ledger
        ledger.failed += max(0, self._remaining)  # still missing at the deadline
        return ledger

    def _on_complete(self, index: int, completed: Any) -> None:
        raise NotImplementedError


class ClosedLoop(_Loop):
    """``num_clients`` clients, each re-issuing once it completes.

    ``think_us(client)`` is the pause between a completion and that
    client's next issue.  The paper's clients do not pause; a pause of a
    few tens of µs, drawn per operation from the seed, keeps the clients
    from marching in lockstep with the primary's batches, which zero think
    time in a deterministic simulator otherwise produces."""

    def __init__(
        self, cluster: Any, num_clients: int, make_op: MakeOp, check: CheckResult,
        think_us: Callable[[int], float],
    ) -> None:
        super().__init__(cluster, num_clients, make_op, check)
        self.think_us = think_us

    def run(self, ops_per_client: int, deadline_us: float) -> Ledger:
        """Issue ``ops_per_client`` operations per client, each client
        starting after one think time."""
        self._begin(ops_per_client * len(self.clients))
        self._quota = [issued + ops_per_client for issued in self._issued]
        for index in range(len(self.clients)):
            self._think_then_issue(index)
        ledger = self._drive(deadline_us)
        if any(count != ops_per_client for count in ledger.per_client):
            # Exactly once per client: a lost or doubled operation shows here
            # even when the total happens to add up.
            ledger.failed = max(ledger.failed, 1)
        return ledger

    def _think_then_issue(self, index: int) -> None:
        self.scheduler.schedule_after(
            self.think_us(index), EventKind.INTERNAL, "loadgen",
            callback=partial(self._arrive, index),
        )

    def _arrive(self, index: int) -> None:
        self._issue(index, self.scheduler.clock.now, in_handler=False)

    def _on_complete(self, index: int, completed: Any) -> None:
        if self._record(index, completed) and self._issued[index] < self._quota[index]:
            self._think_then_issue(index)


class OpenLoop(_Loop):
    """Arrivals on a fixed schedule, served by a pool of clients."""

    def run(self, due_offsets: Sequence[float], deadline_us: float) -> Ledger:
        """One arrival per entry of ``due_offsets`` (ascending simulated µs
        from now)."""
        self._begin(len(due_offsets))
        start = self.scheduler.clock.now
        self._due = [start + offset for offset in due_offsets]
        self._next = 0
        self._free: Deque[int] = deque(range(len(self.clients)))
        self._backlog: Deque[float] = deque()
        self._schedule_next_arrival()
        return self._drive(deadline_us)

    def _schedule_next_arrival(self) -> None:
        if self._next < len(self._due):
            self.scheduler.schedule_at(
                self._due[self._next], EventKind.INTERNAL, "loadgen",
                callback=self._arrive,
            )

    def _arrive(self) -> None:
        due = self._due[self._next]
        self._next += 1
        if self._free:
            self._issue(self._free.popleft(), due, in_handler=False)
        else:
            self._backlog.append(due)
            self.ledger.backlog_max = max(self.ledger.backlog_max, len(self._backlog))
        if self._next == len(self._due):
            self.ledger.backlog_at_last_arrival = len(self._backlog)
        self._schedule_next_arrival()

    def _on_complete(self, index: int, completed: Any) -> None:
        if not self._record(index, completed):
            return
        if self._backlog:
            due = self._backlog.popleft()
            lateness = completed.completed_at - due
            if lateness > self.ledger.max_lateness_us:
                self.ledger.max_lateness_us = lateness
            self._issue(index, due, in_handler=True)
        else:
            self._free.append(index)
