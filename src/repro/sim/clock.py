"""Simulated clock.

All times in the simulator are expressed in microseconds, matching the
units used by the analytic performance model in Chapter 7 of the paper.
"""

from __future__ import annotations


class SimClock:
    """A monotonically non-decreasing virtual clock.

    The scheduler advances the clock to the timestamp of each event it
    dispatches.  Nodes read the clock to timestamp requests and to compute
    timeouts; they never advance it directly.  The scheduler's train walk,
    whose arrival times are already in order, stores ``_now`` itself instead
    of paying for :meth:`advance_to` on every delivered copy.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start at a negative time")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Advance the clock to ``when``.

        Raises ``ValueError`` if ``when`` is in the past: the scheduler
        guarantees events are dispatched in timestamp order, so a move
        backwards indicates a scheduling bug.
        """
        if when > self._now:
            self._now = when if type(when) is float else float(when)
        elif when + 1e-9 < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, requested={when}"
            )

    def advance_by(self, delta: float) -> None:
        """Advance the clock by a non-negative ``delta`` microseconds."""
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self._now += delta

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SimClock(now={self._now:.3f}us)"
