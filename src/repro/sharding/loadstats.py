"""Online load accounting for the sharded deployment.

:class:`LoadStats` is the always-on signal the rebalancing policy loop
reads: per-group and per-bucket operation counters sampled on the
``ShardRouter`` hot path (one counter bump per routed operation) and
aggregated over a *decayed fixed-window ring* keyed on **scheduler
time** — never a wall clock, so the accounting is deterministic under
``SimRandom``-driven simulation.

Two views of the same counters:

* **cumulative** (``group_totals``/``total_ops``) — lifetime counts,
  never decayed.  The E16/E19 benchmarks record their per-group load
  and ``load_imbalance`` from these live counters instead of
  recomputing group load ad hoc, so the benchmark-reported and
  runtime-observed statistics cannot drift apart;
* **windowed** (``bucket_weights``/``group_load``/``windowed_ops``) —
  the last ``windows`` fixed windows of ``window`` simulated
  microseconds each, with window *w* ages old weighted ``decay**w``.
  This is what the rebalancer's policy reads: recent traffic dominates,
  old hot spots fade instead of triggering migrations forever.

:func:`load_imbalance` is the single shared definition of the imbalance
factor (``max group load / perfectly even share``; 1.0 = balanced) used
by the runtime policy, the benchmarks, and the Zipf schedule analysis
alike.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Sequence, Tuple


def load_imbalance(loads: Sequence[float]) -> float:
    """The load-imbalance factor: max group load over the even share.

    1.0 means perfectly balanced; ``G`` means one group takes all the
    traffic of a ``G``-group deployment.  Empty or all-zero loads are
    balanced by definition.  This is the one shared implementation —
    the rebalancer's trigger, the E16/E19 benchmark records and the
    Zipf schedule analysis all call it.
    """
    if not loads:
        return 1.0
    total = sum(loads)
    if total <= 0:
        return 1.0
    return max(loads) / (total / len(loads))


@dataclass(frozen=True)
class LoadStatsConfig:
    """Shape of the decayed sliding window.

    ``window`` is in simulated microseconds; the ring keeps the last
    ``windows`` of them, weighting a window ``age`` windows old by
    ``decay ** age`` — a cheap EWMA over fixed buckets that needs no
    per-operation floating-point work.
    """

    window: float = 50_000.0
    windows: int = 8
    decay: float = 0.5

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.windows < 1:
            raise ValueError("need at least one window")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")


class _Window:
    """One fixed window of counts: per-group list + per-bucket dict."""

    __slots__ = ("index", "groups", "buckets", "ops")

    def __init__(self, index: int, num_groups: int) -> None:
        self.index = index
        self.groups = [0] * num_groups
        self.buckets: Dict[int, int] = {}
        self.ops = 0


class LoadStats:
    """Per-group and per-bucket op counters over a decayed window ring.

    ``record`` is the hot path: a floor division on the simulated clock,
    one dict bump and two list/int increments — cheap enough to stay on
    unconditionally.
    """

    def __init__(
        self,
        num_groups: int,
        clock,
        config: LoadStatsConfig = LoadStatsConfig(),
    ) -> None:
        self.num_groups = num_groups
        self.clock = clock
        self.config = config
        #: Lifetime per-group counts (never decayed, never reset).
        self.group_totals: List[int] = [0] * num_groups
        #: Lifetime total of recorded operations.
        self.total_ops = 0
        self._ring: Deque[_Window] = deque(maxlen=config.windows)
        self._ring.append(_Window(0, num_groups))

    # ---------------------------------------------------------------- record
    def _current_window(self) -> _Window:
        index = int(self.clock.now // self.config.window)
        head = self._ring[-1]
        if index == head.index:
            return head
        if index - head.index >= self.config.windows:
            # A long quiet gap: everything in the ring has fully aged out.
            self._ring.clear()
        else:
            # Only materialize the window being written; intermediate
            # empty windows are implied by the index arithmetic.
            pass
        window = _Window(index, self.num_groups)
        self._ring.append(window)
        return window

    def record(self, bucket: int, group: int) -> None:
        """Count one operation routed to ``bucket`` on ``group``."""
        window = self._current_window()
        window.groups[group] += 1
        window.buckets[bucket] = window.buckets.get(bucket, 0) + 1
        window.ops += 1
        self.group_totals[group] += 1
        self.total_ops += 1

    # --------------------------------------------------------------- queries
    def _weights(self) -> List[Tuple[_Window, float]]:
        """Live windows with their decay weight relative to *now*."""
        now_index = int(self.clock.now // self.config.window)
        decay = self.config.decay
        pairs = []
        for window in self._ring:
            age = now_index - window.index
            if age >= self.config.windows:
                continue
            pairs.append((window, decay**age))
        return pairs

    def windowed_ops(self) -> int:
        """Undecayed op count across the live windows (the policy's
        don't-act-on-noise guard)."""
        now_index = int(self.clock.now // self.config.window)
        return sum(
            window.ops
            for window in self._ring
            if now_index - window.index < self.config.windows
        )

    def bucket_weights(self) -> Dict[int, float]:
        """Decayed per-bucket weights over the live windows."""
        weights: Dict[int, float] = {}
        for window, factor in self._weights():
            for bucket, count in window.buckets.items():
                weights[bucket] = weights.get(bucket, 0.0) + count * factor
        return weights

    def group_load(self) -> List[float]:
        """Decayed per-group load, attributed to the group each op was
        actually routed to (historical attribution; for what the load
        would be under the *current* ownership, map
        :meth:`bucket_weights` through the router)."""
        loads = [0.0] * self.num_groups
        for window, factor in self._weights():
            for group, count in enumerate(window.groups):
                if count:
                    loads[group] += count * factor
        return loads

    def imbalance(self) -> float:
        """Windowed load-imbalance factor (shared definition)."""
        return load_imbalance(self.group_load())
