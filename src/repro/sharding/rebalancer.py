"""Load-driven shard rebalancing: policy + controller.

The mechanism — verified bucket-range migration under a router
freeze/queue — landed with :mod:`repro.sharding.migration`; this module
adds the *policy loop* that decides when and what to move:

* a scheduler-timer tick (simulated time, deterministic) reads the
  decayed per-bucket weights from :class:`~repro.sharding.loadstats.LoadStats`,
  maps them through the **current** ownership table, and computes the
  load-imbalance factor with the shared
  :func:`~repro.sharding.loadstats.load_imbalance` definition;
* when the imbalance exceeds ``trigger_imbalance`` (hysteresis: well
  above the ~1.1 a balanced deployment shows) and the window holds
  enough traffic to be signal rather than noise, :func:`plan_rebalance`
  greedily picks the minimal set of hot buckets to move from the most-
  to the least-loaded group — each bucket is taken only while moving it
  still shrinks the hot/cold gap, so the plan can never overshoot and
  make the cold group the new hot spot;
* the plan is executed as a series of **chunked**
  :func:`~repro.sharding.migration.migrate_bucket_range` calls while
  client traffic keeps flowing: each chunk freezes the two groups only
  for its own short window, operations submitted meanwhile are queued
  by the router and re-issued exactly once at the new owner, and a
  ``cooldown`` after every burst keeps the controller from thrashing
  while the load statistics catch up with the new ownership.

Everything the controller does is a pure function of scheduler time and
the recorded counters, so a rebalancing scenario repeats bit for bit
(:meth:`ShardRebalancer.modeled_view` is the comparison form the tests
and the E19 benchmark assert on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sharding.loadstats import LoadStats, load_imbalance
from repro.sharding.migration import MigrationError
from repro.sim.events import EventKind


@dataclass(frozen=True)
class RebalancerConfig:
    """Policy knobs (all times in simulated microseconds)."""

    #: Period of the policy tick.
    check_interval: float = 25_000.0
    #: Act only above this windowed imbalance factor (hysteresis floor;
    #: a balanced deployment sits near 1.1, so 1.25 leaves slack).
    trigger_imbalance: float = 1.25
    #: Minimum undecayed ops in the live window before the policy may
    #: act — a handful of requests is noise, not a hot spot.
    min_window_ops: int = 32
    #: Quiet period after a migration burst, letting the window
    #: statistics re-converge under the new ownership before the policy
    #: re-evaluates (anti-thrash).
    cooldown: float = 100_000.0
    #: Buckets per migration chunk: each chunk is one freeze window, so
    #: smaller chunks mean shorter stalls for redirected traffic.
    max_chunk_buckets: int = 16
    #: Cap on buckets moved by one policy firing (one hot->cold burst).
    max_buckets_per_cycle: int = 64
    #: Consecutive over-trigger ticks required before the policy acts
    #: (debounce): a single noisy window — a burst landing early in a
    #: fresh decay window — must not cost a migration freeze.
    settle_ticks: int = 2

    def __post_init__(self) -> None:
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")
        if self.trigger_imbalance < 1.0:
            raise ValueError("trigger_imbalance below 1.0 would always fire")
        if self.max_chunk_buckets < 1 or self.max_buckets_per_cycle < 1:
            raise ValueError("chunk and cycle caps must be at least 1")
        if self.settle_ticks < 1:
            raise ValueError("settle_ticks must be at least 1")


@dataclass(frozen=True)
class RebalancePlan:
    """One hot->cold move decision (pure data, for tests and records)."""

    hot_group: int
    cold_group: int
    buckets: Tuple[int, ...]
    #: Decayed weight the move transfers.
    moved_weight: float
    #: Windowed imbalance that triggered the plan.
    imbalance_before: float
    #: Imbalance the window statistics predict after the move.
    imbalance_predicted: float


def plan_rebalance(
    bucket_weights: Dict[int, float],
    ownership: Sequence[int],
    num_groups: int,
    max_buckets: int,
) -> Optional[RebalancePlan]:
    """Greedy bin-pack: the minimal hot-bucket set whose move best evens
    the hottest and coldest groups.

    A bucket of weight ``w`` is taken only while ``w`` is strictly less
    than the *remaining* hot/cold gap (each pick shrinks the gap by
    ``2w``), which guarantees every pick strictly reduces the pairwise
    imbalance — the plan can never ping-pong a bucket back and forth.
    Returns ``None`` when no single bucket move helps (e.g. one bucket
    holds the entire hot load).
    """
    if num_groups < 2:
        return None
    group_load = [0.0] * num_groups
    for bucket, weight in bucket_weights.items():
        group_load[ownership[bucket]] += weight
    hot = max(range(num_groups), key=lambda g: (group_load[g], -g))
    cold = min(range(num_groups), key=lambda g: (group_load[g], g))
    gap = group_load[hot] - group_load[cold]
    if hot == cold or gap <= 0:
        return None

    # Hottest buckets first; ties break on the bucket index so the plan
    # is a pure function of the weights.
    candidates = sorted(
        (
            (bucket, weight)
            for bucket, weight in bucket_weights.items()
            if ownership[bucket] == hot and weight > 0
        ),
        key=lambda item: (-item[1], item[0]),
    )
    picked: List[int] = []
    moved = 0.0
    remaining_gap = gap
    for bucket, weight in candidates:
        if len(picked) >= max_buckets:
            break
        if weight >= remaining_gap:
            # Moving it would make the cold group at least as hot as the
            # hot group is now: skip to the next (lighter) bucket.
            continue
        picked.append(bucket)
        moved += weight
        remaining_gap -= 2 * weight
    if not picked:
        return None

    predicted = list(group_load)
    predicted[hot] -= moved
    predicted[cold] += moved
    return RebalancePlan(
        hot_group=hot,
        cold_group=cold,
        buckets=tuple(picked),
        moved_weight=moved,
        imbalance_before=load_imbalance(group_load),
        imbalance_predicted=load_imbalance(predicted),
    )


class ShardRebalancer:
    """The controller: periodic policy ticks driving chunked migrations.

    Owned by :class:`~repro.sharding.cluster.ShardedKVCluster` when
    ``auto_rebalance=True``; ``start`` arms the first scheduler timer
    and every tick re-arms the next, so the loop runs for as long as the
    simulation does (or until ``stop``).
    """

    def __init__(
        self,
        sharded,
        config: RebalancerConfig = RebalancerConfig(),
        loadstats: Optional[LoadStats] = None,
    ) -> None:
        self.sharded = sharded
        self.config = config
        self.stats = loadstats or sharded.loadstats
        self.active = False
        self._tick_event = None
        self.cooldown_until = float("-inf")
        #: True while a migration burst is in flight.  Migrations drive
        #: the shared scheduler (quiesce/fence phases), so policy ticks
        #: fire *during* them; this latch keeps such a tick from starting
        #: a nested migration against the frozen router.
        self._migrating = False
        #: Consecutive ticks the windowed imbalance has been over trigger.
        self._over_trigger_streak = 0
        #: Policy evaluations performed.
        self.cycles = 0
        #: Chunked migrations successfully driven by this controller.
        self.migrations_issued = 0
        #: Modeled bytes those migrations put on the wire.
        self.bytes_moved = 0
        #: Operations queued during controller-triggered freezes and
        #: re-issued at the new owner.
        self.redirected_ops = 0
        #: Every executed plan, in order (for the record and the tests).
        self.plans: List[RebalancePlan] = []
        #: Migration failures the controller absorbed (message text).
        self.errors: List[str] = []

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self.active:
            return
        self.active = True
        self._arm()

    def stop(self) -> None:
        self.active = False
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def _arm(self) -> None:
        self._tick_event = self.sharded.scheduler.schedule_after(
            self.config.check_interval,
            EventKind.TIMER,
            "shard-rebalancer",
            callback=self._tick,
        )

    def _tick(self) -> None:
        if not self.active:
            return
        try:
            self._evaluate()
        finally:
            if self.active:
                self._arm()

    # ---------------------------------------------------------------- policy
    def _evaluate(self) -> None:
        if self._migrating:
            # A tick that fires while our own migration drives the
            # simulation is not a policy evaluation.
            return
        self.cycles += 1
        now = self.sharded.scheduler.clock.now
        if now < self.cooldown_until:
            return
        if self.stats.windowed_ops() < self.config.min_window_ops:
            return
        router = self.sharded.router
        weights = self.stats.bucket_weights()
        # Map the windowed weights through the *current* ownership: right
        # after a migration the moved buckets' history immediately counts
        # toward their new owner, so the policy sees the post-move world
        # instead of re-triggering on stale attribution.
        ownership = router.ownership()
        group_load = [0.0] * router.num_groups
        for bucket, weight in weights.items():
            group_load[ownership[bucket]] += weight
        if load_imbalance(group_load) <= self.config.trigger_imbalance:
            self._over_trigger_streak = 0
            return
        # Debounce: the imbalance must persist across ``settle_ticks``
        # consecutive windows before the controller pays for a freeze.
        self._over_trigger_streak += 1
        if self._over_trigger_streak < self.config.settle_ticks:
            return
        self._over_trigger_streak = 0
        plan = plan_rebalance(
            weights, ownership, router.num_groups, self.config.max_buckets_per_cycle
        )
        if plan is None:
            return
        self._execute(plan)
        self.cooldown_until = self.sharded.scheduler.clock.now + self.config.cooldown

    def _execute(self, plan: RebalancePlan) -> None:
        """Drive the plan as chunked migrations under live traffic."""
        self.plans.append(plan)
        chunk_size = self.config.max_chunk_buckets
        self._migrating = True
        try:
            for start in range(0, len(plan.buckets), chunk_size):
                chunk = plan.buckets[start : start + chunk_size]
                try:
                    metrics = self.sharded.migrate_buckets(chunk, plan.cold_group)
                except MigrationError as error:
                    # A failed chunk (quiesce timeout, vote failure) leaves
                    # ownership unchanged and its queued ops re-issued; stop
                    # the burst and let a later tick retry from fresh stats.
                    self.errors.append(str(error))
                    break
                self.migrations_issued += 1
                self.bytes_moved += metrics.bytes_moved
                self.redirected_ops += metrics.redirected_ops
        finally:
            self._migrating = False

    # ------------------------------------------------------------ inspection
    def modeled_view(self) -> Dict[str, object]:
        """Deterministic summary for cache-mode bit-identity checks."""
        return {
            "cycles": self.cycles,
            "migrations_issued": self.migrations_issued,
            "bytes_moved": self.bytes_moved,
            "redirected_ops": self.redirected_ops,
            "errors": list(self.errors),
            "plans": [
                {
                    "hot_group": plan.hot_group,
                    "cold_group": plan.cold_group,
                    "buckets": plan.buckets,
                    "moved_weight": round(plan.moved_weight, 9),
                    "imbalance_before": round(plan.imbalance_before, 9),
                    "imbalance_predicted": round(plan.imbalance_predicted, 9),
                }
                for plan in self.plans
            ],
        }
