"""Multi-group cluster assembly for the sharded KV service.

``ShardedKVCluster`` runs ``G`` independent PBFT groups — each a full
:class:`~repro.library.cluster.BFTCluster` with its own replicas, fault
injector and protocol state — in **one**
:class:`~repro.library.cluster.SimWorld` (one scheduler/clock, one
simulated network), so cross-group behaviour (aggregate throughput,
migrations bracketed by live traffic) is measured on a single consistent
timeline.  Node names are namespaced per group (``g0:replica1``,
``alice@g2``) via ``ReplicaSetConfig.replica_prefix`` and the cluster
``client_prefix``, which is what lets the groups share the fabric without
collisions.

``ShardClient`` is the client-side bundle the router fans out through:
one underlying BFT client per group, a ``submit`` path for closed-loop
workloads (respecting migration freezes) and a blocking ``invoke`` that
also handles the ``KEYS`` fan-out.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.config import DEFAULT_OPTIONS, ProtocolOptions, ReplicaSetConfig
from repro.core.client import CompletedRequest
from repro.library.cluster import BFTCluster, SimWorld, SyncClient
from repro.net.conditions import NetworkConditions
from repro.perfmodel.params import ModelParameters, PAPER_PARAMETERS
from repro.services.interface import Service
from repro.services.kvstore import KeyValueStore
from repro.sharding.loadstats import LoadStats, LoadStatsConfig
from repro.sharding.router import ShardRouter, key_of_operation
from repro.sim.faults import FaultSpec


class ShardClient:
    """A logical client of the sharded service.

    Holds one BFT client per replica group; every operation is routed to
    the group owning its key's bucket in the current epoch.  The
    per-group completion callbacks keep the cluster's outstanding-request
    accounting (which migrations use to quiesce the affected groups) and
    then invoke the user callback, so closed-loop workloads chain exactly
    as they do on a single group.
    """

    def __init__(
        self,
        sharded: "ShardedKVCluster",
        name: str,
        on_complete: Optional[Callable[[CompletedRequest], None]] = None,
    ) -> None:
        self.sharded = sharded
        self.router = sharded.router
        self.name = name
        self._on_complete = on_complete
        self._group_clients: Dict[int, SyncClient] = {}
        for group, cluster in enumerate(sharded.group_clusters):
            self._group_clients[group] = cluster.new_client(
                f"{name}@g{group}", on_complete=self._make_group_callback(group)
            )

    def _make_group_callback(
        self, group: int
    ) -> Callable[[CompletedRequest], None]:
        def on_complete(completed: CompletedRequest) -> None:
            self.sharded.outstanding[group] -= 1
            if self._on_complete is not None:
                self._on_complete(completed)

        return on_complete

    # ----------------------------------------------------------------- issue
    def submit(
        self, operation: bytes, read_only: bool = False, external: bool = False
    ) -> Optional[int]:
        """Route one keyed operation and issue it asynchronously.

        Operations whose bucket belongs to a group frozen by an in-flight
        migration are queued on the router and re-issued — under the new
        routing epoch, at the bucket's new owner — when the migration
        completes.  Returns the request timestamp, or ``None`` when the
        operation was queued.

        ``external`` marks a call from outside any simulation event
        handler (initial issues, queue flushes): the request is then
        issued through the client node's ``external_call`` so CPU
        accounting matches an ordinary invocation.
        """
        key = key_of_operation(operation)
        if key is None:
            raise ValueError(f"cannot route operation without a key: {operation!r}")
        bucket = self.router.bucket_of_key(key)
        if self.router.is_frozen_bucket(bucket):
            self.router.queued.append((self, operation, read_only))
            return None
        group = self.router.group_of_bucket(bucket)
        # Load accounting happens at *issue* time, after the freeze check:
        # an operation queued by a migration is counted exactly once, when
        # the queue flush re-submits it to the bucket's new owner.
        self.sharded.loadstats.record(bucket, group)
        return self._issue(group, operation, read_only, external)

    def _issue(
        self, group: int, operation: bytes, read_only: bool, external: bool
    ) -> int:
        sync = self._group_clients[group]
        self.sharded.outstanding[group] += 1
        if external:
            return sync.invoke_async(operation, read_only=read_only)
        # Called from inside another client's completion handler (the
        # closed-loop chain): invoke directly — the issuing node is not in
        # a handler, so its sends transmit immediately.
        return sync.protocol.invoke(operation, read_only=read_only)

    # --------------------------------------------------------------- invoke
    def invoke(
        self, operation: bytes, read_only: bool = False, timeout: float = 60_000_000.0
    ) -> bytes:
        """Blocking invoke: route, issue, and drive the shared simulation
        until the owning group replies.  ``KEYS`` fans out to every group
        and returns the sorted union.

        A request that raises :class:`TimeoutError` stays counted in
        ``outstanding`` deliberately: the BFT client keeps retransmitting
        it, so it may still execute later — a migration quiescing the
        group must wait for (or time out on) that genuinely in-flight
        request rather than race it.
        """
        key = key_of_operation(operation)
        if key is None:
            return self._invoke_everywhere(operation, read_only, timeout)
        bucket = self.router.bucket_of_key(key)
        if self.router.is_frozen_bucket(bucket):
            raise RuntimeError(
                "blocking invoke during a migration of the key's bucket range"
            )
        group = self.router.group_of_bucket(bucket)
        self.sharded.loadstats.record(bucket, group)
        self.sharded.outstanding[group] += 1
        return self._group_clients[group].invoke(
            operation, read_only=read_only, timeout=timeout
        )

    def _invoke_everywhere(
        self, operation: bytes, read_only: bool, timeout: float
    ) -> bytes:
        merged = set()
        for group in range(self.router.num_groups):
            self.sharded.outstanding[group] += 1
            result = self._group_clients[group].invoke(
                operation, read_only=read_only, timeout=timeout
            )
            merged.update(part for part in result.split(b",") if part)
        return b",".join(sorted(merged))


class ShardedKVCluster:
    """``G`` independent PBFT groups behind one hash-partitioned router.

    ``auto_rebalance=True`` opts into the load-driven rebalancing loop:
    a :class:`~repro.sharding.rebalancer.ShardRebalancer` watches the
    always-on :class:`~repro.sharding.loadstats.LoadStats` counters on a
    scheduler timer and drives chunked bucket-range migrations from the
    hottest to the coldest group while traffic keeps flowing.  The
    default (off) keeps the static-partition baseline measurable — the
    same workload runs on the same code with the controller simply never
    armed.
    """

    #: The world's run loop and clock, read through ``self.scheduler``.
    run = SimWorld.run
    now = SimWorld.now

    def __init__(
        self,
        groups: int = 2,
        f: int = 1,
        service_factory: Callable[[], Service] = KeyValueStore,
        options: ProtocolOptions = DEFAULT_OPTIONS,
        params: ModelParameters = PAPER_PARAMETERS,
        conditions: Optional[NetworkConditions] = None,
        seed: int = 0,
        checkpoint_interval: int = 16,
        record_events: bool = False,
        auto_rebalance: bool = False,
        rebalancer_config=None,
        loadstats_config: LoadStatsConfig = LoadStatsConfig(),
        **config_overrides,
    ) -> None:
        self.num_groups = groups
        self.world = SimWorld(seed, params, conditions)
        self.scheduler = self.world.scheduler
        self.network = self.world.network
        self.conditions = self.world.conditions
        num_buckets = getattr(service_factory, "num_buckets", KeyValueStore.num_buckets)
        bucket_fn = getattr(service_factory, "bucket_of", KeyValueStore.bucket_of)

        self.group_clusters: List[BFTCluster] = []
        for group in range(groups):
            config = ReplicaSetConfig.for_faults(
                f,
                checkpoint_interval=checkpoint_interval,
                replica_prefix=f"g{group}:replica",
                **config_overrides,
            )
            self.group_clusters.append(
                BFTCluster(
                    config,
                    self.world.fork(f"g{group}"),
                    service_factory=service_factory,
                    options=options,
                    params=params,
                    record_events=record_events,
                    client_prefix=f"g{group}:",
                )
            )

        self.router = ShardRouter(
            num_groups=groups, num_buckets=num_buckets, bucket_fn=bucket_fn
        )
        #: Router-issued requests currently in flight, per group; a
        #: migration quiesces its source and target groups by waiting for
        #: these to reach zero.
        self.outstanding: Dict[int, int] = {group: 0 for group in range(groups)}
        self._client_counter = 0
        self._coordinator_clients: Dict[int, SyncClient] = {}
        #: Metrics of every completed migration, in order.
        self.migrations: List["MigrationMetrics"] = []  # noqa: F821
        #: Always-on per-group/per-bucket load accounting, sampled on the
        #: router hot path in scheduler time (deterministic).
        self.loadstats = LoadStats(
            num_groups=groups, clock=self.scheduler.clock, config=loadstats_config
        )
        self.rebalancer = None
        if auto_rebalance:
            from repro.sharding.rebalancer import RebalancerConfig, ShardRebalancer

            self.rebalancer = ShardRebalancer(
                self, rebalancer_config or RebalancerConfig()
            )
            self.rebalancer.start()

    # ----------------------------------------------------------------- set-up
    def group(self, index: int) -> BFTCluster:
        return self.group_clusters[index]

    def new_client(
        self,
        name: Optional[str] = None,
        on_complete: Optional[Callable[[CompletedRequest], None]] = None,
    ) -> ShardClient:
        if name is None:
            name = f"shard-client{self._client_counter}"
            self._client_counter += 1
        return ShardClient(self, name, on_complete=on_complete)

    def coordinator_client(self, group: int) -> SyncClient:
        """The migration coordinator's direct BFT client for one group
        (bypasses the router — it drives fence traffic while the group is
        frozen)."""
        if group not in self._coordinator_clients:
            self._coordinator_clients[group] = self.group_clusters[group].new_client(
                f"migrate@g{group}"
            )
        return self._coordinator_clients[group]

    # ---------------------------------------------------------------- faults
    def inject_fault(self, group: int, spec: FaultSpec) -> None:
        self.group_clusters[group].inject_fault(spec)

    # ------------------------------------------------------------- migration
    def migrate_buckets(
        self, buckets, target_group: int, **kwargs
    ) -> "MigrationMetrics":  # noqa: F821
        from repro.sharding.migration import migrate_bucket_range

        return migrate_bucket_range(self, buckets, target_group, **kwargs)

    # ------------------------------------------------------------ inspection
    def state_union(self, replica_index: int = 0) -> Dict[bytes, bytes]:
        """The union of every group's KV state, read from one designated
        replica per group.  Bucket ownership is disjoint, so the union is
        well-defined; the migration property tests assert it is preserved
        byte-identically across migration schedules and cache modes."""
        union: Dict[bytes, bytes] = {}
        for group, cluster in enumerate(self.group_clusters):
            replica_id = f"g{group}:replica{replica_index}"
            service = cluster.services[replica_id]
            for key, value in service.items():
                if key in union:
                    raise AssertionError(
                        f"key {key!r} present in more than one group"
                    )
                union[key] = value
        return union

    def group_digests_converged(self) -> bool:
        """Every group's replicas agree on their service state digest."""
        for cluster in self.group_clusters:
            digests = {
                replica.service.state_digest()
                for replica in cluster.replicas.values()
            }
            if len(digests) != 1:
                return False
        return True
