#!/usr/bin/env python3
"""Quickstart: replicate a key-value store with the BFT library.

Builds a group of 4 replicas (tolerating f = 1 Byzantine fault), issues a
few operations through the client interface, and shows that every replica
converges to the same state — with one replica returning corrupt replies
the whole time.  Then scales out: the same store hash-partitioned across
two independent replica groups, with a bucket range migrated live between
them.
"""

from repro.library import BFTCluster, ShardedKVService
from repro.services import KeyValueStore
from repro.sim.faults import FaultSpec, FaultType


def main() -> None:
    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore,
                                checkpoint_interval=16)
    print(f"replica group: {cluster.config.n} replicas, tolerating f={cluster.config.f}")

    # One replica lies in every reply it sends.  The client never notices,
    # because it waits for a certificate of matching replies.
    cluster.inject_fault(
        FaultSpec(node="replica3", fault=FaultType.CORRUPT_REPLY, start=0.0)
    )

    client = cluster.new_client()
    print("SET colour blue     ->", client.invoke(b"SET colour blue"))
    print("SET answer 42       ->", client.invoke(b"SET answer 42"))
    print("GET colour (read)   ->", client.invoke(b"GET colour", read_only=True))
    print("CAS answer 42 43    ->", client.invoke(b"CAS answer 42 43"))
    print("GET answer          ->", client.invoke(b"GET answer", read_only=True))

    latency = client.last_completed().latency
    print(f"last operation latency: {latency:.0f} simulated microseconds")

    cluster.run(duration=1_000_000)
    digests = {rid: r.service.state_digest().hex()[:12] for rid, r in cluster.replicas.items()}
    print("replica state digests:")
    for rid, digest in digests.items():
        print(f"  {rid}: {digest}")
    honest = {d for rid, d in digests.items()}
    print("all replicas agree:", len(honest) == 1)


def batched() -> None:
    """Throughput flavour: the batch-execution pipeline (Section 5.1.4).

    Tuning notes — ``ProtocolOptions.max_batch_size`` caps how many
    requests one protocol instance orders; ``pipeline_depth`` bounds how
    many batches run concurrently.  A *small* pipeline depth is what
    makes batches form: with depth 1, requests queue at the primary while
    one batch is in flight and the next pre-prepare carries all of them,
    so per-request protocol cost is amortized across the batch.  Deep
    pipelines drain the queue eagerly and keep batches small (low
    latency, less amortization).  The replica executes each committed
    batch through one ``Service.execute_batch`` call — memoized operation
    parsing, one dirty-page bookkeeping pass, bulk-built and batch-signed
    replies, one delivery train for the whole reply fan-out.
    """
    import dataclasses

    from repro.core.config import DEFAULT_OPTIONS

    print()
    options = dataclasses.replace(DEFAULT_OPTIONS, max_batch_size=64,
                                  pipeline_depth=1)
    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore,
                                checkpoint_interval=16, options=options)
    from repro.bench import run_kv_value_churn

    result = run_kv_value_churn(cluster, num_clients=32,
                                operations_per_client=8, value_size=256)
    primary = cluster.primary_replica()
    mean_batch = (primary.metrics.requests_executed
                  / max(1, primary.metrics.batches_committed))
    print(f"batched closed loop: {result.completed} ops, "
          f"mean batch size {mean_batch:.1f}, "
          f"{result.ops_per_second:.0f} modeled ops/sec")


def sharded() -> None:
    """Scale-out flavour: two replica groups, keys hash-partitioned over
    CRC-32 buckets, and a live bucket-range migration between groups."""
    print()
    service = ShardedKVService(groups=2, f=1, checkpoint_interval=8)
    print(f"sharded deployment: {service.cluster.num_groups} groups, "
          f"routing epoch {service.epoch}")

    for i in range(8):
        service.invoke(b"SET user%02d active" % i)
    owner = service.router.group_of_key(b"user00")
    print("user00 owned by group", owner)

    # Rebalance: move the bucket holding user00 (and its neighbours) to
    # the other group.
    hot = KeyValueStore.bucket_of(b"user00")
    moved = [b for b in service.buckets_of(owner) if hot <= b < hot + 64]
    metrics = service.migrate(moved, 1 - owner)
    print(f"migrated {metrics.pages_moved} page(s), "
          f"{metrics.bytes_moved} modeled bytes on the wire, "
          f"routing epoch now {service.epoch}")

    # Reads route to whichever group owns each key now.
    print("GET user00 ->", service.invoke(b"GET user00", read_only=True))
    print("KEYS across groups ->", service.invoke(b"KEYS")[:60], b"...")


def auto_rebalanced() -> None:
    """Load-driven flavour: ``auto_rebalance=True`` watches per-bucket
    traffic online and drains hot bucket ranges off an overloaded group
    by itself — requests submitted during each short migration freeze are
    queued and re-issued at the new owner, never lost or reordered."""
    print()
    from repro.bench import run_closed_loop
    from repro.sharding import LoadStatsConfig, RebalancerConfig, ShardedKVCluster

    sharded = ShardedKVCluster(
        groups=2, f=1, checkpoint_interval=8, auto_rebalance=True,
        rebalancer_config=RebalancerConfig(
            check_interval=5_000.0, trigger_imbalance=1.25,
            min_window_ops=16, cooldown=20_000.0, max_chunk_buckets=8),
        loadstats_config=LoadStatsConfig(window=20_000.0),
    )
    # A celebrity hot spot: every client piles onto a handful of keys
    # that all hash into group 0's bucket range.
    hot, index = [], 0
    while len(hot) < 4:
        key = b"hot%03d" % index
        index += 1
        if sharded.router.group_of_key(key) == 0:
            hot.append(key)

    def skewed(client_index: int, op_index: int):
        key = hot[(client_index + op_index) % len(hot)]
        return (b"SET " + key + b" v%03d" % op_index, False)

    result = run_closed_loop(sharded, num_clients=8, operations_per_client=24,
                             operation_factory=skewed)
    policy = sharded.rebalancer
    print(f"skewed closed loop: {result.completed} ops, "
          "every one completed exactly once:",
          result.per_client == [24] * 8)
    print(f"auto-rebalance: {policy.migrations_issued} migration(s), "
          f"{policy.bytes_moved} modeled bytes moved, "
          f"{policy.redirected_ops} ops redirected around freezes, "
          f"routing epoch now {sharded.router.epoch}")
    print(f"windowed load imbalance after rebalancing: "
          f"{sharded.loadstats.imbalance():.2f} (1.0 = perfectly even)")


def large_n() -> None:
    """Large-group flavour: agreement multicasts routed over dissemination
    trees (``ProtocolOptions.dissemination="tree"``) instead of flat
    all-to-all fan-out.  Each (view, sender) pair gets a deterministic
    k-ary relay tree; relays bundle everything they owe one next hop into
    a single envelope, and the sender's per-receiver authenticator vector
    rides along (stripped per subtree), so authentication stays
    end-to-end — relays forward, they cannot forge.  A per-edge watchdog
    spots silent or tampering interior nodes and falls back to direct
    transmission for the affected senders; here one interior relay goes
    silent mid-run and every operation still completes."""
    print()
    from repro.bench import run_closed_loop
    from repro.core.config import DEFAULT_OPTIONS

    options = DEFAULT_OPTIONS.with_tree_dissemination()
    cluster = BFTCluster.create(f=6, service_factory=KeyValueStore,
                                checkpoint_interval=16, options=options)
    print(f"large group: {cluster.config.n} replicas (f={cluster.config.f}), "
          f"dissemination={options.dissemination!r}, "
          f"fanout={options.relay_fanout}")
    # replica0 sits on the interior of every other sender's view-0 tree
    # (the ring order is shared across roots), so silencing it is the
    # worst single-relay case.
    cluster.inject_fault(
        FaultSpec(node="replica0", fault=FaultType.SILENT_RELAY, start=0.0)
    )

    result = run_closed_loop(
        cluster, num_clients=6, operations_per_client=8,
        operation_factory=lambda ci, oi: (b"SET c%dk%d v%d" % (ci, oi, oi),
                                          False),
    )
    cluster.run(duration=400_000)
    stats = [d.stats for d in cluster.disseminators.values()]
    totals = cluster.network.stats.wire_totals()
    print(f"closed loop under a silent relay: {result.completed} ops, "
          "every one completed exactly once:",
          result.per_client == [8] * 6)
    print(f"dissemination: {sum(s.entries_originated for s in stats)} entries "
          f"originated, {sum(s.bundles_sent for s in stats)} relay bundles, "
          f"{totals['per_type'].get('Relay', 0)} relay messages on the wire")
    print(f"watchdog: {sum(s.watchdog_firings for s in stats)} firing(s), "
          f"{sum(s.complaints_sent for s in stats)} complaint(s) sent, "
          f"{sum(s.fallbacks for s in stats)} root(s) fell back to direct")
    digests = {r.service.state_digest() for r in cluster.replicas.values()}
    print("all replicas agree:", len(digests) == 1)


if __name__ == "__main__":
    main()
    batched()
    sharded()
    auto_rebalanced()
    large_n()
