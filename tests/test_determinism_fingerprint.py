"""Golden determinism fingerprint of nine small end-to-end runs.

Modeled results are the repo's contract: work on the simulator's own
speed must leave every modeled charge, event sequence number, RNG draw and
wire byte where it was.  The benchmark's bounds (6-12 %) would let a
regrouped float sum or a reordered random draw through; this test does
not.  Each configuration below runs a short closed loop and records

* the sorted client completion times, as exact floats,
* ``NetworkStats.wire_totals()``,
* ``Scheduler.dispatched``,
* every replica node's ``cpu_busy_total``, and
* every replica's final service state digest,

and ``GOLDEN`` holds the values captured from the commit *before* the
per-message fast path (parent of PR 12) — for ``null_f10``, the n = 31
configuration delivery trains were built for, from the commit before those
(parent of PR 13), and for ``kv_f1_dropping_primary`` from the commit before
the per-request execution twin was deleted (parent of PR 21), where it was
identical under all four ``batch execution x caches`` switch settings, and for
``kv_f1_page_transfer`` from the commit before tree pages became payloads
(parent of PR 22); that one also records the lagging replica's transfer
counters, so the bytes of every META-DATA and DATA message are pinned.
``impaired_f1`` (duplication and jitter on every link, a replica corrupting
its replies) was captured at the commit before every send became a delivery
train, when each of its copies still took a heap slot of its own.  They
must match to the bit.  MAC tag bytes are not part of the fingerprint (their
size is, through the wire totals), so swapping the MAC primitive leaves it
unchanged.

A change that means to move modeled results regenerates the literals with
``PYTHONPATH=src python tests/test_determinism_fingerprint.py`` and says
why in its PR.
"""

from __future__ import annotations

import contextlib
import pprint
from typing import Any, Callable, Dict, Iterator, List, Tuple

import pytest

from repro.bench.workloads import run_closed_loop
from repro.core.config import ProtocolOptions
from repro.core.messages import Reply
from repro.core.replica import Replica
from repro.library import BFTCluster
from repro.library.cluster import SimEnv
from repro.net.conditions import NetworkConditions
from repro.services.kvstore import KeyValueStore
from repro.sim.faults import FaultSpec, FaultType

#: Simulated µs of quiet after the loop, so status traffic, retransmissions
#: and trailing checkpoints are part of the fingerprint too.
SETTLE_US = 300_000.0


def _null_op(client: int, index: int) -> Tuple[bytes, bool]:
    return b"null:0:0:" + b"x" * ((client + index) % 5), False


def _kv_op(client: int, index: int) -> Tuple[bytes, bool]:
    key = b"key%03d" % ((client * 7 + index * 3) % 12)
    if index % 3 == 2:
        return b"GET " + key, True
    return b"SET " + key + b" " + bytes([65 + (client + index) % 26]) * 200, False


def _kv_ordered_op(client: int, index: int) -> Tuple[bytes, bool]:
    """``_kv_op`` with the GETs ordered too: their 200-byte results go
    through ``_execute_batch`` and are stripped by non-designated repliers."""
    return _kv_op(client, index)[0], False


def _null_f1() -> BFTCluster:
    return BFTCluster.create(f=1, seed=11)


def _kv_f2_checkpoints() -> BFTCluster:
    return BFTCluster.create(
        f=2, service_factory=KeyValueStore, seed=12, checkpoint_interval=4
    )


def _send_faults_f1() -> BFTCluster:
    cluster = BFTCluster.create(f=1, seed=13)
    cluster.inject_fault(
        FaultSpec(node="replica2", fault=FaultType.DROP_MESSAGES, probability=0.1)
    )
    cluster.inject_fault(
        FaultSpec(node="replica2", fault=FaultType.DELAY_MESSAGES, delay=300.0)
    )
    return cluster


def _lossy_f1() -> BFTCluster:
    return BFTCluster.create(
        f=1, seed=14, conditions=NetworkConditions(drop_probability=0.05)
    )


def _impaired_f1() -> BFTCluster:
    cluster = BFTCluster.create(
        f=1, seed=27,
        conditions=NetworkConditions(duplicate_probability=0.1, jitter=25.0),
    )
    cluster.inject_fault(FaultSpec(node="replica3", fault=FaultType.CORRUPT_REPLY))
    return cluster


def _null_f10() -> BFTCluster:
    return BFTCluster.create(f=10, seed=16)


def _tree_f2() -> BFTCluster:
    return BFTCluster.create(
        f=2, seed=15, options=ProtocolOptions().with_tree_dissemination()
    )


#: When the dropping primary crashes, and the bound on the run: it finishes
#: at ~36 ms, but two thirds of the neighbouring (seed, probability) pairs
#: never do (ROADMAP: the view-change x tentative-execution wedge), so the
#: loop must not be ``run_closed_loop``'s simulated hour.  The PR that fixes
#: the wedge regenerates this configuration's literal and says why.
DROPPING_PRIMARY_CRASH_US = 6_000.0
DROPPING_PRIMARY_BOUND_US = 1_000_000.0


def _kv_f1_dropping_primary() -> BFTCluster:
    cluster = BFTCluster.create(
        f=1, service_factory=KeyValueStore, seed=25, checkpoint_interval=4,
        client_retransmission_timeout=1_500.0, view_change_timeout=20_000.0,
    )
    cluster.inject_fault(
        FaultSpec(node="replica0", fault=FaultType.DROP_MESSAGES, probability=0.2,
                  end=DROPPING_PRIMARY_CRASH_US)
    )
    cluster.inject_fault(
        FaultSpec(node="replica0", fault=FaultType.CRASH,
                  start=DROPPING_PRIMARY_CRASH_US)
    )
    return cluster


@contextlib.contextmanager
def _count_execution_branches(counts: Dict[str, int]) -> Iterator[None]:
    """Count, from outside the replica, the branches of the execution rule
    a run takes: digest replies (5.1.1), cached-reply re-sends (3.1) and
    tentative aborts (5.1.2)."""
    send_many = SimEnv.send_many
    execute_batch = Replica._execute_batch
    abort = Replica._abort_tentative_execution

    def counting_send_many(self, pairs):
        counts["stripped_replies"] += sum(
            1 for _, message in pairs
            if type(message) is Reply and message.result is None
        )
        send_many(self, pairs)

    def counting_execute_batch(self, requests, nondet, tentative):
        last = self.last_reply_timestamp
        counts["cached_resends"] += sum(
            1 for request in requests
            if not request.is_null and request.timestamp == last.get(request.client)
        )
        counts["multi_request_batches"] += len(requests) > 1
        execute_batch(self, requests, nondet, tentative)

    def counting_abort(self):
        counts["tentative_aborts"] += self.last_tentative > self.last_executed
        abort(self)

    SimEnv.send_many = counting_send_many
    Replica._execute_batch = counting_execute_batch
    Replica._abort_tentative_execution = counting_abort
    try:
        yield
    finally:
        SimEnv.send_many = send_many
        Replica._execute_batch = execute_batch
        Replica._abort_tentative_execution = abort


def _drive_dropping_primary(
    cluster: BFTCluster, clients: int, ops_per_client: int, make_op: Callable
) -> List[int]:
    """``run_closed_loop`` with a bounded run, asserting that the run took
    every branch of the execution rule it is here to pin."""
    per_client = [0] * clients
    syncs = []

    def on_complete(index: int) -> Callable:
        def callback(_completed) -> None:
            per_client[index] += 1
            if per_client[index] < ops_per_client:
                operation, read_only = make_op(index, per_client[index])
                syncs[index].protocol.invoke(operation, read_only=read_only)
        return callback

    counts = dict.fromkeys(
        ("stripped_replies", "cached_resends", "multi_request_batches",
         "tentative_aborts"), 0
    )
    with _count_execution_branches(counts):
        for index in range(clients):
            syncs.append(cluster.new_client(on_complete=on_complete(index)))
            operation, read_only = make_op(index, 0)
            syncs[index].invoke_async(operation, read_only=read_only)
        cluster.run(
            stop_when=lambda: sum(per_client) >= clients * ops_per_client,
            duration=DROPPING_PRIMARY_BOUND_US,
        )
    # 14 / 6 / 3 / 2 when the literal was captured.
    assert all(counts.values()), counts
    return per_client


def _kv_f1_page_transfer() -> BFTCluster:
    return BFTCluster.create(
        f=1, service_factory=KeyValueStore, seed=26, checkpoint_interval=4
    )


def _page_transfer_op(_client: int, index: int) -> Tuple[bytes, bool]:
    """Ordered 1 KB SETs, every ninth operation a DEL: twelve keys written
    once each, then only the first seven over and over, so a replica that
    saw the first twelve operations already holds five of the pages."""
    key = b"page%02d" % (index if index < 12 else index * 5 % 7)
    if index % 9 == 8:
        return b"DEL " + key, False
    return b"SET " + key + b" " + bytes([97 + index % 26]) * 1024, False


#: Operations before replica3 is cut off, while it is, and after the heal.
PAGE_TRANSFER_PHASES = (12, 24, 6)
PAGE_TRANSFER_BOUND_US = 30_000_000.0


def _drive_page_transfer(cluster: BFTCluster, make_op: Callable) -> List[int]:
    """One client, one operation at a time; replica3 misses the middle
    phase behind a partition and catches up by page-level state transfer.
    Asserts the run fetched some pages and proved others identical."""
    client = cluster.new_client()
    issued = 0
    for phase, count in enumerate(PAGE_TRANSFER_PHASES):
        if phase == 1:
            for other in ("replica0", "replica1", "replica2", client.id):
                cluster.conditions.partition("replica3", other)
        elif phase == 2:
            cluster.conditions.heal_all()
        for _ in range(count):
            client.invoke(make_op(0, issued)[0])
            issued += 1
    lagging, healthy = cluster.replicas["replica3"], cluster.replicas["replica0"]
    cluster.run(
        stop_when=lambda: (
            lagging.stable_checkpoint_seq == healthy.stable_checkpoint_seq
            and not lagging.state_transfer.in_progress
        ),
        duration=PAGE_TRANSFER_BOUND_US,
    )
    metrics = lagging.state_transfer.metrics
    assert lagging.stable_checkpoint_seq == healthy.stable_checkpoint_seq
    assert metrics.transfers_completed and metrics.pages_fetched
    assert metrics.pages_skipped_local
    return [issued]


#: name -> (cluster factory, operation factory, clients, operations per client)
CONFIGURATIONS: Dict[str, Tuple[Callable[[], BFTCluster], Callable, int, int]] = {
    "null_f1": (_null_f1, _null_op, 5, 6),
    "kv_f2_checkpoints": (_kv_f2_checkpoints, _kv_op, 6, 9),
    "send_faults_f1": (_send_faults_f1, _null_op, 4, 6),
    "lossy_f1": (_lossy_f1, _null_op, 4, 6),
    "impaired_f1": (_impaired_f1, _null_op, 4, 6),
    "tree_f2": (_tree_f2, _null_op, 4, 5),
    "null_f10": (_null_f10, _null_op, 3, 3),
    "kv_f1_dropping_primary": (_kv_f1_dropping_primary, _kv_ordered_op, 5, 8),
    "kv_f1_page_transfer": (
        _kv_f1_page_transfer, _page_transfer_op, 1, sum(PAGE_TRANSFER_PHASES)
    ),
}


def fingerprint(name: str) -> Dict[str, Any]:
    build, make_op, clients, ops_per_client = CONFIGURATIONS[name]
    cluster = build()
    if name == "kv_f1_dropping_primary":
        per_client = _drive_dropping_primary(cluster, clients, ops_per_client, make_op)
    elif name == "kv_f1_page_transfer":
        per_client = _drive_page_transfer(cluster, make_op)
    else:
        per_client = run_closed_loop(
            cluster, clients, ops_per_client, make_op
        ).per_client
    assert per_client == [ops_per_client] * clients
    cluster.run(duration=SETTLE_US)
    result = {
        "completion_times": sorted(c.completed_at for c in cluster.completed),
        "wire_totals": cluster.network.stats.wire_totals(),
        "dispatched": cluster.scheduler.dispatched,
        "cpu_busy_total": {
            rid: node.cpu_busy_total for rid, node in cluster.replica_nodes.items()
        },
        "state_digests": {
            rid: service.state_digest().hex()
            for rid, service in cluster.services.items()
        },
    }
    if name == "kv_f1_page_transfer":
        metrics = cluster.replicas["replica3"].state_transfer.metrics
        result["transfer"] = {
            field: getattr(metrics, field)
            for field in ("bytes_fetched", "pages_fetched", "pages_skipped_local",
                          "metadata_messages", "fetch_messages")
        }
    return result


GOLDEN: Dict[str, Dict[str, Any]] = {}
GOLDEN["null_f1"] = \
{'completion_times': [526.9569999999999, 901.0070000000002, 1139.7260000000003,
                      1446.1300000000003, 1723.1910000000005, 2058.8730000000005,
                      2335.9480000000017, 2671.6640000000025, 2919.437000000003,
                      3200.2340000000036, 3532.3210000000036, 3813.1810000000037,
                      4145.266000000003, 4409.563000000003, 4758.193000000002,
                      5009.7530000000015, 5382.627999999997, 5606.651000000002,
                      5943.545, 6250.015999999999, 6556.520999999998, 6846.997999999997,
                      7170.539999999995, 7497.391999999988, 7802.557999999985,
                      8126.082999999984, 8462.976999999977, 8813.465999999979,
                      9136.815999999968, 9473.760999999962],
 'cpu_busy_total': {'replica0': 10605.833999999986,
                    'replica1': 9689.033999999987,
                    'replica2': 9689.033999999987,
                    'replica3': 9689.033999999987},
 'dispatched': 918,
 'state_digests': {'replica0': 'd37d6f9b076d9f0b3014d28f98ca1ef0',
                   'replica1': 'd37d6f9b076d9f0b3014d28f98ca1ef0',
                   'replica2': 'd37d6f9b076d9f0b3014d28f98ca1ef0',
                   'replica3': 'd37d6f9b076d9f0b3014d28f98ca1ef0'},
 'wire_totals': {'auth_bytes': 21024,
                 'messages_sent': 906,
                 'payload_bytes': 78312,
                 'per_type': {'Commit': 360,
                              'PrePrepare': 90,
                              'Prepare': 270,
                              'Reply': 120,
                              'Request': 30,
                              'StatusActive': 36}}}
GOLDEN["kv_f2_checkpoints"] = \
{'completion_times': [798.4010000000004, 1507.1420000000012, 2247.967000000001,
                      2651.420000000002, 3162.814000000003, 3178.702000000003,
                      4093.959000000004, 4750.356, 5001.393999999997, 5339.482999999994,
                      5765.036999999992, 6013.7259999999915, 6297.639999999988,
                      6789.6779999999835, 6805.565999999983, 6964.627999999983,
                      7537.9569999999785, 7557.166999999979, 7641.188999999979,
                      8193.221999999976, 8868.846999999972, 9643.331999999966,
                      10384.996999999958, 10877.630999999952, 10893.518999999953,
                      11193.604999999952, 11623.52999999995, 12368.414999999943,
                      12527.488999999941, 13065.679999999937, 13149.651999999936,
                      13717.574999999932, 13801.546999999931, 14471.144999999926,
                      14487.032999999927, 14616.506999999925, 15136.952999999923,
                      15340.73799999992, 15967.702999999914, 16579.455999999966,
                      17402.480999999945, 17999.965999999935, 18099.827999999936,
                      18691.285999999924, 18707.173999999923, 19155.163999999913,
                      19358.948999999913, 19803.242999999897, 20295.58399999989,
                      20714.09399999988, 20917.87899999988, 21365.98899999987,
                      21569.77399999987, 21917.971999999856],
 'cpu_busy_total': {'replica0': 24259.907999999807,
                    'replica1': 22478.483999999764,
                    'replica2': 22478.483999999764,
                    'replica3': 22478.483999999764,
                    'replica4': 22478.483999999764,
                    'replica5': 22478.483999999768,
                    'replica6': 22478.483999999768},
 'dispatched': 3585,
 'state_digests': {'replica0': '09fcc58d70571dad79b3fee055acf80c',
                   'replica1': '09fcc58d70571dad79b3fee055acf80c',
                   'replica2': '09fcc58d70571dad79b3fee055acf80c',
                   'replica3': '09fcc58d70571dad79b3fee055acf80c',
                   'replica4': '09fcc58d70571dad79b3fee055acf80c',
                   'replica5': '09fcc58d70571dad79b3fee055acf80c',
                   'replica6': '09fcc58d70571dad79b3fee055acf80c'},
 'wire_totals': {'auth_bytes': 160272,
                 'messages_sent': 3564,
                 'payload_bytes': 440532,
                 'per_type': {'Checkpoint': 294,
                              'Commit': 1302,
                              'PrePrepare': 186,
                              'Prepare': 1116,
                              'Reply': 378,
                              'Request': 162,
                              'StatusActive': 126}}}
GOLDEN["send_faults_f1"] = \
{'completion_times': [592.653, 858.9430000000001, 1051.8020000000004,
                      1373.8700000000001, 1796.3239999999998, 2104.067,
                      2355.5430000000006, 2692.5000000000014, 3036.2070000000026,
                      3385.2590000000027, 3691.752000000003, 3998.189000000003,
                      4288.717000000002, 4800.098, 4988.119, 5278.6129999999985,
                      5781.813999999995, 6010.985999999994, 6317.439999999993,
                      6578.638999999992, 6976.621999999991, 7313.665999999989,
                      7689.0499999999865, 7833.568999999988],
 'cpu_busy_total': {'replica0': 8422.281999999988,
                    'replica1': 7600.989999999994,
                    'replica2': 7500.613999999988,
                    'replica3': 7688.913999999994},
 'dispatched': 723,
 'state_digests': {'replica0': 'cf498596ff89a16278ba0f83a00201db',
                   'replica1': 'cf498596ff89a16278ba0f83a00201db',
                   'replica2': 'cf498596ff89a16278ba0f83a00201db',
                   'replica3': 'cf498596ff89a16278ba0f83a00201db'},
 'wire_totals': {'auth_bytes': 16512,
                 'messages_sent': 711,
                 'payload_bytes': 61504,
                 'per_type': {'Commit': 277,
                              'PrePrepare': 72,
                              'Prepare': 209,
                              'Reply': 93,
                              'Request': 24,
                              'StatusActive': 36}}}
GOLDEN["lossy_f1"] = \
{'completion_times': [526.9569999999999, 901.0070000000002, 1123.1660000000004,
                      1328.7700000000002, 1635.1160000000004, 2133.355,
                      2470.3070000000007, 2721.7760000000017, 100475.05900000002,
                      100618.95200000002, 100634.81600000002, 101181.75700000006,
                      101403.99000000008, 101801.5790000001, 102078.72100000014,
                      102444.70700000013, 153176.601, 250930.59499999994,
                      251458.48799999987, 251985.43299999982, 252551.20400000009,
                      303342.0450000001, 303827.3160000002, 304354.3600000003],
 'cpu_busy_total': {'replica0': 8929.261999999995,
                    'replica1': 8610.581999999997,
                    'replica2': 8597.822000000002,
                    'replica3': 8351.673999999992},
 'dispatched': 798,
 'state_digests': {'replica0': 'cf498596ff89a16278ba0f83a00201db',
                   'replica1': 'cf498596ff89a16278ba0f83a00201db',
                   'replica2': 'cf498596ff89a16278ba0f83a00201db',
                   'replica3': 'cf498596ff89a16278ba0f83a00201db'},
 'wire_totals': {'auth_bytes': 18848,
                 'messages_sent': 814,
                 'payload_bytes': 70706,
                 'per_type': {'Commit': 303,
                              'PrePrepare': 75,
                              'Prepare': 224,
                              'Reply': 100,
                              'Request': 40,
                              'StatusActive': 72}}}
GOLDEN["impaired_f1"] = \
{'completion_times': [627.0390210722584, 977.6789694934404, 1224.6175071006662,
                      1588.437579005059, 2352.923407548321, 2747.2730511004092,
                      3449.9428988577297, 3804.3471564072106, 4095.368602812629,
                      4814.9023423219, 5182.558292461212, 5469.640461960036,
                      5839.218253532374, 6282.912740153804, 6628.532142821591,
                      6907.384495431061, 7348.699440273426, 7702.112501819788,
                      8000.832669165024, 8384.813526861566, 8790.236023867832,
                      9166.242853622334, 9431.683439467486, 9732.66566174261],
 'cpu_busy_total': {'replica0': 10265.093999999975,
                    'replica1': 9109.153999999986,
                    'replica2': 9200.653999999988,
                    'replica3': 9232.269999999995},
 'dispatched': 907,
 'state_digests': {'replica0': 'cf498596ff89a16278ba0f83a00201db',
                   'replica1': 'cf498596ff89a16278ba0f83a00201db',
                   'replica2': 'cf498596ff89a16278ba0f83a00201db',
                   'replica3': 'cf498596ff89a16278ba0f83a00201db'},
 'wire_totals': {'auth_bytes': 18912,
                 'messages_sent': 816,
                 'payload_bytes': 70648,
                 'per_type': {'Commit': 324,
                              'PrePrepare': 81,
                              'Prepare': 243,
                              'Reply': 108,
                              'Request': 24,
                              'StatusActive': 36}}}
GOLDEN["tree_f2"] = \
{'completion_times': [1788.5370000000003, 2971.7450000000003, 2987.6090000000004,
                      3003.4730000000004, 3792.1330000000007, 4705.520999999997,
                      5669.609999999999, 5685.473999999998, 5701.337999999998,
                      6619.990000000002, 7551.147000000001, 8205.216, 8239.993,
                      8255.857, 9052.025, 10178.337, 10215.938, 10778.875, 10794.739,
                      11829.438999999997],
 'cpu_busy_total': {'replica0': 10253.739999999985,
                    'replica1': 7098.108000000002,
                    'replica2': 6449.403999999997,
                    'replica3': 5401.291999999997,
                    'replica4': 5000.195999999999,
                    'replica5': 5000.195999999999,
                    'replica6': 5000.195999999999},
 'dispatched': 989,
 'state_digests': {'replica0': '488fb1eb2493805ff2b343e106786047',
                   'replica1': '488fb1eb2493805ff2b343e106786047',
                   'replica2': '488fb1eb2493805ff2b343e106786047',
                   'replica3': '488fb1eb2493805ff2b343e106786047',
                   'replica4': '488fb1eb2493805ff2b343e106786047',
                   'replica5': '488fb1eb2493805ff2b343e106786047',
                   'replica6': '488fb1eb2493805ff2b343e106786047'},
 'wire_totals': {'auth_bytes': 52608,
                 'messages_sent': 817,
                 'payload_bytes': 201500,
                 'per_type': {'PrePrepare': 120,
                              'Relay': 411,
                              'Reply': 140,
                              'Request': 20,
                              'StatusActive': 126}}}
GOLDEN["null_f10"] = \
{'completion_times': [2592.629000000003, 6334.155000000004, 8880.353999999987,
                      12024.027999999946, 15771.970999999901, 18928.682999999895,
                      21455.4779999999, 24599.305999999888, 27724.010999999875],
 'cpu_busy_total': {'replica0': 33566.40299999976,
                    'replica1': 33119.31899999981,
                    'replica10': 33119.534999999785,
                    'replica11': 33119.534999999785,
                    'replica12': 33119.534999999785,
                    'replica13': 33119.534999999785,
                    'replica14': 33119.534999999785,
                    'replica15': 33119.534999999785,
                    'replica16': 33119.534999999785,
                    'replica17': 33119.534999999785,
                    'replica18': 33119.534999999785,
                    'replica19': 33119.534999999785,
                    'replica2': 33119.31899999981,
                    'replica20': 33119.534999999785,
                    'replica21': 33119.534999999785,
                    'replica22': 33119.534999999785,
                    'replica23': 33119.534999999785,
                    'replica24': 33119.534999999785,
                    'replica25': 33119.534999999785,
                    'replica26': 33119.534999999785,
                    'replica27': 33119.534999999785,
                    'replica28': 33119.534999999785,
                    'replica29': 33119.534999999785,
                    'replica3': 33119.31899999981,
                    'replica30': 33119.534999999785,
                    'replica4': 33119.31899999981,
                    'replica5': 33119.31899999981,
                    'replica6': 33119.31899999981,
                    'replica7': 33119.31899999981,
                    'replica8': 33119.31899999981,
                    'replica9': 33119.31899999981},
 'dispatched': 19911,
 'state_digests': {'replica0': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica1': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica10': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica11': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica12': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica13': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica14': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica15': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica16': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica17': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica18': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica19': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica2': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica20': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica21': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica22': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica23': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica24': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica25': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica26': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica27': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica28': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica29': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica3': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica30': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica4': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica5': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica6': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica7': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica8': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica9': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a'},
 'wire_totals': {'auth_bytes': 4693896,
                 'messages_sent': 19818,
                 'payload_bytes': 5845401,
                 'per_type': {'Commit': 8370,
                              'PrePrepare': 270,
                              'Prepare': 8100,
                              'Reply': 279,
                              'Request': 9,
                              'StatusActive': 2790}}}

GOLDEN["kv_f1_dropping_primary"] = \
{'completion_times': [572.8689999999999, 921.0220000000002, 1209.0790000000004,
                      1502.3080000000007, 1980.1249999999993, 24328.714999999946,
                      24502.49999999994, 24660.285999999953, 24791.565999999966,
                      25376.52699999998, 25673.669999999944, 26066.034999999993,
                      26196.749, 26424.799000000003, 26936.65700000002,
                      27430.714000000033, 27686.193000000003, 28076.67200000004,
                      28368.101000000042, 28874.010000000053, 29321.299000000065,
                      29568.772000000066, 29913.721000000074, 30215.114000000078,
                      30633.41900000009, 31128.309000000103, 31378.143000000102,
                      31764.86500000011, 32012.251000000113, 32512.973000000125,
                      32988.18200000014, 33236.05500000014, 33581.00400000013,
                      33828.47700000012, 34329.286000000124, 34825.631000000125,
                      35075.93500000012, 35476.437000000114, 35723.910000000105,
                      36078.8230000001],
 'cpu_busy_total': {'replica0': 3417.022000000001,
                    'replica1': 16837.166999999907,
                    'replica2': 15653.846999999878,
                    'replica3': 15637.053999999884},
 'dispatched': 1524,
 'state_digests': {'replica0': 'e8b01324a8e52cbffe07e92d24ddbaed',
                   'replica1': '9a985520f9c69528496910988706a725',
                   'replica2': '9a985520f9c69528496910988706a725',
                   'replica3': '9a985520f9c69528496910988706a725'},
 'wire_totals': {'auth_bytes': 35088,
                 'messages_sent': 1460,
                 'payload_bytes': 195264,
                 'per_type': {'Checkpoint': 93,
                              'Commit': 427,
                              'NewView': 3,
                              'PrePrepare': 119,
                              'Prepare': 300,
                              'Reply': 234,
                              'Request': 244,
                              'StatusActive': 27,
                              'ViewChange': 9,
                              'ViewChangeAck': 4}}}

GOLDEN["kv_f1_page_transfer"] = \
{'completion_times': [587.9849999999999, 1248.1620000000003, 1908.3390000000009,
                      2568.5160000000014, 3228.693000000002, 3888.8700000000026,
                      4549.047000000002, 5209.224000000002, 5804.0250000000015,
                      6464.478000000002, 7124.787, 7785.095999999999, 8445.596999999994,
                      9105.905999999994, 9766.214999999993, 10426.523999999992,
                      11086.832999999991, 11614.76099999999, 12274.66199999999,
                      12934.970999999989, 13595.279999999988, 14255.588999999987,
                      14915.897999999986, 15576.206999999986, 16236.515999999985,
                      16896.824999999975, 17424.75299999998, 18084.653999999973,
                      18744.96299999997, 19405.271999999968, 20065.580999999966,
                      20725.889999999963, 21386.19899999996, 22046.507999999958,
                      22706.816999999955, 23234.74499999996, 23894.645999999953,
                      24554.95499999995, 25215.26399999995, 25875.572999999946,
                      26549.297999999948, 27322.90699999994],
 'cpu_busy_total': {'replica0': 15609.838999999949,
                    'replica1': 15423.650999999914,
                    'replica2': 15425.294999999915,
                    'replica3': 8056.597999999993},
 'dispatched': 1138,
 'state_digests': {'replica0': 'da69c0a84f10a3ab6452ff299e47913c',
                   'replica1': 'da69c0a84f10a3ab6452ff299e47913c',
                   'replica2': 'da69c0a84f10a3ab6452ff299e47913c',
                   'replica3': 'da69c0a84f10a3ab6452ff299e47913c'},
 'transfer': {'bytes_fetched': 7204,
              'fetch_messages': 11,
              'metadata_messages': 5,
              'pages_fetched': 6,
              'pages_skipped_local': 4},
 'wire_totals': {'auth_bytes': 31264,
                 'messages_sent': 1309,
                 'payload_bytes': 269076,
                 'per_type': {'Checkpoint': 99,
                              'Commit': 426,
                              'Data': 6,
                              'Fetch': 13,
                              'MetaData': 7,
                              'PrePrepare': 128,
                              'Prepare': 298,
                              'Reply': 140,
                              'Request': 156,
                              'StatusActive': 36}}}


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_fingerprint_matches_golden(name):
    actual = fingerprint(name)
    golden = GOLDEN[name]
    for key in golden:
        assert actual[key] == golden[key], f"{name}: {key} moved"
    assert actual.keys() == golden.keys()


if __name__ == "__main__":
    for config_name in CONFIGURATIONS:
        print(f'GOLDEN["{config_name}"] = \\')
        pprint.pprint(fingerprint(config_name), width=88, compact=True)
