"""End-to-end tests for BFS (the replicated file service), the unreplicated
baseline, and the Andrew benchmark harness."""

from __future__ import annotations

import pytest

from repro.baselines.unreplicated import UnreplicatedCluster
from repro.fs import (
    AndrewBenchmark,
    BFSClient,
    NFSService,
    build_bfs_cluster,
)
from repro.sim.faults import FaultSpec, FaultType


def nfs_baseline():
    """NFS-std: the BFS client surface over one unreplicated server."""
    cluster = UnreplicatedCluster(service_factory=NFSService)
    return cluster, BFSClient(cluster.new_client(), use_read_only=False)


@pytest.fixture
def bfs():
    cluster = build_bfs_cluster(f=1, checkpoint_interval=32)
    return cluster, BFSClient(cluster.new_client())


def test_bfs_basic_file_operations(bfs):
    cluster, fs = bfs
    assert fs.mkdir(b"/home").startswith(b"FH:")
    assert fs.write_new_file(b"/home/readme", b"hello bfs").startswith(b"OK")
    assert fs.read_file(b"/home/readme") == b"hello bfs"
    assert b"size=9" in fs.stat(b"/home/readme")
    assert fs.listdir(b"/home") == [b"readme"]
    assert fs.exists(b"/home/readme")
    assert not fs.exists(b"/home/ghost")
    assert fs.rename(b"/home/readme", b"/home/moved") == b"OK"
    assert fs.read_file(b"/home/moved") == b"hello bfs"
    assert fs.remove(b"/home/moved") == b"OK"
    assert fs.rmdir(b"/home") == b"OK"


def test_bfs_replicas_hold_identical_file_system_state(bfs):
    cluster, fs = bfs
    fs.mkdir(b"/data")
    for i in range(5):
        fs.write_new_file(b"/data/file%d" % i, b"contents %d" % i)
    cluster.run(duration=2_000_000)
    digests = {r.service.state_digest() for r in cluster.replicas.values()}
    assert len(digests) == 1
    assert cluster.replicas["replica1"].service.file_count() == 5


def test_bfs_mtime_is_identical_across_replicas(bfs):
    """Time-last-modified is non-deterministic at each replica's clock; the
    primary's proposed value makes it identical everywhere (Section 5.4)."""
    cluster, fs = bfs
    fs.write_new_file(b"/stamp", b"x")
    cluster.run(duration=1_000_000)
    attrs = {
        rid: r.service.execute(
            __import__("repro.fs.nfs", fromlist=["NFSClientOps"]).NFSClientOps.getattr(b"/stamp"),
            "probe",
        )
        for rid, r in cluster.replicas.items()
    }
    assert len(set(attrs.values())) == 1


def test_bfs_survives_backup_crash(bfs):
    cluster, fs = bfs
    fs.write_new_file(b"/precrash", b"before")
    cluster.crash_replica("replica3")
    assert fs.write_new_file(b"/postcrash", b"after").startswith(b"OK")
    assert fs.read_file(b"/precrash") == b"before"


def test_bfs_survives_primary_crash():
    cluster = build_bfs_cluster(f=1, checkpoint_interval=32)
    cluster.config  # silence linters
    client = BFSClient(cluster.new_client())
    client.write_new_file(b"/important", b"do not lose")
    cluster.crash_replica("replica0")
    assert client.read_file(b"/important") == b"do not lose"
    assert client.write_new_file(b"/new", b"still writable").startswith(b"OK")


def test_unreplicated_baseline_matches_bfs_results(bfs):
    cluster, fs = bfs
    _, baseline = nfs_baseline()
    script = [
        ("mkdir", (b"/proj",)),
        ("write_new_file", (b"/proj/a.txt", b"alpha")),
        ("write_new_file", (b"/proj/b.txt", b"beta")),
        ("read_file", (b"/proj/a.txt",)),
        ("listdir", (b"/proj",)),
    ]
    for method, args in script:
        assert getattr(fs, method)(*args) == getattr(baseline, method)(*args)


def test_andrew_benchmark_runs_all_phases_on_both_systems(bfs):
    cluster, fs = bfs
    benchmark = AndrewBenchmark(iterations=1)
    bfs_results = benchmark.run(fs, lambda: cluster.now)
    assert [r.name for r in bfs_results] == ["mkdir", "copy", "stat", "read", "compile"]
    assert all(r.elapsed > 0 for r in bfs_results)
    assert all(r.operations > 0 for r in bfs_results)

    nfs_cluster, baseline = nfs_baseline()
    nfs_results = benchmark.run(baseline, lambda: nfs_cluster.now)
    bfs_total = benchmark.total_elapsed(bfs_results)
    nfs_total = benchmark.total_elapsed(nfs_results)
    # BFS is slower than the unreplicated server but by a modest factor,
    # mirroring the paper's result that BFS is competitive with NFS-std.
    assert nfs_total < bfs_total < 6 * nfs_total


def test_andrew_read_only_phases_are_relatively_cheaper(bfs):
    cluster, fs = bfs
    benchmark = AndrewBenchmark(iterations=1)
    bfs_results = {r.name: r for r in benchmark.run(fs, lambda: cluster.now)}
    nfs_cluster, baseline = nfs_baseline()
    nfs_results = {r.name: r for r in benchmark.run(baseline, lambda: nfs_cluster.now)}
    read_ratio = bfs_results["read"].elapsed / nfs_results["read"].elapsed
    copy_ratio = bfs_results["copy"].elapsed / nfs_results["copy"].elapsed
    # Read-only phases use the single-round-trip optimization, so their
    # slowdown is smaller than the write-heavy copy phase's.
    assert read_ratio < copy_ratio


def test_andrew_scales_with_iterations():
    nfs_cluster, baseline = nfs_baseline()
    small = AndrewBenchmark(iterations=1)
    results = small.run(baseline, lambda: nfs_cluster.now)
    ops_one = sum(r.operations for r in results)
    nfs_cluster2, baseline2 = nfs_baseline()
    big = AndrewBenchmark(iterations=3)
    results3 = big.run(baseline2, lambda: nfs_cluster2.now)
    ops_three = sum(r.operations for r in results3)
    assert ops_three == 3 * ops_one
