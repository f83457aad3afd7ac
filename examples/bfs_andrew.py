#!/usr/bin/env python3
"""BFS: the Byzantine-fault-tolerant file service under the Andrew workload.

Runs the five-phase Andrew-style benchmark against BFS (the NFS-like
service replicated with the BFT library) and against the unreplicated
baseline server, and prints the per-phase comparison the paper's Section
8.6 reports.
"""

from repro.baselines.unreplicated import UnreplicatedCluster
from repro.fs import AndrewBenchmark, BFSClient, NFSService, build_bfs_cluster


def main() -> None:
    benchmark = AndrewBenchmark(iterations=1)

    cluster = build_bfs_cluster(f=1, checkpoint_interval=128)
    bfs = BFSClient(cluster.new_client())
    print("running Andrew phases against BFS (4 replicas, f=1) ...")
    bfs_results = benchmark.run(bfs, lambda: cluster.now)

    nfs_cluster = UnreplicatedCluster(service_factory=NFSService)
    baseline = BFSClient(nfs_cluster.new_client(), use_read_only=False)
    print("running Andrew phases against the unreplicated NFS baseline ...\n")
    nfs_results = benchmark.run(baseline, lambda: nfs_cluster.now)

    print(f"{'phase':<10}{'ops':>6}{'BFS (ms)':>12}{'NFS-std (ms)':>14}{'slowdown':>10}")
    for bfs_phase, nfs_phase in zip(bfs_results, nfs_results):
        print(
            f"{bfs_phase.name:<10}{bfs_phase.operations:>6}"
            f"{bfs_phase.elapsed / 1000:>12.2f}{nfs_phase.elapsed / 1000:>14.2f}"
            f"{bfs_phase.elapsed / nfs_phase.elapsed:>10.2f}"
        )
    bfs_total = benchmark.total_elapsed(bfs_results)
    nfs_total = benchmark.total_elapsed(nfs_results)
    print(
        f"{'total':<10}{sum(r.operations for r in bfs_results):>6}"
        f"{bfs_total / 1000:>12.2f}{nfs_total / 1000:>14.2f}"
        f"{bfs_total / nfs_total:>10.2f}"
    )

    # Show that the replicated file system really holds the files.
    print("\nfiles on replica2:", cluster.replicas["replica2"].service.file_count())
    print("directories on replica2:", cluster.replicas["replica2"].service.directory_count())


if __name__ == "__main__":
    main()
