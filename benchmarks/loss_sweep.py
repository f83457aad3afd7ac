"""Closed-loop latency on a lossy network, per group size and loss rate.

    python benchmarks/loss_sweep.py CHECKOUT

``CHECKOUT`` is a checkout of this repository.  In a fresh subprocess
inside it, one closed loop of null operations (0/0, ``run_closed_loop``)
runs for every f in {1, 2, 3}, network loss in {1 %, 5 %} and seed 1-10.
Per (f, loss) it pools the seeds' completed operations and prints their
modeled latency in µs: mean, p50, p90, p99 (nearest rank) and max, then
the number of seeds whose run ends with a replica stranded, e.g.

    f  loss    ops    mean_us     p50_us     p90_us     p99_us     max_us stranded
    1  1%     1600     6502.7     1844.2     2695.4    98199.1   190072.4        0

A replica is stranded when it is not active in the highest view an active
replica is in, or when it is more than one checkpoint interval behind the
highest ``last_executed``.  The check reads only public replica
attributes, so it runs on older checkouts too.

Loss delays operations by what recovers them: status retransmission
(Section 5.2) among the replicas and the client's request retransmission.
``--seeds``, ``--clients`` and ``--ops`` shrink the sweep for a quick look
(the defaults are the sweep's sizes).
"""

from __future__ import annotations

import argparse
import math
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence

FAULTS = (1, 2, 3)
LOSSES = (0.01, 0.05)
COLUMNS = ("mean_us", "p50_us", "p90_us", "p99_us", "max_us")
HEADER = (f"{'f':<2} {'loss':<5} {'ops':>5}" + "".join(f" {name:>10}" for name in COLUMNS)
          + " stranded")


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def stranded(cluster) -> bool:
    """True when some replica ends out of step with the group: not active
    in the highest view an active replica is in, or more than one
    checkpoint interval behind the highest ``last_executed``."""
    replicas = list(cluster.replicas.values())
    views = [r.view for r in replicas if r.active_view]
    if not views:
        return True
    view = max(views)
    floor = max(r.last_executed for r in replicas) - cluster.config.checkpoint_interval
    return any(not r.active_view or r.view != view or r.last_executed < floor
               for r in replicas)


def report_sweep(checkout: Path, seeds: int, clients: int, ops: int) -> None:
    """Run the sweep with ``checkout``'s code in this process, printing a
    line per (f, loss)."""
    sys.path[:0] = [str(checkout / "src")]
    from repro.bench.workloads import micro_operation, run_closed_loop
    from repro.library import BFTCluster
    from repro.net.conditions import NetworkConditions

    operation = micro_operation(0, 0)
    print(HEADER, flush=True)
    for f in FAULTS:
        for loss in LOSSES:
            latencies: List[float] = []
            stranded_runs = 0
            for seed in range(1, seeds + 1):
                cluster = BFTCluster.create(
                    f=f, seed=seed, conditions=NetworkConditions(drop_probability=loss))
                result = run_closed_loop(cluster, clients, ops, lambda _c, _i: (operation, False))
                latencies += result.latencies
                stranded_runs += stranded(cluster)
            ordered = sorted(latencies)
            values = [sum(ordered) / len(ordered)]
            values += [nearest_rank(ordered, q) for q in (0.5, 0.9, 0.99)]
            values.append(ordered[-1])
            print(f"{f:<2} {loss:<5.0%} {len(ordered):>5}"
                  + "".join(f" {value:>10.1f}" for value in values)
                  + f" {stranded_runs:>8}", flush=True)


def sweep(checkout: Path, seeds: int = 10, clients: int = 8, ops: int = 20) -> List[str]:
    """The lines the sweep prints, run in a fresh subprocess in ``checkout``."""
    command = [sys.executable, str(Path(__file__).resolve()), str(checkout.resolve()),
               "--seeds", str(seeds), "--clients", str(clients), "--ops", str(ops),
               "--in-process"]
    return subprocess.run(command, cwd=checkout, check=True, capture_output=True,
                          text=True).stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--ops", type=int, default=20, help="operations per client")
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.in_process:
        report_sweep(args.checkout, args.seeds, args.clients, args.ops)
        return 0
    for line in sweep(args.checkout, args.seeds, args.clients, args.ops):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
