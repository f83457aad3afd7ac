"""Live clusters and peak RSS after each step of one ``openloop_f1`` round.

    python benchmarks/ladder_clusters.py CHECKOUT --seed 13

``CHECKOUT`` is a checkout of this repository.  One round of the
``openloop_f1`` workload (``perf/workloads.py::openloop_round``, one fresh
cluster per rate step) runs in a fresh subprocess inside it.  After each
step it prints the step's rate, how many ``BFTCluster`` objects are still
in memory — the live one and any earlier one the cyclic collector has not
freed yet, counted through weak references, so counting runs no
collection — and ``ru_maxrss`` so far, e.g.

    2000/s  live_clusters 1  maxrss_mb 28.41

The hooks are installed at run time on the imported ``perf.workloads`` and
``BFTCluster``; nothing under ``perf/`` changes.  ``--arrivals-per-step``
and ``--pool`` shrink the round for a quick look (the frozen sizes are the
default).
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import weakref
from pathlib import Path
from typing import List, Optional


def report_ladder(checkout: Path, seed: int, sizes: dict) -> None:
    """Run one open-loop round of ``checkout`` in this process, printing a
    line after each step."""
    sys.path[:0] = [str(checkout), str(checkout / "src")]
    from perf import workloads
    from repro.library import BFTCluster

    live: "weakref.WeakSet[BFTCluster]" = weakref.WeakSet()
    build = BFTCluster.__init__

    def tracked_build(self, *args, **kwargs) -> None:
        build(self, *args, **kwargs)
        live.add(self)

    check_digests = workloads.Round.check_digests

    def check_and_report(self, cluster, label, skip=()) -> None:
        check_digests(self, cluster, label, skip)
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{label}  live_clusters {len(live)}  maxrss_mb {maxrss_mb:.2f}", flush=True)

    BFTCluster.__init__ = tracked_build
    workloads.Round.check_digests = check_and_report
    result = workloads.openloop_round(seed, **sizes)
    if result.errors:
        raise SystemExit("round failed: " + "; ".join(result.errors))


def ladder(checkout: Path, seed: int, arrivals_per_step: Optional[int] = None,
           pool: Optional[int] = None) -> List[str]:
    """The lines one round prints, run in a fresh subprocess in ``checkout``."""
    command = [sys.executable, str(Path(__file__).resolve()), str(checkout.resolve()),
               "--seed", str(seed), "--in-process"]
    if arrivals_per_step is not None:
        command += ["--arrivals-per-step", str(arrivals_per_step)]
    if pool is not None:
        command += ["--pool", str(pool)]
    return subprocess.run(command, cwd=checkout, check=True, capture_output=True,
                          text=True).stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--arrivals-per-step", type=int)
    parser.add_argument("--pool", type=int)
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.in_process:
        sizes = {name: value for name, value in
                 (("arrivals_per_step", args.arrivals_per_step), ("pool", args.pool))
                 if value is not None}
        report_ladder(args.checkout, args.seed, sizes)
        return 0
    for line in ladder(args.checkout, args.seed, args.arrivals_per_step, args.pool):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
