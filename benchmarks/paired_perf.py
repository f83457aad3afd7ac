"""Alternating parent/change pairs of ``perf/run.py`` (the perf-record policy).

    python benchmarks/paired_perf.py PARENT CHANGE --workloads kv_churn_ckpt null_f10 \\
        --seed 23 --pairs 10 --seconds 10

``PARENT`` and ``CHANGE`` are two checkouts of this repository.  Each pair
runs ``python perf/run.py --workload W --seed S --seconds T --trace 0`` once
in each, in a fresh subprocess, alternating which side goes first.  Per
end-to-end metric: each side's q1 / median / q3, pairs the change won (ties
count for neither), the parent's interquartile range and the
choosing-metrics section 8 verdict.  Exits 1 if a ``modeled_*`` value or
``failed`` differs within a pair: those repeat exactly for a seed.

With ``--counts`` it makes one ``--trace 1`` run per side and workload
instead and compares every count-type per-layer metric ``BENCHMARK.json``
declares (calls, messages, bytes, events, shares of counted things — all but
the tracer's timings).  They come from the frozen prefix of rounds, so they
repeat exactly too: it prints the ones that differ and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0
) -> Dict[str, Any]:
    """One run in ``checkout``: its metrics (end to end, or per layer when
    traced), the detail line's workload-specific modeled values, and
    ``failed``."""
    command = [sys.executable, "perf/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(command, cwd=checkout, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    record = json.loads(lines[-1])
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    entries = {**record["metrics"], **detail["specific"]}
    return {"failed": record["failed"],
            **{name: entry["value"] for name, entry in entries.items()}}


def quartiles(values: Sequence[float]) -> Sequence[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[int, str]:
    """Pairs the change won, and the section 8 verdict: a gain needs nine tenths
    of the pairs and a median shift beyond the parent's quartile distance; a
    spread wider than the bound leaves anything but a clean sweep unresolved."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    shift = sign * (quartiles(change)[1] - median)
    sweep = min(sign * c for c in change) > max(sign * p for p in parent)
    if won >= 0.9 * len(parent) and shift > q3 - q1:
        return won, "gain"
    if q3 - q1 > bound * abs(median) and not sweep:
        return won, "unresolved"
    return won, ("no worse" if shift >= -bound * abs(median) else "WORSE")


def differing_counts(args: argparse.Namespace, per_layer: Sequence[Dict[str, Any]]) -> int:
    """One traced run per side and workload; prints each count-type layer
    metric whose two values differ and returns how many did."""
    counted = [m["name"] for m in per_layer
               if "self_us" not in m["name"] and not m["name"].startswith("trace.")]
    differing = 0
    for workload in args.workloads:
        parent, change = (run_once(side, workload, args.seed, args.seconds, trace=1)
                          for side in (args.parent, args.change))
        differs = [name for name in counted + ["failed"] if parent.get(name) != change.get(name)]
        for name in differs:
            print(f"DIFFERS {workload}: {name} {parent.get(name)!r} != {change.get(name)!r}")
        print(f"{workload}  seed {args.seed}  {len(counted)} count metrics, "
              f"{len(differs)} differ")
        differing += len(differs)
    return differing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--counts", action="store_true",
                        help="compare the count-type per-layer metrics of one traced run per side")
    args = parser.parse_args()
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.counts:
        return 1 if differing_counts(args, benchmark["per_layer"]) else 0
    declared = benchmark["end_to_end"]
    differing = 0
    for workload in args.workloads:
        runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            for side in (("parent", "change"), ("change", "parent"))[pair % 2]:
                runs[side].append(
                    run_once(getattr(args, side), workload, args.seed, args.seconds))
            for name, value in runs["parent"][-1].items():
                other = runs["change"][-1].get(name)
                if (name.startswith("modeled_") or name == "failed") and other != value:
                    differing += 1
                    print(f"DIFFERS {workload} pair {pair}: {name} {value!r} != {other!r}")
        print(f"{workload}  seed {args.seed}  {args.pairs} pairs x {args.seconds:g} s")
        for metric in declared:
            name = metric["name"]
            parent = [run[name] for run in runs["parent"]]
            change = [run[name] for run in runs["change"]]
            won, word = verdict(parent, change, metric["better"], metric["bound"])
            pq, cq = quartiles(parent), quartiles(change)
            print(f"  {name:<24} parent {pq[0]:.6g} / {pq[1]:.6g} / {pq[2]:.6g}   "
                  f"change {cq[0]:.6g} / {cq[1]:.6g} / {cq[2]:.6g}   won {won}/{args.pairs}"
                  f"   parent IQR {pq[2] - pq[0]:.4g}   {word}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
