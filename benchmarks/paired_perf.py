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
``--expect NAME...`` names the ``modeled_*`` metrics a change is meant to
move: those may differ (each named one that does not is printed as
unchanged), and it exits 1 only if one it does not name, or ``failed``,
differs.

    python benchmarks/paired_perf.py PARENT CHANGE --workloads kv_churn_ckpt \\
        --seed 23 --pairs 10 --expect modeled_ops_per_s modeled_latency_p50_us

With ``--counts`` it makes one ``--trace 1`` run per side and workload
instead and compares every count-type per-layer metric ``BENCHMARK.json``
declares (calls, messages, bytes, events, shares of counted things — all but
the tracer's timings).  They come from the frozen prefix of rounds, so they
repeat exactly too: it prints the ones that differ and exits 1 if any does.
``--expect NAME...`` names the counts a change is meant to move: those may
differ (each named one that does not is printed as unchanged), and it exits
1 only if a count it does not name differs.

    python benchmarks/paired_perf.py PARENT CHANGE --counts --seconds 1 \\
        --workloads null_f10 --seed 41 --expect crypto.mac_calls_per_op

With ``--seed-sweep S...`` it compares modeled values only, over seeds: one
``--seconds 0`` run per side, workload and seed (modeled values repeat
exactly for a seed, so any one seed, the benchmark's own included, is one
draw of many).  Per workload and modeled end-to-end metric it prints the
smallest, median and largest relative change over the seeds and the seed
where the change is worst.  It exits 1 if a metric ``--expect`` does not
name is worse than its ``BENCHMARK.json`` bound on any seed, or if more
operations fail on any seed.

    python benchmarks/paired_perf.py PARENT CHANGE --workloads kv_read90 \\
        --seed-sweep 1 2 3 4 5 6 7 8 9 10
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


def counted_metrics(per_layer: Sequence[Dict[str, Any]]) -> List[str]:
    """The count-type per-layer metrics: all but the tracer's timings."""
    return [m["name"] for m in per_layer
            if "self_us" not in m["name"] and not m["name"].startswith("trace.")]


def differing_counts(args: argparse.Namespace, per_layer: Sequence[Dict[str, Any]]) -> int:
    """One traced run per side and workload; prints each count-type layer
    metric whose two values differ, and each ``args.expect`` names that did
    not, and returns how many differed unnamed."""
    counted = counted_metrics(per_layer)
    expected = set(args.expect)
    differing = 0
    for workload in args.workloads:
        parent, change = (run_once(side, workload, args.seed, args.seconds, trace=1)
                          for side in (args.parent, args.change))
        differs = [name for name in counted + ["failed"] if parent.get(name) != change.get(name)]
        for name in differs:
            word = "EXPECTED" if name in expected else "DIFFERS"
            print(f"{word} {workload}: {name} {parent.get(name)!r} != {change.get(name)!r}")
        for name in sorted(expected.difference(differs)):
            print(f"UNCHANGED {workload}: {name} {parent.get(name)!r}")
        unexpected = len(set(differs) - expected)
        print(f"{workload}  seed {args.seed}  {len(counted)} count metrics, "
              f"{len(differs)} differ, {unexpected} not expected")
        differing += unexpected
    return differing


def differing_pairs(args: argparse.Namespace, declared: Sequence[Dict[str, Any]]) -> int:
    """``args.pairs`` alternating pairs per workload; prints each modeled
    value that differs within a pair, each ``args.expect`` names that never
    did, and each declared metric's quartiles and verdict, and returns how
    many values differed unnamed."""
    expected = set(args.expect)
    differing = 0
    for workload in args.workloads:
        runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
        moved = set()
        for pair in range(args.pairs):
            for side in (("parent", "change"), ("change", "parent"))[pair % 2]:
                runs[side].append(
                    run_once(getattr(args, side), workload, args.seed, args.seconds))
            for name, value in runs["parent"][-1].items():
                other = runs["change"][-1].get(name)
                if (name.startswith("modeled_") or name == "failed") and other != value:
                    moved.add(name)
                    word = "EXPECTED" if name in expected else "DIFFERS"
                    differing += name not in expected
                    print(f"{word} {workload} pair {pair}: {name} {value!r} != {other!r}")
        for name in sorted(expected - moved):
            print(f"UNCHANGED {workload}: {name} {runs['parent'][-1].get(name)!r}")
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
    return differing


def seed_sweep(args: argparse.Namespace, declared: Sequence[Dict[str, Any]]) -> int:
    """One ``--seconds 0`` run per side, workload and seed in
    ``args.seed_sweep``; prints, per workload and modeled metric, the
    smallest / median / largest relative change and the worst seed, and
    returns how many metrics ``args.expect`` does not name were worse than
    their bound on some seed, plus the workloads where more operations
    failed on some seed."""
    modeled = [m for m in declared if m["name"].startswith("modeled_")]
    expected = set(args.expect)
    worse = 0
    for workload in args.workloads:
        changes: Dict[str, Dict[int, float]] = {m["name"]: {} for m in modeled}
        for seed in args.seed_sweep:
            parent, change = (run_once(side, workload, seed, 0.0)
                              for side in (args.parent, args.change))
            if change["failed"] > parent["failed"]:
                worse += 1
                print(f"DIFFERS {workload} seed {seed}: failed "
                      f"{parent['failed']!r} != {change['failed']!r}")
            for metric in modeled:
                name = metric["name"]
                before, after = parent[name], change[name]
                changes[name][seed] = (after - before) / abs(before) if before else 0.0
        print(f"{workload}  seeds {' '.join(map(str, args.seed_sweep))}  modeled, --seconds 0")
        for metric in modeled:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            per_seed = changes[name]
            values = sorted(per_seed.values())
            worst = min(per_seed, key=lambda seed: sign * per_seed[seed])
            over = [seed for seed, value in per_seed.items() if -sign * value > bound]
            word = "ok"
            if over:
                word = "EXPECTED" if name in expected else "WORSE"
                worse += name not in expected
            print(f"  {name:<24} min {values[0]:+.2%}  median {statistics.median(values):+.2%}"
                  f"  max {values[-1]:+.2%}  worst seed {worst} ({per_seed[worst]:+.2%})"
                  f"  bound {bound:.0%}  {word}"
                  + (f"  over it: seeds {' '.join(map(str, over))}" if over else ""))
    return worse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seed-sweep", type=int, nargs="+", metavar="S",
                        help="compare modeled values only: one --seconds 0 run per side "
                             "and seed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--counts", action="store_true",
                        help="compare the count-type per-layer metrics of one traced run per side")
    parser.add_argument("--expect", nargs="+", default=[], metavar="NAME",
                        help="the count metrics (with --counts) or modeled_* metrics "
                             "(pairs, --seed-sweep) the change is meant to move")
    args = parser.parse_args()
    if (args.seed is None) == (args.seed_sweep is None):
        parser.error("give one of --seed and --seed-sweep")
    if args.counts and args.seed_sweep:
        parser.error("--counts takes one --seed")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.counts:
        unknown = set(args.expect).difference(counted_metrics(benchmark["per_layer"]), ["failed"])
        if unknown:
            parser.error(f"--expect names no count metric: {' '.join(sorted(unknown))}")
        return 1 if differing_counts(args, benchmark["per_layer"]) else 0
    unknown = [name for name in args.expect if not name.startswith("modeled_")]
    if unknown:
        parser.error(f"--expect names no modeled metric: {' '.join(sorted(unknown))}")
    if args.seed_sweep:
        return 1 if seed_sweep(args, benchmark["end_to_end"]) else 0
    return 1 if differing_pairs(args, benchmark["end_to_end"]) else 0


if __name__ == "__main__":
    sys.exit(main())
