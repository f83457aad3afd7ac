#!/usr/bin/env python
"""Guard the committed BENCH_*.json perf records against regressions.

Two modes:

* ``--smoke`` (cheap, part of the ``BENCH_SMOKE=1`` CI loop): validate the
  *committed* records — they exist, parse, carry the expected schema, and
  their recorded modeled ratios meet the experiment floors.  No benchmarks
  run.
* full (default): re-run the full-scale benchmarks into a scratch
  directory (via ``BENCH_OUTPUT_DIR``/``RESULTS_OUTPUT_DIR``) and compare
  each workload's ratio against the committed record.  Every ratio here is
  a *modeled* quantity (recovery bytes, migration bytes, per-round
  messages, skew recovery): it repeats exactly, so one fresh run suffices
  and any relative drop larger than ``--threshold`` (default 20%) is a
  real regression.  Wall-clock cost per operation is tracked by ``perf/``
  (``BENCHMARK.json``), not here; the ratios against code since deleted
  (E13, E14, E15's whole-snapshot side) are frozen in ``BASELINES.md``.
  The state-transfer record has no ratio left: its modeled values are
  gated as equalities in both modes.

Exit status 0 means no regression; 1 means regression or a malformed
record; 2 means the benchmark run itself failed.

Examples::

    python benchmarks/check_regression.py --smoke
    python benchmarks/check_regression.py --experiment statetransfer
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The speedup floors are owned by the benchmark modules; import them so the
# smoke validation can't drift from what the benchmarks themselves enforce.
for _path in (os.path.join(REPO_ROOT, "src"), os.path.dirname(os.path.abspath(__file__))):
    if _path not in sys.path:
        sys.path.insert(0, _path)
import test_bench_large_n as _bench_largen
import test_bench_rebalancing as _bench_rebalancing
import test_bench_sharding as _bench_sharding
import test_bench_state_transfer_pages as _bench_statetransfer

# Per-experiment spec.  ``headline_key``/``ratio_key`` name the
# optimized/baseline ratio and ``side_metric`` the per-side number every
# macro row must carry; ``speedup_floor`` is the least the headline ratio
# may be.  Every ratio is a modeled quantity — identical on every run, so
# one fresh measurement decides.  A spec with ``exact`` instead names the
# function that lists every value of a record differing from the one the
# benchmark module pins.
EXPERIMENTS = {
    "statetransfer": {
        "record": "BENCH_statetransfer.json",
        "module": "benchmarks/test_bench_state_transfer_pages.py",
        "required_workload_fragments": ["headline", "20% pages dirty"],
        "exact": _bench_statetransfer.mismatches,
    },
    "sharding": {
        "record": "BENCH_sharding.json",
        "module": "benchmarks/test_bench_sharding.py",
        # The gated headline is the migration bytes ratio (whole-store /
        # bucket-range modeled bytes) — like the state-transfer ratio it
        # is fully deterministic.
        "speedup_floor": _bench_sharding.FULL_MIGRATION_BYTES_RATIO_FLOOR,
        "required_workload_fragments": ["groups=2", "groups=4", "migration"],
        "headline_key": "headline_migration_bytes_ratio",
        "ratio_key": "ratio",
        "side_metric": "metric",
        # Aggregate-throughput scaling rows carry their own floors (the
        # 4-group deployment must keep scaling).
        "row_floors": {"groups=4": _bench_sharding.FULL_SCALING_FLOOR},
    },
    "largen": {
        "record": "BENCH_largen.json",
        "module": "benchmarks/test_bench_large_n.py",
        # The gated headline is the f=10 per-round protocol-message ratio
        # (flat / tree wire messages per agreement round) — modeled and
        # load-invariant.  The f=10 wall-clock ratio is reported only.
        "speedup_floor": _bench_largen.FULL_MESSAGE_RATIO_FLOOR,
        "required_workload_fragments": [
            "headline", "f=1", "f=2", "f=4", "f=6", "f=10",
        ],
        "headline_key": "headline_message_ratio",
        "ratio_key": "message_ratio",
        "side_metric": "per_round_messages",
        # Every NBFT-style adversarial configuration in the record must
        # have completed all of its operations.
        "adversarial_floor": 1.0,
    },
    "rebalancing": {
        "record": "BENCH_rebalancing.json",
        "module": "benchmarks/test_bench_rebalancing.py",
        # The gated headline is the skew-recovery ratio: auto-rebalanced
        # measured-phase throughput over the uniform (no-skew) curve.
        # Simulated closed-loop throughput is modeled and deterministic.
        "speedup_floor": _bench_rebalancing.FULL_RECOVERY_FLOOR,
        "required_workload_fragments": ["headline", "static partitioning"],
        "headline_key": "headline_recovery_ratio",
        "ratio_key": "recovery_ratio",
        "side_metric": "ops_per_second",
    },
}


def load_record(name: str, spec: dict, base_dir: str) -> dict:
    path = os.path.join(base_dir, spec["record"])
    if not os.path.exists(path):
        raise SystemExit(f"FAIL [{name}]: missing record {path}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_schema(name: str, spec: dict, record: dict) -> list:
    """Structural validation of one record; returns a list of problems."""
    problems = []
    for key in ("experiment", "macro", "generated_at"):
        if key not in record:
            problems.append(f"missing key {key!r}")
    if record.get("smoke"):
        problems.append("record was produced by a smoke run, not full scale")
    workloads = [row.get("workload", "") for row in record.get("macro", [])]
    for fragment in spec["required_workload_fragments"]:
        if not any(fragment in workload for workload in workloads):
            problems.append(f"no workload matching {fragment!r} in macro rows")
    if "exact" in spec:
        return problems + spec["exact"](record)
    headline_key = spec["headline_key"]
    ratio_key = spec["ratio_key"]
    side_metric = spec["side_metric"]
    if headline_key not in record:
        problems.append(f"missing key {headline_key!r}")
    floor = spec["speedup_floor"]
    if record.get(headline_key, 0) < floor:
        problems.append(
            f"{headline_key} {record.get(headline_key)}x below the {floor}x floor"
        )
    for fragment, floor in spec.get("row_floors", {}).items():
        for row in record.get("macro", []):
            if fragment in row.get("workload", "") and row.get(ratio_key, 0) < floor:
                problems.append(
                    f"workload {row.get('workload')!r} {ratio_key} "
                    f"{row.get(ratio_key)}x below the {floor}x floor"
                )
    for row in record.get("macro", []):
        if ratio_key not in row:
            problems.append(f"workload {row.get('workload')!r} lacks {ratio_key!r}")
        for side in ("baseline", "optimized"):
            if side_metric not in row.get(side, {}):
                problems.append(
                    f"workload {row.get('workload')!r} lacks {side} "
                    f"{side_metric!r}"
                )
    adversarial_floor = spec.get("adversarial_floor")
    if adversarial_floor is not None:
        rows = record.get("adversarial", [])
        if not rows:
            problems.append("missing adversarial sweep rows")
        for row in rows:
            if row.get("success_rate", 0) < adversarial_floor:
                problems.append(
                    f"adversarial config {row.get('config')!r} success_rate "
                    f"{row.get('success_rate')} below {adversarial_floor}"
                )
    return problems


def compare(name: str, spec: dict, committed: dict, fresh: dict,
            threshold: float) -> list:
    """Print fresh optimized/baseline ratios next to the committed record's;
    return the rows that dropped beyond ``threshold``."""
    ratio_key = spec["ratio_key"]
    side_metric = spec["side_metric"]
    regressions = []
    committed_rows = {row["workload"]: row for row in committed.get("macro", [])}
    for row in fresh.get("macro", []):
        workload = row["workload"]
        reference = committed_rows.get(workload)
        if reference is None:
            continue  # new workload: nothing to regress against
        old = reference.get(ratio_key, 0)
        new = row.get(ratio_key, 0)
        if old <= 0:
            continue
        change = (new - old) / old
        dropped = change < -threshold
        status = "REG" if dropped else "OK "
        old_side = reference["optimized"][side_metric]
        new_side = row["optimized"][side_metric]
        print(f"  {status} [{name}] {workload}: {ratio_key} {old:.2f}x -> "
              f"{new:.2f}x ({change:+.1%}); optimized {side_metric} "
              f"{old_side:.1f} -> {new_side:.1f}")
        if dropped:
            regressions.append((workload, old, new, change))
    return regressions


def run_fresh(spec: dict, out_dir: str) -> None:
    env = dict(os.environ)
    env["BENCH_OUTPUT_DIR"] = out_dir
    # Keep the committed results/E*.json out of reach too: the benchmarks
    # also write ExperimentTable rows via the results_dir fixture.
    env["RESULTS_OUTPUT_DIR"] = out_dir
    env.pop("BENCH_SMOKE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")] if p
    )
    # No --benchmark-disable-gc: the committed records come from plain
    # pytest runs, and fresh ones must match those conditions.
    command = [sys.executable, "-m", "pytest", spec["module"], "-q"]
    result = subprocess.run(command, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        raise SystemExit(2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", choices=[*EXPERIMENTS, "all"],
                        default="all")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional drop of a gated ratio (default 0.20)")
    parser.add_argument("--smoke", action="store_true",
                        help="validate the committed records only; run nothing")
    args = parser.parse_args()

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failed = False
    for name in names:
        spec = EXPERIMENTS[name]
        committed = load_record(name, spec, REPO_ROOT)
        problems = check_schema(name, spec, committed)
        for problem in problems:
            print(f"FAIL [{name}]: {problem}")
            failed = True
        if args.smoke or problems:
            if not problems:
                headline = spec.get("headline_key")
                print(f"OK   [{name}]: committed record is well-formed"
                      + (f" ({headline} {committed[headline]}x)" if headline else ""))
            continue
        # One fresh run: it must pass, and its modeled — exactly
        # repeatable — ratio must not have dropped.
        with tempfile.TemporaryDirectory() as out_dir:
            run_fresh(spec, out_dir)
            fresh = load_record(name, spec, out_dir)
        if "exact" in spec:
            problems = spec["exact"](fresh)
            for problem in problems:
                print(f"FAIL [{name}]: {problem}")
            failed = failed or bool(problems)
            if not problems:
                print(f"OK   [{name}]: fresh run equals the pinned values")
            continue
        regressed = compare(name, spec, committed, fresh, args.threshold)
        if regressed:
            print(f"FAIL [{name}]: {spec['ratio_key']} "
                  f"regression beyond {args.threshold:.0%}: "
                  f"{sorted(workload for workload, *_ in regressed)}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
