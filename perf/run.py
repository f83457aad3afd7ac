"""The repo benchmark.  One command, three uses:

``python perf/run.py [--seed N] [--out FILE] [--trace-out FILE]``
    runs every workload of ``BENCHMARK.json`` in a fresh subprocess each,
    untraced, then every workload again traced, and prints every metric by
    name with its unit.  Exits non-zero if any output check fails.

``python perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    is that subprocess: one workload, rounds repeated for about ``S``
    seconds, the result as one JSON object on the last line of stdout.
    ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
    per-layer metrics of a run with the tracer installed.

``python perf/run.py --compare A.json B.json``
    compares two ``--out`` records metric by metric against the bounds in
    ``BENCHMARK.json`` and exits non-zero if B is worse than A beyond one.

See ``perf/README.md`` for what each metric means.
"""

from __future__ import annotations

import time

_ENTERED = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # ``perf`` is imported as a package from the checkout root; the script's
    # own directory must not stay on the path, where ``perf/trace.py`` would
    # shadow the standard library's ``trace``.
    sys.path[0] = ROOT
sys.path.insert(0, os.path.join(ROOT, "src"))

from perf.trace import LAYERS, Tracer  # noqa: E402
from perf.workloads import (  # noqa: E402
    HEAVY_RATE, LIGHT_RATE, WORKLOADS, RoundResult, Workload, percentile, quartiles,
)

IMPORT_S = time.perf_counter() - _ENTERED

#: metric -> (value, unit, clock).  The clock is stated on every printed line:
#: ``modeled`` is simulated time under the paper's cost model, ``cpu`` is
#: ``time.process_time`` of the simulator, ``span`` the tracer's
#: ``perf_counter_ns`` (traced pass only), ``wall`` real time.
Metrics = Dict[str, Tuple[float, str, str]]


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------------
# Running one workload
# --------------------------------------------------------------------------
def run_rounds(
    workload: Workload, seed: int, seconds: float, traced: bool,
    sizes: Optional[Dict[str, Any]] = None, rounds: Optional[int] = None,
    keep_spans: bool = False,
) -> Tuple[List[RoundResult], Optional[Tracer]]:
    """Repeat rounds until ``seconds`` have passed, and at least ``rounds``
    times.  Round ``k`` always runs on seed ``seed * 1000 + k``.

    A traced run ends with one more round after the tracer is removed, a
    replay of round 0: the untraced reference ``trace.overhead_ratio``
    divides by.  It runs last so that it, too, runs in a warm process."""
    sizes = workload.sizes if sizes is None else sizes
    rounds = workload.rounds if rounds is None else rounds
    tracer = Tracer(keep_spans=keep_spans) if traced else None
    started = time.perf_counter()
    results: List[RoundResult] = []
    if tracer is not None:
        tracer.install()
    try:
        while True:
            elapsed = time.perf_counter() - started
            if len(results) >= rounds and elapsed + elapsed / len(results) > seconds:
                break
            results.append(workload.run_round(seed * 1000 + len(results), tracer, **sizes))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if traced:
        results.append(workload.run_round(seed * 1000, None, **sizes))
    return results, tracer


def end_to_end_metrics(rounds: Sequence[RoundResult], prefix: int, setup_extra_s: float) -> Metrics:
    """The metrics a user of the system would see, from an untraced run."""
    modeled = rounds[:prefix]
    latencies = [sample for r in modeled for sample in r.latencies]
    return {
        "setup_s": (setup_extra_s + statistics.median(r.setup_s for r in rounds), "s", "wall"),
        # Lower quartile, not median: interference on a shared machine only
        # ever adds CPU time, so the quieter rounds are the truer ones.
        "cpu_us_per_op": (quartiles(cpu_us_per_op(rounds))[0], "us", "cpu"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss",
        ),
        # Median of the rounds' rates, so one round with a stalled client
        # (a read that fell back to the retransmission timeout) does not set it.
        "modeled_ops_per_s": (
            statistics.median(r.steady_ops / r.steady_us * 1e6 for r in modeled),
            "ops/s", "modeled",
        ),
        "modeled_latency_p50_us": (percentile(latencies, 50), "us", "modeled"),
        "modeled_latency_p99_us": (percentile(latencies, 99), "us", "modeled"),
    }


def cpu_us_per_op(rounds: Sequence[RoundResult]) -> List[float]:
    return [r.cpu_s * 1e6 / max(1, r.completed) for r in rounds]


def specific_metrics(rounds: Sequence[RoundResult], prefix: int) -> Metrics:
    """End-to-end values only some workloads have (zero elsewhere)."""
    modeled = rounds[:prefix]

    def step_p99(rate: int) -> float:
        samples = [s for r in modeled for s in r.step_latencies.get(rate, ())]
        return percentile(samples, 99) if samples else 0.0

    def median_of(key: str, low: bool = False) -> float:
        values = [r.specific[key] for r in modeled if key in r.specific]
        if not values:
            return 0.0
        return statistics.median_low(values) if low else statistics.median(values)

    return {
        "modeled_p99_us_light": (step_p99(LIGHT_RATE), "us", "modeled"),
        "modeled_p99_us_heavy": (step_p99(HEAVY_RATE), "us", "modeled"),
        # median_low keeps the answer on a step of the ladder
        "modeled_max_rate_ops_per_s": (
            median_of("modeled_max_rate_ops_per_s", low=True), "ops/s", "modeled",
        ),
        "modeled_unavailable_us": (median_of("modeled_unavailable_us"), "us", "modeled"),
        "modeled_catchup_us": (median_of("modeled_catchup_us"), "us", "modeled"),
        "modeled_catchup_bytes": (median_of("modeled_catchup_bytes"), "bytes", "modeled"),
    }


def per_layer_metrics(rounds: Sequence[RoundResult], prefix: int) -> Metrics:
    """The layer ledger of a traced run, whose last round is the untraced
    reference.  Self times are medians over every traced round; counts are
    totals over the first ``prefix`` rounds, which repeat exactly for a seed."""
    reference, traced, counted = rounds[-1], rounds[:-1], rounds[:prefix]
    ops = max(1, sum(r.completed for r in counted))

    def self_us(layer: str, per_op: bool = True) -> float:
        return statistics.median(
            r.trace["self_ns"][layer] / 1e3 / (max(1, r.completed) if per_op else 1)
            for r in traced
        )

    def calls(*suffixes: str) -> int:
        """Calls of every wrapped function whose ``Class.name`` ends so."""
        return sum(
            count for r in counted for name, count in r.trace["calls"].items()
            if name.endswith(suffixes)
        )

    def counter(key: str) -> float:
        return sum(r.counters.get(key, 0) for r in counted)

    def specific(key: str) -> float:
        return statistics.median(r.specific.get(key, 0.0) for r in rounds[:prefix])

    metrics: Metrics = {}
    for layer in LAYERS:
        name, per_op = {
            "core.viewchange": ("core.viewchange.self_us", False),
            "statetransfer.transfer": ("statetransfer.self_us_per_episode", False),
            "statetransfer.tree": ("statetransfer.tree_self_us_per_op", True),
        }.get(layer, (f"{layer}.self_us_per_op", True))
        metrics[name] = (self_us(layer, per_op), "us", "span")

    replicas = counter("replicas") / len(counted)
    counts = {
        "core.auth.sign_calls_per_op": calls(
            ".sign_multicast", ".sign_point_to_point", ".sign_with_private_key") / ops,
        "core.auth.verify_calls_per_op": calls("Authentication.verify") / ops,
        "core.auth.verify_rejects": sum(
            r.trace["false_results"].get("Authentication.verify", 0) for r in counted),
        "crypto.mac_calls_per_op": calls("compute_mac") / ops,
        "crypto.digest_calls_per_op": calls("digest") / ops,
        "core.messages.encode_calls_per_op": calls("pack") / ops,
        "core.replica.receive_calls_per_op": calls("Replica.receive") / ops,
        "core.replica.ops_per_batch": counter("replica.requests_executed")
        / max(1, counter("replica.batches_committed")),
        "core.replica.messages_rejected": counter("replica.messages_rejected"),
        "core.replica.checkpoints_per_kop": counter("replica.checkpoints_taken")
        / replicas / ops * 1000,
        "core.client.retransmissions": counter("client.retransmissions"),
        "core.viewchange.started": counter("replica.view_changes_started") / len(counted),
        "core.viewchange.completed": counter("replica.view_changes_completed") / len(counted),
        "sim.scheduler.events_per_op": counter("sched.events") / ops,
        "net.network.msgs_per_op": counter("net.msgs") / ops,
        "library.cluster.handler_calls_per_op": calls(
            ".on_message", "ProtocolNode.on_timer", ".on_internal", ".external_call") / ops,
        "services.execute_calls_per_op": calls(".execute", ".execute_batch") / ops,
        "services.state_digest_calls_per_kop": calls(".state_digest") / ops * 1000,
        "services.snapshot_calls_per_kop": calls(".snapshot") / ops * 1000,
        "sharding.router_calls_per_op": calls(
            "ShardRouter.bucket_of_key", "ShardRouter.group_of_bucket",
            "ShardRouter.group_of_key", "ShardRouter.is_frozen_bucket") / ops,
        "loadgen.backlog_max": max(r.counters.get("loadgen.backlog_max", 0) for r in counted),
    }
    for key in ("pages_fetched", "pages_skipped_local", "fetch_messages",
                "metadata_messages", "pages_rejected"):
        counts[f"statetransfer.{key}"] = specific(f"statetransfer.{key}")
    metrics.update({name: (value, "count", "count") for name, value in counts.items()})
    metrics.update({
        "net.network.bytes_per_op": (counter("net.bytes") / ops, "bytes", "count"),
        "net.network.auth_bytes_per_op": (counter("net.auth_bytes") / ops, "bytes", "count"),
        "net.network.coalesced_share": (
            counter("net.coalesced") / max(1, counter("net.msgs")), "ratio", "count"),
        "library.cluster.primary_modeled_busy_share": (
            counter("primary_busy_us") / max(1.0, counter("group_sim_us")), "ratio", "modeled"),
        "sharding.load_imbalance": (specific("sharding.load_imbalance"), "ratio", "count"),
        "loadgen.max_lateness_us": (
            max(r.counters.get("loadgen.max_lateness_us", 0.0) for r in counted), "us", "modeled"),
        "trace.overhead_ratio": (
            quartiles(cpu_us_per_op(traced))[0] / cpu_us_per_op([reference])[0],
            "ratio", "cpu"),
        "trace.unattributed_share": (
            statistics.median(1.0 - r.trace["covered_ns"] / r.wall_ns for r in traced),
            "ratio", "span"),
    })
    metrics.update(specific_metrics(rounds, prefix))
    return metrics


def run_workload(
    name: str, seed: int, seconds: float, traced: bool,
    sizes: Optional[Dict[str, Any]] = None, rounds: Optional[int] = None,
    trace_out: Optional[str] = None, setup_extra_s: float = 0.0,
) -> Dict[str, Any]:
    """Run one workload and return its record: the contract's four keys plus
    a ``detail`` entry with what the human-readable report prints."""
    workload = WORKLOADS[name]
    prefix = workload.rounds if rounds is None else rounds
    results, tracer = run_rounds(
        workload, seed, seconds, traced, sizes, prefix, keep_spans=trace_out is not None
    )
    if traced:
        metrics = per_layer_metrics(results, prefix)
        extra: Metrics = {}
        if trace_out is not None and tracer is not None:
            tracer.write_spans(trace_out, {"workload": name, "seed": seed})
    else:
        metrics = end_to_end_metrics(results, prefix, setup_extra_s)
        extra = {k: v for k, v in specific_metrics(results, prefix).items() if v[0]}
    errors = [f"round {k}: {e}" for k, r in enumerate(results) for e in r.errors]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    cpu = cpu_us_per_op(results[:-1] if traced else results)
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _as_json(metrics),
        "detail": {
            "workload": name,
            "seed": seed,
            "traced": traced,
            "rounds": len(cpu),
            "modeled_rounds": prefix,
            "modeled_samples": sum(len(r.latencies) for r in results[:prefix]),
            "cpu_us_per_op_quartiles": quartiles(cpu),
            "setup_s_quartiles": quartiles([r.setup_s for r in results]),
            "unavailable_us_max": max(
                r.specific.get("modeled_unavailable_us", 0.0) for r in results[:prefix]
            ),
            "specific": _as_json(extra),
            "errors": errors,
        },
    }


def _as_json(metrics: Metrics) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": value, "unit": unit, "clock": clock}
        for name, (value, unit, clock) in metrics.items()
    }


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------
def print_record(record: Dict[str, Any]) -> None:
    detail = record["detail"]
    q1, q2, q3 = detail["cpu_us_per_op_quartiles"]
    print(
        f"workload {detail['workload']}  seed {detail['seed']}  "
        f"{'traced' if detail['traced'] else 'untraced'}  {detail['rounds']} rounds  "
        f"(modeled values and counts: first {detail['modeled_rounds']} rounds, "
        f"{detail['modeled_samples']} latency samples)"
    )
    print(
        "  modeled clock = simulated us under PAPER_PARAMETERS "
        "(network delay 40 us + 0.08 us/byte per message); cpu clock = time.process_time()"
    )
    for name, entry in {**record["metrics"], **detail["specific"]}.items():
        print(f"  {name:<46} {entry['value']:>16.4f} {entry['unit']:<6} [{entry['clock']}]")
    failed_share = record["failed"] / record["attempted"]
    print(f"  {'failed_ops_share':<46} {failed_share:>16.4f} {'ratio':<6} "
          f"[{record['failed']} of {record['attempted']} attempted]")
    print(f"  quartiles of cpu_us_per_op over {detail['rounds']} rounds: "
          f"{q1:.1f} / {q2:.1f} / {q3:.1f} us")
    if detail["unavailable_us_max"]:
        print(f"  max over episodes of modeled_unavailable_us: {detail['unavailable_us_max']:.1f} us")
    for error in detail["errors"]:
        print(f"  CHECK FAILED  {error}")


def main_one(args: argparse.Namespace) -> int:
    seconds = args.seconds if args.seconds is not None else load_contract()["run_seconds"]
    record = run_workload(
        args.workload, args.seed, seconds, bool(args.trace),
        trace_out=args.trace_out, setup_extra_s=IMPORT_S,
    )
    print_record(record)
    print("detail " + json.dumps(record["detail"]))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in record["metrics"].items()
        },
    }))
    return 0 if record["correct"] else 1


def main_all(args: argparse.Namespace) -> int:
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    if args.trace_out:
        open(args.trace_out, "w").close()  # children append, one block each
    report: Dict[str, Any] = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    status = 0
    for traced in (0, 1):
        for entry in contract["workloads"]:
            name = entry["name"]
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(seconds),
                       "--trace", str(traced)]
            if traced and args.trace_out:
                command += ["--trace-out", args.trace_out]
            child = subprocess.run(command, capture_output=True, text=True)
            lines = child.stdout.splitlines()
            if child.returncode != 0:
                status = 1
                print(child.stderr, end="")
            if len(lines) < 2 or not lines[-2].startswith("detail "):
                print(f"workload {name}: no result\n{child.stdout}")
                status = 1
                continue
            print("\n".join(lines[:-2]))
            result = json.loads(lines[-1])
            result["detail"] = json.loads(lines[-2][len("detail "):])
            slot = report["workloads"].setdefault(name, {})
            slot["per_layer" if traced else "end_to_end"] = result
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print("all output checks passed" if status == 0 else "SOME OUTPUT CHECKS FAILED")
    return status


# --------------------------------------------------------------------------
# Comparing two records
# --------------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: both values, how much worse B is
    than A as a share of A, and the bound.  A pair whose run-to-run spread
    (inter-quartile range of the per-round samples over their median, where
    the record has samples) exceeds the bound is *unresolved*, not equal."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)["workloads"]
    contract = load_contract()
    status = 0
    print(f"{'workload':<20} {'metric':<26} {'A':>14} {'B':>14} {'worse by':>9} {'bound':>7}  verdict")
    for entry in contract["workloads"]:
        name = entry["name"]
        if name not in a or name not in b:
            print(f"{name:<20} missing from a record")
            status = 1
            continue
        for metric in contract["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            run_a, run_b = a[name]["end_to_end"], b[name]["end_to_end"]
            va, vb = run_a["metrics"][key]["value"], run_b["metrics"][key]["value"]
            worse = (vb - va) / va if metric["better"] == "lower" else (va - vb) / va
            spread = max(_spread(run_a, key), _spread(run_b, key))
            if worse > bound:
                verdict = "WORSE"
                status = 1
            elif spread > bound:
                verdict = f"unresolved (spread {spread:.1%})"
            elif va == vb:
                verdict = "identical"
            else:
                verdict = "within bound"
            print(f"{name:<20} {key:<26} {va:>14.4f} {vb:>14.4f} {worse:>+9.2%} {bound:>7.1%}  {verdict}")
        fa, fb = (r[name]["end_to_end"] for r in (a, b))
        if fb["failed"] * fa["attempted"] > fa["failed"] * fb["attempted"]:
            print(f"{name:<20} failed_ops_share rose: {fa['failed']}/{fa['attempted']} -> "
                  f"{fb['failed']}/{fb['attempted']}  WORSE")
            status = 1
    return status


def _spread(run: Dict[str, Any], metric: str) -> float:
    quartile_key = metric + "_quartiles"
    if quartile_key not in run["detail"]:
        return 0.0
    q1, q2, q3 = run["detail"][quartile_key]
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record of an all-workloads run here")
    parser.add_argument("--trace-out", help="write the traced pass's spans here (JSON lines)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return main_one(args)
    return main_all(args)


if __name__ == "__main__":
    sys.exit(main())
