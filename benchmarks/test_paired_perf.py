"""``paired_perf.py``, pairs, ``--counts`` and ``--seed-sweep``: which
metrics it compares and what it reports."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import paired_perf

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = BENCHMARK["per_layer"]
END_TO_END = BENCHMARK["end_to_end"]


def _counts(monkeypatch, capsys, change_overrides, expect=()):
    base = {m["name"]: 1.0 for m in PER_LAYER}
    base["failed"] = 0

    def run_once(checkout, workload, seed, seconds, trace=0):
        assert trace == 1
        return {**base, **(change_overrides if checkout == Path("change") else {})}

    monkeypatch.setattr(paired_perf, "run_once", run_once)
    args = argparse.Namespace(parent=Path("parent"), change=Path("change"),
                              workloads=["null_f10"], seed=1, seconds=1.0,
                              expect=list(expect))
    return paired_perf.differing_counts(args, PER_LAYER), capsys.readouterr().out


def test_counts_ignores_the_tracers_timings(monkeypatch, capsys):
    differing, out = _counts(monkeypatch, capsys, {
        "core.auth.self_us_per_op": 2.0, "trace.overhead_ratio": 2.0,
        "trace.unattributed_share": 2.0, "statetransfer.self_us_per_episode": 2.0,
    })
    assert differing == 0 and "DIFFERS" not in out


def test_counts_reports_each_differing_count(monkeypatch, capsys):
    differing, out = _counts(monkeypatch, capsys, {
        "crypto.mac_calls_per_op": 2.0, "net.network.auth_bytes_per_op": 2.0,
        "net.network.coalesced_share": 0.5, "failed": 3,
    })
    assert differing == 4
    for name in ("crypto.mac_calls_per_op", "net.network.auth_bytes_per_op",
                 "net.network.coalesced_share", "failed"):
        assert f"DIFFERS null_f10: {name} " in out


def test_counts_forgives_only_the_expected_differences(monkeypatch, capsys):
    differing, out = _counts(monkeypatch, capsys, {
        "crypto.mac_calls_per_op": 2.0, "core.messages.encode_calls_per_op": 2.0,
    }, expect=["crypto.mac_calls_per_op", "core.auth.verify_calls_per_op"])
    assert differing == 1
    assert "EXPECTED null_f10: crypto.mac_calls_per_op 1.0 != 2.0" in out
    assert "DIFFERS null_f10: core.messages.encode_calls_per_op 1.0 != 2.0" in out
    assert "UNCHANGED null_f10: core.auth.verify_calls_per_op 1.0" in out
    differing, _ = _counts(monkeypatch, capsys, {"crypto.mac_calls_per_op": 2.0},
                           expect=["crypto.mac_calls_per_op"])
    assert differing == 0


def _pairs(monkeypatch, capsys, change_overrides, expect=()):
    base = {m["name"]: 100.0 for m in END_TO_END}
    base["failed"] = 0

    def run_once(checkout, workload, seed, seconds, trace=0):
        assert trace == 0
        return {**base, **(change_overrides if checkout == Path("change") else {})}

    monkeypatch.setattr(paired_perf, "run_once", run_once)
    args = argparse.Namespace(parent=Path("parent"), change=Path("change"),
                              workloads=["kv_churn_ckpt"], seed=1, seconds=1.0,
                              pairs=2, expect=list(expect))
    return paired_perf.differing_pairs(args, END_TO_END), capsys.readouterr().out


def test_pairs_fail_on_every_modeled_difference_by_default(monkeypatch, capsys):
    differing, out = _pairs(monkeypatch, capsys, {
        "modeled_ops_per_s": 110.0, "cpu_us_per_op": 90.0,
    })
    assert differing == 2
    for pair in (0, 1):
        assert f"DIFFERS kv_churn_ckpt pair {pair}: modeled_ops_per_s 100.0 != 110.0" in out
    assert "cpu_us_per_op" in out and "DIFFERS kv_churn_ckpt pair 0: cpu_us_per_op" not in out


def test_pairs_forgive_only_the_expected_modeled_differences(monkeypatch, capsys):
    differing, out = _pairs(monkeypatch, capsys, {
        "modeled_ops_per_s": 110.0, "modeled_latency_p50_us": 90.0,
    }, expect=["modeled_ops_per_s", "modeled_latency_p99_us"])
    assert differing == 2
    assert "EXPECTED kv_churn_ckpt pair 0: modeled_ops_per_s 100.0 != 110.0" in out
    assert "DIFFERS kv_churn_ckpt pair 1: modeled_latency_p50_us 100.0 != 90.0" in out
    assert "UNCHANGED kv_churn_ckpt: modeled_latency_p99_us 100.0" in out
    assert "UNCHANGED kv_churn_ckpt: modeled_ops_per_s" not in out
    differing, out = _pairs(monkeypatch, capsys, {"modeled_ops_per_s": 110.0},
                            expect=["modeled_ops_per_s"])
    assert differing == 0
    assert "modeled_ops_per_s" in out and "won 2/2" in out


def test_pairs_never_forgive_a_failed_operation(monkeypatch, capsys):
    differing, out = _pairs(monkeypatch, capsys, {"failed": 3},
                            expect=["modeled_ops_per_s"])
    assert differing == 2
    assert "DIFFERS kv_churn_ckpt pair 0: failed 0 != 3" in out


def _sweep(monkeypatch, capsys, change_by_seed, expect=(), seeds=(3, 5, 9)):
    """``change_by_seed``: seed -> the change side's overrides."""
    base = {m["name"]: 100.0 for m in END_TO_END}
    base["failed"] = 0
    calls = []

    def run_once(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout, seed, seconds, trace))
        if checkout == Path("change"):
            return {**base, **change_by_seed.get(seed, {})}
        return dict(base)

    monkeypatch.setattr(paired_perf, "run_once", run_once)
    args = argparse.Namespace(parent=Path("parent"), change=Path("change"),
                              workloads=["kv_read90"], seed_sweep=list(seeds),
                              expect=list(expect))
    worse = paired_perf.seed_sweep(args, END_TO_END)
    assert sorted(calls) == sorted((side, seed, 0.0, 0) for seed in seeds
                                   for side in (Path("parent"), Path("change")))
    return worse, capsys.readouterr().out


def test_sweep_prints_the_spread_and_the_worst_seed(monkeypatch, capsys):
    worse, out = _sweep(monkeypatch, capsys, {
        3: {"modeled_ops_per_s": 115.0, "modeled_latency_p99_us": 103.0},
        5: {"modeled_ops_per_s": 117.0, "modeled_latency_p99_us": 108.0},
        9: {"modeled_ops_per_s": 116.0, "modeled_latency_p99_us": 101.0},
    })
    assert worse == 0
    assert "kv_read90  seeds 3 5 9  modeled, --seconds 0" in out
    ops = next(line for line in out.splitlines() if "modeled_ops_per_s" in line)
    assert "min +15.00%  median +16.00%  max +17.00%  worst seed 3 (+15.00%)" in ops
    assert ops.endswith("bound 6%  ok")
    p99 = next(line for line in out.splitlines() if "modeled_latency_p99_us" in line)
    assert "max +8.00%  worst seed 5 (+8.00%)  bound 12%  ok" in p99
    # Only modeled values are compared: the host's clocks vary run to run.
    assert "cpu_us_per_op" not in out and "setup_s" not in out


def test_sweep_fails_when_an_unnamed_metric_is_worse_than_its_bound_on_one_seed(
    monkeypatch, capsys
):
    change = {5: {"modeled_latency_p99_us": 113.0}, 9: {"modeled_latency_p99_us": 112.0}}
    worse, out = _sweep(monkeypatch, capsys, change)
    assert worse == 1
    assert "worst seed 5 (+13.00%)  bound 12%  WORSE  over it: seeds 5" in out
    worse, out = _sweep(monkeypatch, capsys, change, expect=["modeled_latency_p99_us"])
    assert worse == 0 and "EXPECTED  over it: seeds 5" in out
    # A gain beyond the bound is no failure.
    worse, _ = _sweep(monkeypatch, capsys, {3: {"modeled_latency_p99_us": 50.0}})
    assert worse == 0


def test_sweep_never_forgives_a_failed_operation(monkeypatch, capsys):
    worse, out = _sweep(monkeypatch, capsys, {9: {"failed": 2}},
                        expect=["modeled_ops_per_s"])
    assert worse == 1
    assert "DIFFERS kv_read90 seed 9: failed 0 != 2" in out
