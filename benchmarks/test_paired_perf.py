"""``paired_perf.py --counts``: which metrics it compares and what it reports."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import paired_perf

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


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
