"""Smoke test of the benchmark harness itself, at tiny scale.

Sizes come in as function arguments; nothing here measures performance.
"""

from __future__ import annotations

import importlib
import re
import subprocess

import pytest

from perf import run as perf_run
from perf.trace import TARGETS, Tracer
from perf.workloads import WORKLOADS

TINY = {
    "null_f1": dict(f=1, clients=4, ops_per_client=3, warmup_per_client=1),
    # n=31 takes a third of a second just to assemble; the harness is the
    # same at n=7.
    "null_f10": dict(f=2, clients=2, ops_per_client=2, warmup_per_client=1),
    "kv_churn_ckpt": dict(read_share=0.0, clients=4, ops_per_client=4,
                          warmup_per_client=1, preload_keys=16, key_space=8, value_size=64),
    "kv_read90": dict(read_share=0.9, clients=4, ops_per_client=6,
                      warmup_per_client=1, preload_keys=16, key_space=8, value_size=64),
    "sharded_g4": dict(clients=4, ops_per_client=3, warmup_per_client=1,
                       preload_keys=16, key_space=16, value_size=64),
    "openloop_f1": dict(arrivals_per_step=12, pool=6),
    "primary_crash_f1": dict(arrivals=400, pool=24, crash_at_us=30_000.0),
    "lagging_recovery_f1": dict(preload_keys=64, value_size=64, ops_per_client=8,
                                key_space=16),
}
SEED = 3


def _wrapped_attributes():
    """``(owner, attribute)`` of everything the tracer patches on a class."""
    for _layer, where, names in TARGETS:
        module_name, _, class_name = where.partition(":")
        if class_name:
            owner = getattr(importlib.import_module(module_name), class_name)
            for attr in names:
                yield owner, attr.rstrip("()")


def _git_status():
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"], cwd=perf_run.ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="module")
def records():
    """Every workload once untraced and once traced, plus what the class
    attributes and the work tree looked like before."""
    before = {(o, a): getattr(o, a) for o, a in _wrapped_attributes()}
    status = _git_status()
    runs = {
        name: tuple(
            perf_run.run_workload(name, SEED, 0.0, traced, sizes=TINY[name], rounds=1)
            for traced in (False, True)
        )
        for name in WORKLOADS
    }
    return runs, before, status


def test_contract_and_code_name_the_same_things(records, capsys):
    runs, _before, _status = records
    contract = perf_run.load_contract()
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    declared = {
        False: [m["name"] for m in contract["end_to_end"]],
        True: [m["name"] for m in contract["per_layer"]],
    }
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    for name in declared[False] + declared[True] + list(WORKLOADS):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for name, pair in runs.items():
        for traced, record in zip((False, True), pair):
            assert record["correct"] and record["failed"] == 0, (name, record["detail"])
            assert list(record["metrics"]) and set(record["metrics"]) == set(declared[traced])
            for metric, entry in record["metrics"].items():
                assert entry["unit"] == units[metric], (name, metric)
            # Printed exactly once each, by name, with the unit.
            perf_run.print_record(record)
            printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                       if line.startswith("  ") and line.split()[0] in units]
            extras = list(record["detail"]["specific"])
            assert sorted(printed) == sorted(declared[traced] + extras), name
            assert set(extras) <= set(declared[True])


def test_modeled_values_repeat_and_cpu_is_positive(records):
    runs, _before, _status = records
    for name in ("null_f1", "kv_read90", "openloop_f1", "lagging_recovery_f1"):
        first = runs[name][0]
        again = perf_run.run_workload(name, SEED, 0.0, False, sizes=TINY[name], rounds=1)
        for metric, entry in first["metrics"].items():
            if metric.startswith("modeled_"):
                assert entry["value"] == again["metrics"][metric]["value"], (name, metric)
                assert entry["value"] > 0, (name, metric)
        assert first["detail"]["specific"] == again["detail"]["specific"], name
        assert first["metrics"]["cpu_us_per_op"]["value"] > 0


def test_layers_a_workload_bypasses_read_zero(records):
    runs, _before, _status = records
    for name, (_untraced, traced) in runs.items():
        value = {metric: entry["value"] for metric, entry in traced["metrics"].items()}
        assert 0.0 <= value["trace.unattributed_share"] <= 0.25, name
        # (At these sizes the isolated replica of the recovery workload can
        # come to suspect the primary; at full size it does not.)
        if name not in ("primary_crash_f1", "lagging_recovery_f1"):
            assert value["core.viewchange.self_us"] == 0 == value["core.viewchange.started"], name
        if name != "sharded_g4":
            assert value["sharding.self_us_per_op"] == 0 == value["sharding.router_calls_per_op"], name
        if name != "lagging_recovery_f1":
            assert value["statetransfer.self_us_per_episode"] == 0 == value["statetransfer.pages_fetched"], name
    crash = runs["primary_crash_f1"][1]["metrics"]
    assert crash["core.viewchange.completed"]["value"] > 0
    assert crash["modeled_unavailable_us"]["value"] > 0
    assert runs["lagging_recovery_f1"][1]["metrics"]["statetransfer.pages_fetched"]["value"] > 0
    assert runs["sharded_g4"][1]["metrics"]["sharding.router_calls_per_op"]["value"] > 0


def test_tracer_is_fully_removed_and_tree_untouched(records):
    _runs, before, status = records
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original, (owner, attr)
        assert not hasattr(original, "_perf_original")
    from repro.core import auth, messages
    from repro.crypto import digests
    assert auth.digest is digests.digest is messages.digest
    assert not hasattr(digests.digest, "_perf_original")
    if status is None:
        pytest.skip("not a git work tree")
    assert _git_status() == status


def test_self_time_is_duration_minus_children():
    ticks = iter(range(0, 10_000, 10))
    tracer = Tracer(keep_spans=True, clock=lambda: next(ticks))

    def leaf():
        next(ticks)  # 10 ns of own work

    leaf = tracer._wrap(leaf, "crypto", "leaf")

    def middle():
        leaf()
        next(ticks)
        leaf()

    middle = tracer._wrap(middle, "core.auth", "middle")

    def outer():
        middle()
        leaf()

    outer = tracer._wrap(outer, "core.replica", "outer")
    tracer.active = True
    outer()
    tracer.active = False
    # Each span reads the clock twice; everything else advances it by 10.
    #   leaf   = 20 each, three of them
    #   middle = 10 + leaf 20 + 10 + 10 + leaf 20 + 10 = 80, self 40
    #   outer  = 10 + middle 80 + 10 + leaf 20 + 10 = 130, self 30
    assert tracer.calls == {"leaf": 3, "middle": 1, "outer": 1}
    assert tracer.self_ns["crypto"] == 60
    assert tracer.self_ns["core.auth"] == 40
    assert tracer.self_ns["core.replica"] == 30
    assert tracer.covered_ns == 130 == sum(tracer.self_ns.values())
    names_and_parents = [(span[0], span[3]) for span in tracer.spans]
    assert names_and_parents == [
        ("outer", -1), ("middle", 0), ("leaf", 1), ("leaf", 1), ("leaf", 0),
    ]
