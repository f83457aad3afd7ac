"""Each benchmark's one record: its committed ``results/E*.json``.

A record holds only values that repeat for the benchmark's fixed seed, so
the committed file is the pin.  A plain run (the Tier-1 command) compares
the fresh table with it and writes nothing; ``BENCH_RECORD=1`` rewrites
the committed file instead.
"""

from __future__ import annotations

import json
import os

from repro.bench import ExperimentTable

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "results")


def recording() -> bool:
    """Whether this run is meant to rewrite the committed records."""
    return os.environ.get("BENCH_RECORD", "").strip().lower() not in ("", "0", "false", "no")


def _label(row: dict) -> str:
    key, value = next(iter(row.items()), ("", ""))
    return f"{key}={value!r}"


def _value(row: dict, key: str) -> str:
    """A value as the record spells it, so ``1`` and ``1.0`` differ."""
    return json.dumps(row[key]) if key in row else "(absent)"


def differences(experiment: str, committed: dict, fresh: dict) -> list:
    """One line per title, row or value of ``fresh`` unlike ``committed``."""
    problems = []
    if fresh["title"] != committed.get("title"):
        problems.append(f"{experiment} title: {fresh['title']!r} != {committed.get('title')!r}")
    old_rows, new_rows = committed.get("rows", []), fresh["rows"]
    for index in range(max(len(old_rows), len(new_rows))):
        if index >= len(new_rows):
            problems.append(f"{experiment} row {index} ({_label(old_rows[index])}): missing")
        elif index >= len(old_rows):
            problems.append(f"{experiment} row {index} ({_label(new_rows[index])}): not committed")
        else:
            old, new = old_rows[index], new_rows[index]
            changed = [
                f"{key} {_value(new, key)} != committed {_value(old, key)}"
                for key in {**old, **new}
                if _value(new, key) != _value(old, key)
            ]
            if changed:
                problems.append(f"{experiment} row {index} ({_label(old)}): " + "; ".join(changed))
    return problems


def check_record(table: ExperimentTable, directory: str = RESULTS_DIR) -> None:
    """Assert ``table`` equals its committed record, or rewrite the record
    under ``BENCH_RECORD=1``."""
    if recording():
        table.save(directory)
        return
    path = os.path.join(directory, f"{table.experiment_id}.json")
    assert os.path.exists(path), f"no committed record {path}; run with BENCH_RECORD=1"
    with open(path, encoding="utf-8") as handle:
        committed = json.load(handle)
    # The same JSON round trip ``ExperimentTable.save`` makes.
    fresh = json.loads(json.dumps({"title": table.title, "rows": table.rows}, default=str))
    problems = differences(table.experiment_id, committed, fresh)
    assert not problems, "differs from the committed record:\n" + "\n".join(problems)
