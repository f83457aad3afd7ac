"""``results/`` holds exactly the tables the benchmark modules write, and
``records.check_record`` pins each one: a plain run fails on any changed,
missing or extra value and writes nothing; ``BENCH_RECORD=1`` rewrites it.
Runs no benchmark."""

from __future__ import annotations

import glob
import os
import re

import pytest

from repro.bench import ExperimentTable

import records


def test_every_results_table_has_a_benchmark():
    root = records.REPO_ROOT
    written = set()
    for path in glob.glob(os.path.join(root, "benchmarks", "test_bench_*.py")):
        with open(path, encoding="utf-8") as handle:
            written.update(re.findall(r'ExperimentTable\(\s*"(E\w+)"', handle.read()))
    committed = {
        os.path.basename(path)[: -len(".json")]
        for path in glob.glob(os.path.join(root, "results", "E*.json"))
    }
    assert committed == written


def _table(*rows) -> ExperimentTable:
    table = ExperimentTable("E99", "A test table")
    for row in rows:
        table.add_row(**row)
    return table


ROWS = ({"workload": "small", "bytes": 10, "ratio": 1.5}, {"workload": "large", "bytes": 40})


@pytest.fixture(autouse=True)
def plain_run(monkeypatch):
    """These tests run plain whatever the suite runs under."""
    monkeypatch.delenv("BENCH_RECORD", raising=False)


@pytest.fixture
def committed(tmp_path, monkeypatch):
    """A directory holding the committed record of ``_table(*ROWS)``."""
    monkeypatch.setenv("BENCH_RECORD", "1")
    records.check_record(_table(*ROWS), str(tmp_path))
    monkeypatch.delenv("BENCH_RECORD")
    return tmp_path


def _snapshot(directory) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_a_plain_run_passes_on_an_equal_table_and_writes_nothing(committed):
    before = _snapshot(committed)
    records.check_record(_table(*ROWS), str(committed))
    assert _snapshot(committed) == before


def test_a_changed_value_fails_naming_the_experiment_and_the_row(committed):
    before = _snapshot(committed)
    with pytest.raises(AssertionError) as failure:
        records.check_record(_table(ROWS[0], {**ROWS[1], "bytes": 41}), str(committed))
    message = str(failure.value)
    assert "E99 row 1 (workload='large'): bytes 41 != committed 40" in message
    assert "row 0" not in message
    assert _snapshot(committed) == before


def test_an_int_where_a_float_was_recorded_fails(committed):
    with pytest.raises(AssertionError, match=r"E99 row 0 .*ratio 1 != committed 1.5"):
        records.check_record(_table({**ROWS[0], "ratio": 1}, ROWS[1]), str(committed))


def test_a_missing_row_fails(committed):
    before = _snapshot(committed)
    with pytest.raises(AssertionError, match=r"E99 row 1 \(workload='large'\): missing"):
        records.check_record(_table(ROWS[0]), str(committed))
    assert _snapshot(committed) == before


def test_a_plain_run_without_a_committed_record_fails_and_writes_nothing(tmp_path):
    with pytest.raises(AssertionError, match="no committed record"):
        records.check_record(_table(*ROWS), str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_recording_rewrites_the_committed_record(committed, monkeypatch):
    monkeypatch.setenv("BENCH_RECORD", "1")
    records.check_record(_table(ROWS[0]), str(committed))
    monkeypatch.delenv("BENCH_RECORD")
    records.check_record(_table(ROWS[0]), str(committed))
