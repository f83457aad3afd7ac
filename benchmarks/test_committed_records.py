"""The committed ``BENCH_*.json`` records and ``check_regression.py``'s table
agree: every entry's record exists and passes the ``--smoke`` validation, no
record sits at the repository root without an entry, and ``results/`` holds
exactly the tables the benchmark modules write.  Runs no benchmark."""

from __future__ import annotations

import glob
import os
import re

import pytest

import check_regression


@pytest.mark.parametrize("name", sorted(check_regression.EXPERIMENTS))
def test_committed_record_is_valid(name):
    spec = check_regression.EXPERIMENTS[name]
    record = check_regression.load_record(name, spec, check_regression.REPO_ROOT)
    assert check_regression.check_schema(name, spec, record) == []


def test_every_committed_record_has_an_entry():
    tabled = {spec["record"] for spec in check_regression.EXPERIMENTS.values()}
    root = check_regression.REPO_ROOT
    committed = {
        os.path.basename(path) for path in glob.glob(os.path.join(root, "BENCH_*.json"))
    }
    assert committed == tabled


def test_every_results_table_has_a_benchmark():
    root = check_regression.REPO_ROOT
    written = set()
    for path in glob.glob(os.path.join(root, "benchmarks", "test_bench_*.py")):
        with open(path, encoding="utf-8") as handle:
            written.update(re.findall(r'ExperimentTable\(\s*"(E\w+)"', handle.read()))
    committed = {
        os.path.basename(path)[: -len(".json")]
        for path in glob.glob(os.path.join(root, "results", "E*.json"))
    }
    assert committed == written
