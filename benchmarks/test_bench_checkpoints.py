"""E7 — checkpoint creation cost (Section 8.4.1).

Measures partition-tree checkpoint creation as a function of the number of
pages modified since the previous checkpoint.  The paper shows the cost is
proportional to the modified working set (copy-on-write plus incremental
digests), not to the total state size.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import ExperimentTable
from repro.statetransfer.partition_tree import PartitionTree

from records import check_record

TOTAL_PAGES = 2048
WORKING_SETS = [16, 64, 256, 1024]
#: Timed checkpoints per working set, each on a fresh tree; the minimum is
#: the one least disturbed by the rest of the host.
REPEATS = 5


def build_tree() -> PartitionTree:
    tree = PartitionTree(fanout=256, levels=3)
    for index in range(TOTAL_PAGES):
        tree.write_page(index, b"initial-%d" % index)
    tree.take_checkpoint(1)
    return tree


def checkpoint_after_writes(working_set: int):
    """A fresh tree with ``working_set`` pages modified since its first
    checkpoint: the second checkpoint, and its wall-clock seconds."""
    tree = build_tree()
    for index in range(working_set):
        tree.write_page(index, b"modified-%d" % index)
    start = time.perf_counter()
    copy = tree.take_checkpoint(2)
    return copy, time.perf_counter() - start


def run_experiment():
    """The table, and the wall-clock seconds of each working set's checkpoint,
    the minimum of ``REPEATS`` (not recorded: they do not repeat)."""
    table = ExperimentTable(
        "E7", f"Checkpoint creation cost vs modified pages (state = {TOTAL_PAGES} pages)"
    )
    times = []
    for working_set in WORKING_SETS:
        runs = [checkpoint_after_writes(working_set) for _ in range(REPEATS)]
        times.append(min(seconds for _copy, seconds in runs))
        table.add_row(modified_pages=working_set, copied_pages=len(runs[0][0].pages))
    return table, times


def test_checkpoint_creation_cost(benchmark):
    table, times = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)
    copied = table.column("copied_pages")
    # Copy-on-write captures exactly the modified pages: the work done is
    # proportional to the modified working set, not the total state size.
    assert copied == WORKING_SETS
    # Wall-clock cost grows with the working set.  Tiny absolute times are
    # noisy, so only the coarse ordering of the minima is asserted.
    assert times[0] < times[-1]
