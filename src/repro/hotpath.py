"""Runtime switch for the simulator's hot-path optimizations.

The hot path of the simulation — canonical message encodings and digests —
is memoized so each value is computed once per message instead of once per
call site, and the primitives underneath (the canonical encoder, SHA-256
input handling) run optimized implementations (see
:mod:`repro.core.messages` and :mod:`repro.crypto.digests`).  MAC tags are
not part of the switch: :mod:`repro.crypto.mac` is one keyed-hash call on
either side of it, and :mod:`repro.core.auth` keeps no tag cache.

The same switch gates the incremental checkpointing pipeline:

* dirty-page state digests and copy-on-write page snapshots in
  :class:`repro.services.interface.PagedService` (off: full re-encode +
  deep copy at every checkpoint and tentative execution);
* the replica's incremental reply-table digest in
  ``Replica._state_digest`` (off: from-scratch recompute — the same
  value, bit for bit);
* coalesced delivery trains in :class:`repro.net.network.Network` (off:
  one scheduler heap slot per message).

None of it changes protocol behaviour or the modeled (charged) costs;
only the real wall-clock cost of running the simulator.

Not part of the toggle: the replica's no-op checkpoint *reuse* (skipping
digest/snapshot work when nothing executed and ``Service.state_version``
is unchanged) is an unconditional fix, active in both modes.  It can only
fire on intervals that executed nothing, which never happens in the
closed-loop benchmark workloads, so it does not skew the measured
baselines.

``caches_disabled`` restores the pre-optimization code paths — recompute
every encoding and digest at every call site, naive checkpointing,
per-message scheduling — so the benchmarks can measure the baseline in
the same process and report the speedup honestly
(``benchmarks/test_bench_hotpath.py`` and
``benchmarks/test_bench_checkpoint_pipeline.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: Global switch read by the cached code paths.  True in normal operation.
CACHES_ENABLED = True


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Temporarily recompute every encoding and digest from scratch.

    Used by benchmarks to measure the uncached baseline.  Nesting is safe;
    the previous state is restored on exit.
    """
    global CACHES_ENABLED
    previous = CACHES_ENABLED
    CACHES_ENABLED = False
    try:
        yield
    finally:
        CACHES_ENABLED = previous
