"""``ladder_clusters.py``: one small open-loop round, a line per rate step."""

from __future__ import annotations

from pathlib import Path

import ladder_clusters

ROOT = Path(__file__).resolve().parent.parent
RATES = ("2000/s", "4000/s", "8000/s", "12000/s", "14000/s", "16000/s")


def test_ladder_prints_rate_live_clusters_and_maxrss_per_step():
    lines = ladder_clusters.ladder(ROOT, seed=1, arrivals_per_step=20, pool=8)
    assert [line.split()[0] for line in lines] == list(RATES)
    peaks = []
    for line in lines:
        _, live_word, live, rss_word, rss = line.split()
        assert (live_word, rss_word) == ("live_clusters", "maxrss_mb")
        assert int(live) >= 1
        peaks.append(float(rss))
    assert peaks == sorted(peaks) and peaks[0] > 0
