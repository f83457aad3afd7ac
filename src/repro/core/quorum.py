"""Quorum arithmetic (Section 2.3.1).

With ``n = 3f + 1`` replicas, quorums are any set of at least ``2f + 1``
replicas and weak certificates need ``f + 1`` messages from distinct
replicas.  Quorums have the intersection property (any two quorums share a
correct replica) and the availability property (some quorum contains no
faulty replica).  :class:`Certificate` collects the votes.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Tuple


def max_faulty(n: int) -> int:
    """Maximum number of simultaneous faults tolerated by ``n`` replicas."""
    if n < 4:
        raise ValueError("BFT requires at least 4 replicas (n >= 3f + 1, f >= 1)")
    return (n - 1) // 3


def replicas_for(f: int) -> int:
    """Minimum replica-group size to tolerate ``f`` faults."""
    if f < 1:
        raise ValueError("f must be at least 1")
    return 3 * f + 1


def quorum_size(n: int) -> int:
    """Size of a quorum certificate (2f + 1)."""
    return 2 * max_faulty(n) + 1


def weak_size(n: int) -> int:
    """Size of a weak certificate (f + 1): at least one correct replica."""
    return max_faulty(n) + 1


class Certificate:
    """Messages from distinct principals that name values: per value, a
    bitmask of the voters' indexes (bit ``i`` is principal ``i``).  It is
    complete once one value holds ``need`` voters: ``2f + 1`` for a quorum,
    ``f + 1`` for a weak certificate.

    ``add`` records whatever vote it is given.  What a second vote from one
    principal means (refused, replacing the first, backing a second value)
    is the rule of the site that collects the votes, written there.

    The first value lives in two plain fields and only a second one opens a
    dict, so a certificate naming one value (an agreement slot's, once its
    pre-prepare is attached) holds no dict.  ``_mask == 0`` implies
    ``_more is None``.
    """

    __slots__ = ("_value", "_mask", "_more")

    def __init__(self) -> None:
        self._value: Hashable = None
        self._mask = 0
        self._more: Optional[Dict[Hashable, int]] = None

    def add(self, voter: int, value: Hashable) -> bool:
        """Record ``voter``'s vote for ``value``; False if it held it already."""
        bit = 1 << voter
        if not self._mask:
            self._value = value
        if value == self._value:
            held = self._mask & bit
            self._mask |= bit
            return not held
        if self._more is None:
            self._more = {}
        held = self._more.get(value, 0)
        self._more[value] = held | bit
        return not held & bit

    def voters(self, value: Hashable) -> int:
        """The bitmask of the principals that voted for ``value``."""
        if value == self._value:
            return self._mask
        return self._more.get(value, 0) if self._more else 0

    def count(self, value: Hashable) -> int:
        return self.voters(value).bit_count()

    def holds(self, voter: int) -> bool:
        """True when ``voter`` voted for any value."""
        bit = 1 << voter
        if self._mask & bit:
            return True
        return self._more is not None and any(m & bit for m in self._more.values())

    def winner(self, need: int) -> Optional[Hashable]:
        """The value with the most voters if it has at least ``need``; ties
        go to the value voted for first."""
        if self._more is None:
            return self._value if self._mask.bit_count() >= need else None
        best, most = None, need - 1
        for value, mask in self._items():
            if mask.bit_count() > most:
                best, most = value, mask.bit_count()
        return best

    def discard(self, voter: int) -> None:
        """Withdraw every vote of ``voter``."""
        keep = ~(1 << voter)
        items = [(value, mask & keep) for value, mask in self._items() if mask & keep]
        (self._value, self._mask), *more = items or [(None, 0)]
        self._more = dict(more) or None

    def keep_only(self, value: Hashable) -> None:
        """Forget the votes for every other value."""
        self._value, self._mask, self._more = value, self.voters(value), None

    def __iter__(self) -> Iterator[Hashable]:
        """The values voted for, in the order of their first vote."""
        return (value for value, _mask in self._items())

    def _items(self) -> List[Tuple[Hashable, int]]:
        items = [(self._value, self._mask)] if self._mask else []
        return items + list((self._more or {}).items())
