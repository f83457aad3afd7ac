"""Network conditions: delay, loss, duplication, partitions.

The delay model follows Section 7.1.3 of the paper: the time to send a
message with ``b`` bytes between two nodes is a fixed per-message cost
(protocol-stack traversal at sender and receiver) plus a per-byte wire
cost.  Loss, duplication and partitions model the unreliable channel used
in the formal system model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Set, Tuple

from repro.sim.rng import SimRandom


@dataclass
class NetworkConditions:
    """Parameters of the simulated network.

    All times are microseconds.  Defaults approximate the switched 100 Mb/s
    Ethernet used in the paper's experiments (Section 8.1): roughly 40 us of
    fixed per-message overhead split between sender and receiver stacks and
    0.08 us per byte of wire time.
    """

    fixed_delay: float = 40.0
    per_byte_delay: float = 0.08
    jitter: float = 0.0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    #: Extra copies delivered when a duplication event fires.
    duplicate_copies: int = 1
    #: Pairs (a, b) that cannot currently communicate (both directions).
    partitions: Set[Tuple[str, str]] = field(default_factory=set)

    def transit_time(self, size_bytes: int, rng: Optional[SimRandom] = None) -> float:
        """Transit time for a message of ``size_bytes`` bytes."""
        base = self.fixed_delay + self.per_byte_delay * max(0, size_bytes)
        if self.jitter > 0.0 and rng is not None:
            base += rng.uniform(0.0, self.jitter)
        return base

    # ------------------------------------------------------------ partitions
    def partition(self, a: str, b: str) -> None:
        """Disconnect ``a`` and ``b`` in both directions."""
        self.partitions.add(self._key(a, b))

    def heal(self, a: str, b: str) -> None:
        self.partitions.discard(self._key(a, b))

    def heal_all(self) -> None:
        self.partitions.clear()

    def is_partitioned(self, a: str, b: str) -> bool:
        return self._key(a, b) in self.partitions

    def isolate(self, node: str, others: FrozenSet[str] | Set[str]) -> None:
        """Partition ``node`` from every node in ``others``."""
        for other in others:
            if other != node:
                self.partition(node, other)

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)


def lan_conditions() -> NetworkConditions:
    """The default LAN model used by the benchmarks."""
    return NetworkConditions()


def wan_conditions(one_way_delay: float = 20_000.0) -> NetworkConditions:
    """A wide-area model (20 ms one-way) used by sensitivity experiments."""
    return NetworkConditions(fixed_delay=one_way_delay, per_byte_delay=0.01)
