"""Seeded randomness for the simulator.

Every source of nondeterminism in the simulation (network delays, drops,
duplicate deliveries, fault timing, workload think times) draws from a
``SimRandom`` instance so that runs are reproducible given a seed.

A ``SimRandom`` holds only its seed until something draws from it: every
node and network gets one, but only fault injection, lossy or jittered
networks and workload generators ever draw, so most never build the
Mersenne Twister (about 2.5 KB of state).  The stream a draw sees does not
depend on when the generator was built, and :meth:`SimRandom.fork` derives
from the seed alone.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Sequence, TypeVar

T = TypeVar("T")


class SimRandom:
    """A thin, explicit wrapper around :class:`random.Random`.

    Separate subsystems should use :meth:`fork` to obtain independent
    streams so that adding randomness in one place does not perturb the
    sequence seen elsewhere.
    """

    __slots__ = ("_seed", "_rng")

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    def __getattr__(self, name: str) -> Any:
        # Reached only while ``_rng`` is unset, i.e. on the first draw.
        if name != "_rng":
            raise AttributeError(name)
        self._rng = rng = random.Random(self._seed)
        return rng

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, label: str) -> "SimRandom":
        """Return an independent stream derived from this one and ``label``.

        The derivation hashes with SHA-256 rather than ``hash()``: string
        hashing is salted per process (PYTHONHASHSEED), so ``hash()`` would
        give every process different streams and make "seeded" runs
        unreproducible across invocations.
        """
        material = f"{self._seed}:{label}".encode()
        derived = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        return SimRandom(derived & 0x7FFFFFFFFFFFFFFF)

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def random(self) -> float:
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(list(items), k)

    def shuffle(self, items: list[T]) -> None:
        self._rng.shuffle(items)

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def bytes(self, n: int) -> bytes:
        return self._rng.randbytes(n)
