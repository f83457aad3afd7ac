"""A counter service with access control and an invariant.

The counter never goes below zero — an invariant that operations enforce
internally, illustrating how a BFT-replicated service with complex
operations defends against Byzantine-faulty clients (Section 2.2):
a faulty client cannot break the invariant because it can only interact
through the operations.

The whole state is one page (page 0), so the dirty-page machinery of
:class:`~repro.services.interface.Service` reduces to "rehash iff the
value changed since the last checkpoint".
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.services.interface import Service


class CounterService(Service):
    """A single non-negative counter with ``INC``, ``DEC``, ``READ`` ops."""

    def __init__(self, allowed_clients: Optional[Set[str]] = None) -> None:
        super().__init__()
        self.value = 0
        self._allowed = allowed_clients

    def execute(
        self,
        operation: bytes,
        client: str,
        nondet: bytes = b"",
        read_only: bool = False,
    ) -> bytes:
        parts = operation.split(b" ")
        verb = parts[0].upper()
        if verb == b"READ":
            return str(self.value).encode()
        if read_only:
            return b"ERR not-read-only"
        if self._allowed is not None and client not in self._allowed:
            return b"ERR access-denied"
        amount = 1
        if len(parts) > 1:
            try:
                amount = int(parts[1])
            except ValueError:
                return b"ERR bad-amount"
        if amount < 0:
            return b"ERR negative-amount"
        if verb == b"INC":
            self.value += amount
        elif verb == b"DEC":
            # Invariant: the counter never goes below zero.
            if self.value - amount < 0:
                return b"ERR underflow"
            self.value -= amount
        else:
            return b"ERR bad-operation"
        self._touch(0)
        return str(self.value).encode()

    def is_read_only(self, operation: bytes) -> bool:
        return operation.split(b" ", 1)[0].upper() == b"READ"

    # ----------------------------------------------------- dirty-page hooks
    def _page_payload(self, index: int) -> bytes:
        return str(self.value).encode()

    def _page_indexes(self) -> Iterable[int]:
        return (0,)

    def _export_state(self) -> object:
        return self.value

    def _import_payload(self, index: int, payload: bytes) -> None:
        self.value = int(payload or b"0")

    def corrupt(self) -> None:
        self.value = -999
        self._touch(0)
