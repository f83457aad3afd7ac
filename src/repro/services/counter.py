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

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.services.interface import BatchOp, ExecutionResult, Service


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
    ) -> ExecutionResult:
        parts = operation.split(b" ")
        verb = parts[0].upper() if parts else b""
        if verb == b"READ":
            return ExecutionResult(result=str(self.value).encode(), was_read_only=True)
        if read_only:
            return ExecutionResult(result=b"ERR not-read-only", was_read_only=True)
        if self._allowed is not None and client not in self._allowed:
            return ExecutionResult(result=b"ERR access-denied")
        amount = 1
        if len(parts) > 1:
            try:
                amount = int(parts[1])
            except ValueError:
                return ExecutionResult(result=b"ERR bad-amount")
        if amount < 0:
            return ExecutionResult(result=b"ERR negative-amount")
        if verb == b"INC":
            self.value += amount
            self._touch(0)
            return ExecutionResult(result=str(self.value).encode())
        if verb == b"DEC":
            # Invariant: the counter never goes below zero.
            if self.value - amount < 0:
                return ExecutionResult(result=b"ERR underflow")
            self.value -= amount
            self._touch(0)
            return ExecutionResult(result=str(self.value).encode())
        return ExecutionResult(result=b"ERR bad-operation")

    def execute_batch(
        self, ops: Sequence[BatchOp], nondet: bytes = b""
    ) -> List[ExecutionResult]:
        """Per-op semantics of :meth:`execute`, with the single-page dirty
        bookkeeping applied once per batch instead of once per mutation."""
        results: List[ExecutionResult] = []
        mutations = 0
        allowed = self._allowed
        for operation, client in ops:
            parts = operation.split(b" ")
            verb = parts[0].upper() if parts else b""
            if verb == b"READ":
                results.append(
                    ExecutionResult(result=str(self.value).encode(),
                                    was_read_only=True)
                )
                continue
            if allowed is not None and client not in allowed:
                results.append(ExecutionResult(result=b"ERR access-denied"))
                continue
            amount = 1
            if len(parts) > 1:
                try:
                    amount = int(parts[1])
                except ValueError:
                    results.append(ExecutionResult(result=b"ERR bad-amount"))
                    continue
            if amount < 0:
                results.append(ExecutionResult(result=b"ERR negative-amount"))
                continue
            if verb == b"INC":
                self.value += amount
                mutations += 1
                results.append(ExecutionResult(result=str(self.value).encode()))
            elif verb == b"DEC":
                if self.value - amount < 0:
                    results.append(ExecutionResult(result=b"ERR underflow"))
                else:
                    self.value -= amount
                    mutations += 1
                    results.append(
                        ExecutionResult(result=str(self.value).encode())
                    )
            else:
                results.append(ExecutionResult(result=b"ERR bad-operation"))
        self._apply_batch_dirty((0,), mutations)
        return results

    def is_read_only(self, operation: bytes) -> bool:
        return operation.split(b" ", 1)[0].upper() == b"READ"

    # ----------------------------------------------------- dirty-page hooks
    def _page_payload(self, index: int) -> bytes:
        return str(self.value).encode()

    def _page_indexes(self) -> Iterable[int]:
        return (0,)

    def _state_from_payloads(self, payloads: Dict[int, bytes]) -> object:
        return int(payloads.get(0, b"0"))

    def _payloads_from_portable(self, state: object, wanted=None) -> Dict[int, bytes]:
        return {0: str(int(state)).encode()}  # type: ignore[arg-type]

    def _export_state(self) -> object:
        return self.value

    def _import_state(self, state: object) -> None:
        self.value = int(state)  # type: ignore[arg-type]

    def _import_payload(self, index: int, payload: bytes) -> None:
        self.value = int(payload or b"0")

    def corrupt(self) -> None:
        self.value = -999
        self._touch(0)
