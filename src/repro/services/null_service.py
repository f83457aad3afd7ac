"""The null service used by the micro-benchmarks (Section 8.3).

Operations carry an argument of a configurable size and return a result of
a configurable size; execution is a no-op apart from a counter.  The
``a/b`` operations in the paper (0/0, 0/4, 4/0) map to argument/result
sizes in kilobytes.

Like :class:`~repro.services.counter.CounterService`, the whole state is
one page, so checkpoint digests only rehash when an operation actually
executed since the last checkpoint.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.services.interface import BatchOp, ExecutionResult, Service


def encode_null_op(result_size: int, arg_size: int, read_only: bool = False) -> bytes:
    """Encode a null-service operation requesting ``result_size`` bytes back
    and carrying ``arg_size`` bytes of argument padding."""
    header = f"null:{result_size}:{int(read_only)}:".encode()
    return header + b"x" * arg_size


class NullService(Service):
    """A service whose operations do nothing but move bytes."""

    def __init__(self) -> None:
        super().__init__()
        self.operations_executed = 0

    # ------------------------------------------------------------- execution
    def execute(
        self,
        operation: bytes,
        client: str,
        nondet: bytes = b"",
        read_only: bool = False,
    ) -> ExecutionResult:
        result_size = self._result_size(operation)
        if not read_only:
            self.operations_executed += 1
            self._touch(0)
        return ExecutionResult(result=b"r" * result_size, was_read_only=read_only)

    def execute_batch(
        self, ops: Sequence[BatchOp], nondet: bytes = b""
    ) -> List[ExecutionResult]:
        """Per-op semantics of :meth:`execute` (never read-only on the
        commit path), with one counter add and one dirty mark per batch."""
        result_size = self._result_size
        results = [
            ExecutionResult(result=b"r" * result_size(operation))
            for operation, _client in ops
        ]
        count = len(results)
        self.operations_executed += count
        self._apply_batch_dirty((0,), count)
        return results

    def is_read_only(self, operation: bytes) -> bool:
        try:
            return bool(int(operation.split(b":", 3)[2]))
        except (IndexError, ValueError):
            return False

    @staticmethod
    def _result_size(operation: bytes) -> int:
        try:
            return int(operation.split(b":", 3)[1])
        except (IndexError, ValueError):
            return 0

    # ----------------------------------------------------- dirty-page hooks
    def _page_payload(self, index: int) -> bytes:
        return str(self.operations_executed).encode()

    def _page_indexes(self) -> Iterable[int]:
        return (0,)

    def _state_from_payloads(self, payloads: Dict[int, bytes]) -> object:
        return int(payloads.get(0, b"0"))

    def _payloads_from_portable(self, state: object, wanted=None) -> Dict[int, bytes]:
        return {0: str(int(state)).encode()}  # type: ignore[arg-type]

    def _export_state(self) -> object:
        return self.operations_executed

    def _import_state(self, state: object) -> None:
        self.operations_executed = int(state)  # type: ignore[arg-type]

    def _import_payload(self, index: int, payload: bytes) -> None:
        self.operations_executed = int(payload or b"0")
