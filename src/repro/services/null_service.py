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

from typing import Iterable

from repro.services.interface import Service


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
    ) -> bytes:
        if not read_only:
            self.operations_executed += 1
            self._touch(0)
        return b"r" * self._result_size(operation)

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

    def _export_state(self) -> object:
        return self.operations_executed

    def _import_payload(self, index: int, payload: bytes) -> None:
        self.operations_executed = int(payload or b"0")
