"""Speculative-program-order timestamps.

Every micro-op in flight carries one timestamp, and every speculative
structure orders by it through ``Machine.not_after``.  The simulator
stores the stamp as a plain counter.  Hardware keeps it modulo 2N, where
N is the reorder-buffer capacity: at most N micro-ops are live at once,
so any two stamps it compares are fewer than N apart, and for such a
pair the windowed distance test orders them as the counter does.  C06 of
the acceptance gate checks that every comparison is such a pair.
"""

from dataclasses import dataclass


class WindowOverflowError(Exception):
    """More timestamps live than the reorder buffer can hold."""


@dataclass
class TimestampAllocator:
    """Sequential allocator of timestamps.

    ``live`` counts timestamps handed out but not yet committed or
    squashed; allocation faults if it would exceed ``rob``, since that
    signals a bookkeeping bug (ROB capacity bounds liveness).
    """

    rob: int
    next: int = 0
    live: int = 0

    def allocate(self) -> int:
        """Return the next timestamp and advance."""
        if self.live >= self.rob:
            raise WindowOverflowError(
                f"{self.live} timestamps live with a ROB of {self.rob}"
            )
        ts = self.next
        self.next = ts + 1
        self.live += 1
        return ts

    def retire(self, count: int = 1) -> None:
        self.live -= count
        assert self.live >= 0

    def rewind(self, ts: int, live: int) -> None:
        """Reset allocation to just after ``ts`` (used on pipeline squash)."""
        self.next = ts + 1
        self.live = live
