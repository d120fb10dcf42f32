"""Windowed speculative-program-order timestamps and their ordering test.

Every micro-op in flight carries one timestamp drawn from a window of
size 2N, where N is the reorder-buffer capacity.  Because at most N
micro-ops are live at once, the windowed distance test is unambiguous for
any pair of live timestamps, and agrees with comparison of the unbounded
counters that produced them.  A debug allocator hands out the unbounded
counter itself instead, so a run can check that the two orders agree.
"""

from dataclasses import dataclass


class WindowOverflowError(Exception):
    """More timestamps live than the reorder buffer can hold."""


def ts_not_after(a: int, b: int, window: int) -> bool:
    """True iff timestamp ``a`` precedes or equals ``b`` in speculative program order.

    Windowed comparison: (b - a) mod 2N <= N.  Valid whenever both
    timestamps are live, i.e. their unbounded distance is at most N.
    """
    return (b - a) % window <= window // 2


@dataclass
class TimestampAllocator:
    """Sequential allocator over the window [0, 2N), or over all
    non-negative integers when ``unbounded``.

    ``live`` counts timestamps handed out but not yet committed or
    squashed; allocation faults if it would exceed N, since that signals
    a bookkeeping bug (ROB capacity bounds liveness).
    """

    window: int
    unbounded: bool = False
    next: int = 0
    live: int = 0

    def allocate(self) -> int:
        """Return the next timestamp and advance."""
        if self.live >= self.window // 2:
            raise WindowOverflowError(
                f"{self.live} timestamps live with window {self.window}"
            )
        ts = self.next
        self.next = ts + 1 if self.unbounded else (ts + 1) % self.window
        self.live += 1
        return ts

    def retire(self, count: int = 1) -> None:
        self.live -= count
        assert self.live >= 0

    def rewind(self, ts: int, live: int) -> None:
        """Reset allocation to just after ``ts`` (used on pipeline squash)."""
        self.next = ts + 1 if self.unbounded else (ts + 1) % self.window
        self.live = live
