"""Windowed speculative-program-order timestamps and their ordering test.

Every micro-op in flight carries a timestamp drawn from a window of size
2N, where N is the reorder-buffer capacity.  Because at most N micro-ops
are live at once, the windowed distance test is unambiguous for any pair
of live timestamps, and agrees with comparison of the unbounded counters
that produced them.  A shadow unbounded counter is carried alongside each
timestamp for debug runs and property tests; release-mode comparisons use
only the windowed value.
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
    """Sequential allocator over the window [0, 2N).

    ``live`` counts timestamps handed out but not yet committed or
    squashed; allocation faults if it would exceed N, since that signals
    a bookkeeping bug (ROB capacity bounds liveness).
    """

    window: int
    next: int = 0
    next_unbounded: int = 0
    live: int = 0

    def allocate(self) -> tuple[int, int]:
        """Return (windowed ts, unbounded shadow ts) and advance."""
        if self.live >= self.window // 2:
            raise WindowOverflowError(
                f"{self.live} timestamps live with window {self.window}"
            )
        ts = self.next
        uts = self.next_unbounded
        self.next = (self.next + 1) % self.window
        self.next_unbounded += 1
        self.live += 1
        return ts, uts

    def peek(self) -> int:
        return self.next

    def retire(self, count: int = 1) -> None:
        self.live -= count
        assert self.live >= 0

    def rewind(self, ts: int, uts: int, live: int) -> None:
        """Reset allocation to just after ``ts`` (used on pipeline squash)."""
        self.next = (ts + 1) % self.window
        self.next_unbounded = uts + 1
        self.live = live
