"""Windowed timestamp ordering: predicate correctness and allocator
bookkeeping.

Oracle: for any two *live* timestamps (unbounded distance at most N),
the windowed comparison must agree with plain integer comparison of the
unbounded counters that produced them.
"""

import pytest
from hypothesis import given, strategies as st

from ghostsim.order import (
    TimestampAllocator,
    WindowOverflowError,
    ts_not_after,
)

WINDOW = 128   # default geometry: ROB of 64


class TestNotAfter:
    def test_younger_line_is_after(self):
        # line stamped 22 observed by reader stamped 21: 22 is after 21
        assert not ts_not_after(22, 21, WINDOW)

    def test_older_line_is_not_after(self):
        assert ts_not_after(27, 28, WINDOW)

    def test_equal_is_not_after(self):
        assert ts_not_after(25, 25, WINDOW)

    def test_wraparound(self):
        # 120 was allocated before 5 if both are live (distance 13 < 64)
        assert ts_not_after(120, 5, WINDOW)
        assert not ts_not_after(5, 120, WINDOW)

    @given(st.integers(0, 10_000),
           st.integers(-(WINDOW // 2 - 1), WINDOW // 2 - 1))
    def test_agrees_with_unbounded_comparison(self, i, d):
        # oracle: windowed comparison == unbounded comparison whenever
        # both timestamps are live.  At most N timestamps are live at
        # once, so live unbounded distances are at most N - 1.
        j = i + d
        if j < 0:
            return
        assert ts_not_after(i % WINDOW, j % WINDOW, WINDOW) == (i <= j)

    @given(st.integers(0, WINDOW - 1), st.integers(0, WINDOW - 1),
           st.integers(0, WINDOW - 1))
    def test_total_on_live_pairs(self, a, b, c):
        # at least one direction always holds
        assert ts_not_after(a, b, WINDOW) or ts_not_after(b, a, WINDOW)


class TestAllocator:
    def test_sequential(self):
        al = TimestampAllocator(window=8)
        assert [al.allocate() for _ in range(4)] == [0, 1, 2, 3]

    def test_wraps_modulo_window(self):
        al = TimestampAllocator(window=8)
        for _ in range(6):
            al.allocate()
            al.retire()
        ts = al.allocate()
        assert ts == 6
        al.retire()
        for want in (7, 0, 1):
            ts = al.allocate()
            assert ts == want
            al.retire()

    def test_unbounded_shadow_never_wraps(self):
        al = TimestampAllocator(window=8)
        unb = TimestampAllocator(window=8, unbounded=True)
        for i in range(20):
            assert unb.allocate() == i
            assert al.allocate() == i % 8
            unb.retire()
            al.retire()

    def test_overflow_at_rob_capacity(self):
        al = TimestampAllocator(window=8)
        for _ in range(4):
            al.allocate()
        with pytest.raises(WindowOverflowError):
            al.allocate()

    def test_rewind_reissues_after_squash_point(self):
        al = TimestampAllocator(window=16)
        stamps = [al.allocate() for _ in range(6)]
        # squash everything after the third: live count drops to 3
        ts = stamps[2]
        al.rewind(ts, live=3)
        assert al.next == (ts + 1) % 16
        nts = al.allocate()
        assert nts == stamps[3]

    @given(st.booleans(), st.lists(st.one_of(
        st.sampled_from(["alloc", "retire", "rewind"]),
        st.tuples(st.just("retire"), st.integers(0, 9))), max_size=60))
    def test_live_never_exceeds_rob(self, unbounded, ops):
        # a batched retire of n, as commit makes once per call, must leave
        # the allocator as n single retires leave a shadow of it
        al = TimestampAllocator(window=16, unbounded=unbounded)
        shadow = TimestampAllocator(window=16, unbounded=unbounded)
        issued = []
        for op in ops:
            op, n = (op, 1) if isinstance(op, str) else op
            if op == "alloc":
                if al.live < 8:
                    issued.append(al.allocate())
                    assert shadow.allocate() == issued[-1]
                else:
                    with pytest.raises(WindowOverflowError):
                        al.allocate()
            elif op == "retire" and len(issued) >= n:
                del issued[:n]
                al.retire(n)
                for _ in range(n):
                    shadow.retire()
            elif op == "rewind" and issued:
                keep = len(issued) // 2 + 1
                issued = issued[:keep]
                al.rewind(issued[-1], keep)
                shadow.rewind(issued[-1], keep)
            assert 0 <= al.live <= 8
            assert (al.next, al.live) == (shadow.next, shadow.live)
