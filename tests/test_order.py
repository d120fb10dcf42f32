"""Timestamp ordering: the hardware's windowed rule.

The simulator stores each stamp as a plain counter and orders two stamps
by ``<=``.  Hardware keeps a stamp modulo 2N for an N-entry ROB and
orders by the windowed rule below.  Oracle: for any two stamps fewer than
N apart (C06 checks that every comparison of a run is such a pair), the
windowed rule agrees with integer order of the counters.
"""

from hypothesis import given, strategies as st

WINDOW = 128   # default geometry: ROB of 64


def ts_not_after(a, b, window):
    """True iff windowed stamp ``a`` precedes or equals ``b``:
    (b - a) mod 2N <= N."""
    return (b - a) % window <= window // 2


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
        # oracle: windowed comparison == counter comparison whenever the
        # stamps are fewer than N apart.  At most N timestamps are live
        # at once, so live distances are at most N - 1, and C06 checks
        # that every comparison of its runs is such a pair.
        j = i + d
        if j < 0:
            return
        assert ts_not_after(i % WINDOW, j % WINDOW, WINDOW) == (i <= j)

    @given(st.integers(0, WINDOW - 1), st.integers(0, WINDOW - 1),
           st.integers(0, WINDOW - 1))
    def test_total_on_live_pairs(self, a, b, c):
        # at least one direction always holds
        assert ts_not_after(a, b, WINDOW) or ts_not_after(b, a, WINDOW)
