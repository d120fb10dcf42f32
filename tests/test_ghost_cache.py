"""Speculative side buffer: timestamp-guarded lookup, fill, extract, and
squash flush.
"""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from ghostsim.ghost_cache import GhostCache

from programs import not_after


def make(sets=1, ways=2, timeguard=True):
    return GhostCache(sets, ways, timeguard=timeguard, not_after=not_after,
                      counters=Counter())


def line(n):
    return n << 6   # distinct line addresses


def valid_tags(g):
    return {way.tag for way in g.valid_lines()}


class TestLookup:
    def test_younger_line_misses(self):
        g = make()
        g.fill(line(1), 22)
        assert g.lookup(line(1), 21) is None
        assert g.counters["timeguard_blocks"] == 1

    def test_older_line_hits(self):
        g = make()
        g.fill(line(1), 27)
        hit = g.lookup(line(1), 28)
        assert hit is not None and hit.ts == 27

    def test_equal_timestamp_hits(self):
        g = make()
        g.fill(line(1), 25)
        assert g.lookup(line(1), 25) is not None

    def test_absent_line_misses(self):
        g = make()
        assert g.lookup(line(9), 50) is None

    def test_unguarded_mode_always_hits(self):
        g = make(timeguard=False)
        g.fill(line(1), 22)
        assert g.lookup(line(1), 21) is not None


class TestFill:
    def test_older_fill_evicts_youngest_eligible(self):
        # set holds lines stamped {26, 28}; a fill stamped 25 may evict
        # either and must choose the youngest (28)
        g = make()
        g.fill(line(1), 26)
        g.fill(line(2), 28)
        assert g.fill(line(3), 25)
        tags = {w.tag: w.ts for w in g.valid_lines()}
        assert tags == {line(1): 26, line(3): 25}

    def test_youngest_eligible_found_in_any_way(self):
        # the same stamps in the other ways: the younger line comes first
        # and stays the victim
        g = make()
        g.fill(line(1), 28)
        g.fill(line(2), 26)
        assert g.fill(line(3), 25)
        tags = {w.tag: w.ts for w in g.valid_lines()}
        assert tags == {line(3): 25, line(2): 26}

    def test_young_fill_into_older_set_rejected(self):
        # {3, 4} are both older than a fill stamped 9: evicting either
        # would let the young filler signal backwards in time
        g = make()
        g.fill(line(1), 3)
        g.fill(line(2), 4)
        assert not g.fill(line(3), 9)
        assert g.counters["fills_rejected"] == 1
        assert {w.ts for w in g.valid_lines()} == {3, 4}

    def test_free_slot_preferred_over_eviction(self):
        g = make()
        g.fill(line(1), 26)
        assert g.fill(line(2), 25)   # 26 is evictable but a way is free
        assert {w.ts for w in g.valid_lines()} == {25, 26}

    def test_duplicate_tag_reuses_way(self):
        g = make()
        g.fill(line(1), 30)
        g.fill(line(1), 20)
        lines = list(g.valid_lines())
        assert len(lines) == 1 and lines[0].ts == 20

    def test_redundant_younger_refill_dropped(self):
        # the line is already visible to the younger filler; keeping the
        # older stamp only widens visibility
        g = make()
        g.fill(line(1), 20)
        assert g.fill(line(1), 30)
        lines = list(g.valid_lines())
        assert len(lines) == 1 and lines[0].ts == 20

    def test_unguarded_fifo_eviction(self):
        g = make(timeguard=False)
        g.fill(line(1), 5)
        g.fill(line(2), 6)
        g.fill(line(3), 1)    # would be rejected under timeguarding
        assert valid_tags(g) == {line(2), line(3)}


def slots(g, s=0):
    """The tag in each way of set ``s``, None for a free way."""
    return [None if w is None else w.tag for w in g.lines[s]]


class TestWayPositions:
    """A set's ways are allocated on its first fill, so pin where each
    fill lands."""

    @pytest.mark.parametrize("timeguard", [True, False])
    def test_fills_from_empty_take_ways_in_order(self, timeguard):
        g = make(timeguard=timeguard)
        g.fill(line(1), 10)
        assert slots(g) == [line(1), None]
        g.fill(line(2), 11)
        assert slots(g) == [line(1), line(2)]

    @pytest.mark.parametrize("timeguard", [True, False])
    def test_invalid_way_reused_before_a_new_one(self, timeguard):
        g = make(timeguard=timeguard)
        g.fill(line(1), 30)
        g.invalidate(line(1))
        assert slots(g) == [None, None]
        g.fill(line(2), 25)
        assert slots(g) == [line(2), None]

    def test_flushed_way_0_of_a_full_set_reused(self):
        g = make()
        g.fill(line(1), 30)
        g.fill(line(2), 10)
        g.flush(20)
        assert slots(g) == [None, line(2)]
        g.fill(line(3), 15)
        assert slots(g) == [line(3), line(2)]

    def test_unguarded_full_set_evicts_fifo_from_way_0(self):
        g = make(timeguard=False)
        for n in range(1, 6):
            g.fill(line(n), 50 - n)
        # lines 3, 4 and 5 replaced ways 0, 1 and 0
        assert slots(g) == [line(5), line(4)]
        assert g._fifo == {0: 1}

    def test_unguarded_refill_of_a_present_line_keeps_its_way(self):
        # a refill matches the present line whatever the stamps, so the
        # FIFO pointer does not move and still points at way 0
        g = make(timeguard=False)
        g.fill(line(1), 5)
        g.fill(line(2), 6)
        assert g.fill(line(1), 9)
        way = g.lines[0][0]
        assert (way.tag, way.ts) == (line(1), 9)
        assert slots(g) == [line(1), line(2)]
        assert g._fifo.get(0, 0) == 0
        g.fill(line(3), 10)
        assert slots(g) == [line(3), line(2)]

    def test_equal_stamps_evict_the_last_way(self):
        g = make()
        g.fill(line(1), 20)
        g.fill(line(2), 20)
        assert g.fill(line(3), 20)
        assert slots(g) == [line(1), line(3)]

    def test_only_a_fill_allocates_a_set(self):
        g = make(sets=4)
        assert g.lookup(line(1), 5) is None
        assert g.extract(line(1), 5) is None
        g.invalidate(line(1))
        g.flush(5)
        assert g.lines == {}
        g.fill(line(2), 5)
        assert g.lines == {2: g.lines[2]}
        assert slots(g, 2) == [line(2), None]


class TestExtractFlush:
    def test_extract_removes_visible_line(self):
        g = make()
        g.fill(line(1), 10)
        out = g.extract(line(1), 12)
        assert out is not None and out.ts == 10
        assert valid_tags(g) == set()

    def test_extract_guarded_line_refused(self):
        g = make()
        g.fill(line(1), 15)
        assert g.extract(line(1), 12) is None
        assert valid_tags(g) == {line(1)}

    def test_flush_wipes_only_younger(self):
        g = make(sets=4)
        g.fill(line(0), 10)
        g.fill(line(1), 20)
        g.fill(line(2), 30)
        g.flush(15)
        assert valid_tags(g) == {line(0)}

    def test_unguarded_flush_wipes_everything(self):
        g = make(sets=4, timeguard=False)
        g.fill(line(0), 10)
        g.fill(line(1), 20)
        g.flush(25)
        assert valid_tags(g) == set()


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 63),
                          st.booleans()), max_size=80))
def test_guard_properties(ops):
    """Under any fill/lookup interleaving with live timestamps:
    no set ever holds duplicate tags, and no lookup ever returns a line
    younger than the reader."""
    g = make(sets=2, ways=2)
    for ln, ts, is_fill in ops:
        if is_fill:
            g.fill(line(ln), ts)
        else:
            hit = g.lookup(line(ln), ts)
            if hit is not None:
                assert hit.ts <= ts
        for s in g.lines.values():
            assert len(s) == 2
            tags = [w.tag for w in s if w is not None]
            assert len(tags) == len(set(tags))
