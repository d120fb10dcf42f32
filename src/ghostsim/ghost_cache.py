"""Speculative side buffer attached to each L1 (data and instruction sides).

Speculative fills land here instead of in the L1.  Each line is tagged
with the timestamp of the instruction that brought it in; reads and
overwrites are timestamp-guarded so that no information can flow from a
younger (more speculative) instruction to an older one:

* a read hits only if the line's timestamp is not after the reader's;
* a fill may take a free slot, or evict only lines whose timestamp is
  not before the filler's (the highest-timestamped eligible victim is
  chosen, since only the youngest instruction may learn the set is full);
* a squash invalidates every line younger than the squash point in a
  single cycle, via the parallel valid/timestamp registers.

Lines are never dirty here, and a line valid in this buffer is never
simultaneously valid in the attached L1.  With ``timeguard=False`` the
buffer degrades to a flush-on-squash-only victim structure, which keeps
no ordering guarantees.

A set is ``ways`` slots, each a line or None for a free way, allocated
on the set's first fill.  ``lines`` maps a set index to its set, so a
buffer costs only the sets a run filled, and a lookup allocates nothing.
"""


class GhostLine:
    __slots__ = ("tag", "ts", "noncoherent")

    def __init__(self, tag, ts, noncoherent):
        self.tag = tag            # line address
        self.ts = ts
        self.noncoherent = noncoherent


class GhostCache:
    def __init__(self, sets, ways, *, timeguard, not_after, counters,
                 line_shift=6):
        self.sets = sets
        self.ways = ways
        self.line_shift = line_shift
        self.timeguard = timeguard
        # not_after(a, b): stamp a precedes or equals b in program order
        self.not_after = not_after
        # the memory system's counters, bumped in place
        self.counters = counters
        self.lines = {}          # set index -> ``ways`` slots, line or None
        self._fifo = [0] * sets  # replacement pointer for non-timeguarded mode

    def lookup(self, line_addr, ts):
        """TimeGuarded read: a hit requires a tag match whose timestamp is
        not after the reader's.  A guarded line is indistinguishable from
        an absent one."""
        st = self.lines.get((line_addr >> self.line_shift) % self.sets, ())
        for way in st:
            if way is not None and way.tag == line_addr:
                if not self.timeguard or self.not_after(way.ts, ts):
                    return way
                self.counters["timeguard_blocks"] += 1
                return None
        return None

    def fill(self, line_addr, ts, noncoherent=False):
        """Store a line; returns True if stored, False if rejected.

        Rejection (no free slot and no eligible victim) is a defined
        outcome: the data still goes to the core, it just is not cached.
        """
        si = (line_addr >> self.line_shift) % self.sets
        st = self.lines.get(si)
        if st is None:
            st = self.lines[si] = [None] * self.ways
        victim = None   # the way the line goes to
        for i, way in enumerate(st):
            if way is None:
                if victim is None:
                    victim = i
            elif way.tag == line_addr:
                # duplicate tags are never allowed in a set: reuse the
                # matching way if eligible (always, unguarded), else the
                # line is already visible to this filler and the fill is
                # redundant
                if self.timeguard and not self.not_after(ts, way.ts):
                    return True
                victim = i
                break
        else:
            # no way matches: the first free way, else an eviction
            if victim is None and self.timeguard:
                for i, way in enumerate(st):
                    if self.not_after(ts, way.ts):
                        if victim is None \
                                or self.not_after(st[victim].ts, way.ts):
                            victim = i
            elif victim is None:
                victim = self._fifo[si]
                self._fifo[si] = (victim + 1) % self.ways
        if victim is None:
            self.counters["fills_rejected"] += 1
            return False
        st[victim] = GhostLine(line_addr, ts, noncoherent)
        return True

    def extract(self, line_addr, ts):
        """On commit of a load: free and return the matching way the
        committing instruction is allowed to read, if any."""
        st = self.lines.get((line_addr >> self.line_shift) % self.sets, ())
        for i, way in enumerate(st):
            if way is not None and way.tag == line_addr:
                if not self.timeguard or self.not_after(way.ts, ts):
                    st[i] = None
                    self.counters["lines_extracted"] += 1
                    return way
                return None
        return None

    def flush(self, ts):
        """Squash wipe: free every line younger than ``ts``.

        Constant-time regardless of how many lines are wiped.  Without
        timeguarding the whole buffer is cleared.
        """
        for st in self.lines.values():
            for i, way in enumerate(st):
                if way is not None and (not self.timeguard
                                        or not self.not_after(way.ts, ts)):
                    st[i] = None
        self.counters["flush_count"] += 1

    def invalidate(self, line_addr):
        st = self.lines.get((line_addr >> self.line_shift) % self.sets, ())
        for i, way in enumerate(st):
            if way is not None and way.tag == line_addr:
                st[i] = None

    def valid_lines(self):
        for st in self.lines.values():
            for way in st:
                if way is not None:
                    yield way
