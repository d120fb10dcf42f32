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

A set's ways are allocated on first fill: a set starts empty and a way
missing from it counts as free, so a fill appends a line only when no
existing way matches or is free.  The first free way is then the same
position as in a fully allocated set.
"""


class GhostLine:
    __slots__ = ("tag", "ts", "valid", "noncoherent")

    def __init__(self):
        self.tag = -1             # line address
        self.ts = 0
        self.valid = False
        self.noncoherent = False


class GhostCache:
    def __init__(self, sets, ways, *, timeguard, not_after, counters=None,
                 line_shift=6):
        self.sets = sets
        self.ways = ways
        self.line_shift = line_shift
        self.timeguard = timeguard
        # not_after(a, b): stamp a precedes or equals b in program order
        self.not_after = not_after
        self.counters = counters if counters is not None else {}
        self.lines = [[] for _ in range(sets)]   # up to ``ways`` lines each
        self._fifo = [0] * sets  # replacement pointer for non-timeguarded mode

    def _set(self, line_addr):
        return self.lines[(line_addr >> self.line_shift) % self.sets]

    def _bump(self, key):
        self.counters[key] = self.counters.get(key, 0) + 1

    def lookup(self, line_addr, ts):
        """TimeGuarded read: a hit requires a valid tag match whose
        timestamp is not after the reader's.  A guarded line is
        indistinguishable from an absent one."""
        for way in self._set(line_addr):
            if way.valid and way.tag == line_addr:
                if not self.timeguard or self.not_after(way.ts, ts):
                    return way
                self._bump("timeguard_blocks")
                return None
        return None

    def fill(self, line_addr, ts, noncoherent=False):
        """Store a line; returns True if stored, False if rejected.

        Rejection (no free slot and no eligible victim) is a defined
        outcome: the data still goes to the core, it just is not cached.
        """
        st = self._set(line_addr)
        victim = free = None
        for way in st:
            if way.valid:
                if way.tag == line_addr:
                    # duplicate tags are never allowed in a set: reuse the
                    # matching way if eligible (always, unguarded), else the
                    # line is already visible to this filler and the fill
                    # is redundant
                    if self.timeguard and not self.not_after(ts, way.ts):
                        return True
                    victim = way
                    break
            elif free is None:
                free = way
        else:
            if free is not None:
                victim = free
            elif len(st) < self.ways:
                victim = GhostLine()
                st.append(victim)
            elif self.timeguard:
                for way in st:
                    if self.not_after(ts, way.ts):
                        if victim is None or self.not_after(victim.ts, way.ts):
                            victim = way
            else:
                si = (line_addr >> self.line_shift) % self.sets
                idx = self._fifo[si]
                self._fifo[si] = (idx + 1) % self.ways
                victim = st[idx]
        if victim is None:
            self._bump("fills_rejected")
            return False
        victim.tag = line_addr
        victim.ts = ts
        victim.valid = True
        victim.noncoherent = noncoherent
        return True

    def extract(self, line_addr, ts):
        """On commit of a load: invalidate and return the matching way the
        committing instruction is allowed to read, if any.  The way keeps
        the line's fields until a later fill reuses it."""
        for way in self._set(line_addr):
            if way.valid and way.tag == line_addr:
                if not self.timeguard or self.not_after(way.ts, ts):
                    way.valid = False
                    self._bump("lines_extracted")
                    return way
                return None
        return None

    def flush(self, ts):
        """Squash wipe: invalidate every line younger than ``ts``.

        Constant-time regardless of how many lines are wiped.  Without
        timeguarding the whole buffer is cleared.
        """
        n = 0
        for st in self.lines:
            for way in st:
                if way.valid and (not self.timeguard
                                  or not self.not_after(way.ts, ts)):
                    way.valid = False
                    n += 1
        self._bump("flush_count")
        return n

    def invalidate(self, line_addr):
        for way in self._set(line_addr):
            if way.valid and way.tag == line_addr:
                way.valid = False

    def has(self, line_addr):
        return any(w.valid and w.tag == line_addr for w in self._set(line_addr))

    def valid_lines(self):
        for st in self.lines:
            for way in st:
                if way.valid:
                    yield way
