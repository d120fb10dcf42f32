"""Cache hierarchy: per-core L1s with speculative side buffers, a shared
L2, fixed-latency main memory, timestamped MSHRs, a commit-trained stride
prefetcher, and an owner map that keeps the L1Ds coherent for any
number of cores.

A core holds a line when its L1D does; the L1Ds are the only record of
the holders.  ``MemorySystem.owner`` maps a line to the one core holding
it Exclusive or Modified, which its L1D dirty bit tells apart.  Every
other holder is Shared, and a Shared copy may be dirty: a core that
installs a line another core holds Modified demotes it without a
write-back, and the dirty copy is written back when it is evicted.

Timing rules that keep younger (more speculative) requests invisible to
older ones:

* miss timestamps propagate into every MSHR level;
* when a level's MSHRs are full, an older request cancels the
  youngest-timestamped entry and takes its slot (``leapfrog``); the
  victim's load is retried once a register frees;
* when an older request hits an in-flight MSHR for the same line, the
  miss restarts its latency with the older timestamp (``timeleap``),
  which may cascade into further leapfrogs below;
* each core has ``l2_mshrs`` L2 MSHRs of its own (``merge_core``): an L2
  request merges with, leapfrogs and is refused by its own core's
  entries only, and a freed L2 entry wakes only its core's waiters, so
  no core's wrong path can refuse another core's miss.  Without it the
  cores share ``l2_mshrs`` registers;
* speculative fills go to the side buffer only (``side_buffer``,
  ``hide_spec_l2_fill``), and speculative hits leave replacement state
  alone (``hide_spec_lru``): the non-speculative L1/L2 change only
  through non-speculative accesses, commit-time extraction, or
  prefetches.

Each rule is a switch of ``config.Protection``, and ``config.PROTECTION``
says which a protection mode turns on.  Every mode builds the same
caches, side buffers included; ``side_buffer`` only decides where a
speculative fill lands and whether a squash wipes the buffer.  Without
it, speculative fills pollute the L1/L2 directly and the side buffers
stay empty.

One event heap holds all timed work: each miss delivery, queued when its
latency is set, and each background action, a forwarded fill or a
prefetch.  Its key ``(cycle, rank, creation order)`` is the only order in
which that work runs: ``tick`` pops the due events in key order and runs
each as it pops it.  In a cycle the L2 delivers first, then each core's
L1D and L1I (the file's ``rank``), each file's misses in creation order,
then the actions, ranked after every file, in the order they were queued.
Nothing lands in a cycle whose tick has run: the accesses and commit
services run after their cycle's tick, a miss they start takes at least
one cycle (``RunConfig`` requires it), and an action they queue is dated
``cycle + 1`` at the earliest.  A delivery that a tick queues for its own
cycle (an L2 completion with ``l1_lat`` 0) is popped by the same tick.  A
delivery whose miss was since freed, restarted or handed to the L2 stays
on the heap until its cycle, and ``tick`` skips it there.

The miss path is a hot path, as the core's stages are: a load refused by
a full miss-register file is made again on every free, so most accesses
of a miss-heavy run end in a refusal.  The accesses, the request path,
delivery and wake-up read cache sets, side-buffer sets, ``owner`` and
the files' entries inline, push each delivery and background action
onto the event heap themselves, and call no one-line helper.  What
stays a call has a reason to: the accesses, ``tick``,
``commit_extract``, ``squash_flush`` and the ``GhostCache`` operations
are the layers the benchmark's tracer wraps and times; every stamp
comparison goes through ``not_after``, which the tracer counts;
``mem_ready`` and ``mem_retry`` are the core's; and ``_wake``, called
only when a file has waiters, is what a test calls to wake them.
"""

COUNTER_KEYS = (
    "timeguard_blocks", "fills_rejected", "flush_count", "lines_extracted",
    "mshr_leapfrogs", "timeleaps", "retries", "prefetches_issued", "replays",
)

from collections import defaultdict
from heapq import heappop, heappush
from itertools import count

from .ghost_cache import GhostCache


class Cache:
    """Set-associative tag store with LRU replacement and dirty bits.

    A set is allocated the first time it is touched: ``lines`` maps a set
    index to its set, so building a cache and snapshotting it cost only
    the sets a run used.  A set that was only looked up exists, empty.
    The memory system makes a hit most recently used itself, on its hot
    path: ``st[line] = st.pop(line)`` moves the tag to the end of its set
    with its dirty bit."""

    def __init__(self, sets, ways, line_shift=6):
        self.sets = sets
        self.ways = ways
        self.line_shift = line_shift
        # set index -> {tag: dirty}, least recently used first
        self.lines = defaultdict(dict)

    def _set(self, line_addr):
        return self.lines[(line_addr >> self.line_shift) % self.sets]

    def lookup(self, line_addr):
        return line_addr in self._set(line_addr)

    def install(self, line_addr, dirty=False):
        """Install a line; returns (evicted_tag, evicted_dirty) or None."""
        st = self._set(line_addr)
        if line_addr in st:
            st[line_addr] = st.pop(line_addr) or dirty
            return None
        evicted = None
        if len(st) >= self.ways:
            victim = next(iter(st))
            evicted = (victim, st.pop(victim))
        st[line_addr] = dirty
        return evicted

    def invalidate(self, line_addr):
        return self._set(line_addr).pop(line_addr, None) is not None

    def used_sets(self):
        """The non-empty sets by index.  Two caches hold the same lines,
        each equally dirty, exactly when these are equal: dict equality
        ignores LRU order, and a set only looked up is left out."""
        return {i: st for i, st in self.lines.items() if st}


class MshrEntry:
    __slots__ = ("file", "addr", "ts", "core", "spec", "is_write", "seq",
                 "targets", "parents", "child", "deliver_at")

    def __init__(self, file, addr, ts, core, spec, seq, is_write=False):
        self.file = file      # the MshrFile holding this entry
        self.addr = addr
        self.ts = ts
        self.core = core
        self.spec = spec
        self.is_write = is_write
        self.seq = seq        # creation order, unique
        self.targets = []     # waiters for delivery: (core, instr or None)
        self.parents = []     # upper-level MshrEntry objects waiting on us
        self.child = None
        self.deliver_at = None


class MshrFile:
    def __init__(self, cap, rank, kind=None):
        self.cap = cap
        self.rank = rank      # delivery order among the files in one cycle
        self.kind = kind      # "d" or "i" for an L1 file, None for the L2
        self.entries = []
        self.waiters = []     # targets to wake when a slot frees


class MemorySystem:
    def __init__(self, cfg, ncores, not_after):
        self.cfg = cfg
        self.not_after = not_after     # not_after(ts, ts2)
        self.prot = prot = cfg.protection
        self.counters = {k: 0 for k in COUNTER_KEYS}
        self.cores = []                # wired by the machine

        shift = cfg.line_bytes.bit_length() - 1
        self.l1d = [Cache(cfg.l1_sets, cfg.l1_ways, shift) for _ in range(ncores)]
        self.l1i = [Cache(cfg.l1_sets, cfg.l1_ways, shift) for _ in range(ncores)]
        self.l2 = Cache(cfg.l2_sets, cfg.l2_ways, shift)

        mk = lambda: GhostCache(cfg.ghost_sets, cfg.ghost_ways,
                                timeguard=prot.timeguard, not_after=not_after,
                                counters=self.counters, line_shift=shift)
        self.dghost = [mk() for _ in range(ncores)]
        self.ighost = [mk() for _ in range(ncores)]

        self.l1d_file = [MshrFile(cfg.l1_mshrs, 1 + 2 * c, "d")
                         for c in range(ncores)]
        self.l1i_file = [MshrFile(cfg.l1_mshrs, 2 + 2 * c, "i")
                         for c in range(ncores)]
        self.l2_file = MshrFile(cfg.l2_mshrs, 0)

        # line -> the core holding it Exclusive or Modified in its L1D
        self.owner = {}

        # stride prefetcher at the L2 (reference prediction table)
        self.rpt = [None] * cfg.rpt_entries   # [pc, last_line, stride, conf]

        # (cycle, rank, seq, entry) for a delivery, ranked by its file, or
        # (cycle, rank after every file, seq, fn) for a background action
        self._events = []
        self._seq = count()            # entry creation and scheduling order
        self._action_rank = 2 * ncores + 1

    # ------------------------------------------------------------- coherence

    def _downgrade(self, line, requester):
        """A remote Exclusive/Modified copy is demoted to Shared; a dirty
        copy is written back to the L2.  Returns True if any state changed."""
        owner = self.owner.get(line, requester)
        if owner == requester:
            return False
        l1 = self.l1d[owner]
        st = l1.lines[(line >> l1.line_shift) % l1.sets]
        if st[line]:
            # dirty data is written back to the shared L2; the owner keeps
            # a clean Shared copy
            self.l2.install(line, dirty=True)
            st[line] = False
        del self.owner[line]
        return True

    def upgrade_for_store(self, line, core):
        """Acquire Modified for a committing store.  Remote L1 and side
        buffer copies are invalidated in constant time.  Returns the extra
        latency paid (0 when the line was already exclusively held)."""
        cost = 0
        for c, l1 in enumerate(self.l1d):
            if c == core:
                continue
            if l1.invalidate(line):
                cost = self.cfg.coh_lat
            self.dghost[c].invalidate(line)
            self.ighost[c].invalidate(line)
        if self.l1d[core].lookup(line):
            if self.owner.get(line) != core:   # it was Shared
                cost = self.cfg.coh_lat
            self.owner[line] = core
        else:   # a remote owner's copy is gone; the write delivery owns it
            self.owner.pop(line, None)
        return cost

    # ------------------------------------------------------------- L1 install

    def _install_l1(self, core, kind, line, dirty=False):
        """The L1 does not hold the line: an extracted line comes from the
        side buffer, which never holds a line valid in its L1, and a
        delivered miss was made when the L1 missed; its file holds no
        other entry for the line."""
        if kind == "i":
            evicted = self.l1i[core].install(line, dirty)
            # a line never lives in both structures
            self.ighost[core].invalidate(line)
        else:
            evicted = self.l1d[core].install(line, dirty)
            self.dghost[core].invalidate(line)
            owner = self.owner
            for c, other in enumerate(self.l1d):
                if c != core and line in other.lines[
                        (line >> other.line_shift) % other.sets]:
                    # every copy is now Shared
                    owner.pop(line, None)
                    break
            else:
                owner[line] = core
                if self.prot.noncoherent_forward:
                    # side-buffer copies are not tracked: drop the other
                    # cores' speculative copies of a line now held Exclusive
                    for c, other in enumerate(self.dghost):
                        if c != core:
                            other.invalidate(line)
        if evicted:
            etag, edirty = evicted
            if kind == "d" and self.owner.get(etag) == core:
                del self.owner[etag]
            if edirty:
                self.l2.install(etag, dirty=True)

    # ------------------------------------------------------------- MSHR logic

    def _wake(self, file, core):
        """Tell ``file``'s waiters to retry; under ``merge_core`` the L2
        file wakes only ``core``'s, the core whose entry freed."""
        waiters = file.waiters
        if file is self.l2_file and self.prot.merge_core:
            file.waiters = [t for t in waiters if t[0] != core]
            waiters = [t for t in waiters if t[0] == core]
        else:
            file.waiters = []
        for tcore, instr in waiters:
            self.cores[tcore].mem_retry(instr)

    def _free_entry(self, entry):
        """Drop ``entry`` from its file and its queued delivery.  Nothing
        reads a freed entry again, so its targets and parents stay."""
        file = entry.file
        file.entries.remove(entry)
        entry.deliver_at = None
        if file.waiters:
            self._wake(file, entry.core)

    def _orphan_child(self, entry):
        """Detach ``entry`` from its lower-level miss.  An L2 entry left
        with no parents is orphaned: it completes but delivers nothing."""
        child = entry.child
        if child is not None:
            entry.child = None
            child.parents.remove(entry)

    def _cancel_entry(self, entry, blocking_file=None):
        """Leapfrog/squash cancellation of an entry and of the upper-level
        entries waiting on it; in-flight lower activity is abandoned.  The
        targets reattempt once ``blocking_file`` frees a slot, or are
        dropped (they were squashed) when it is None."""
        if blocking_file is not None:
            blocking_file.waiters.extend(entry.targets)
        for parent in entry.parents:
            parent.child = None
            self._cancel_entry(parent, blocking_file)
        self._orphan_child(entry)
        self._free_entry(entry)

    def _mshr_request(self, file, line, ts, core, spec, cycle, *,
                      target=None, parent=None, is_write=False):
        """Returns the entry the request waits on, or None if it must wait
        for a free register and retry.  A target already on the entry it
        merges into is not attached again."""
        prot = self.prot
        entries = file.entries
        if prot.merge_core and file is self.l2_file:
            # an L2 request sees only its own core's misses: it merges
            # with them, leapfrogs one of them, and is refused only when
            # they fill the file, so each core has l2_mshrs registers
            entries = [e for e in entries if e.core == core]
        for entry in entries:
            if entry.addr == line:
                break
        else:
            entry = None
        if entry is not None:
            if is_write:
                # a committing store makes the miss non-speculative: the
                # line must reach the L1 dirty, not the side buffer, and
                # the L2 must keep it as for any store miss
                entry.is_write = True
                e = entry
                while e is not None:
                    e.spec = False
                    e = e.child
            restart = prot.timeleap and entry.ts != ts \
                and self.not_after(ts, entry.ts)
            if restart:
                # timeleap: the older request restarts the miss so its
                # timing is unaffected by the younger in-flight one
                self.counters["timeleaps"] += 1
                entry.ts = ts
                entry.spec = spec
                entry.core = core
                self._orphan_child(entry)
            if target is not None and target not in entry.targets:
                entry.targets.append(target)
        else:
            if len(entries) >= file.cap:
                victim = None
                if prot.leapfrog:
                    not_after = self.not_after
                    for e in entries:
                        if victim is None or not_after(victim.ts, e.ts):
                            victim = e
                    if not_after(ts, victim.ts) and victim.ts != ts:
                        self.counters["mshr_leapfrogs"] += 1
                        self._cancel_entry(victim, file)
                    else:
                        victim = None
                if victim is None:
                    self.counters["retries"] += 1
                    if target is not None:
                        file.waiters.append(target)
                    return None
            entry = MshrEntry(file, line, ts, core, spec, next(self._seq),
                              is_write)
            file.entries.append(entry)
            restart = True
            if target is not None:
                entry.targets.append(target)
        if parent is not None:
            entry.parents.append(parent)
            parent.child = entry
        # a new or restarted miss goes below with its targets attached; if
        # it gets no L2 register (only an L1 entry, which has no parent,
        # can fail), they all wait on the L2, this one last
        if restart and not self._dispatch_lower(entry, cycle):
            return None
        return entry

    def _dispatch_lower(self, entry, cycle):
        """Start the miss below ``entry``.  Returns False if the L2 had no
        register for it: the entry, which has no parent or child, is then
        cancelled and its targets wait on the L2."""
        cfg = self.cfg
        file = entry.file
        if file is self.l2_file:
            at = cycle + cfg.l2_lat + cfg.mem_lat
        else:
            line = entry.addr
            l2 = self.l2
            st = l2.lines[(line >> l2.line_shift) % l2.sets]
            if line not in st:
                entry.deliver_at = None
                if self._mshr_request(self.l2_file, line, entry.ts,
                                      entry.core, entry.spec, cycle,
                                      parent=entry):
                    return True
                self._cancel_entry(entry, self.l2_file)
                return False
            # replacement state is soft state: under protection only
            # non-speculative activity updates it
            if not entry.spec or not self.prot.hide_spec_lru:
                st[line] = st.pop(line)   # most recently used
            at = cycle + cfg.l1_lat + cfg.l2_lat
        entry.deliver_at = at
        heappush(self._events, (at, file.rank, entry.seq, entry))
        return True

    # ------------------------------------------------------------- accesses
    #
    # Each access returns its ready cycle on a hit (a load also gets
    # whether its line came from below the L1, and the noncoherent flag)
    # or None on a miss.  A miss leaves the target (core, instr) waiting,
    # instr None for an instruction fetch.  The memory system then calls
    # the core's mem_ready(instr, line, cycle, noncoherent) when the line is
    # delivered, or mem_retry(instr) when a miss-register file had no room
    # or the miss was cancelled, after which the access is made again.

    def data_access(self, core, instr, line, spec, cycle):
        """A load reaching the memory system: (ready, from_below,
        noncoherent) on a hit, None on a miss.  A side-buffer line and a
        copy forwarded from another core came from below the L1.  A
        side-buffer set never filled holds no line and is not searched,
        here and in ``ifetch_access``."""
        cfg = self.cfg
        g = self.dghost[core]
        if g.lines.get((line >> g.line_shift) % g.sets):
            hit = g.lookup(line, instr.ts)
            if hit is not None:
                return (cycle + cfg.l1_lat, True, hit.noncoherent)
        l1 = self.l1d[core]
        st = l1.lines[(line >> l1.line_shift) % l1.sets]
        if line in st:
            if not spec or not self.prot.hide_spec_lru:
                st[line] = st.pop(line)   # most recently used
            return (cycle + cfg.l1_lat, False, False)
        if self.owner.get(line, core) != core:   # a remote owner
            if spec and self.prot.noncoherent_forward:
                # forward a non-coherent copy without touching remote state;
                # the consumer must be revalidated at commit
                ready = cycle + cfg.l1_lat + cfg.coh_lat

                def fill():
                    # a squash drops the copy as it cancels a miss: the
                    # rewound stamps would let a correct-path load read
                    # it; the core's own L1D may have got the line meanwhile
                    squashed = instr.squashed \
                        and self.prot.squash_cancels_misses
                    if self.prot.side_buffer and not squashed \
                            and not l1.lookup(line):
                        self.dghost[core].fill(line, instr.ts,
                                               noncoherent=True)
                # this cycle's tick has run: the fill lands in a later
                # one, while the load itself is ready at ``ready``
                heappush(self._events, (max(ready, cycle + 1),
                                        self._action_rank, next(self._seq),
                                        fill))
                return (ready, True, True)
            self._downgrade(line, core)
            cycle += cfg.coh_lat
        self._mshr_request(self.l1d_file[core], line, instr.ts, core, spec,
                           cycle, target=(core, instr))
        return None

    def ifetch_access(self, core, line, ts, cycle):
        g = self.ighost[core]
        if g.lines.get((line >> g.line_shift) % g.sets) \
                and g.lookup(line, ts) is not None:
            return cycle + self.cfg.l1_lat
        l1 = self.l1i[core]
        st = l1.lines[(line >> l1.line_shift) % l1.sets]
        if line in st:
            if not self.prot.hide_spec_lru:   # a fetch is speculative
                st[line] = st.pop(line)       # most recently used
            return cycle + self.cfg.l1_lat
        self._mshr_request(self.l1i_file[core], line, ts, core, True, cycle,
                           target=(core, None))
        return None

    def store_access(self, core, instr, line, cycle):
        """Committing store: non-speculative write-allocate write."""
        cycle += self.upgrade_for_store(line, core)
        # speculative copies of the line are now stale
        self.dghost[core].invalidate(line)
        return self._commit_access(core, instr, line, cycle, is_write=True)

    def replay_access(self, core, instr, line, cycle):
        """Commit-time revalidation of a load that consumed a non-coherent
        forwarded copy: reissue non-speculatively."""
        self.counters["replays"] += 1
        self.dghost[core].invalidate(line)
        if self._downgrade(line, core):
            cycle += self.cfg.coh_lat
        return self._commit_access(core, instr, line, cycle, is_write=False)

    def _commit_access(self, core, instr, line, cycle, is_write):
        l1 = self.l1d[core]
        st = l1.lines[(line >> l1.line_shift) % l1.sets]
        if line in st:
            # a non-speculative hit is made most recently used; a store
            # makes it dirty (upgrade_for_store has made it Modified)
            dirty = st.pop(line)
            st[line] = is_write or dirty
            return cycle + self.cfg.l1_lat
        self._mshr_request(self.l1d_file[core], line, instr.ts, core, False,
                           cycle, target=(core, instr), is_write=is_write)
        return None

    # ------------------------------------------------------- commit services

    def commit_extract(self, core, kind, line, ts):
        """Free-slotting: on commit, move the committing instruction's line
        from the side buffer into the L1; with no copy there it may read,
        a line already in the L1 becomes most recently used.  Returns
        whether the line is in the L1 afterwards: a line valid in the L1 is
        never valid in the side buffer, so a second call for it would only
        re-touch it.  Runs on the commit path, so it reads both sets
        directly: a side-buffer set never filled holds no line and is not
        searched."""
        if kind == "i":
            g, l1 = self.ighost[core], self.l1i[core]
        else:
            g, l1 = self.dghost[core], self.l1d[core]
        if g.lines.get((line >> g.line_shift) % g.sets):
            ln = g.extract(line, ts)
            if ln is not None:
                # a non-coherent copy is handled by the replay path instead
                if ln.noncoherent:
                    return False
                self._install_l1(core, kind, line)
                return True
        st = l1.lines[(line >> l1.line_shift) % l1.sets]
        if line in st:
            st[line] = st.pop(line)   # most recently used
            return True
        return False

    def prefetch_notify(self, pc, line, cycle):
        """Train the L2 stride prefetcher from the committed access stream.
        The core calls it only for a load whose line came from below the
        L1: an L1 hit does not train it."""
        cfg = self.cfg
        idx = (pc // 4) % cfg.rpt_entries
        e = self.rpt[idx]
        if e is None or e[0] != pc:
            self.rpt[idx] = [pc, line, 0, 0]
            return
        stride = line - e[1]
        if stride != 0 and stride == e[2]:
            e[3] = min(e[3] + 1, 3)
        else:
            e[2] = stride
            e[3] = 1 if stride != 0 else 0
        e[1] = line
        if e[3] >= cfg.rpt_confidence:
            nxt = line + e[2]
            if nxt >= 0 and not self.l2.lookup(nxt):
                self.counters["prefetches_issued"] += 1
                # commit runs after this cycle's tick: install in a later one
                heappush(self._events,
                         (cycle + max(cfg.mem_lat, 1), self._action_rank,
                          next(self._seq), lambda a=nxt: self.l2.install(a)))

    # -------------------------------------------------------------- squash

    def squash_flush(self, core, ts):
        """Misspeculation wipe: single-cycle invalidate of every side-buffer
        line younger than the squash point, and (under full protection)
        cancellation of every younger in-flight miss of this core."""
        if self.prot.side_buffer:
            self.dghost[core].flush(ts)
            self.ighost[core].flush(ts)
        if not self.prot.squash_cancels_misses:
            return
        for file in (self.l1d_file[core], self.l1i_file[core], self.l2_file):
            for e in list(file.entries):
                if e.core == core and not self.not_after(e.ts, ts):
                    self._cancel_entry(e)

    # ---------------------------------------------------------------- tick

    def tick(self, cycle):
        """Pop every event due by ``cycle`` in heap order and run it: a
        delivery whose entry still waits for that cycle is delivered, a
        stale one is skipped, and an action is called.  Returns whether
        anything was delivered or run.  ``Machine.run`` calls it only when
        the top of ``_events`` is due."""
        events = self._events
        action_rank = self._action_rank
        progress = False
        # a delivery this pushes for this cycle (l1_lat = 0) is popped too
        while events and events[0][0] <= cycle:
            at, rank, _, what = heappop(events)
            if rank == action_rank:
                progress = True
                what()
            elif what.deliver_at == at:
                progress = True
                self._deliver(what, at)
        return progress

    def _deliver(self, e, cycle):
        if e.file is self.l2_file:
            # an L2 completion feeds its parent L1 misses after the L1 transit
            if e.parents:   # else orphaned: every requester was cancelled
                if (not e.spec) or not self.prot.hide_spec_l2_fill:
                    self.l2.install(e.addr)
                at = cycle + self.cfg.l1_lat
                for parent in e.parents:
                    parent.deliver_at = at
                    heappush(self._events,
                             (at, parent.file.rank, parent.seq, parent))
                    parent.child = None
        else:
            self._deliver_l1(e, cycle)
        self._free_entry(e)

    def _deliver_l1(self, entry, cycle):
        """An L1 completion: install the line and wake its targets."""
        core, kind, line = entry.core, entry.file.kind, entry.addr
        prot = self.prot
        # a speculative copy of a line another core has taken Exclusive
        # meanwhile is non-coherent: its loads are replayed at commit
        noncoherent = False
        if entry.spec and prot.side_buffer:
            if kind == "i":
                g = self.ighost[core]
            else:
                g = self.dghost[core]
                noncoherent = prot.noncoherent_forward \
                    and self.owner.get(line, core) != core
            g.fill(line, entry.ts, noncoherent=noncoherent)
        else:
            self._install_l1(core, kind, line, dirty=entry.is_write)
        for tcore, instr in entry.targets:
            self.cores[tcore].mem_ready(instr, line, cycle, noncoherent)
        if entry.is_write:   # only L1D entries are writes
            self.owner[line] = core

    # ------------------------------------------------------------ snapshots

    def nonspec_sets(self):
        """The non-empty sets of every L1D, every L1I and the L2, in that
        order: equal for two memory systems exactly when their
        non-speculative caches hold the same lines, each equally dirty."""
        return [c.used_sets() for c in (*self.l1d, *self.l1i, self.l2)]

    def check_invariants(self):
        """An owner holds its line in its L1D; no line is in both an L1 and
        its side buffer; with non-coherent forwarding, a side-buffer copy
        of a line another core owns is flagged non-coherent.  That an
        owner is its line's only holder is not checked."""
        for line, core in self.owner.items():
            assert self.l1d[core].lookup(line), \
                f"owner {core} of line {line:#x} does not hold it"
        for core, dghost in enumerate(self.dghost):
            for kind, l1, g in (("d", self.l1d[core], dghost),
                                ("i", self.l1i[core], self.ighost[core])):
                for way in g.valid_lines():
                    assert not l1.lookup(way.tag), \
                        f"line {way.tag:#x} in both L1{kind} and its side buffer"
            if self.prot.noncoherent_forward:
                for way in dghost.valid_lines():
                    if not way.noncoherent:
                        assert self.owner.get(way.tag, core) == core, \
                            f"unflagged speculative copy of {way.tag:#x} with remote owner"
