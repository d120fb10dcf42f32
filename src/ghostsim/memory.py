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

One event heap holds every timed action: each miss delivery, queued when
its latency is set, and each background fill or prefetch.  In a cycle the
L2, then each core's L1D and L1I deliver, each file's misses in creation
order, then the actions run in scheduling order.  A delivery whose miss
was since freed, restarted or handed to the L2 is skipped.
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
    the sets a run used.  A set that was only looked up exists, empty."""

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

    def touch(self, line_addr):
        st = self._set(line_addr)
        if line_addr in st:
            st[line_addr] = st.pop(line_addr)

    def mark_dirty(self, line_addr, dirty=True):
        st = self._set(line_addr)
        if line_addr in st:
            st[line_addr] = dirty

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

    def find(self, addr, core=None):
        for e in self.entries:
            if e.addr == addr and (core is None or e.core == core):
                return e
        return None

    def full(self):
        return len(self.entries) >= self.cap


class MemorySystem:
    def __init__(self, cfg, ncores, not_after):
        self.cfg = cfg
        self.ncores = ncores
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

    # ------------------------------------------------------------------ util

    def _bump(self, key):
        self.counters[key] += 1

    def _lru_visible(self, spec):
        """Replacement state is soft state: under protection it may only be
        updated by non-speculative activity."""
        return (not spec) or not self.prot.hide_spec_lru

    def _ghost_for(self, core, kind):
        return self.ighost[core] if kind == "i" else self.dghost[core]

    def _l1_for(self, core, kind):
        return self.l1i[core] if kind == "i" else self.l1d[core]

    def _deliver_at(self, entry, cycle):
        entry.deliver_at = cycle
        heappush(self._events, (cycle, entry.file.rank, entry.seq, entry))

    def at(self, cycle, fn):
        heappush(self._events, (cycle, self._action_rank, next(self._seq), fn))

    # ------------------------------------------------------------- coherence

    def _remote_owner(self, line, core):
        """Core id holding this line Exclusive/Modified in a remote L1."""
        owner = self.owner.get(line)
        return owner if owner != core else None

    def _downgrade(self, line, requester):
        """A remote Exclusive/Modified copy is demoted to Shared; a dirty
        copy is written back to the L2.  Returns True if any state changed."""
        owner = self._remote_owner(line, requester)
        if owner is None:
            return False
        l1 = self.l1d[owner]
        if l1.lines[(line >> l1.line_shift) % l1.sets][line]:
            # dirty data is written back to the shared L2; the owner keeps
            # a clean Shared copy
            self.l2.install(line, dirty=True)
            l1.mark_dirty(line, False)
        del self.owner[line]
        return True

    def upgrade_for_store(self, line, core):
        """Acquire Modified for a committing store.  Remote L1 and side
        buffer copies are invalidated in constant time.  Returns the extra
        latency paid (0 when the line was already exclusively held)."""
        cost = 0
        for c in range(self.ncores):
            if c == core:
                continue
            if self.l1d[c].invalidate(line):
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
        l1 = self._l1_for(core, kind)
        evicted = l1.install(line, dirty)
        # a line never lives in both structures
        self._ghost_for(core, kind).invalidate(line)
        if kind == "d":
            if any(other.lookup(line) for c, other in enumerate(self.l1d)
                   if c != core):
                # every copy is now Shared
                self.owner.pop(line, None)
            else:
                self.owner[line] = core
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

    def _wake(self, file):
        if not file.waiters:
            return
        waiters, file.waiters = file.waiters, []
        for core, instr in waiters:
            self.cores[core].mem_retry(instr)

    def _free_entry(self, entry):
        file = entry.file
        file.entries.remove(entry)
        entry.deliver_at = None
        self._wake(file)

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
        entry.targets = []
        for parent in entry.parents:
            parent.child = None
            self._cancel_entry(parent, blocking_file)
        entry.parents = []
        self._orphan_child(entry)
        self._free_entry(entry)

    def _mshr_request(self, file, line, ts, core, spec, cycle, *,
                      target=None, parent=None, is_write=False):
        """Returns the entry the request waits on, or None if it must wait
        for a free register and retry."""
        prot = self.prot
        merge_core = core if (prot.merge_core and file is self.l2_file) \
            else None
        existing = file.find(line, merge_core)
        if existing is not None:
            if is_write:
                # a committing store makes the miss non-speculative: the
                # line must reach the L1 dirty, not the side buffer, and
                # the L2 must keep it as for any store miss
                existing.is_write = True
                e = existing
                while e is not None:
                    e.spec = False
                    e = e.child
            restart = prot.timeleap and existing.ts != ts \
                and self.not_after(ts, existing.ts)
            if restart:
                # timeleap: the older request restarts the miss so its
                # timing is unaffected by the younger in-flight one
                self._bump("timeleaps")
                existing.ts = ts
                existing.spec = spec
                existing.core = core
                self._orphan_child(existing)
            entry = existing
        else:
            if file.full():
                victim = None
                if prot.leapfrog:
                    for e in file.entries:
                        if merge_core is not None and e.core != core:
                            continue
                        if victim is None or self.not_after(victim.ts, e.ts):
                            victim = e
                    if victim is not None and self.not_after(ts, victim.ts) \
                            and victim.ts != ts:
                        self._bump("mshr_leapfrogs")
                        self._cancel_entry(victim, file)
                    else:
                        victim = None
                if victim is None:
                    self._bump("retries")
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
        if entry.file is self.l2_file:
            self._deliver_at(entry, cycle + cfg.l2_lat + cfg.mem_lat)
            return True
        if self.l2.lookup(entry.addr):
            if self._lru_visible(entry.spec):
                self.l2.touch(entry.addr)
            self._deliver_at(entry, cycle + cfg.l1_lat + cfg.l2_lat)
            return True
        entry.deliver_at = None
        if self._mshr_request(self.l2_file, entry.addr, entry.ts, entry.core,
                              entry.spec, cycle, parent=entry):
            return True
        self._cancel_entry(entry, self.l2_file)
        return False

    # ------------------------------------------------------------- accesses
    #
    # Each access returns its ready cycle on a hit (a load also gets
    # whether its line came from below the L1, and the noncoherent flag)
    # or None on a miss.  A miss leaves the target (core, instr) waiting,
    # instr None for an instruction fetch.  The memory system then calls
    # the core's mem_ready(instr, line, cycle, noncoherent) when the line is
    # delivered, or mem_retry(instr) when a miss-register file had no room
    # or the miss was cancelled, after which the access is made again.

    def _l1_hit(self, l1, line, spec):
        if not l1.lookup(line):
            return False
        if self._lru_visible(spec):
            l1.touch(line)
        return True

    def data_access(self, core, instr, line, ts, spec, cycle):
        """A load reaching the memory system: (ready, from_below,
        noncoherent) on a hit, None on a miss.  A side-buffer line and a
        copy forwarded from another core came from below the L1.  A
        side-buffer set never filled holds no line and is not searched,
        here and in ``ifetch_access``."""
        cfg = self.cfg
        g = self.dghost[core]
        if g.lines.get((line >> g.line_shift) % g.sets):
            hit = g.lookup(line, ts)
            if hit is not None:
                return (cycle + cfg.l1_lat, True, hit.noncoherent)
        l1 = self.l1d[core]
        st = l1.lines[(line >> l1.line_shift) % l1.sets]
        if line in st:
            if not spec or not self.prot.hide_spec_lru:
                st[line] = st.pop(line)   # Cache.touch
            return (cycle + cfg.l1_lat, False, False)
        if self._remote_owner(line, core) is not None:
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
                        self.dghost[core].fill(line, ts, noncoherent=True)
                self.at(ready, fill)
                return (ready, True, True)
            self._downgrade(line, core)
            cycle += cfg.coh_lat
        self._mshr_request(self.l1d_file[core], line, ts, core, spec, cycle,
                           target=(core, instr))
        return None

    def ifetch_access(self, core, line, ts, cycle):
        g = self.ighost[core]
        if g.lines.get((line >> g.line_shift) % g.sets) \
                and g.lookup(line, ts) is not None \
                or self._l1_hit(self.l1i[core], line, True):
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
        self._bump("replays")
        self.dghost[core].invalidate(line)
        if self._downgrade(line, core):
            cycle += self.cfg.coh_lat
        return self._commit_access(core, instr, line, cycle, is_write=False)

    def _commit_access(self, core, instr, line, cycle, is_write):
        l1 = self.l1d[core]
        if self._l1_hit(l1, line, False):
            if is_write:   # upgrade_for_store has made the line Modified
                l1.mark_dirty(line)
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
            st[line] = st.pop(line)   # Cache.touch
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
        if e[3] >= cfg.rpt_confidence and e[2] != 0:
            nxt = line + e[2]
            if nxt >= 0 and not self.l2.lookup(nxt):
                self._bump("prefetches_issued")
                self.at(cycle + cfg.mem_lat, lambda a=nxt: self.l2.install(a))

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
        """Deliver the misses and run the background actions due this
        cycle.  Returns whether anything happened.  ``Machine.run`` calls
        it only when the top of ``_events`` is due."""
        events = self._events
        progress = False
        actions = []
        # a delivery this pushes for this cycle (l1_lat = 0) is popped too
        while events and events[0][0] <= cycle:
            at, rank, seq, what = heappop(events)
            if rank == self._action_rank:
                actions.append((seq, what))
            elif what.deliver_at == at:
                progress = True
                self._deliver(what, at)
        # an action scheduled for a cycle whose tick had already run is
        # due now, after this cycle's deliveries
        for _, fn in sorted(actions):
            fn()
        return progress or bool(actions)

    def _deliver(self, e, cycle):
        if e.file is self.l2_file:
            # an L2 completion feeds its parent L1 misses after the L1 transit
            if e.parents:   # else orphaned: every requester was cancelled
                if (not e.spec) or not self.prot.hide_spec_l2_fill:
                    self.l2.install(e.addr)
                for parent in e.parents:
                    self._deliver_at(parent, cycle + self.cfg.l1_lat)
                    parent.child = None
            e.parents = []
        else:
            self._deliver_l1(e, cycle)
        self._free_entry(e)

    def next_event(self, cycle):
        """The cycle of the first queued delivery or background action,
        dropping stale deliveries from the heap; inf if none."""
        events = self._events
        while events:
            at, rank, _, what = events[0]
            if rank == self._action_rank or what.deliver_at == at:
                return at
            heappop(events)
        return float("inf")

    def _deliver_l1(self, entry, cycle):
        """An L1 completion: install the line and wake its targets."""
        core, kind = entry.core, entry.file.kind
        # a speculative copy of a line another core has taken Exclusive
        # meanwhile is non-coherent: its loads are replayed at commit
        noncoherent = False
        if entry.spec and self.prot.side_buffer:
            noncoherent = (kind == "d" and self.prot.noncoherent_forward
                           and self._remote_owner(entry.addr, core) is not None)
            self._ghost_for(core, kind).fill(entry.addr, entry.ts,
                                             noncoherent=noncoherent)
        else:
            self._install_l1(core, kind, entry.addr, dirty=entry.is_write)
        for tcore, instr in entry.targets:
            self.cores[tcore].mem_ready(instr, entry.addr, cycle, noncoherent)
        entry.targets = []
        if entry.is_write:   # only L1D entries are writes
            self.owner[entry.addr] = core

    # ------------------------------------------------------------ snapshots

    def nonspec_sets(self):
        """The non-empty sets of every L1D, every L1I and the L2, in that
        order: equal for two memory systems exactly when their
        non-speculative caches hold the same lines, each equally dirty."""
        return [c.used_sets() for c in (*self.l1d, *self.l1i, self.l2)]

    def check_invariants(self):
        """Exclusivity, cleanliness, and coherence safety: an owner holds
        its line in its L1D."""
        for line, core in self.owner.items():
            assert self.l1d[core].lookup(line), \
                f"owner {core} of line {line:#x} does not hold it"
        for core in range(self.ncores):
            for kind in ("d", "i"):
                l1 = self._l1_for(core, kind)
                for way in self._ghost_for(core, kind).valid_lines():
                    assert not l1.lookup(way.tag), \
                        f"line {way.tag:#x} in both L1{kind} and its side buffer"
            if self.prot.noncoherent_forward:
                for way in self.dghost[core].valid_lines():
                    if not way.noncoherent:
                        assert self._remote_owner(way.tag, core) is None, \
                            f"unflagged speculative copy of {way.tag:#x} with remote owner"
