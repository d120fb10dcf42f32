"""Memory hierarchy observed through timed programs: hit/miss latencies,
LRU eviction, the stride prefetcher, and speculative-fill containment.
"""

import pytest

from ghostsim import Machine, RunConfig, load_program
from ghostsim.config import MODES
from ghostsim.memory import Cache, MemorySystem
from ghostsim.order import ts_not_after

from programs import L1I_EVICTION

RESULT = 0xC080


def timed_load(addr, slot):
    return [
        "fence", "rdcycle r12", f"ld r13, r0, {addr}",
        "fence", "rdcycle r13", "sub r14, r13, r12",
        f"st r14, r0, {RESULT + 8 * slot}",
    ]


def run(lines, **cfg_kw):
    m = Machine([load_program("\n".join(lines) + "\nhalt\n")],
                RunConfig(warm_icache=True, **cfg_kw))
    m.run()
    return m


def deltas(m, n):
    return [m.read_word(RESULT + 8 * i) for i in range(n)]


def _mem(ncores=1, mode="ghostminion"):
    return MemorySystem(RunConfig(mode=mode), ncores,
                        lambda a, b: ts_not_after(a, b, 128))


class TestCache:
    """LRU replacement and dirty bits of one tag store, driven directly.
    Lines 0x000, 0x080 and 0x100 share set 0 of a two-set cache."""

    def test_eviction_takes_least_recently_used(self):
        c = Cache(2, 2)
        assert c.install(0x000) is None and c.install(0x080) is None
        assert c.install(0x040) is None            # set 1 is separate
        assert c.install(0x100) == (0x000, False)
        assert not c.lookup(0x000) and c.lookup(0x080) and c.lookup(0x100)

    def test_touch_refreshes_recency(self):
        c = Cache(2, 2)
        c.install(0x000)
        c.install(0x080)
        c.touch(0x000)
        c.touch(0x0C0)                             # absent: no effect
        assert c.install(0x100) == (0x080, False)
        assert c.lookup(0x000)

    def test_reinstall_ors_dirty_bit_and_refreshes(self):
        c = Cache(2, 2)
        c.install(0x000, dirty=True)
        c.install(0x080)
        assert c.install(0x000) is None            # stays dirty
        c.install(0x080, dirty=True)
        assert c.contents() == {(0, 0x000, True), (0, 0x080, True)}
        assert c.install(0x100) == (0x000, True)   # 0x080 was refreshed

    def test_mark_dirty(self):
        c = Cache(2, 2)
        c.install(0x000)
        c.install(0x080)
        c.mark_dirty(0x000)
        c.mark_dirty(0x0C0)                        # absent: no effect
        assert c.contents() == {(0, 0x000, True), (0, 0x080, False)}
        assert c.install(0x100) == (0x000, True)   # marking leaves recency

    def test_invalidate_says_whether_present(self):
        c = Cache(2, 2)
        c.install(0x000)
        assert c.invalidate(0x000) is True
        assert c.invalidate(0x000) is False
        assert not c.lookup(0x000) and c.contents() == frozenset()

    def test_contents_ignore_replacement_order(self):
        a, b = Cache(2, 2), Cache(2, 2)
        for line in (0x000, 0x040, 0x080):
            a.install(line, dirty=line == 0x040)
        for line in (0x080, 0x000, 0x040):
            b.install(line, dirty=line == 0x040)
        b.touch(0x080)
        assert a.contents() == b.contents() == {
            (0, 0x000, False), (0, 0x080, False), (1, 0x040, True)}


class TestLatencies:
    """Oracle: a fence/rdcycle-bracketed load costs one cycle for the
    dependent rdcycle plus the access latency: l1_lat for an L1 hit,
    l1 + l2 for an L2 hit, l1 + l2 + mem for a full miss.  Defaults
    (2, 20, 100) give deltas 3, 23, 123."""

    def test_cold_then_hot(self):
        m = run([".word 0x2000 5"]
                + timed_load(0x2000, 0) + timed_load(0x2000, 1))
        assert deltas(m, 2) == [123, 3]

    def test_l2_hit_after_l1_eviction_unsafe(self):
        # 0x2000, 0x2800, 0x3000 share an L1 set (32 sets x 64 B); the
        # two-way L1 evicts the first.  In unsafe mode every miss also
        # installed in the L2, so the re-access is an L2 hit.
        body = timed_load(0x2000, 0)
        for a in (0x2800, 0x3000):
            body += [f"ld r9, r0, {a}", "fence"]
        body += timed_load(0x2000, 1)
        m = run(body, mode="unsafe")
        assert deltas(m, 2) == [123, 23]

    def test_clean_eviction_drops_line_under_protection(self):
        # under ghostminion the line was extracted into the L1 only; a
        # clean eviction drops it and the re-access is a full miss again
        body = timed_load(0x2000, 0)
        for a in (0x2800, 0x3000):
            body += [f"ld r9, r0, {a}", "fence"]
        body += timed_load(0x2000, 1)
        m = run(body, mode="ghostminion")
        assert deltas(m, 2) == [123, 123]

    def test_dirty_eviction_writes_back_to_l2(self):
        # a stored-to (dirty) line is written back on eviction and the
        # re-access hits in the L2
        body = ["li r8, 5", "st r8, r0, 0x2000", "fence"]
        for a in (0x2800, 0x3000):
            body += [f"ld r9, r0, {a}", "fence"]
        body += timed_load(0x2000, 0)
        m = run(body, mode="ghostminion")
        assert deltas(m, 1) == [23]
        assert m.read_word(0x2000) == 5

    def test_latencies_follow_config(self):
        m = run([".word 0x2000 5"] + timed_load(0x2000, 0),
                l1_lat=1, l2_lat=4, mem_lat=8)
        assert deltas(m, 1) == [1 + 1 + 4 + 8]


class TestPrefetcher:
    def test_rpt_training_and_install(self):
        # unit-level: three same-pc accesses at a constant line stride
        # reach the confidence threshold and schedule an L2 install of
        # the next line mem_lat cycles later
        mem = _mem()
        pc = 0x40
        for i, cyc in enumerate((0, 10, 20)):
            mem.prefetch_notify(pc, 0x2000 + 64 * i, True, cyc)
        assert mem.counters["prefetches_issued"] == 1
        assert not mem.l2.lookup(0x2000 + 64 * 3)
        mem.tick(20 + mem.cfg.mem_lat)
        assert mem.l2.lookup(0x2000 + 64 * 3)

    def test_stride_stream_trains_and_prefetches(self):
        # end to end: a strided load loop trains the prefetcher and
        # prefetched lines sit in the L2 (demand misses do not install
        # there under protection; the very last prefetch is still in
        # flight at HALT, so check the second-to-last line)
        body = [
            "li r1, 0",
            "li r2, 16",
            "loop:",
            "slli r3, r1, 6",
            "ld r4, r3, 0x2000",
            "fence",
            "addi r1, r1, 1",
            "bne r1, r2, loop",
        ]
        m = run(body)
        assert m.mem.counters["prefetches_issued"] > 0
        assert m.mem.l2.lookup(0x2000 + 64 * 15)

    def test_l1_hits_do_not_train(self):
        # only accesses whose line came from below the L1 train the table
        mem = _mem()
        for i, cyc in enumerate((0, 10, 20, 30)):
            mem.prefetch_notify(0x40, 0x2000 + 64 * i, False, cyc)
        assert mem.counters["prefetches_issued"] == 0

    def test_no_prefetch_without_stride(self):
        m = run([".word 0x2000 1"]
                + timed_load(0x2000, 0) + timed_load(0x9000, 1)
                + timed_load(0x4440, 2))
        assert m.mem.counters["prefetches_issued"] == 0


class TestSpeculativeContainment:
    def _wrong_path_load(self, mode):
        # untrained branch is taken; the fall-through (wrong-path) load
        # of 0x7000 runs transiently while the branch input crawls in
        body = [
            ".word 0x2000 0",
            "ld r1, r0, 0x2000",     # cold: delays the branch
            "bge r1, r0, out",       # taken (0 >= 0), predicted not-taken
            "ld r2, r0, 0x7000",     # transient
            "out:",
            "fence",
        ]
        m = run(body, mode=mode)
        line = 0x7000 & ~63
        return m, bool(m.mem.l1d[0].lookup(line) or m.mem.l2.lookup(line))

    def test_unsafe_pollutes_caches(self):
        m, present = self._wrong_path_load("unsafe")
        assert present

    def test_ghostminion_leaves_no_trace(self):
        m, present = self._wrong_path_load("ghostminion")
        assert not present
        # and the side buffer itself was wiped at squash
        assert not m.mem.dghost[0].has(0x7000 & ~63)
        assert m.mem.counters["flush_count"] > 0

    def test_committed_load_is_extracted_to_l1(self):
        # a committed speculative-turned-architectural load moves from
        # the side buffer into the L1 at commit
        m = run([".word 0x5000 9"] + timed_load(0x5000, 0),
                mode="ghostminion")
        line = 0x5000 & ~63
        assert m.mem.l1d[0].lookup(line)
        assert not m.mem.dghost[0].has(line)
        assert m.mem.counters["lines_extracted"] > 0


class TestStoreMergesIntoLoadMiss:
    @pytest.mark.parametrize("mode", MODES)
    def test_line_ends_dirty(self, mode):
        # the younger load misses first and the committing store merges
        # into its in-flight miss; the store's write must not be lost
        # when the line arrives, whether or not the load was speculative
        m = run(["li r1, 7", "st r1, r0, 0x1000", "ld r2, r0, 0x1008"],
                mode=mode)
        l1 = m.mem.l1d[0]
        assert ((0x1000 >> 6) % l1.sets, 0x1000, True) in l1.contents()
        assert m.read_word(0x1000) == 7

    @pytest.mark.parametrize("mode", MODES)
    def test_line_reaches_l2(self, mode):
        # the merge makes the L2 miss below non-speculative too, so the
        # L2 keeps the line as it does for a store miss with no load
        m = run(["li r1, 7", "st r1, r0, 0x1000", "ld r2, r0, 0x1008"],
                mode=mode)
        assert m.mem.l2.lookup(0x1000)


class TestCommitExtract:
    """Free-slotting at commit, driven directly: ``commit_extract`` moves
    the committing instruction's line from the side buffer into the L1,
    or refreshes its L1 recency when the buffer holds no copy it may
    read, and returns whether the line is in the L1 afterwards.  Lines ``A``, ``B`` and ``C`` share L1 set 0; ``OTHER`` shares
    side-buffer set 0 with ``A`` but not its L1 set."""

    CFG = RunConfig()
    L1_STRIDE = CFG.l1_sets * CFG.line_bytes
    A, B, C = 0x2000, 0x2000 + L1_STRIDE, 0x2000 + 2 * L1_STRIDE
    OTHER = A + CFG.ghost_sets * CFG.line_bytes

    @staticmethod
    def _sides(mem, kind):
        if kind == "i":
            return mem.ighost[0], mem.l1i[0]
        return mem.dghost[0], mem.l1d[0]

    @pytest.mark.parametrize("kind", ["d", "i"])
    def test_visible_line_moves_to_l1(self, kind):
        mem = _mem()
        g, l1 = self._sides(mem, kind)
        g.fill(self.A, 5)
        assert mem.commit_extract(0, kind, self.A, 5) is True
        assert l1.lookup(self.A) and not g.has(self.A)
        assert mem.counters["lines_extracted"] == 1
        other = mem.l1d[0] if kind == "i" else mem.l1i[0]
        assert other.contents() == frozenset()

    def test_noncoherent_copy_is_dropped_not_installed(self):
        mem = _mem()
        g, l1 = self._sides(mem, "d")
        g.fill(self.A, 5, noncoherent=True)
        assert mem.commit_extract(0, "d", self.A, 5) is False
        assert not g.has(self.A) and not l1.lookup(self.A)
        assert mem.counters["lines_extracted"] == 1

    def test_younger_copy_stays_and_l1_is_untouched(self):
        mem = _mem()
        g, l1 = self._sides(mem, "d")
        l1.install(self.B)
        l1.install(self.C)
        g.fill(self.A, 9)
        assert mem.commit_extract(0, "d", self.A, 5) is False
        assert g.has(self.A) and not l1.lookup(self.A)
        assert mem.counters["lines_extracted"] == 0
        assert l1.install(self.A) == (self.B, False)   # recency unchanged

    @pytest.mark.parametrize("buffered", [None, "OTHER", "evicted"])
    def test_committed_l1_line_becomes_mru(self, buffered):
        # buffered: the side-buffer set is empty, holds another line, or
        # holds only an invalid way
        mem = _mem()
        g, l1 = self._sides(mem, "d")
        if buffered == "OTHER":
            g.fill(self.OTHER, 3)
        elif buffered == "evicted":
            g.fill(self.A, 3)
            g.invalidate(self.A)
        l1.install(self.A)
        l1.install(self.B)
        assert mem.commit_extract(0, "d", self.A, 5) is True
        assert l1.install(self.C) == (self.B, False)
        assert l1.lookup(self.A)
        assert mem.counters["lines_extracted"] == 0
        assert g.has(self.OTHER) == (buffered == "OTHER")

    @pytest.mark.parametrize("kind", ["d", "i"])
    def test_unsafe_has_no_side_buffer(self, kind):
        mem = _mem(mode="unsafe")
        assert self._sides(mem, kind)[0] is None
        l1 = self._sides(mem, kind)[1]
        l1.install(self.A)
        l1.install(self.B)
        assert mem.commit_extract(0, kind, self.A, 5) is True
        # absent: no effect
        assert mem.commit_extract(0, kind, self.C, 5) is False
        assert l1.install(self.C) == (self.B, False)
        assert l1.lookup(self.A)
        assert mem.counters["lines_extracted"] == 0


class TestSingleCoreDirectory:
    """The directory is kept for any number of cores: after a one-core
    run it lists exactly the lines of core 0's L1D, stored lines Modified
    and loaded ones Exclusive."""

    @pytest.mark.parametrize("mode", MODES)
    def test_directory_holds_the_l1d_lines(self, mode):
        m = run([".word 0x2000 5", "li r1, 7", "st r1, r0, 0x1000"]
                + timed_load(0x2000, 0), mode=mode, check_invariants=True)
        cached = {t for st in m.mem.l1d[0].lines for t in st}
        assert cached and set(m.mem.directory) == cached
        assert m.mem.directory[0x1000] == {0: "M"}
        assert m.mem.directory[RESULT] == {0: "M"}
        assert m.mem.directory[0x2000] == {0: "E"}


class TestInstructionLines:
    @pytest.mark.parametrize("mode", MODES)
    def test_evicted_instruction_line_is_dropped(self, mode):
        # a one-line L1I: the HALT's line evicts the first; the directory
        # covers the L1D only, so it stays empty
        m = Machine([load_program(L1I_EVICTION)],
                    RunConfig(mode=mode, l1_sets=1, l1_ways=1,
                              check_invariants=True))
        m.run()
        assert m.mem.l1i[0].contents() == {(0, 64, False)}
        assert m.mem.directory == {}


class TestReplayAccess:
    def test_replay_without_side_buffer_downgrades_the_owner(self):
        # with no side buffer to clear, a replay is a non-speculative
        # access: the remote Exclusive copy becomes Shared, for coh_lat,
        # and the miss then starts
        mem = _mem(2, mode="unsafe")
        mem._install_l1(1, "d", 0x2000)
        assert mem.directory[0x2000] == {1: "E"}
        instr = type("Load", (), {"ts": 3})()
        assert mem.replay_access(0, instr, 0x2000, 10) is None
        assert mem.directory[0x2000] == {1: "S"}
        assert mem.counters["replays"] == 1
        entry, = mem.l1d_file[0].entries
        assert entry.targets == [(0, instr)] and not entry.spec
        cfg = mem.cfg
        assert entry.child.deliver_at == 10 + cfg.coh_lat + cfg.l2_lat \
            + cfg.mem_lat


class TestInvariantChecks:
    """``check_invariants`` names the invariant a state breaks."""

    def test_l1d_line_missing_from_directory(self):
        mem = _mem()
        mem.l1d[0].install(0x2000)
        with pytest.raises(AssertionError, match="directory entries differ"):
            mem.check_invariants()

    def test_line_in_both_l1_and_side_buffer(self):
        mem = _mem()
        mem.l1i[0].install(0x2000)
        mem.ighost[0].fill(0x2000, 3)
        with pytest.raises(AssertionError, match="0x2000 in both L1i"):
            mem.check_invariants()

    def test_unflagged_copy_of_a_remote_exclusive_line(self):
        mem = _mem(2)
        mem._install_l1(1, "d", 0x2000)
        mem.dghost[0].fill(0x2000, 3)
        with pytest.raises(AssertionError, match="unflagged speculative"):
            mem.check_invariants()
