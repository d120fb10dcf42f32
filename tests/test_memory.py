"""Memory hierarchy observed through timed programs: hit/miss latencies,
LRU eviction, the stride prefetcher, and speculative-fill containment.
"""

import operator
import random
from dataclasses import replace

import pytest

from ghostsim import Machine, RunConfig, harness, load_program
from ghostsim.config import MODES
from ghostsim.gadgets import GADGETS
from ghostsim.ghost_cache import GhostCache
from ghostsim.memory import Cache, MemorySystem

from programs import L1I_EVICTION, MP_CORE0, MP_CORE1

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
    return MemorySystem(RunConfig(mode=mode), ncores, operator.le)


def _buffered(g):
    """The lines a side buffer holds valid."""
    return {way.tag for way in g.valid_lines()}


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
        assert c.used_sets() == {0: {0x000: True, 0x080: True}}
        assert c.install(0x100) == (0x000, True)   # 0x080 was refreshed

    def test_mark_dirty(self):
        c = Cache(2, 2)
        c.install(0x000)
        c.install(0x080)
        c.mark_dirty(0x000)
        c.mark_dirty(0x0C0)                        # absent: no effect
        assert c.used_sets() == {0: {0x000: True, 0x080: False}}
        assert c.install(0x100) == (0x000, True)   # marking leaves recency

    def test_invalidate_says_whether_present(self):
        c = Cache(2, 2)
        c.install(0x000)
        assert c.invalidate(0x000) is True
        assert c.invalidate(0x000) is False
        assert not c.lookup(0x000) and c.used_sets() == {}

    def test_contents_ignore_replacement_order(self):
        a, b = Cache(2, 2), Cache(2, 2)
        for line in (0x000, 0x040, 0x080):
            a.install(line, dirty=line == 0x040)
        for line in (0x080, 0x000, 0x040):
            b.install(line, dirty=line == 0x040)
        b.touch(0x080)
        assert a.used_sets() == b.used_sets() == {
            0: {0x000: False, 0x080: False}, 1: {0x040: True}}


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
            mem.prefetch_notify(pc, 0x2000 + 64 * i, cyc)
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
        # only loads whose line came from below the L1 train the table:
        # committed stores put the 16 lines in the L1D, so the strided
        # loads that follow all hit there and leave every entry empty
        body = [
            "li r1, 0",
            "li r2, 16",
            "warm:",
            "slli r3, r1, 6",
            "st r1, r3, 0x2000",
            "addi r1, r1, 1",
            "bne r1, r2, warm",
            "fence",
            "li r1, 0",
            "loop:",
            "slli r3, r1, 6",
            "ld r4, r3, 0x2000",
            "fence",
            "addi r1, r1, 1",
            "bne r1, r2, loop",
        ]
        for mode in MODES:
            m = run(body, mode=mode)
            assert m.read_word(0x2000 + 64 * 15) == 15
            assert m.mem.counters["prefetches_issued"] == 0, mode
            assert all(e is None for e in m.mem.rpt), mode

    def test_no_prefetch_without_stride(self):
        m = run([".word 0x2000 1"]
                + timed_load(0x2000, 0) + timed_load(0x9000, 1)
                + timed_load(0x4440, 2))
        assert m.mem.counters["prefetches_issued"] == 0


def wrong_path_load(addr):
    """An untrained branch is taken; the fall-through (wrong-path) load of
    ``addr`` runs transiently while the branch input crawls in."""
    return [
        ".word 0x2000 0",
        "ld r1, r0, 0x2000",     # cold: delays the branch
        "bge r1, r0, out",       # taken (0 >= 0), predicted not-taken
        f"ld r2, r0, {addr}",    # transient
        "out:",
        "fence",
    ]


class TestSpeculativeContainment:
    def _wrong_path_load(self, mode):
        m = run(wrong_path_load(0x7000), mode=mode)
        line = 0x7000 & ~63
        return m, bool(m.mem.l1d[0].lookup(line) or m.mem.l2.lookup(line))

    def test_unsafe_pollutes_caches(self):
        m, present = self._wrong_path_load("unsafe")
        assert present

    def test_ghostminion_leaves_no_trace(self):
        m, present = self._wrong_path_load("ghostminion")
        assert not present
        # and the side buffer itself was wiped at squash
        assert (0x7000 & ~63) not in _buffered(m.mem.dghost[0])
        assert m.mem.counters["flush_count"] > 0

    def test_committed_load_is_extracted_to_l1(self):
        # a committed speculative-turned-architectural load moves from
        # the side buffer into the L1 at commit
        m = run([".word 0x5000 9"] + timed_load(0x5000, 0),
                mode="ghostminion")
        line = 0x5000 & ~63
        assert m.mem.l1d[0].lookup(line)
        assert line not in _buffered(m.mem.dghost[0])
        assert m.mem.counters["lines_extracted"] > 0


class TestPurityComparison:
    """Ablation purity compares the lines each cache holds, whatever their
    LRU order and whichever sets a run only looked up: a lookup allocates
    its set, empty."""

    def test_order_and_probed_sets_are_ignored(self):
        a, b = _mem(), _mem()
        # 0x1000 and 0x2000 share L1 set 0, 0x1040 is in set 1
        for line in (0x1000, 0x2000, 0x1040):
            a.l1d[0].install(line)
            a.l2.install(line, dirty=line == 0x2000)
        for line in (0x1040, 0x2000, 0x1000):
            b.l1d[0].install(line)
            b.l2.install(line, dirty=line == 0x2000)
        assert not b.l1d[0].lookup(0x7080) and not b.l2.lookup(0x7080)
        assert set(a.l1d[0].lines) < set(b.l1d[0].lines)
        assert set(a.l2.lines) < set(b.l2.lines)
        assert a.nonspec_sets() == b.nonspec_sets()
        b.l2.mark_dirty(0x1000)
        assert a.nonspec_sets() != b.nonspec_sets()

    def test_wrong_path_probe_is_pure(self):
        # only the normal run's transient load looks up L1D set 1 (0x7040);
        # the ablated run renames it as a no-op
        text = "\n".join(wrong_path_load(0x7040)) + "\nhalt\n"
        cfg = RunConfig(warm_icache=True)
        programs = [load_program(text)]
        m1 = Machine(programs, cfg)
        m1.run()
        m2 = Machine(programs, cfg, normal=m1)
        m2.run(m1.cycle)
        assert m1.mem.l1d[0].lines.get(1) == {}
        assert 1 not in m2.mem.l1d[0].lines
        assert m1.mem.nonspec_sets() == m2.mem.nonspec_sets()
        res = harness.run_ablation([text], cfg)
        assert res.verdict == "PASS" and res.pure


class TestStoreMergesIntoLoadMiss:
    @pytest.mark.parametrize("mode", MODES)
    def test_line_ends_dirty(self, mode):
        # the younger load misses first and the committing store merges
        # into its in-flight miss; the store's write must not be lost
        # when the line arrives, whether or not the load was speculative
        m = run(["li r1, 7", "st r1, r0, 0x1000", "ld r2, r0, 0x1008"],
                mode=mode)
        l1 = m.mem.l1d[0]
        assert l1.used_sets()[(0x1000 >> 6) % l1.sets][0x1000] is True
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
        assert l1.lookup(self.A) and self.A not in _buffered(g)
        assert mem.counters["lines_extracted"] == 1
        other = mem.l1d[0] if kind == "i" else mem.l1i[0]
        assert other.used_sets() == {}

    def test_noncoherent_copy_is_dropped_not_installed(self):
        mem = _mem()
        g, l1 = self._sides(mem, "d")
        g.fill(self.A, 5, noncoherent=True)
        assert mem.commit_extract(0, "d", self.A, 5) is False
        assert self.A not in _buffered(g) and not l1.lookup(self.A)
        assert mem.counters["lines_extracted"] == 1

    def test_younger_copy_stays_and_l1_is_untouched(self):
        mem = _mem()
        g, l1 = self._sides(mem, "d")
        l1.install(self.B)
        l1.install(self.C)
        g.fill(self.A, 9)
        assert mem.commit_extract(0, "d", self.A, 5) is False
        assert self.A in _buffered(g) and not l1.lookup(self.A)
        assert mem.counters["lines_extracted"] == 0
        assert l1.install(self.A) == (self.B, False)   # recency unchanged

    @pytest.mark.parametrize("buffered", [None, "OTHER", "evicted"])
    def test_committed_l1_line_becomes_mru(self, buffered):
        # buffered: the side-buffer set was never filled, holds another
        # line, or holds only free ways
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
        assert (self.OTHER in _buffered(g)) == (buffered == "OTHER")

    @pytest.mark.parametrize("kind", ["d", "i"])
    def test_unsafe_l1_line_becomes_mru(self, kind):
        # in unsafe the side buffer is empty: a committed L1 line is only
        # touched, and an absent line is left absent
        mem = _mem(mode="unsafe")
        l1 = self._sides(mem, kind)[1]
        l1.install(self.A)
        l1.install(self.B)
        assert mem.commit_extract(0, kind, self.A, 5) is True
        # absent: no effect
        assert mem.commit_extract(0, kind, self.C, 5) is False
        assert l1.install(self.C) == (self.B, False)
        assert l1.lookup(self.A)
        assert mem.counters["lines_extracted"] == 0


class TestUnsafeSideBuffers:
    """``unsafe`` builds the same side buffers as the other modes but
    never fills them: every gadget at every secret, 20 ablated fuzz
    programs and the MP pair leave them empty and their counters at 0."""

    def test_never_filled(self, monkeypatch):
        built = []
        fills = []
        init, fill = GhostCache.__init__, GhostCache.fill

        def recorded_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        def recorded_fill(self, *args, **kwargs):
            fills.append(args)
            return fill(self, *args, **kwargs)
        monkeypatch.setattr(GhostCache, "__init__", recorded_init)
        monkeypatch.setattr(GhostCache, "fill", recorded_fill)
        cfg = RunConfig(mode="unsafe")
        for g in GADGETS.values():
            for s in g.secrets:
                harness.run(g.programs(s), replace(cfg, **g.cfg_overrides))
        rng = random.Random(0)
        for _ in range(20):
            harness.run_ablation([harness._gen_program(rng)], cfg)
        harness.run([MP_CORE0, MP_CORE1], cfg)
        assert fills == []
        assert built
        for g in built:
            assert g.lines == {}
            for key in ("flush_count", "lines_extracted", "timeguard_blocks",
                        "fills_rejected"):
                assert g.counters[key] == 0, key


class TestSingleCoreDirectory:
    """Coherence is kept for any number of cores: after a one-core run,
    core 0 owns every line of its L1D, stored lines dirty (Modified) and
    loaded ones clean (Exclusive)."""

    @pytest.mark.parametrize("mode", MODES)
    def test_directory_holds_the_l1d_lines(self, mode):
        m = run([".word 0x2000 5", "li r1, 7", "st r1, r0, 0x1000"]
                + timed_load(0x2000, 0), mode=mode, check_invariants=True)
        dirty = {t: d for st in m.mem.l1d[0].lines.values()
                 for t, d in st.items()}
        assert dirty and m.mem.owner == dict.fromkeys(dirty, 0)
        assert dirty[0x1000] and dirty[RESULT] and not dirty[0x2000]


class TestInstructionLines:
    @pytest.mark.parametrize("mode", MODES)
    def test_evicted_instruction_line_is_dropped(self, mode):
        # a one-line L1I: the HALT's line evicts the first; the owner map
        # covers the L1D only, so it stays empty
        m = Machine([load_program(L1I_EVICTION)],
                    RunConfig(mode=mode, l1_sets=1, l1_ways=1,
                              check_invariants=True))
        m.run()
        assert m.mem.l1i[0].used_sets() == {0: {64: False}}
        assert m.mem.owner == {}


class TestReplayAccess:
    def test_replay_without_side_buffer_downgrades_the_owner(self):
        # with an empty side buffer to clear, a replay is a non-speculative
        # access: the remote Exclusive copy becomes Shared, for coh_lat,
        # and the miss then starts
        mem = _mem(2, mode="unsafe")
        mem._install_l1(1, "d", 0x2000)
        assert mem.owner == {0x2000: 1}
        instr = type("Load", (), {"ts": 3})()
        assert mem.replay_access(0, instr, 0x2000, 10) is None
        assert mem.owner == {}
        assert mem.l1d[1].used_sets() == {0: {0x2000: False}}
        assert mem.counters["replays"] == 1
        entry, = mem.l1d_file[0].entries
        assert entry.targets == [(0, instr)] and not entry.spec
        cfg = mem.cfg
        assert entry.child.deliver_at == 10 + cfg.coh_lat + cfg.l2_lat \
            + cfg.mem_lat


class TestSharedDirty:
    """A core that installs a line another core holds Modified demotes it
    to Shared without a write-back: the dirty bit stays, ownership goes."""

    def test_dirty_line_need_not_be_owned(self):
        mem = _mem(2)
        cfg = mem.cfg
        instr = type("Instr", (), {"ts": 3})()
        mem._install_l1(1, "d", 0x2000)
        assert mem.store_access(1, instr, 0x2000, 10) == 10 + cfg.l1_lat
        mem._install_l1(0, "d", 0x2000)
        assert mem.owner == {}
        assert mem.l1d[1].used_sets() == {0: {0x2000: True}}
        # no owner to downgrade: no coh_lat, and nothing is written back
        assert mem.replay_access(0, instr, 0x2000, 20) == 20 + cfg.l1_lat
        assert mem.l1d[1].used_sets() == {0: {0x2000: True}}
        assert not mem.l2.lookup(0x2000)
        mem.check_invariants()
        # core 1's eviction writes its dirty copy back to the L2
        for way in range(1, cfg.l1_ways + 1):
            mem._install_l1(1, "d", 0x2000 + way * cfg.l1_sets * 64)
        assert not mem.l1d[1].lookup(0x2000)
        assert mem.l2.used_sets()[0][0x2000] is True


class TestInvariantChecks:
    """``check_invariants`` names the invariant a state breaks."""

    def test_owner_without_its_line(self):
        mem = _mem()
        mem._install_l1(0, "d", 0x2000)
        mem.l1d[0].invalidate(0x2000)
        with pytest.raises(AssertionError,
                           match="owner 0 of line 0x2000 does not hold it"):
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
