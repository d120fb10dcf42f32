"""Core pipeline: determinism, analytic timing oracles, squash
semantics, store forwarding, and equivalence against the sequential
reference interpreter.
"""

import gc
import tracemalloc
from collections import deque
from dataclasses import replace

import pytest

from ghostsim import Machine, RunConfig, load_program
from ghostsim import harness
from ghostsim.config import PROTECTION
from ghostsim.core import WAITING, Core
from ghostsim.isa import DIV, LOAD, STORE, Program
from ghostsim.gadgets import GADGETS
from ghostsim.harness import _gen_program
from ghostsim.machine import SimTimeout
from ghostsim.memory import MemorySystem

from fingerprint import GEOMETRIES
from programs import COUNTED_LOOP, MP_CORE0, MP_CORE1, OLDER_RETRY, UNIT_SLOTS
from ref_model import ref_execute
from test_order import ts_not_after

import random


def run(text, **cfg_kw):
    m = Machine([load_program(text)], RunConfig(**cfg_kw))
    cycles = m.run()
    return m, cycles


def commits(m):
    return [e[:2] for e in m.cores[0].timeline]


class TestDeterminism:
    def test_identical_runs(self):
        text = _gen_program(random.Random(7))
        for mode in ("unsafe", "flush_only", "ghostminion"):
            a, ca = run(text, mode=mode)
            b, cb = run(text, mode=mode)
            assert ca == cb
            assert a.cores[0].timeline == b.cores[0].timeline
            assert a.mem.counters == b.mem.counters


class TestAnalyticTiming:
    """Oracle: a 4-wide machine with a warm instruction cache and 1-cycle
    ALUs.  Fetch of instruction i starts at cycle 2 (L1i hit latency),
    advances one cycle per 4 instructions, and pays a 2-cycle bubble per
    64-byte (16-instruction) line crossing.  Rename, issue, and
    completion each take one cycle, and commit happens the completion
    cycle, so for independent single-cycle ops:

        commit(i) = 5 + i // 4 + 2 * (i // 16)

    A chain of dependent ALU ops instead commits one per cycle:

        commit(i) = 5 + i
    """

    def test_independent_alu_stream(self):
        n = 32
        text = "\n".join(f"li r{1 + i % 7}, {i}" for i in range(n)) + "\nhalt\n"
        m, _ = run(text, warm_icache=True)
        for i in range(n):
            entry = m.cores[0].timeline[i]
            assert entry[6] == 5 + i // 4 + 2 * (i // 16), f"instr {i}"

    def test_dependent_chain(self):
        n = 16
        text = ("li r1, 1\n"
                + "\n".join("add r1, r1, r1" for _ in range(n))
                + "\nhalt\n")
        m, _ = run(text, warm_icache=True)
        for i in range(n + 1):
            assert m.cores[0].timeline[i][6] == 5 + i
        assert m.cores[0].regs[1] == 1 << n

    def test_mul_and_div_latency(self):
        cfg = RunConfig(warm_icache=True)
        text = "li r1, 96\nli r2, 8\nmul r3, r1, r2\ndiv r4, r1, r2\nhalt\n"
        m, _ = run(text, warm_icache=True)
        tl = m.cores[0].timeline
        mul, div = tl[2], tl[3]
        assert mul[5] - mul[4] == cfg.mul_lat
        assert div[5] - div[4] == cfg.div_lat
        assert (mul[7], div[7]) == (768, 12)


class TestNarrowUnits:
    """Fewer units than the issue width: two instructions of one class
    ready in the same cycle issue a cycle apart, oldest first, and a full
    store queue holds rename until a store commits."""

    def test_unit_slots_and_store_queue(self):
        wide, _ = run(UNIT_SLOTS, warm_icache=True)
        tight, _ = run(UNIT_SLOTS, warm_icache=True, **GEOMETRIES["tight"])
        wide, tight = wide.cores[0].timeline, tight.cores[0].timeline
        for a, b in ((0, 1), (2, 3), (4, 5)):   # the li, mul and st pairs
            assert wide[b][4] == wide[a][4]
            assert tight[b][4] == tight[a][4] + 1
        # the third store renames with the others, or when the first
        # store commits
        assert wide[6][3] == wide[4][3]
        assert tight[6][3] == tight[4][6] > tight[4][3]
        assert [e[7] for e in tight] == [e[7] for e in wide]


class TestSquash:
    def test_mispredicted_branch_wrong_path_never_commits(self):
        # untrained branches predict not-taken; this one is taken, so the
        # fall-through store runs transiently and must leave no trace
        text = ("li r1, 1\n"
                "bne r1, r0, out\n"
                "li r2, 99\n"
                "st r2, r0, 0x100\n"
                "out:\n"
                "halt\n")
        m, _ = run(text)
        committed_pcs = [pc for pc, _ in commits(m)]
        assert 8 not in committed_pcs and 12 not in committed_pcs
        assert m.read_word(0x100) == 0
        assert m.cores[0].regs[2] == 0
        ref_stream, ref_regs, ref_words = ref_execute(load_program(text))
        assert commits(m) == ref_stream

    @pytest.mark.parametrize("mode", ["unsafe", "flush_only", "ghostminion"])
    def test_wrong_path_past_the_image_end(self, mode, monkeypatch):
        # the last instruction is a branch predicted not taken whose input
        # misses, so fetch runs on past the image: every address there
        # decodes as a no-op, and the branch's squash still reaches halt
        prog = load_program(".word 0x2000 0\n"
                            "jmp start\n"
                            "end: halt\n"
                            "start: ld r1, r0, 0x2000\n"
                            "beq r1, r0, end\n")
        ref_stream = ref_execute(prog)[0]
        decoded = []
        get = Program.get

        def spy(self, pc):
            si = get(self, pc)
            decoded.append((pc >= prog.end_pc, si.op))
            return si
        monkeypatch.setattr(Program, "get", spy)
        m = Machine([prog], RunConfig(mode=mode))
        m.run()
        assert commits(m) == ref_stream
        assert decoded and set(decoded) == {(True, "nop")}

    def test_taken_branch_trains_predictor(self):
        # a loop branch mispredicts on early iterations, then predicts
        # taken; per-iteration commit spacing settles to the loop length
        text = ("li r1, 8\n"
                "loop:\n"
                "addi r1, r1, -1\n"
                "bne r1, r0, loop\n"
                "halt\n")
        m, _ = run(text, warm_icache=True)
        ref_stream, ref_regs, _ = ref_execute(load_program(text))
        assert commits(m) == ref_stream
        branch_commits = [e[6] for e in m.cores[0].timeline if e[1] == "bne"]
        gaps = [b - a for a, b in zip(branch_commits, branch_commits[1:])]
        # late iterations are squash-free and tighter than early ones
        assert gaps[-1] < gaps[0]

    def test_squash_penalty_observable(self):
        cfg = RunConfig(warm_icache=True)
        text = "li r1, 1\nbne r1, r0, out\nnop\nout:\nhalt\n"
        m, _ = run(text, warm_icache=True)
        tl = m.cores[0].timeline
        br, halt = tl[1], tl[2]
        # redirected fetch restarts after the fixed squash penalty
        assert halt[2] >= br[5] + cfg.squash_penalty

    def test_window_survives_long_programs(self):
        # many more instructions than the ROB holds
        text = ("li r1, 200\n"
                "loop:\n"
                "addi r2, r2, 3\n"
                "xor r3, r2, r1\n"
                "addi r1, r1, -1\n"
                "bne r1, r0, loop\n"
                "halt\n")
        m, _ = run(text)
        assert len(m.cores[0].timeline) == 2 + 200 * 4


class TestUnboundedTimestamps:
    """Oracle: the simulator orders plain counters, while hardware keeps
    each stamp modulo 2 x ``rob`` and orders two stamps by their windowed
    difference.  A run must commit the same timeline under either rule.
    Memory-heavy programs exercise the side buffers and miss registers,
    which order by timestamp too."""

    @staticmethod
    def _digests(programs, cfg, monkeypatch):
        counter = harness.run(programs, cfg)[1].digest
        with monkeypatch.context() as mp:
            mp.setattr(Machine, "not_after", lambda self, ts, ts2:
                       ts_not_after(ts, ts2, 2 * self.cfg.rob))
            windowed = harness.run(programs, cfg)[1].digest
        return counter, windowed

    @pytest.mark.parametrize("mode", ["ghostminion", "unsafe", "flush_only"])
    def test_gadgets(self, mode, monkeypatch):
        for name, g in GADGETS.items():
            cfg = replace(RunConfig(mode=mode), **g.cfg_overrides)
            a, b = self._digests(g.programs(0), cfg, monkeypatch)
            assert a == b, name

    @pytest.mark.parametrize("rob", [64, 4])
    def test_fuzz_programs(self, rob, monkeypatch):
        # rob=4 gives a window of 8 that wraps many times per program
        rng = random.Random(0)
        for i in range(50):
            a, b = self._digests([_gen_program(rng)], RunConfig(rob=rob),
                                 monkeypatch)
            assert a == b, f"fuzz seed 0 program {i}"


class TestSteppedEquivalence:
    """Oracle: ``run(max_cycles=cycle + 1)`` advances exactly one cycle,
    so stepping a machine one cycle at a time must end in the same state
    as one ``run()`` call: timeline, cycle count, counters, cache, owner
    and prefetcher state."""

    @staticmethod
    def _observe(m):
        mem = m.mem
        return (harness.timeline_digest(m), m.cycle, mem.counters,
                mem.nonspec_sets(), mem.owner, mem.rpt)

    def _both(self, programs, cfg):
        whole = Machine([load_program(p) for p in programs], cfg)
        whole.run()
        stepped = Machine([load_program(p) for p in programs], cfg)
        while not all(c.halted for c in stepped.cores):
            assert stepped.cycle < cfg.max_cycles
            try:
                stepped.run(max_cycles=stepped.cycle + 1)
            except SimTimeout:
                pass
        return self._observe(whole), self._observe(stepped)

    @pytest.mark.parametrize("mode", ["ghostminion", "unsafe", "flush_only"])
    def test_gadgets(self, mode):
        for name, g in GADGETS.items():
            cfg = replace(RunConfig(mode=mode, check_invariants=True),
                          **g.cfg_overrides)
            a, b = self._both(g.programs(0), cfg)
            assert a == b, name

    @pytest.mark.parametrize("rob", [64, 4])
    def test_fuzz_programs(self, rob):
        rng = random.Random(0)
        cfg = RunConfig(rob=rob, check_invariants=True)
        for i in range(50):
            a, b = self._both([_gen_program(rng)], cfg)
            assert a == b, f"fuzz seed 0 program {i}"

    def test_idle_cycles_are_skipped(self, monkeypatch):
        # most of a gadget's cycles wait on a miss; run() jumps over them.
        # check_invariants runs once in every visited cycle, and tick only
        # in a visited cycle in which the top of the event heap is due
        visited, ticks = [], []
        check, tick = MemorySystem.check_invariants, MemorySystem.tick

        def counted_check(mem):
            visited.append(1)
            check(mem)

        def counted_tick(mem, cycle):
            assert mem._events[0][0] <= cycle
            ticks.append(cycle)
            return tick(mem, cycle)

        monkeypatch.setattr(MemorySystem, "check_invariants", counted_check)
        monkeypatch.setattr(MemorySystem, "tick", counted_tick)
        g = GADGETS["spectre_v1"]
        cfg = replace(RunConfig(mode="ghostminion", check_invariants=True),
                      **g.cfg_overrides)
        _, rep = harness.run(g.programs(0), cfg)
        assert 0 < len(ticks) < len(visited) < rep.cycles / 4

    @pytest.mark.parametrize("limit", [1, 37, 150])
    def test_cycle_is_written_back(self, limit):
        # run() keeps the clock in a local: self.cycle is the budget after
        # a timeout, and the returned cycle after a halt
        m = Machine([load_program(_gen_program(random.Random(3)))],
                    RunConfig())
        with pytest.raises(SimTimeout):
            m.run(max_cycles=limit)
        assert m.cycle == limit
        assert m.run() == m.cycle > limit
        assert m.cores[0].halted


def _waiting(di):
    """A renamed instruction that has not issued (or was retried)."""
    return di.issued is None and not di.squashed


def _executing(di):
    return di.issued is not None and di.completed is None and not di.squashed


def _done(di):
    return di.completed is not None and not di.squashed


class TestWakeupBookkeeping:
    """Oracle: the lists the core keeps as instructions move through
    their stages equal what a scan of the ROB finds, hold no squashed
    instruction, and a completed instruction has issued, after every
    cycle; the live stamps, in the ROB and the fetch queue, are
    the last ``n <= rob`` handed out, consecutive in program order; and
    every miss waiting for a delivery cycle, none of them past, has a
    delivery queued for it on the memory system's event heap."""

    @staticmethod
    def _check(m):
        def done(dep):
            return dep is None or _done(dep)
        for core in m.cores:
            rob = list(core.rob)
            assert core.ready == [di for di in rob if _waiting(di)
                                  and done(di.dep1) and done(di.dep2)]
            assert sorted(core.inflight, key=lambda di: di.ts) == [
                di for di in rob if _executing(di) and di.done_at is not None]
            assert list(core.stq) == [di for di in rob if di.si.cls == STORE]
            assert list(core.divq) == [di for di in rob if di.si.cls == DIV]
            assert list(core.ldq) == [di for di in rob if di.si.cls == LOAD]
            assert not any(di.squashed for di in (
                *rob, *core.fetchq, *core.ready, *core.inflight, *core.stq,
                *core.divq, *core.ldq))
            assert all(di.issued is not None for di in rob
                       if di.completed is not None)
            # a stamp is live from fetch until commit or squash
            live = [di.ts for di in (*rob, *core.fetchq)]
            n = len(live)
            assert live == list(range(core.next_ts - n, core.next_ts))
            assert n <= core.cfg.rob
        mem = m.mem
        queued = {(ev[0], ev[3]) for ev in mem._events}
        for f in (*mem.l1d_file, *mem.l1i_file, mem.l2_file):
            for e in f.entries:
                if e.deliver_at is not None:
                    assert e.deliver_at >= m.cycle
                    assert (e.deliver_at, e) in queued

    def _step(self, programs, cfg):
        m = Machine([load_program(p) for p in programs], cfg)
        while not all(c.halted for c in m.cores):
            assert m.cycle < cfg.max_cycles
            try:
                m.run(max_cycles=m.cycle + 1)
            except SimTimeout:
                pass
            self._check(m)
        return m

    @pytest.mark.parametrize("mode", ["ghostminion", "unsafe", "flush_only"])
    def test_gadgets(self, mode):
        for g in GADGETS.values():
            self._step(g.programs(0),
                       replace(RunConfig(mode=mode), **g.cfg_overrides))

    def test_leapfrog_retry_is_visited_in_the_same_walk(self):
        # the younger load V holds the only L1 miss register when L and
        # W become ready; L leapfrogs V, whose load re-enters the ready
        # list between L and W and takes the second memory port in the
        # same walk, so W (a merge into L's miss) issues a cycle later
        m = Machine([load_program("\n".join([
            "li r9, 3", "div r1, r9, r9", "sub r2, r1, r1",
            "ld r3, r2, 0x4000",      # L
            "ld r4, r0, 0x8000",      # V
            "ld r5, r2, 0x4008",      # W
            "halt"]))], RunConfig(warm_icache=True, l1_mshrs=1))
        m.run()
        issue = [e[4] for e in m.cores[0].timeline]
        assert m.mem.counters["mshr_leapfrogs"] == 1
        assert issue[5] == issue[3] + 1

    def test_leapfrog_retry_of_an_older_load_is_found_again(self,
                                                             monkeypatch):
        # without timeleap, ``ld r8``'s leapfrog retries the older ``ld r7``
        # at cycle 15; it re-enters the ready list before ``ld r8``, which
        # the walk must find again to take it out of the list
        cfg = RunConfig(warm_icache=True)
        _, rep = harness.run([OLDER_RETRY], cfg)
        assert rep.counters["mshr_leapfrogs"] == 0
        monkeypatch.setitem(PROTECTION, "ghostminion",
                            replace(PROTECTION["ghostminion"], timeleap=False))
        m = self._step([OLDER_RETRY], cfg)
        regs = m.cores[0].regs
        assert m.mem.counters["mshr_leapfrogs"] == 2
        assert (m.cycle, regs[7], regs[8], regs[10]) == (138, 7, 9, 7)
        assert harness.run_ablation([OLDER_RETRY], cfg).verdict == "PASS"

    @pytest.mark.parametrize("overrides", [{}, {"l1_mshrs": 1}],
                             ids=["default", "l1_mshrs1"])
    def test_fuzz_programs(self, overrides):
        # one L1 miss register makes leapfrogs retry loads mid-issue
        rng = random.Random(0)
        cfg = RunConfig(**overrides)
        for _ in range(50):
            self._step([_gen_program(rng)], cfg)

    def test_replay_squash_with_and_without_commits_before_it(self,
                                                              monkeypatch):
        # a replayed load whose value went stale squashes from the commit
        # stage.  In the message-passing pair it is the first commit of
        # its cycle.  At zero latency its commit-time access can hit at
        # once, so in pair 28 of seed 102 an older instruction commits
        # first in the same call.  It is the one run where a squash
        # follows a commit of the same call, so the stepped checks see
        # the ROB and the stamps that both leave
        squashes = []
        squash = Core._squash_after

        def spy(core, di, cycle, redirect_pc):
            if di.si.cls == LOAD:
                tl = core.timeline
                squashes.append(bool(tl) and tl[-1][6] == cycle)
            return squash(core, di, cycle, redirect_pc)

        monkeypatch.setattr(Core, "_squash_after", spy)
        self._step([MP_CORE0, MP_CORE1], RunConfig())
        assert squashes == [False]
        rng = random.Random(102)
        for _ in range(29):
            pair = [_gen_program(rng), _gen_program(rng)]
        self._step(pair, replace(RunConfig(), **GEOMETRIES["zerolat"]))
        assert squashes == [False, True]


class TestRunMemory:
    """A run holds its window and its timeline: the state a core keeps
    does not grow with the number of instructions it commits."""

    @pytest.mark.parametrize("trips", [50, 200])
    def test_finished_core_keeps_commits_only_in_its_timeline(self, trips):
        m, _ = run(COUNTED_LOOP.format(trips=trips))
        core = m.cores[0]
        bound = len(core.squash_log) + core.cfg.rob
        assert len(core.timeline) > bound
        for name, value in vars(core).items():
            # words is the machine's memory, shared by the cores
            if name not in ("timeline", "words") \
                    and isinstance(value, (list, dict, set, deque)):
                assert len(value) <= bound, name

    def test_timeline_holds_one_flat_record_per_commit(self):
        # a commit's record is one 8-field tuple, its list slot and the
        # ints only it holds: about 132 B a commit on this loop, against
        # about 210 B when a record also held its own index and a nested
        # tuple of its stage cycles
        tracemalloc.start()
        try:
            m, _ = run(COUNTED_LOOP.format(trips=200))
            timeline = m.cores[0].timeline
            commits = len(timeline)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            timeline.clear()
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / commits < 170

    def test_finished_instruction_holds_no_links(self):
        # every instruction a core can reach through producer and
        # consumer links from its ROB and fetch queue: the live ones, the
        # producers they read and the squashed consumers of a producer
        # still waiting; an instruction that kept its producers after
        # completing would chain back through every earlier counter update
        m = Machine([load_program(COUNTED_LOOP.format(trips=200))],
                    RunConfig())
        core = m.cores[0]
        most = 0
        while not core.halted:
            try:
                m.run(max_cycles=m.cycle + 1)
            except SimTimeout:
                pass
            seen = set()
            todo = [*core.rob, *core.fetchq]
            while todo:
                di = todo.pop()
                if di not in seen:
                    seen.add(di)
                    todo += [d for d in (getattr(di, "dep1", None),
                                         getattr(di, "dep2", None))
                             if d is not None]
                    todo += di.consumers or ()
            most = max(most, len(seen))
        assert core.cfg.rob < most <= 2 * core.cfg.rob


class TestStoreForward:
    def test_forwarded_value_and_timing(self):
        # the second input forwards 0 over a word that holds 5: a load's
        # result is set before it completes only by a forward, and 0 is
        # such a result; the load completes before the store's commit
        # writes the word, so reading memory instead would give 5
        for word, value in (("", 77), (".word 0x200 5\n", 0)):
            text = (f"{word}li r1, {value}\n"
                    "st r1, r0, 0x200\n"
                    "ld r2, r0, 0x200\n"
                    "halt\n")
            m, _ = run(text, warm_icache=True)
            ld = m.cores[0].timeline[2]
            assert ld[7] == value
            # forwarding: the load completes without a memory round trip
            assert ld[5] - ld[4] <= 2

    def test_forwards_from_the_youngest_older_store(self):
        # two older stores write the load's word: the younger one's value
        # is forwarded, with no memory round trip
        text = ("li r1, 11\n"
                "li r3, 22\n"
                "st r1, r0, 0x200\n"
                "st r3, r0, 0x200\n"
                "ld r2, r0, 0x200\n"
                "halt\n")
        m, _ = run(text, warm_icache=True)
        ld = m.cores[0].timeline[4]
        assert ld[7] == 22
        assert ld[5] - ld[4] <= 2

    def test_younger_store_is_not_forwarded(self):
        # the load's address waits for a multiply, so the younger store to
        # its word issues first; the load still reads the word from memory
        text = (".word 0x200 5\n"
                "li r1, 9\n"
                "mul r4, r1, r0\n"
                "ld r2, r4, 0x200\n"
                "st r1, r0, 0x200\n"
                "halt\n")
        m, _ = run(text, warm_icache=True)
        tl = m.cores[0].timeline
        ld, st = tl[2], tl[3]
        assert st[4] < ld[4]
        assert ld[7] == 5 and m.read_word(0x200) == 9

    def test_load_waits_for_older_store_address(self):
        # conservative disambiguation: the load must not issue before the
        # older store's address is known, even to a different word
        text = ("ld r1, r0, 0x300\n"     # slow: store address depends on it
                "st r2, r1, 0x400\n"
                "ld r3, r0, 0x208\n"
                "halt\n")
        m, _ = run(text, warm_icache=True)
        tl = m.cores[0].timeline
        st, ld2 = tl[1], tl[2]
        assert ld2[4] >= st[4]


class TestReferenceEquivalence:
    """The committed stream and final architectural state must match the
    sequential interpreter, in every protection mode, over a corpus of
    generated programs (speculation may reorder work but not change it).
    """

    @pytest.mark.parametrize("mode", ["unsafe", "flush_only", "ghostminion"])
    def test_fuzz_corpus_matches_reference(self, mode):
        rng = random.Random(1234)
        for _ in range(25):
            text = _gen_program(rng)
            prog = load_program(text)
            ref_stream, ref_regs, ref_words = ref_execute(prog)
            m = Machine([prog], RunConfig(mode=mode))
            m.run()
            assert commits(m) == ref_stream
            assert list(m.cores[0].regs) == ref_regs
            for addr, val in ref_words.items():
                assert m.read_word(addr) == val

    @pytest.mark.parametrize("mode", ["unsafe", "flush_only", "ghostminion"])
    def test_writes_to_r0_are_discarded(self, mode):
        # an ALU op, a load and a mul each target r0; every later read of
        # r0 (as an operand and as a load base) must still see zero
        text = (".word 256 7\n"
                "li r1, 3\n"
                "add r0, r1, r1\n"
                "add r2, r0, r1\n"
                "ld r0, r0, 256\n"
                "ld r3, r0, 256\n"
                "mul r0, r3, r3\n"
                "add r4, r0, r3\n"
                "halt\n")
        prog = load_program(text)
        ref_stream, ref_regs, _ = ref_execute(prog)
        m = Machine([prog], RunConfig(mode=mode))
        m.run()
        assert commits(m) == ref_stream
        assert list(m.cores[0].regs) == ref_regs
        assert ref_regs[:5] == [0, 3, 3, 7, 7]


class TestMemoryCallbacks:
    """The memory system answers a core's miss with ``mem_ready`` when the
    line arrives or ``mem_retry`` when the access must be made again; the
    core tells a fetch, a load and a commit-time access apart itself."""

    @staticmethod
    def _step_until(m, cond):
        while not cond():
            with pytest.raises(SimTimeout):
                m.run(max_cycles=m.cycle + 1)

    def _machine(self, lines, **cfg_kw):
        return Machine([load_program("\n".join(lines) + "\nhalt\n")],
                       RunConfig(**cfg_kw))

    @staticmethod
    def _fetch_state(core):
        return core.line_buf, core.fetch_stall_until

    def test_fetch_line(self):
        m = self._machine(["nop"])
        core = m.cores[0]
        self._step_until(m, lambda: core.fetch_stall_until == WAITING)
        line = core.line_buf
        assert line == core.code_base and core.fetch_seq == 0
        core.mem_ready(None, line + 64, m.cycle, False)
        assert self._fetch_state(core) == (line, WAITING)  # another line
        core.mem_retry(None)
        assert self._fetch_state(core) == (None, 0)   # fetch will ask again
        self._step_until(m, lambda: core.fetch_stall_until == WAITING)
        assert core.line_buf == line
        core.mem_ready(None, line, m.cycle, False)
        assert self._fetch_state(core) == (line, m.cycle)
        with pytest.raises(SimTimeout):
            m.run(max_cycles=m.cycle + 1)
        assert core.fetch_seq == 2             # the nop and the halt

    def test_fetch_callbacks_while_a_hit_stalls_fetch(self):
        # fetch waits for no delivery while a hit stalls it until its
        # ready cycle: a delivery of that line or a retry changes nothing
        m = self._machine(["nop"], warm_icache=True)
        core = m.cores[0]
        self._step_until(m, lambda: core.line_buf is not None)
        state = self._fetch_state(core)
        assert m.cycle < state[1] < WAITING
        core.mem_ready(None, core.line_buf, m.cycle, False)
        core.mem_retry(None)
        assert self._fetch_state(core) == state

    def test_fetch_retry_during_the_squash_penalty(self):
        # a fetch target left on the L1I file's waiters by a request a
        # squash dropped is woken while fetch serves the squash penalty
        m = self._machine(["li r1, 1", "bne r1, r0, out", "nop", "out:"],
                          warm_icache=True)
        core = m.cores[0]
        self._step_until(m, lambda: len(core.squash_log) == 1)
        state = self._fetch_state(core)
        assert state[0] is None and m.cycle < state[1] < WAITING
        file = m.mem.l1i_file[0]
        file.waiters.append((0, None))
        m.mem._wake(file)
        assert self._fetch_state(core) == state

    def _inflight_load(self, m, addr):
        core = m.cores[0]

        def find():
            # a load in flight is executing with no finish cycle; an
            # instruction that has not issued has no address yet
            return next((di for di in core.rob if _executing(di)
                         and di.done_at is None and di.addr == addr), None)
        self._step_until(m, lambda: find() is not None)
        return core, find()

    def test_inflight_load(self):
        # a delivery only records what arrived: the load joins the
        # in-flight list due that cycle, and do_complete finishes it and
        # wakes its consumer
        m = self._machine([".word 0x2000 42", "ld r1, r0, 0x2000",
                           "addi r2, r1, 1"], warm_icache=True)
        core, di = self._inflight_load(m, 0x2000)
        core.mem_retry(di)
        assert _waiting(di) and di.completed is None and di.done_at is None
        core, di = self._inflight_load(m, 0x2000)
        consumer = next(d for d in core.rob if d.si.op == "addi")
        assert consumer.dep1 is di and _waiting(consumer)
        c = m.cycle
        core.mem_ready(di, di.addr & core.line_mask, c, True)
        assert (di.result, di.from_below, di.noncoherent) == (42, True, True)
        assert di in core.inflight and di.done_at == c
        assert di.completed is None and consumer not in core.ready
        assert core.do_complete(c)
        assert _done(di) and di.completed == c
        assert di not in core.inflight and core.ready == [consumer]

    def test_store_waiting_on_commit_access(self):
        m = self._machine(["li r1, 7", "st r1, r0, 0x2000"], warm_icache=True)
        core = m.cores[0]
        self._step_until(m, lambda: core.rob
                         and core.rob[0].commit_mem == WAITING)
        st = core.rob[0]
        core.mem_retry(st)
        assert st.commit_mem is None and _done(st)
        self._step_until(m, lambda: st.commit_mem == WAITING)
        core.mem_ready(st, st.addr & core.line_mask, m.cycle, False)
        assert st.commit_mem == m.cycle and _done(st)

    def test_squashed_load_is_ignored(self):
        # the fall-through load runs on the wrong path of a mispredicted
        # branch whose input misses; two divides delay the load's address,
        # so its own miss is still in flight when the branch squashes it
        m = self._machine([".word 0x2000 0", ".word 0x7000 9", "li r9, 3",
                           "ld r1, r0, 0x2000", "bge r1, r0, out",
                           "div r3, r9, r9", "div r3, r3, r9",
                           "ld r2, r3, 0x7000", "out:"],
                          warm_icache=True)
        core, di = self._inflight_load(m, 0x7000)
        self._step_until(m, lambda: di.squashed)
        issued = di.issued
        assert issued is not None
        assert (di.result, di.completed) == (None, None)
        core.mem_ready(di, di.addr & core.line_mask, m.cycle, False)
        core.mem_retry(di)
        assert (di.squashed, di.issued, di.result, di.done_at, di.completed) \
            == (True, issued, None, None, None)

    def test_load_squashed_after_delivery_never_completes(self):
        # the wrong-path load of test_squashed_load_is_ignored is
        # delivered in the cycle its mispredicted branch completes: the
        # branch, older, squashes it before do_complete reaches it
        m = self._machine([".word 0x2000 0", ".word 0x7000 9", "li r9, 3",
                           "ld r1, r0, 0x2000", "bge r1, r0, out",
                           "div r3, r9, r9", "div r3, r3, r9",
                           "ld r2, r3, 0x7000", "out:"],
                          warm_icache=True)
        core, di = self._inflight_load(m, 0x7000)
        br = next(d for d in core.rob if d.si.op == "bge")
        self._step_until(m, lambda: br.done_at == m.cycle)
        assert _executing(di) and di.done_at is None
        core.mem_ready(di, di.addr & core.line_mask, m.cycle, False)
        assert di.completed is None and di in core.inflight
        with pytest.raises(SimTimeout):
            m.run(max_cycles=m.cycle + 1)
        assert _done(br) and di.squashed and di.completed is None
        assert di not in core.inflight
