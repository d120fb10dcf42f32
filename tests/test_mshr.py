"""Timestamp-ordered miss-handling registers: merge, leapfrog, timeleap,
and retry behavior, driven directly against the memory system.
"""

from dataclasses import replace

import pytest

from ghostsim import harness
from ghostsim.config import MODES, RunConfig
from ghostsim.memory import MemorySystem

from programs import (OLDER_MISS, OTHER_CORE_MISS, PAIR_GEOMETRIES, PAIR_SEED,
                      PAIRS, TIMELEAP_CONFIG, TIMELEAP_RESTART, TIMELEAP_YOUNG,
                      fuzz_text, l2_partition, pair_texts, stub_memory,
                      switched_off)


def make(mode="ghostminion", mshrs=3):
    return stub_memory(mode=mode, l1_mshrs=mshrs)


def req(mem, line, ts, tag=None):
    file = mem.l1d_file[0]
    return mem._mshr_request(file, line << 6, ts, 0, True, cycle=0,
                             target=(0, tag if tag is not None else ts))


def entry_stamps(mem):
    return sorted(e.ts for e in mem.l1d_file[0].entries)


class TestLeapfrog:
    def test_older_request_leapfrogs_youngest(self):
        # registers hold {22, 23, 28}; an older request stamped 25 must
        # not wait on state created by the younger 28: 28 is cancelled
        # (its users retry later) and 25 takes the slot
        mem, core = make()
        for ts in (22, 23, 28):
            assert req(mem, ts, ts) is not None
        res = req(mem, 25, 25)
        assert res is not None
        assert entry_stamps(mem) == [22, 23, 25]
        assert mem.counters["mshr_leapfrogs"] == 1
        # the victim's user was told to reattempt (woken at once, since
        # cancelling freed a slot)
        assert core.wakes == [28]

    def test_young_request_must_retry(self):
        # {22, 23, 25} all older than 29: the youngest instruction is the
        # only one that may observe a full file, so it retries
        mem, core = make()
        for ts in (22, 23, 25):
            req(mem, ts, ts)
        res = req(mem, 29, 29)
        assert res is None
        assert entry_stamps(mem) == [22, 23, 25]
        assert mem.counters["retries"] == 1
        assert (0, 29) in mem.l1d_file[0].waiters

    def test_request_stamped_as_the_youngest_entry_must_retry(self):
        # {22, 23, 25} and a request for another line stamped 25 too, as
        # an instruction fetch and the first instruction it fetches may
        # meet in the L2 file: not older than the youngest entry, it
        # retries instead of cancelling a miss of its own stamp
        mem, core = make()
        for ts in (22, 23, 25):
            req(mem, ts, ts)
        assert req(mem, 30, 25, tag="again") is None
        assert entry_stamps(mem) == [22, 23, 25]
        assert (mem.counters["mshr_leapfrogs"], mem.counters["retries"]) \
            == (0, 1)
        assert (0, "again") in mem.l1d_file[0].waiters

    def test_victim_cancellation_frees_lower_level(self):
        mem, core = make()
        for ts in (22, 23, 28):
            req(mem, ts, ts)
        l2_before = len(mem.l2_file.entries)
        req(mem, 25, 25)
        # the cancelled miss's L2 entry is orphaned, not serviced for it
        assert len(mem.l2_file.entries) == l2_before + 1
        orphans = [e for e in mem.l2_file.entries if not e.parents]
        assert len(orphans) == 1 and orphans[0].ts == 28

    def test_waiters_woken_when_slot_frees(self):
        mem, core = make()
        entries = []
        for ts in (22, 23, 25):
            entries.append(req(mem, ts, ts))
        req(mem, 29, 29)
        mem._free_entry(entries[0])
        assert core.wakes == [29]


class TestMergeAndTimeleap:
    def test_same_line_merges(self):
        mem, core = make()
        res1 = req(mem, 7, 40, tag="a")
        res2 = mem._mshr_request(mem.l1d_file[0], 7 << 6, 41, 0, True,
                                 cycle=0, target=(0, "b"))
        assert res2 is res1
        assert len(mem.l1d_file[0].entries) == 1
        assert [t[1] for t in res1.targets] == ["a", "b"]

    def test_a_target_already_on_the_entry_is_not_attached_again(self):
        # fetch asks again for the line its squashed request left in
        # flight: the merge keeps the one target, so it is told once
        mem, core = make()
        file = mem.l1i_file[0]
        entry = mem._mshr_request(file, 7 << 6, 40, 0, True, cycle=0,
                                  target=(0, None))
        again = mem._mshr_request(file, 7 << 6, 45, 0, True, cycle=3,
                                  target=(0, None))
        assert again is entry and entry.targets == [(0, None)]

    def test_older_request_timeleaps_inflight_miss(self):
        # a younger miss is in flight for the line; an older request
        # restarts it so the observable latency is the older one's own
        mem, core = make()
        entry = req(mem, 7, 40)
        res = mem._mshr_request(mem.l1d_file[0], 7 << 6, 30, 0, True,
                                cycle=5, target=(0, "old"))
        assert res is entry
        assert entry.ts == 30
        # the restart cascades: the L1 entry timeleaps, and its re-issued
        # lower request timeleaps the in-flight L2 entry too
        assert mem.counters["timeleaps"] == 2

    def test_store_merging_into_load_miss_marks_it_written(self):
        # a committing store that finds a load's miss in flight for its
        # line rides on that entry, so the line must arrive dirty
        mem, core = make()
        entry = req(mem, 7, 40)
        assert not entry.is_write
        res = mem._mshr_request(mem.l1d_file[0], 7 << 6, 30, 0, False,
                                cycle=5, target=(0, "st"),
                                is_write=True)
        assert res is entry
        assert entry.is_write

    def test_younger_merge_does_not_restart(self):
        mem, core = make()
        entry = req(mem, 7, 40)
        deliver = entry.child.deliver_at
        mem._mshr_request(mem.l1d_file[0], 7 << 6, 50, 0, True,
                          cycle=5, target=(0, "young"))
        assert (entry.ts, entry.child.deliver_at) == (40, deliver)
        assert mem.counters["timeleaps"] == 0


class TestDelivery:
    def test_restarted_and_cancelled_misses_deliver_once_or_never(self):
        # a timeleap restarts the miss of line 7 at cycle 5, in the L1 and
        # the L2; a leapfrog at cycle 6 cancels the L2 hit of line 9.  Both
        # leave a delivery queued for a cycle their entry no longer waits
        # for, and neither may be delivered then
        mem, core = make(mshrs=2)
        mem.l2.install(9 << 6)
        requests = {0: [(7, 40, "a"), (9, 50, "victim")],
                    5: [(7, 30, "old")],
                    6: [(11, 35, "c")]}
        for cycle in range(300):
            mem.tick(cycle)
            for line, ts, tag in requests.get(cycle, ()):
                mem._mshr_request(mem.l1d_file[0], line << 6, ts, 0, True,
                                  cycle, target=(0, tag))
        assert mem.counters["timeleaps"] == 2
        assert mem.counters["mshr_leapfrogs"] == 1
        cfg = mem.cfg
        miss = cfg.l2_lat + cfg.mem_lat + cfg.l1_lat
        assert core.ready == [("a", 5 + miss), ("old", 5 + miss),
                              ("c", 6 + miss)]
        assert core.wakes == ["victim"]
        events = mem._events
        assert (events[0][0] if events else float("inf")) == float("inf")

    def test_squash_cancelled_miss_is_skipped_at_its_cycle(self):
        # a squash frees the L1 and L2 entries of a miss; its L2 delivery
        # stays on the heap until its cycle, where tick pops it and does
        # nothing else
        mem, core = make()
        at = req(mem, 7, 40).child.deliver_at
        mem.squash_flush(0, 30)
        files = (mem.l2_file, *mem.l1d_file, *mem.l1i_file)

        def state():
            return ([list(f.entries) for f in files],
                    [list(f.waiters) for f in files], dict(mem.counters))

        before = state()
        assert [ev[0] for ev in mem._events] == [at]
        assert mem.tick(at - 1) is False and len(mem._events) == 1
        assert mem.tick(at) is False and not mem._events
        assert state() == before
        assert core.ready == [] and core.wakes == []


class TestUnsafeMode:
    def test_no_leapfrog_without_ordering(self):
        mem, core = make(mode="unsafe")
        for ts in (22, 23, 28):
            req(mem, ts, ts)
        res = req(mem, 25, 25)
        assert res is None
        assert entry_stamps(mem) == [22, 23, 28]
        assert mem.counters["mshr_leapfrogs"] == 0

    def test_no_timeleap_without_ordering(self):
        mem, core = make(mode="unsafe")
        req(mem, 7, 40)
        mem._mshr_request(mem.l1d_file[0], 7 << 6, 30, 0, True,
                          cycle=5, target=(0, "old"))
        assert mem.counters["timeleaps"] == 0


class TestCancelledFetch:
    def test_fetch_reissues_after_its_miss_is_cancelled(self):
        # with a single L2 register, an older miss leapfrogs the
        # instruction fetch's L2 miss; the fetch must make its access
        # again instead of waiting for a line that never arrives
        texts = fuzz_text(0, 0)
        cfg = RunConfig(l1_mshrs=3, l2_mshrs=1, max_cycles=20_000)
        m, _ = harness.run(texts, cfg)
        assert m.mem.counters["mshr_leapfrogs"] > 0
        res = harness.run_ablation(texts, cfg)
        assert res.verdict == "PASS" and res.pure


class TestTargetsAttachedOnce:
    @pytest.mark.parametrize("mode", MODES)
    def test_no_l1i_entry_delivers_a_target_twice(self, mode, monkeypatch):
        # without squash_cancels_misses a squash leaves the instruction
        # miss in flight, and fetch asks for the same line again
        deliver = MemorySystem._deliver_l1
        fetch_targets = []

        def spy(self, entry, cycle):
            if entry.file.kind == "i":
                fetch_targets.append(entry.targets)
            return deliver(self, entry, cycle)
        monkeypatch.setattr(MemorySystem, "_deliver_l1", spy)
        cfg = RunConfig(mode=mode)
        for i in range(50):
            harness.run(fuzz_text(0, i), cfg)
        assert fetch_targets
        assert [t for t in fetch_targets if len(set(t)) != len(t)] == []


class TestRestartWithoutL2Register:
    """A younger load's miss may not move an older load of the same line,
    even when the older load's restart of that miss must wait for the
    only L2 register.  Cutting the younger load (a ``nop`` in its place)
    leaves every older commit as it was."""

    @staticmethod
    def _older(text, cfg):
        m, rep = harness.run([text], cfg)
        return m.cores[0].timeline[:-2], rep.counters   # all but nop, halt

    def test_cutting_the_younger_load_moves_nothing(self):
        cut = TIMELEAP_RESTART.replace(TIMELEAP_YOUNG, "nop")
        cfg = RunConfig(**TIMELEAP_CONFIG)
        full, counters = self._older(TIMELEAP_RESTART, cfg)
        assert counters["timeleaps"] == 1 and counters["retries"] == 1
        assert full == self._older(cut, cfg)[0]
        # without timeleap the older load rides on the younger's miss
        unsafe = replace(cfg, mode="unsafe")
        assert self._older(TIMELEAP_RESTART, unsafe)[0][-1] \
            != self._older(cut, unsafe)[0][-1]
        with switched_off("timeleap"):
            assert self._older(TIMELEAP_RESTART, cfg)[0][-1] != full[-1]


class TestOtherCoreL2Miss:
    def test_other_cores_miss_is_never_leapfrogged(self):
        # core 1's load is older by stamp, but stamps of two cores are
        # not ordered: it takes an L2 register of its own instead of
        # cancelling core 0's, and core 0 runs as with core 1 idle
        cfg = RunConfig(l2_mshrs=1, warm_icache=True)
        alone, _ = harness.run([OTHER_CORE_MISS, "halt\n"], cfg)
        m, rep = harness.run([OTHER_CORE_MISS, OLDER_MISS], cfg)
        assert (rep.counters["mshr_leapfrogs"], rep.counters["retries"]) \
            == (0, 0)
        assert m.cores[0].timeline == alone.cores[0].timeline
        with switched_off("merge_core"):
            m, rep = harness.run([OTHER_CORE_MISS, OLDER_MISS], cfg)
        assert rep.counters["mshr_leapfrogs"] == 1
        assert m.cores[0].timeline != alone.cores[0].timeline


class TestL2Partition:
    """Under ``merge_core`` each core has ``l2_mshrs`` L2 miss registers
    of its own, so another core's wrong-path misses cannot refuse a
    core's loads; in ``unsafe`` and ``flush_only`` the cores share them."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("l2_mshrs", [2, 3])
    def test_other_cores_wrong_path_leaves_no_trace(self, l2_mshrs, mode):
        # sharing two or three registers, core 1's flag miss and its
        # wrong-path misses refuse core 0's fenced loads only when the
        # secret is not 0
        cfg = RunConfig(mode=mode, l2_mshrs=l2_mshrs)
        m0, m1 = (harness.run(l2_partition(s), cfg)[0] for s in (0, 1))
        same = m0.cores[0].timeline == m1.cores[0].timeline
        assert same is (mode == "ghostminion")

    @pytest.mark.parametrize("mode", ["ghostminion", "unsafe"])
    def test_random_pairs_at_two_l2_registers(self, mode):
        # the fingerprint's l2mshrs2 pairs: every one ablates PASS and
        # pure with registers per core, and sharing them, some do not
        cfg = RunConfig(mode=mode, **PAIR_GEOMETRIES["l2mshrs2"])
        results = [harness.run_ablation(pair_texts(PAIR_SEED, i), cfg)
                   for i in range(PAIRS)]
        fails = sum(res.verdict == "FAIL" for res in results)
        if mode == "ghostminion":
            assert fails == 0 and all(res.pure for res in results)
        else:
            assert fails > 0

    def test_random_pair_ablates_at_three_l2_registers(self):
        # seed 7, pair 116: with three shared L2 registers, core 1's
        # wrong-path misses delayed core 0's commits
        cfg = RunConfig(l2_mshrs=3)
        res = harness.run_ablation(pair_texts(PAIR_SEED, 116), cfg)
        assert res.verdict == "PASS" and res.pure
