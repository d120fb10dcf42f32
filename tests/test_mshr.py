"""Timestamp-ordered miss-handling registers: merge, leapfrog, timeleap,
and retry behavior, driven directly against the memory system.
"""

import random

from ghostsim import harness
from ghostsim.config import RunConfig
from ghostsim.memory import MemorySystem
from ghostsim.order import ts_not_after

WINDOW = 128


def _na(ts, ts2):
    return ts_not_after(ts, ts2, WINDOW)


class _StubCore:
    def __init__(self):
        self.wakes = []
        self.ready = []

    def mem_retry(self, instr):
        self.wakes.append(instr)

    def mem_ready(self, instr, line, cycle, origin, noncoherent):
        self.ready.append((instr, cycle))


def make(mode="ghostminion", mshrs=3):
    cfg = RunConfig(mode=mode, l1_mshrs=mshrs)
    mem = MemorySystem(cfg, 1, _na)
    core = _StubCore()
    mem.cores = [core]
    return mem, core


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
        assert mem.next_event(300) == float("inf")


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
        text = harness._gen_program(random.Random(0))
        cfg = RunConfig(l1_mshrs=3, l2_mshrs=1, max_cycles=20_000)
        m, _ = harness.run([text], cfg)
        assert m.mem.counters["mshr_leapfrogs"] > 0
        res = harness.run_ablation([text], cfg)
        assert res.verdict == "PASS" and res.pure
