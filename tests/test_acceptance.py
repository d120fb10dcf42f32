"""Acceptance gate: the eleven properties the artifact must satisfy.

Each test prints an explicit PASS/FAIL line for its criterion (visible
with ``pytest -s`` or in captured output on failure).
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest

from ghostsim import Machine, RunConfig, SimTimeout, load_program
from ghostsim import harness
from ghostsim.gadgets import GADGETS, RESULT
from ghostsim.ghost_cache import GhostCache

from programs import fuzz_text, not_after, stub_memory, window_checked


def _buffer():
    """A one-set, two-way timeguarded side buffer."""
    return GhostCache(1, 2, timeguard=True, not_after=not_after,
                      counters=Counter())


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"[CRITERION {n:2d}] FAIL - {desc}")
        raise
    print(f"[CRITERION {n:2d}] PASS - {desc}")


def _run_gadget(gadget, secret, mode, **extra):
    cfg = replace(RunConfig(mode=mode), **{**gadget.cfg_overrides, **extra})
    m = Machine([load_program(t) for t in gadget.programs(secret)], cfg)
    m.run()
    return m


def test_c01_timeguarded_lookup():
    with criterion(1, "timestamp-guarded side-buffer lookup"):
        g = _buffer()
        g.fill(0x40, 22)
        assert g.lookup(0x40, 21) is None              # line 22, reader 21
        g = _buffer()
        g.fill(0x40, 27)
        assert g.lookup(0x40, 28) is not None          # line 27, reader 28
        g = _buffer()
        g.fill(0x40, 25)
        assert g.lookup(0x40, 25) is not None          # equality hits


def test_c02_timeguarded_fill():
    with criterion(2, "timestamp-guarded side-buffer fill/eviction"):
        g = _buffer()
        g.fill(0x40, 26)
        g.fill(0x80, 28)
        assert g.fill(0xC0, 25)                        # evicts the 28 line
        assert {w.ts for w in g.valid_lines()} == {25, 26}
        g = _buffer()
        g.fill(0x40, 3)
        g.fill(0x80, 4)
        assert not g.fill(0xC0, 9)                     # rejected outright
        assert {w.ts for w in g.valid_lines()} == {3, 4}
        g = _buffer()
        g.fill(0x40, 26)
        assert g.fill(0x80, 25)                        # free slot preferred
        assert {w.ts for w in g.valid_lines()} == {25, 26}


def test_c03_mshr_ordering():
    with criterion(3, "timestamp-ordered miss registers"):
        mem, C = stub_memory(l1_mshrs=3)
        for ts in (22, 23, 28):
            mem._mshr_request(mem.l1d_file[0], ts << 6, ts, 0, True, 0,
                              target=(0, ts))
        res = mem._mshr_request(mem.l1d_file[0], 25 << 6, 25, 0, True, 0,
                                target=(0, 25))
        assert res is not None                        # 28 leapfrogged
        assert sorted(e.ts for e in mem.l1d_file[0].entries) == [22, 23, 25]
        assert mem.counters["mshr_leapfrogs"] == 1
        assert C.wakes == [28]                         # its user retries

        mem, C = stub_memory(l1_mshrs=3)
        for ts in (22, 23, 25):
            mem._mshr_request(mem.l1d_file[0], ts << 6, ts, 0, True, 0,
                              target=(0, ts))
        res = mem._mshr_request(mem.l1d_file[0], 29 << 6, 29, 0, True, 0,
                                target=(0, 29))
        assert res is None                            # youngest waits
        assert sorted(e.ts for e in mem.l1d_file[0].entries) == [22, 23, 25]


def test_c04_noninterference_all_gadgets():
    with criterion(4, "differential noninterference over all gadgets"):
        # every verdict is checked before any wall-clock bound, so a slow
        # host (or a tracer) still sees each verdict
        seconds = {}
        for name, g in GADGETS.items():
            for mode, verdict in (("ghostminion", "SAFE"), ("unsafe", "LEAKS")):
                t0 = time.monotonic()
                assert harness.run_differential(
                    g, RunConfig(mode=mode)).verdict == verdict, (name, mode)
                seconds[name, mode] = time.monotonic() - t0
        assert harness.run_differential(
            GADGETS["speculative_interference"],
            RunConfig(mode="flush_only")).verdict == "LEAKS"
        # a tracer (tests/linecov.py) slows a run about tenfold, so the
        # wall-clock bound holds only untraced
        if sys.gettrace() is None:
            for key, s in seconds.items():
                assert s < 5.0, key


def test_c05_fuzz_ablation():
    with criterion(5, "transient ablation over 1000 fuzzed programs"):
        t0 = time.monotonic()
        fails, _ = harness.fuzz_programs(
            1000, RunConfig(mode="ghostminion"), seed=0)
        assert fails == 0
        fails, first = harness.fuzz_programs(
            100, RunConfig(mode="unsafe"), seed=0)
        assert fails >= 1 and first is not None
        assert time.monotonic() - t0 < 120.0


def _window_checked(not_after, counts):
    """``programs.window_checked(not_after)`` that also counts its calls
    per mode."""
    checked = window_checked(not_after)

    def counted(self, ts, ts2):
        counts[self.cfg.mode] = counts.get(self.cfg.mode, 0) + 1
        return checked(self, ts, ts2)
    return counted


def test_c06_window_correctness(monkeypatch):
    with criterion(6, "every timestamp comparison fits the 2N window"):
        not_after = Machine.not_after

        def compared(runs):
            counts = {}
            monkeypatch.setattr(Machine, "not_after",
                                _window_checked(not_after, counts))
            for programs, cfg in runs:
                harness.run(programs, cfg)
            return counts

        gadgets = compared(
            (g.programs(0), replace(RunConfig(mode=mode), **g.cfg_overrides))
            for g in GADGETS.values()
            for mode in ("ghostminion", "unsafe", "flush_only"))
        fuzz = {}
        for rob in (64, 4):
            # rob=4 allows stamps at most 3 apart
            fuzz[rob] = compared((fuzz_text(0, i), RunConfig(rob=rob))
                                 for i in range(50))
        # the check cannot pass vacuously
        assert gadgets.get("ghostminion", 0) > 0
        assert fuzz[4].get("ghostminion", 0) > 0


def _trips_at_rob_apart():
    m = Machine([load_program("halt\n")], RunConfig(rob=4))
    assert m.mem.not_after(5, 8) and not m.mem.not_after(8, 5)
    for ts, ts2 in ((4, 8), (8, 4)):
        with pytest.raises(AssertionError):
            m.mem.not_after(ts, ts2)


def test_c06_window_check_trips_at_rob_apart(monkeypatch):
    # around the plain comparison, not the one tests/conftest.py checks
    monkeypatch.setattr(Machine, "not_after", _window_checked(
        lambda m, ts, ts2: not_after(ts, ts2), {}))
    _trips_at_rob_apart()


def test_c06_window_check_is_installed_for_every_run():
    # tests/conftest.py wraps Machine.not_after for the whole session
    _trips_at_rob_apart()


def test_c07_flush_timing_invariance():
    with criterion(7, "constant-time squash flush (0 vs max ghost lines)"):
        def prog(with_loads):
            body = ["li r1, 1"] + ["div r2, r1, r1"] * 4
            body += ["bne r2, r0, skip"]        # taken, predicted not-taken
            if with_loads:
                # 8 distinct lines = ghost capacity (4 sets x 2 ways)
                body += [f"ld r3, r0, {0x2000 + i * 64}" for i in range(8)]
            else:
                body += ["nop"] * 8
            body += ["skip:", "li r4, 7", "halt"]
            return "\n".join(body) + "\n"

        # small memory latencies let every wrong-path load land in the
        # side buffer before the divider chain resolves the branch
        cfg = RunConfig(mode="ghostminion", warm_icache=True, ghost_sets=4,
                        ghost_ways=2, l1_lat=1, l2_lat=3, mem_lat=6)
        results = []
        for with_loads in (False, True):
            m = Machine([load_program(prog(with_loads))], cfg)
            occupancy = 0
            while not all(c.halted for c in m.cores):
                try:
                    m.run(max_cycles=m.cycle + 1)
                except SimTimeout:
                    pass
                occupancy = max(occupancy,
                                len(list(m.mem.dghost[0].valid_lines())))
            tl = m.cores[0].timeline
            branch = next(e for e in tl if e[1] == "bne")
            refetched = tl[tl.index(branch) + 1]
            results.append((occupancy, branch[5],
                            refetched[6] - branch[5], tl))
        (occ0, res0, delta0, tl0), (occ1, res1, delta1, tl1) = results
        assert occ0 == 0 and occ1 == 8          # empty vs full at squash
        assert res0 == res1                     # same squash cycle
        assert delta0 == delta1                 # same refetch-commit latency
        assert tl0 == tl1                       # identical timelines overall


def test_c08_purity():
    with criterion(8, "cache and prefetcher purity under ablation"):
        cfg = RunConfig(mode="ghostminion")
        for i in range(200):
            res = harness.run_ablation(fuzz_text(0, i), cfg)
            assert res.verdict == "PASS" and res.pure
        for g in GADGETS.values():
            gcfg = replace(cfg, **g.cfg_overrides)
            res = harness.run_ablation(g.programs(11), gcfg)
            assert res.verdict == "PASS" and res.pure, g.name


def test_c09_divider_scheduling():
    with criterion(9, "divider contention closed by ordered scheduling"):
        g = GADGETS["spectre_rewind"]

        def observations(mode):
            out = []
            for s in (0, 6, 9, 15):
                m = _run_gadget(g, s, mode)
                divs = tuple(e[2:7] for e in m.cores[0].timeline
                             if e[1] == "div")
                deltas = tuple(m.read_word(RESULT + 8 * i) for i in range(6))
                out.append((divs, deltas))
            return out

        ordered = observations("ghostminion")
        assert len(set(ordered)) == 1           # constant across secrets
        greedy = observations("unsafe")
        assert len(set(greedy)) > 1             # varies across secrets


def test_c10_coherence():
    with criterion(10, "two-core coherence with per-cycle owner-map check"):
        g = GADGETS["spectre_prime"]
        safe = harness.run_differential(g, RunConfig(mode="ghostminion"))
        assert safe.verdict == "SAFE"
        leak = harness.run_differential(g, RunConfig(mode="unsafe"))
        assert leak.verdict == "LEAKS"


def test_c11_counter_report():
    with criterion(11, "ordering mechanisms fire exactly when needed"):
        g = GADGETS["speculative_interference"]
        m = _run_gadget(g, 9, "ghostminion")
        c = m.mem.counters
        assert (c["timeguard_blocks"] + c["mshr_leapfrogs"]
                + c["timeleaps"]) > 0
        straight = ("li r1, 4\nmul r2, r1, r1\nld r3, r0, 0x2000\n"
                    "st r2, r0, 0x2100\nhalt\n")
        m = Machine([load_program(straight)], RunConfig(mode="ghostminion"))
        m.run()
        c = m.mem.counters
        assert c["timeguard_blocks"] == c["mshr_leapfrogs"] == c["timeleaps"] == 0
