"""Acceptance gate: the eleven properties the artifact must satisfy.

Each test prints an explicit PASS/FAIL line for its criterion (visible
with ``pytest -s`` or in captured output on failure).
"""

import time
from contextlib import contextmanager
from dataclasses import replace

from ghostsim import Machine, RunConfig, SimTimeout, load_program
from ghostsim import harness
from ghostsim.gadgets import GADGETS, RESULT
from ghostsim.ghost_cache import GhostCache
from ghostsim.memory import MemorySystem
from ghostsim.order import ts_not_after

WINDOW = 128


def _na(ts, ts2):
    return ts_not_after(ts, ts2, WINDOW)


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
        g = GhostCache(1, 2, timeguard=True, not_after=_na)
        g.fill(0x40, 22)
        assert g.lookup(0x40, 21) is None              # line 22, reader 21
        g = GhostCache(1, 2, timeguard=True, not_after=_na)
        g.fill(0x40, 27)
        assert g.lookup(0x40, 28) is not None          # line 27, reader 28
        g = GhostCache(1, 2, timeguard=True, not_after=_na)
        g.fill(0x40, 25)
        assert g.lookup(0x40, 25) is not None          # equality hits


def test_c02_timeguarded_fill():
    with criterion(2, "timestamp-guarded side-buffer fill/eviction"):
        g = GhostCache(1, 2, timeguard=True, not_after=_na)
        g.fill(0x40, 26)
        g.fill(0x80, 28)
        assert g.fill(0xC0, 25)                        # evicts the 28 line
        assert {w.ts for w in g.valid_lines()} == {25, 26}
        g = GhostCache(1, 2, timeguard=True, not_after=_na)
        g.fill(0x40, 3)
        g.fill(0x80, 4)
        assert not g.fill(0xC0, 9)                     # rejected outright
        assert {w.ts for w in g.valid_lines()} == {3, 4}
        g = GhostCache(1, 2, timeguard=True, not_after=_na)
        g.fill(0x40, 26)
        assert g.fill(0x80, 25)                        # free slot preferred
        assert {w.ts for w in g.valid_lines()} == {25, 26}


def test_c03_mshr_ordering():
    with criterion(3, "timestamp-ordered miss registers"):
        def fresh():
            mem = MemorySystem(RunConfig(l1_mshrs=3), 1, _na)

            class _C:
                wakes = []

                def load_retry_wake(self, o):
                    _C.wakes.append(o)

                def fetch_retry_wake(self):
                    pass
            _C.wakes = []
            mem.cores = [_C()]
            return mem, _C

        mem, C = fresh()
        for ts in (22, 23, 28):
            mem._mshr_request(mem.l1d_file[0], ts << 6, ts, 0, True, 0,
                              target=("load", ts, 0))
        res = mem._mshr_request(mem.l1d_file[0], 25 << 6, 25, 0, True, 0,
                                target=("load", 25, 0))
        assert res[0] == "pending"                     # 28 leapfrogged
        assert sorted(e.ts for e in mem.l1d_file[0].entries) == [22, 23, 25]
        assert mem.counters["mshr_leapfrogs"] == 1
        assert C.wakes == [28]                         # its user retries

        mem, C = fresh()
        for ts in (22, 23, 25):
            mem._mshr_request(mem.l1d_file[0], ts << 6, ts, 0, True, 0,
                              target=("load", ts, 0))
        res = mem._mshr_request(mem.l1d_file[0], 29 << 6, 29, 0, True, 0,
                                target=("load", 29, 0))
        assert res[0] == "retry"                       # youngest waits
        assert sorted(e.ts for e in mem.l1d_file[0].entries) == [22, 23, 25]


def test_c04_noninterference_all_gadgets():
    with criterion(4, "differential noninterference over all gadgets"):
        for name, g in GADGETS.items():
            t0 = time.monotonic()
            assert harness.run_differential(
                g, RunConfig(mode="ghostminion")).verdict == "SAFE", name
            assert time.monotonic() - t0 < 5.0, name
            t0 = time.monotonic()
            assert harness.run_differential(
                g, RunConfig(mode="unsafe")).verdict == "LEAKS", name
            assert time.monotonic() - t0 < 5.0, name
        assert harness.run_differential(
            GADGETS["speculative_interference"],
            RunConfig(mode="flush_only")).verdict == "LEAKS"


def test_c05_fuzz_ablation():
    with criterion(5, "transient ablation over 1000 fuzzed programs"):
        t0 = time.monotonic()
        passes, fails, _ = harness.fuzz_programs(
            1000, RunConfig(mode="ghostminion"), seed=0)
        assert (passes, fails) == (1000, 0)
        passes, fails, first = harness.fuzz_programs(
            100, RunConfig(mode="unsafe"), seed=0)
        assert fails >= 1 and first is not None
        assert time.monotonic() - t0 < 120.0


def test_c06_window_correctness():
    with criterion(6, "windowed timestamps equal unbounded timestamps"):
        # > 4 * (2N) = 512 issued instructions with ROB N = 64
        text = ("li r1, 140\n"
                "loop:\n"
                "addi r2, r2, 3\n"
                "xor r3, r2, r1\n"
                "addi r1, r1, -1\n"
                "bne r1, r0, loop\n"
                "halt\n")
        runs = []
        for dbg in (False, True):
            m = Machine([load_program(text)],
                        RunConfig(debug_unbounded_ts=dbg))
            m.run()
            runs.append(m)
        assert len(runs[0].cores[0].timeline) == 2 + 140 * 4 > 512
        assert runs[0].cores[0].timeline == runs[1].cores[0].timeline


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
            branch = next(e for e in tl if e[2] == "bne")
            refetched = tl[tl.index(branch) + 1]
            results.append((occupancy, branch[3][3],
                            refetched[3][4] - branch[3][3], tl))
        (occ0, res0, delta0, tl0), (occ1, res1, delta1, tl1) = results
        assert occ0 == 0 and occ1 == 8          # empty vs full at squash
        assert res0 == res1                     # same squash cycle
        assert delta0 == delta1                 # same refetch-commit latency
        assert tl0 == tl1                       # identical timelines overall


def test_c08_purity():
    with criterion(8, "cache and prefetcher purity under ablation"):
        import random
        rng = random.Random(0)
        cfg = RunConfig(mode="ghostminion")
        for _ in range(200):
            res = harness.run_ablation([harness._gen_program(rng)], cfg)
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
                divs = tuple(e[3] for e in m.cores[0].timeline
                             if e[2] == "div")
                deltas = tuple(m.read_word(RESULT + 8 * i) for i in range(6))
                out.append((divs, deltas))
            return out

        ordered = observations("ghostminion")
        assert len(set(ordered)) == 1           # constant across secrets
        greedy = observations("unsafe")
        assert len(set(greedy)) > 1             # varies across secrets


def test_c10_coherence():
    with criterion(10, "two-core coherence with per-cycle directory check"):
        g = GADGETS["spectre_prime"]
        safe = harness.run_differential(
            g, RunConfig(mode="ghostminion", check_invariants=True))
        assert safe.verdict == "SAFE"
        leak = harness.run_differential(
            g, RunConfig(mode="unsafe", check_invariants=True))
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
