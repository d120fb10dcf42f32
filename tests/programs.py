"""The tests' shared corpus and helpers, one home for each job.

The seeded corpus: ``FUZZ_SEED``, ``PAIR_SEED`` and ``PAIRS`` name the
fuzz programs and two-core pairs that ``tests/fingerprint.py``,
``tests/mutants.py`` and the tier-1 oracles run; ``GEOMETRIES`` are the
fingerprint's configs and ``PAIR_GEOMETRIES`` those its pairs run at;
``ABLATED_SECRETS`` are the gadget secrets that are also ablated.
``fuzz_text(seed, i)`` is program ``i`` of a seed and ``pair_texts(seed,
i)`` pair ``i``, so a witness is named by its seed and index.

The helpers: ``observe`` reads a finished machine's end state,
``switched_off`` turns ghostminion switches off for a ``with`` block,
and ``stub_memory`` builds a one-core memory system wired to a
``_StubCore`` that records what it is told.  ``not_after`` is
``Machine.not_after`` on the plain counters that stamps are.

The installed checks: ``checking_invariants`` runs
``MemorySystem.check_invariants`` in every cycle a run visits, and
``checking_window`` asserts that every stamp comparison is of two stamps
fewer than ``rob`` apart (``window_checked``).  Each is a context
manager that wraps a method for its ``with`` block, so the simulator
pays nothing for them outside one; ``tests/conftest.py`` installs both
for the whole tier-1 session.

Hand-written programs that expose one protection mechanism each follow.

Each program runs at the default config.  The first four PASS ablation in
ghostminion mode and FAIL it with their mechanism switched off:
``OLDER_READER`` the timeguard, ``DIVIDER_ORDER`` the in-order divider,
``LRU_STATE`` the hidden speculative LRU updates and ``LEAPFROG`` the
leapfrog.  The message-passing pair ``MP_CORE0``/``MP_CORE1`` leaves 1 in
core 0's r2 only when the commit-time replay runs.  ``OLDER_RETRY``
exercises the issue walk rather than a protection, with ``warm_icache``
and timeleap off.  ``COUNTED_LOOP`` is a loop whose trip count is filled
in with ``str.format``, for checks that a run's length does not grow the
state it keeps.  ``STRIDED_LOOP``, formatted the same way, walks two
line-strided streams that wrap after 256 lines each.

The rest each reach a path that the default config does not, at the
config named with them: ``UNIT_SLOTS`` the issue slots and the store
queue, ``L1I_EVICTION`` an instruction-line eviction,
``TIMELEAP_RESTART`` a timeleap restart that finds no L2 miss register,
and the pair ``OTHER_CORE_MISS``/``OLDER_MISS`` two cores missing in the
L2 in one cycle with one L2 miss register each.

``l2_partition(secret)`` is a two-core probe of the L2 miss registers
that the cores share: at ``l2_mshrs`` 2 or 3, core 0's timeline tells
the secret that only core 1's wrong path reads unless each core has L2
registers of its own (``merge_core``).
"""

import operator
import random
from dataclasses import replace
from unittest import mock

from ghostsim import Machine, RunConfig, config, harness
from ghostsim.core import Core
from ghostsim.memory import MemorySystem

FUZZ_SEED = 0
PAIR_SEED = 7
PAIRS = 150
ABLATED_SECRETS = (0, 11)

GEOMETRIES = {
    "default": {},
    "rob4": {"rob": 4},
    "tiny": {"rob": 2, "l1_mshrs": 1, "ghost_sets": 1, "ghost_ways": 1},
    "mshr31": {"l1_mshrs": 3, "l2_mshrs": 1},
    # an L2 completion hands its L1 parent a same-cycle delivery; in the
    # pairs, a forwarded fill with no latency is dated the next cycle
    "zerolat": {"l1_lat": 0, "coh_lat": 0, "mem_lat": 0},
    # fewer units than the width, and queues and miss registers that fill
    "tight": {"alu_units": 1, "mul_units": 1, "mem_ports": 1, "lq": 2,
              "sq": 2, "l1_mshrs": 2, "l2_mshrs": 1},
    # zerolat over one- and two-line sets: in pair 104 a forwarded fill
    # is rejected only because the next cycle's deliveries run first
    "zerotiny": {"l1_lat": 0, "coh_lat": 0, "mem_lat": 0, "l1_sets": 2,
                 "l1_ways": 1, "l2_sets": 2, "l2_ways": 2, "ghost_sets": 1,
                 "ghost_ways": 1},
}
# the pairs run at four of those, and at two L2 miss registers, which
# the two cores share in unsafe mode and hold two each in ghostminion
PAIR_GEOMETRIES = {**{geo: GEOMETRIES[geo] for geo in
                      ("default", "zerolat", "tight", "zerotiny")},
                   "l2mshrs2": {"l2_mshrs": 2}}

# seed -> (its generator, the programs drawn from it so far)
_DRAWN = {}


def fuzz_text(seed, i):
    """The one-core run ``(text,)`` of fuzz program ``i`` of ``seed``: the
    ``i``-th ``harness._gen_program`` draw from that seed's generator,
    as ``harness.fuzz_programs`` draws them."""
    if seed not in _DRAWN:
        _DRAWN[seed] = (random.Random(seed), [])
    rng, texts = _DRAWN[seed]
    while len(texts) <= i:
        texts.append((harness._gen_program(rng),))
    return texts[i]


def pair_texts(seed, i):
    """Two-core pair ``i`` of ``seed``: programs ``2i`` and ``2i + 1``."""
    return fuzz_text(seed, 2 * i) + fuzz_text(seed, 2 * i + 1)


def observe(m):
    """A finished machine's end state: its timeline digest, cycle,
    counters, non-speculative cache lines, line owners and prefetcher
    table."""
    mem = m.mem
    return {"digest": harness.timeline_digest(m), "cycles": m.cycle,
            "counters": mem.counters, "nonspec": mem.nonspec_sets(),
            "owner": mem.owner, "rpt": mem.rpt}


def switched_off(*names):
    """A context manager under which the ghostminion row has ``names``
    switched off."""
    row = replace(config.PROTECTION["ghostminion"],
                  **dict.fromkeys(names, False))
    return mock.patch.dict(config.PROTECTION, {"ghostminion": row})


# Machine.not_after: stamps are plain counters
not_after = operator.le


def checking_invariants():
    """A context manager under which ``MemorySystem.check_invariants``
    runs after the last core's ``Core.step`` in every cycle that
    ``Machine.run`` visits."""
    step = Core.step

    def checked(core, cycle):
        moved = step(core, cycle)
        mem = core.mem
        if core is mem.cores[-1]:
            mem.check_invariants()
        return moved
    return mock.patch.object(Core, "step", checked)


def window_checked(not_after):
    """``Machine.not_after`` that asserts its two stamps are fewer than
    ``rob`` apart: the pairs on which hardware's stamps, kept modulo
    2 x rob, order as the counters do."""
    def checked(machine, ts, ts2):
        assert abs(ts2 - ts) < machine.cfg.rob, (ts, ts2, machine.cfg.rob)
        return not_after(machine, ts, ts2)
    return checked


def checking_window():
    """A context manager under which every ``Machine.not_after`` call
    is window-checked."""
    return mock.patch.object(Machine, "not_after",
                             window_checked(Machine.not_after))


class _StubCore:
    """Records the memory system's callbacks: the instructions told to
    retry, and each delivered instruction with its cycle."""

    def __init__(self):
        self.wakes = []
        self.ready = []

    def mem_retry(self, instr):
        self.wakes.append(instr)

    def mem_ready(self, instr, line, cycle, noncoherent):
        self.ready.append((instr, cycle))


def stub_memory(**overrides):
    """A one-core ``MemorySystem`` at ``RunConfig(**overrides)`` wired to
    a ``_StubCore``: (memory system, stub)."""
    mem = MemorySystem(RunConfig(**overrides), 1, not_after)
    core = _StubCore()
    mem.cores = [core]
    return mem, core


OLDER_READER = """\
.word 0x2000 0x3000
.word 0x3000 5
.word 0x4000 7
li r1, 0x2000
ld r2, r1, 0
ld r3, r2, 0
mul r4, r2, r0
mul r4, r4, r0
mul r4, r4, r0
ld r5, r4, 0x4000
bne r3, r0, skip
li r6, 0x4000
ld r7, r6, 0
skip:
add r8, r5, r5
halt
"""

DIVIDER_ORDER = """\
.word 0x2000 0x3000
.word 0x3000 5
li r1, 0x2000
li r9, 3
ld r2, r1, 0
ld r3, r2, 0
add r4, r2, r9
div r5, r4, r9
bne r3, r0, skip
div r6, r2, r9
skip:
add r8, r5, r5
halt
"""

# A and B fill both ways of one L1D set and commit; a wrong-path load
# then hits A, and C is loaded into the same set
LRU_STATE = """\
.word 0x1000 1
.word 0x1800 2
.word 0x2000 3
.word 0x3040 1
li r1, 0x1000
ld r2, r1, 0
ld r4, r1, 0x800
fence
ld r3, r0, 0x3040
bne r3, r0, skip
ld r5, r1, 0
skip:
fence
ld r6, r1, 0x1000
fence
ld r7, r1, 0
halt
"""

# four wrong-path misses take every L1D miss register before the older
# ``ld r4`` can issue
LEAPFROG = """\
.word 0x3040 7
li r1, 0
li r9, 1
li r2, 0x5000
ld r3, r0, 0x3040
mul r2, r2, r9
mul r2, r2, r9
ld r4, r2, 0
bne r3, r0, skip
ld r8, r1, 0x4000
ld r9, r1, 0x4040
ld r10, r1, 0x4080
ld r11, r1, 0x40c0
skip:
add r5, r4, r4
halt
"""

# message passing from core 1 to core 0 (DATA = 8192, FLAG = 12288):
# core 0's data load consumes a non-coherent copy of DATA before core 1
# stores to it, so only the commit-time replay reads the stored 1
MP_CORE0 = """\
li r8, 1
li r9, 8192
ld r1, r0, 12288
ld r2, r9, 0
halt
"""

MP_CORE1 = """\
li r8, 1
li r7, 1
li r9, 8192
ld r3, r0, 8192
div r9, r9, r8
div r9, r9, r8
div r9, r9, r8
st r7, r9, 0
st r7, r0, 12288
halt
"""

# with timeleap off: ``ld r10`` takes the last of the four L1D miss
# registers, for 0x4000, while the ``mul`` chain holds back the older
# ``ld r7``, which then merges into that miss; the register keeps r10's
# younger stamp, so ``ld r8`` leapfrogs it in the same issue walk and
# retries ``ld r7``, a load older than itself
OLDER_RETRY = """\
.word 0x4000 7
.word 0x5000 9
li r9, 1
li r1, 0
mul r2, r9, r9
mul r2, r2, r9
mul r2, r2, r9
sub r2, r2, r9
ld r3, r1, 0x1000
ld r4, r1, 0x2000
ld r5, r1, 0x3000
ld r7, r2, 0x4000
ld r8, r2, 0x5000
ld r10, r1, 0x4000
halt
"""

# at ``GEOMETRIES["tight"]``: the second ``li`` finds no ALU slot, the
# second ``mul`` no MUL slot and the first store no ALU slot, each for
# one cycle; the third store finds the two-entry store queue full until
# the first commits
UNIT_SLOTS = """\
li r1, 3
li r2, 5
mul r3, r1, r1
mul r4, r1, r1
st r1, r0, 0x100
st r2, r0, 0x108
st r3, r0, 0x110
halt
"""

# two instruction lines: at ``l1_sets=1, l1_ways=1`` the second evicts
# the first from the L1I
L1I_EVICTION = "nop\n" * 20 + "halt\n"

# at ``l1_lat=20, l2_mshrs=1, warm_icache``: the youngest load (TIMELEAP_YOUNG)
# misses on 0x3000 first.  Its L2 miss completes, speculative, so the L2
# keeps no copy, and while the line crosses the L1 the divide chain
# releases the two older loads: ``ld r3`` takes the only L2 miss register
# and ``ld r4`` restarts the 0x3000 miss with its older stamp, which finds
# no L2 register and waits for one
TIMELEAP_YOUNG = "ld r5, r0, 0x3000"
TIMELEAP_RESTART = """\
.word 0x3000 5
.word 0x5000 7
li r9, 1
mul r2, r9, r9
""" + "div r2, r2, r9\n" * 12 + f"""\
mul r2, r2, r9
sub r2, r2, r9
ld r3, r2, 0x5000
ld r4, r2, 0x3000
{TIMELEAP_YOUNG}
halt
"""
TIMELEAP_CONFIG = {"l1_lat": 20, "l2_mshrs": 1, "warm_icache": True}

# at ``l2_mshrs=1, warm_icache``: both cores miss in the same cycle, core
# 0 first; core 1's load is the older by stamp, and without merge_core
# it leapfrogs core 0's miss from the only L2 miss register
OTHER_CORE_MISS = """\
li r1, 1
li r2, 2
ld r3, r0, 0x2000
halt
"""
OLDER_MISS = """\
ld r3, r0, 0x3000
halt
"""

# core 1 warms the secret, then mispredicts the ``bne`` on a cold flag
# that holds 1.  On the wrong path the ``beq`` on the secret skips three
# cold loads or reaches them; their addresses wait on a ``mul``, so they
# issue only when the secret is not 0.  Core 0 runs eight fenced cold
# loads, and core 1 commits the same instructions for every secret
L2_PARTITION_CORE0 = "".join(f"ld r1, r0, {0x10000 + 64 * i:#x}\nfence\n"
                             for i in range(8)) + "halt\n"
L2_PARTITION_CORE1 = """\
.word 0x2000 {secret}
.word 0x3000 1
ld r1, r0, 0x2000
fence
ld r2, r0, 0x3000
bne r2, r0, done
beq r1, r0, done
mul r3, r1, r0
ld r4, r3, 0x4000
ld r5, r3, 0x5000
ld r6, r3, 0x6000
done:
halt
"""


def l2_partition(secret):
    """The probe's two programs for ``secret``."""
    return L2_PARTITION_CORE0, L2_PARTITION_CORE1.format(secret=secret)


# a load, a store and two dependence chains, through the loop counter
# and the running sum; the exit branch mispredicts once trained
COUNTED_LOOP = """\
.word 0x1000 3
li r8, {trips}
loop:
andi r9, r8, 0x38
ld r2, r9, 0x1000
add r1, r1, r2
st r8, r9, 0x1000
addi r8, r8, -1
bne r8, r0, loop
halt
"""

# two streams, each a line further on per trip and wrapping after 256
# lines (16 KiB), so trips past 256 re-read lines the first pass left in
# the L2; the loads' strides train the prefetcher
STRIDED_LOOP = """\
li r1, {trips}
loop:
slli r4, r2, 6
andi r4, r4, 0x3fc0
ld r5, r4, 0x10000
ld r6, r4, 0x20000
add r3, r3, r5
add r3, r3, r6
addi r2, r2, 1
bne r2, r1, loop
halt
"""
