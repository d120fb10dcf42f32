"""Hand-written programs that expose one protection mechanism each, shared
by the tier-1 tests and ``tests/mutants.py``.

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
and the pair ``OTHER_CORE_MISS``/``OLDER_MISS`` a full L2 miss-register
file holding only the other core's miss.
"""

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

# at ``fingerprint.GEOMETRIES["tight"]``: the second ``li`` finds no ALU
# slot, the second ``mul`` no MUL slot and the first store no ALU slot,
# each for one cycle; the third store finds the two-entry store queue
# full until the first commits
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
# 0 first; core 1's load is the older by stamp, but the only L2 miss
# register holds core 0's miss, which it may not leapfrog (merge_core)
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
