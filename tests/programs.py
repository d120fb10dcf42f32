"""Hand-written programs that expose one protection mechanism each, shared
by the tier-1 tests and ``tests/mutants.py``.

Each program runs at the default config.  The first four PASS ablation in
ghostminion mode and FAIL it with their mechanism switched off:
``OLDER_READER`` the timeguard, ``DIVIDER_ORDER`` the in-order divider,
``LRU_STATE`` the hidden speculative LRU updates and ``LEAPFROG`` the
leapfrog.  The message-passing pair ``MP_CORE0``/``MP_CORE1`` leaves 1 in
core 0's r2 only when the commit-time replay runs.  ``OLDER_RETRY``
exercises the issue walk rather than a protection, with ``warm_icache``
and timeleap off.
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
