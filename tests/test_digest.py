"""The timeline digest's definition: sha256 over each core's
``repr(core.timeline)`` encoded, followed by a NUL byte.

Oracle: the digest recomputed here from that definition.
``harness.timeline_digest`` formats the entries itself, so it must give
the same bytes on every kind of run: single-core gadgets in every mode,
fuzz programs at a tight geometry, the two-core message-passing pair,
timelines longer than the slice it hashes at a time, an empty timeline,
and results at the edges of the 64-bit range.
"""

import hashlib
import random
from dataclasses import replace

import pytest
from fingerprint import GEOMETRIES
from programs import MP_CORE0, MP_CORE1

from ghostsim import Machine, RunConfig, harness, load_program
from ghostsim.config import MODES
from ghostsim.gadgets import GADGETS

SINGLE_CORE = sorted(name for name, g in GADGETS.items() if not g.two_core)

EXTREMES = """\
.word 0x2000 0x7fffffffffffffff
.word 0x2008 -0x8000000000000000
ld r1, r0, 0x2000
ld r2, r0, 0x2008
addi r3, r1, 1
sub r4, r0, r1
addi r5, r2, -1
li r6, -7
st r2, r0, 0x2010
nop
halt
"""


def repr_digest(machine):
    h = hashlib.sha256()
    for core in machine.cores:
        h.update(repr(core.timeline).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _check(programs, cfg):
    m, rep = harness.run(programs, cfg)
    assert rep.digest == harness.timeline_digest(m) == repr_digest(m)
    return m


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SINGLE_CORE)
def test_single_core_gadgets(name, mode):
    g = GADGETS[name]
    _check(g.programs(5), replace(RunConfig(mode=mode), **g.cfg_overrides))


def test_fuzz_programs_at_tight_geometry():
    rng = random.Random(0)
    cfg = replace(RunConfig(), **GEOMETRIES["tight"])
    for _ in range(20):
        _check([harness._gen_program(rng)], cfg)


def test_message_passing_pair():
    m = _check([MP_CORE0, MP_CORE1], RunConfig())
    assert len(m.cores) == 2 and all(c.timeline for c in m.cores)


def test_timelines_of_several_slices_and_none():
    # the digest hashes a slice of entries at a time: a timeline of
    # several slices, ending inside one, and an empty one
    g = GADGETS["spectre_prime"]
    m = _check(g.programs(5), replace(RunConfig(), **g.cfg_overrides))
    assert max(len(c.timeline) for c in m.cores) > 3 * harness._DIGEST_SLICE
    assert len(m.cores[1].timeline) % harness._DIGEST_SLICE
    m = Machine([load_program("halt")], RunConfig())
    assert m.cores[0].timeline == []
    assert harness.timeline_digest(m) == repr_digest(m)


def test_none_negative_and_extreme_results():
    m = _check([EXTREMES], RunConfig())
    results = [entry[-1] for entry in m.cores[0].timeline]
    assert None in results                  # nop and halt carry none
    ints = [r for r in results if r is not None]
    assert max(ints) == 2**63 - 1 and min(ints) == -2**63
    assert -7 in ints and -(2**63 - 1) in ints
