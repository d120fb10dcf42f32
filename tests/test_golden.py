"""Timing golden: recorded timeline digests, cycle counts and counters.

Every gadget in every mode at secret 0, plus the first 50 fuzz programs
of ``FUZZ_SEED`` (0) in ghostminion mode, must reproduce the values
stored in ``golden_digests.json`` exactly.  The fuzz programs run twice:
at the default geometry, and with one miss register per level
(``MSHR_ONE``), where leapfrogs cancel misses and retry their loads
while the core is still issuing.  The first 20 two-core pairs of
``PAIR_SEED`` (7) run in ghostminion and unsafe mode, so the two-core
commit path is pinned too; both seeds are ``programs.py``'s.
``STRIDED_LOOP`` at 300 trips runs in every mode at the default geometry
and with three L1 and one L2 miss register (``STRIDE_GEOMETRIES``): long
runs in which thousands of loads find the L1D miss-register file full
and retry.  A
change that is meant to leave simulated behaviour alone (a refactor, a
speed-up) keeps this test passing unchanged; a change that is meant to
move timing re-records the file with ``python tests/test_golden.py
--record`` and says why.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

from programs import (FUZZ_SEED, PAIR_SEED, STRIDED_LOOP, fuzz_text, observe,
                      pair_texts)

from ghostsim import RunConfig, harness
from ghostsim.config import MODES
from ghostsim.gadgets import GADGETS

GOLDEN = Path(__file__).with_name("golden_digests.json")
FUZZ_COUNT = 50
MSHR_ONE = {"l1_mshrs": 1, "l2_mshrs": 1}
PAIR_COUNT = 20
PAIR_MODES = ("ghostminion", "unsafe")
PAIR_KEY = "pairs_seed7"
STRIDE_KEY = "strided_loop_300"
STRIDE_TRIPS = 300
STRIDE_GEOMETRIES = {"default": {}, "mshr_3_1": {"l1_mshrs": 3, "l2_mshrs": 1}}


def _record(programs, cfg):
    end = observe(harness.run(programs, cfg)[0])
    return {k: end[k] for k in ("digest", "cycles", "counters")}


def golden():
    gadgets = {}
    for name, g in GADGETS.items():
        for mode in MODES:
            cfg = replace(RunConfig(mode=mode), **g.cfg_overrides)
            gadgets[f"{name}/{mode}"] = _record(g.programs(0), cfg)
    texts = [fuzz_text(FUZZ_SEED, i) for i in range(FUZZ_COUNT)]
    cfg = RunConfig(mode="ghostminion")
    fuzz = [harness.run(t, cfg)[1].digest for t in texts]
    cfg = RunConfig(mode="ghostminion", **MSHR_ONE)
    fuzz_mshr1 = [harness.run(t, cfg)[1].digest for t in texts]
    two_core = {mode: [harness.run(pair_texts(PAIR_SEED, i),
                                   RunConfig(mode=mode))[1].digest
                       for i in range(PAIR_COUNT)]
                for mode in PAIR_MODES}
    text = STRIDED_LOOP.format(trips=STRIDE_TRIPS)
    strided = {f"{geo}/{mode}": _record([text], RunConfig(mode=mode, **over))
               for geo, over in STRIDE_GEOMETRIES.items() for mode in MODES}
    return {"gadgets": gadgets, "fuzz_seed0_ghostminion": fuzz,
            "fuzz_seed0_ghostminion_mshr1": fuzz_mshr1, PAIR_KEY: two_core,
            STRIDE_KEY: strided}


def test_timelines_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = golden()
    for key, rec in want["gadgets"].items():
        assert got["gadgets"][key] == rec, key
    assert got["gadgets"].keys() == want["gadgets"].keys()
    for key in ("fuzz_seed0_ghostminion", "fuzz_seed0_ghostminion_mshr1"):
        for i, (a, b) in enumerate(zip(got[key], want[key])):
            assert a == b, f"{key}: fuzz seed {FUZZ_SEED} program {i}"
        assert len(want[key]) == FUZZ_COUNT
    assert want[PAIR_KEY].keys() == set(PAIR_MODES)
    for mode, digests in want[PAIR_KEY].items():
        for i, (a, b) in enumerate(zip(got[PAIR_KEY][mode], digests)):
            assert a == b, f"{mode}: pair seed {PAIR_SEED} pair {i}"
        assert len(digests) == PAIR_COUNT
    assert got[STRIDE_KEY] == want[STRIDE_KEY]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    GOLDEN.write_text(json.dumps(golden(), indent=1, sort_keys=True) + "\n")
