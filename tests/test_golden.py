"""Timing golden: recorded timeline digests, cycle counts and counters.

Every gadget in every mode at secret 0, plus the first 50 fuzz programs
of seed 0 in ghostminion mode, must reproduce the values stored in
``golden_digests.json`` exactly.  The fuzz programs run twice: at the
default geometry, and with one miss register per level
(``MSHR_ONE``), where leapfrogs cancel misses and retry their loads
while the core is still issuing.  The first 20 ``random.Random(7)``
two-core pairs (as in ``fingerprint.py``) run in ghostminion and unsafe
mode, so the two-core commit path is pinned too.  A change that is meant to leave
simulated behaviour alone (a refactor, a speed-up) keeps this test
passing unchanged; a change that is meant to move timing re-records the
file with ``python tests/test_golden.py --record`` and says why.
"""

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

from ghostsim import RunConfig, harness
from ghostsim.gadgets import GADGETS

GOLDEN = Path(__file__).with_name("golden_digests.json")
MODES = ("ghostminion", "unsafe", "flush_only")
FUZZ_SEED = 0
FUZZ_COUNT = 50
MSHR_ONE = {"l1_mshrs": 1, "l2_mshrs": 1}
PAIR_SEED = 7
PAIR_COUNT = 20
PAIR_MODES = ("ghostminion", "unsafe")
PAIR_KEY = "pairs_seed7"


def observe():
    gadgets = {}
    for name, g in GADGETS.items():
        for mode in MODES:
            cfg = replace(RunConfig(mode=mode), **g.cfg_overrides)
            _, rep = harness.run(g.programs(0), cfg)
            gadgets[f"{name}/{mode}"] = {"digest": rep.digest,
                                         "cycles": rep.cycles,
                                         "counters": rep.counters}
    rng = random.Random(FUZZ_SEED)
    texts = [harness._gen_program(rng) for _ in range(FUZZ_COUNT)]
    cfg = RunConfig(mode="ghostminion")
    fuzz = [harness.run([t], cfg)[1].digest for t in texts]
    cfg = RunConfig(mode="ghostminion", **MSHR_ONE)
    fuzz_mshr1 = [harness.run([t], cfg)[1].digest for t in texts]
    rng = random.Random(PAIR_SEED)
    pairs = [[harness._gen_program(rng), harness._gen_program(rng)]
             for _ in range(PAIR_COUNT)]
    two_core = {mode: [harness.run(pair, RunConfig(mode=mode))[1].digest
                       for pair in pairs]
                for mode in PAIR_MODES}
    return {"gadgets": gadgets, "fuzz_seed0_ghostminion": fuzz,
            "fuzz_seed0_ghostminion_mshr1": fuzz_mshr1, PAIR_KEY: two_core}


def test_timelines_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = observe()
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    GOLDEN.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
