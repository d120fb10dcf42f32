"""Fingerprint a fixed corpus of runs, to show that a refactor changes no
behaviour.

    PYTHONPATH=src python tests/fingerprint.py OUT.json
    PYTHONPATH=src python tests/fingerprint.py --compare A.json B.json

The first form simulates the corpus below and writes one record per run:
a hash of the program texts, timeline digest, cycles, counters, hashes
of ``nonspec_state()`` and ``rpt_state()``, final registers and memory
words and, where the corpus ablates, the ablation verdict, purity and
detail.  The second lists the
records that differ between two such files and exits 1 if there are any.

Corpus:

* every gadget x mode x secret, with ``debug_unbounded_ts`` off and on;
  secrets 0 and 11 are also ablated;
* the programs of fuzz seed 0, ablated: 1000 in ghostminion mode at the
  default geometry, 300 for every other mode x geometry in ``GEOMETRIES``;
* the 150 ``random.Random(7)`` two-core pairs in ghostminion and unsafe
  mode, ablated, at the default geometry and at ``zerolat``.

The file is not collected by pytest; the whole corpus takes about
a minute and a half.
"""

import hashlib
import json
import random
import sys
from dataclasses import replace

from ghostsim import RunConfig, harness
from ghostsim.config import MODES
from ghostsim.gadgets import GADGETS
from ghostsim.machine import SimTimeout

GEOMETRIES = {
    "default": {},
    "rob4": {"rob": 4},
    "tiny": {"rob": 2, "l1_mshrs": 1, "ghost_sets": 1, "ghost_ways": 1},
    "mshr31": {"l1_mshrs": 3, "l2_mshrs": 1},
    # an L2 completion hands its L1 parent a same-cycle delivery; in the
    # pairs, a forwarded fill is also scheduled for the current cycle
    "zerolat": {"l1_lat": 0, "coh_lat": 0, "mem_lat": 0},
}
ABLATED_SECRETS = (0, 11)
FUZZ_SEED = 0
PAIR_SEED = 7
PAIRS = 150


def _hash(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _canonical(state):
    """Cache snapshots are frozensets; sort them so equal states hash
    equally whatever their iteration order."""
    if isinstance(state, frozenset):
        return sorted(state)
    if isinstance(state, tuple):
        return tuple(_canonical(s) for s in state)
    return state


def record(programs, cfg, ablate):
    text = _hash(programs)
    try:
        m, rep = harness.run(programs, cfg)
    except SimTimeout as e:
        return {"text": text, "timeout": e.cycles}
    rec = {
        "text": text,
        "digest": rep.digest,
        "cycles": rep.cycles,
        "counters": rep.counters,
        "nonspec": _hash(_canonical(m.mem.nonspec_state())),
        "rpt": _hash(m.mem.rpt_state()),
        "regs": [c.regs for c in m.cores],
        "words": _hash(sorted(m.words.items())),
    }
    if ablate:
        res = harness.run_ablation(programs, cfg)
        rec["ablation"] = [res.verdict, res.pure, res.detail]
    return rec


def corpus():
    """Yield (name, programs, cfg, ablate) for every run of the corpus."""
    base = RunConfig()
    for g in GADGETS.values():
        for mode in MODES:
            for unbounded in (False, True):
                cfg = replace(base, mode=mode, debug_unbounded_ts=unbounded,
                              **g.cfg_overrides)
                for s in g.secrets:
                    yield (f"gadget/{g.name}/{mode}/ts{int(unbounded)}/{s}",
                           g.programs(s), cfg, s in ABLATED_SECRETS)
    rng = random.Random(FUZZ_SEED)
    texts = [harness._gen_program(rng) for _ in range(1000)]
    for geo, overrides in GEOMETRIES.items():
        for mode in MODES:
            n = 1000 if (geo, mode) == ("default", "ghostminion") else 300
            cfg = replace(base, mode=mode, **overrides)
            for i in range(n):
                yield f"fuzz/{geo}/{mode}/{i}", [texts[i]], cfg, True
    rng = random.Random(PAIR_SEED)
    pairs = [[harness._gen_program(rng), harness._gen_program(rng)]
             for _ in range(PAIRS)]
    for geo in ("default", "zerolat"):
        prefix = "pair" if geo == "default" else f"pair/{geo}"
        for mode in ("ghostminion", "unsafe"):
            cfg = replace(base, mode=mode, **GEOMETRIES[geo])
            for i, pair in enumerate(pairs):
                yield f"{prefix}/{mode}/{i}", pair, cfg, True


def compare(path_a, path_b):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for k in differ:
        print(k)
    print(f"{len(differ)} of {len(a.keys() | b.keys())} records differ")
    return 1 if differ else 0


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = {name: record(programs, cfg, ablate)
           for name, programs, cfg, ablate in corpus()}
    with open(argv[0], "w") as fh:
        json.dump(out, fh, sort_keys=True)
    print(f"{len(out)} records written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
