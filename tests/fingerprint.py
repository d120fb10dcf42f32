"""Fingerprint a fixed corpus of runs, to show that a refactor changes no
behaviour.

    PYTHONPATH=src python tests/fingerprint.py OUT.json
    PYTHONPATH=src python tests/fingerprint.py --compare A.json B.json

The first form simulates the corpus below and writes one record per run:
a hash of the program texts, timeline digest, cycles, counters, hashes
of every non-speculative cache's lines (``_cache_lines``), of the line
owners (``MemorySystem.owner``, its sorted items) and of the
prefetcher's table, final registers and memory words and, where the
corpus ablates, the ablation verdict, purity and detail.  The second lists the
records that differ between two such files and exits 1 if there are any.

Corpus:

* every gadget x mode x secret; secrets 0 and 11 are also ablated;
* the programs of fuzz seed 0, ablated: 1000 in ghostminion mode at the
  default geometry, 300 for every other mode x geometry in ``GEOMETRIES``;
* the 150 ``random.Random(7)`` two-core pairs in ghostminion and unsafe
  mode, ablated, at each geometry of ``PAIR_GEOMETRIES``, with
  ``check_invariants`` on: a coherence invariant broken in any cycle
  stops the script with its assertion.

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
    # fewer units than the width, and queues and miss registers that fill
    "tight": {"alu_units": 1, "mul_units": 1, "mem_ports": 1, "lq": 2,
              "sq": 2, "l1_mshrs": 2, "l2_mshrs": 1},
}
PAIR_GEOMETRIES = ("default", "zerolat", "tight")
ABLATED_SECRETS = (0, 11)
FUZZ_SEED = 0
PAIR_SEED = 7
PAIRS = 150


def _hash(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _cache_lines(mem):
    """Each cache's lines as sorted ``(set, tag, dirty)`` triples, grouped
    as (L1Ds, L1Is, L2): equal states hash equally whatever their LRU
    order."""
    caches = [sorted((i, tag, dirty) for i, st in sets.items()
                     for tag, dirty in st.items())
              for sets in mem.nonspec_sets()]
    n = len(mem.l1d)
    return tuple(caches[:n]), tuple(caches[n:2 * n]), caches[-1]


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
        "nonspec": _hash(_cache_lines(m.mem)),
        "owner": _hash(sorted(m.mem.owner.items())),
        "rpt": _hash(tuple(tuple(e) if e else None for e in m.mem.rpt)),
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
            cfg = replace(base, mode=mode, **g.cfg_overrides)
            for s in g.secrets:
                yield (f"gadget/{g.name}/{mode}/{s}", g.programs(s), cfg,
                       s in ABLATED_SECRETS)
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
    for geo in PAIR_GEOMETRIES:
        prefix = "pair" if geo == "default" else f"pair/{geo}"
        for mode in ("ghostminion", "unsafe"):
            cfg = replace(base, mode=mode, check_invariants=True,
                          **GEOMETRIES[geo])
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
