"""Fingerprint a fixed corpus of runs, to show that a refactor changes no
behaviour.

    PYTHONPATH=src python tests/fingerprint.py OUT.json
    PYTHONPATH=src python tests/fingerprint.py --compare A.json B.json

The first form simulates the corpus below and writes one record per run:
a hash of the program texts, timeline digest, cycles, counters, hashes
of every non-speculative cache's lines (``_cache_lines``), of the line
owners (``MemorySystem.owner``, its sorted items) and of the
prefetcher's table, final registers and memory words and, where the
corpus ablates, the ablation verdict, purity and divergence
(``CheckResult.divergence``: the core, the commit number and both runs'
timeline records, None where a run committed nothing), not the text that
reports it.  The second prints each record that differs between two such
files as ``name: field, field``, the fields whose values differ, then a
``N of M records differ`` line, and exits 1 if any differ.

Corpus:

* every gadget x mode x secret; ``ABLATED_SECRETS`` (0 and 11) are
  also ablated;
* the programs of ``FUZZ_SEED`` (0), ablated: 1000 in ghostminion mode at
  the default geometry, 300 for every other mode x geometry in
  ``GEOMETRIES``;
* the ``PAIRS`` (150) two-core pairs of ``PAIR_SEED`` (7) in ghostminion
  and unsafe mode, ablated, at each geometry of ``PAIR_GEOMETRIES``,
  under ``programs.checking_invariants``: a coherence invariant broken
  in any cycle stops the script with its assertion.

The file is not collected by pytest; the whole corpus takes about
a minute and a half.
"""

import hashlib
import json
import sys
from dataclasses import replace

from programs import (ABLATED_SECRETS, FUZZ_SEED, GEOMETRIES, PAIR_GEOMETRIES,
                      PAIR_SEED, PAIRS, checking_invariants, fuzz_text,
                      observe, pair_texts)

from ghostsim import RunConfig, harness
from ghostsim.config import MODES
from ghostsim.gadgets import GADGETS, SECRETS
from ghostsim.machine import SimTimeout


def _hash(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _cache_lines(nonspec):
    """Each cache's lines, from ``MemorySystem.nonspec_sets()``, as sorted
    ``(set, tag, dirty)`` triples, grouped as (L1Ds, L1Is, L2): equal
    states hash equally whatever their LRU order."""
    caches = [sorted((i, tag, dirty) for i, st in sets.items()
                     for tag, dirty in st.items())
              for sets in nonspec]
    n = len(caches) // 2
    return tuple(caches[:n]), tuple(caches[n:2 * n]), caches[-1]


def record(programs, cfg, ablate):
    text = _hash(programs)
    try:
        m, _ = harness.run(programs, cfg)
    except SimTimeout as e:
        return {"text": text, "timeout": e.cycles}
    end = observe(m)
    rec = {
        "text": text,
        "digest": end["digest"],
        "cycles": end["cycles"],
        "counters": end["counters"],
        "nonspec": _hash(_cache_lines(end["nonspec"])),
        "owner": _hash(sorted(end["owner"].items())),
        "rpt": _hash(tuple(tuple(e) if e else None for e in end["rpt"])),
        "regs": [c.regs for c in m.cores],
        "words": _hash(sorted(m.words.items())),
    }
    if ablate:
        res = harness.run_ablation(programs, cfg)
        rec["ablation"] = [res.verdict, res.pure, res.divergence]
    return rec


def corpus():
    """Yield (name, programs, cfg, ablate) for every run of the corpus."""
    base = RunConfig()
    for g in GADGETS.values():
        for mode in MODES:
            cfg = replace(base, mode=mode, **g.cfg_overrides)
            for s in SECRETS:
                yield (f"gadget/{g.name}/{mode}/{s}", g.programs(s), cfg,
                       s in ABLATED_SECRETS)
    for geo, overrides in GEOMETRIES.items():
        for mode in MODES:
            n = 1000 if (geo, mode) == ("default", "ghostminion") else 300
            cfg = replace(base, mode=mode, **overrides)
            for i in range(n):
                yield (f"fuzz/{geo}/{mode}/{i}", list(fuzz_text(FUZZ_SEED, i)),
                       cfg, True)
    # a pair's record is made while this generator waits at its yield,
    # so inside the ``with``
    with checking_invariants():
        for geo, overrides in PAIR_GEOMETRIES.items():
            prefix = "pair" if geo == "default" else f"pair/{geo}"
            for mode in ("ghostminion", "unsafe"):
                cfg = replace(base, mode=mode, **overrides)
                for i in range(PAIRS):
                    yield (f"{prefix}/{mode}/{i}",
                           list(pair_texts(PAIR_SEED, i)), cfg, True)


def compare(path_a, path_b):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for k in differ:
        ra, rb = a.get(k, {}), b.get(k, {})
        fields = sorted(f for f in ra.keys() | rb.keys()
                        if ra.get(f) != rb.get(f))
        print(f"{k}: {', '.join(fields)}")
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
