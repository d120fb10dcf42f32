"""Switch off one GhostMinion mechanism at a time and show which
end-to-end oracle notices: the mutant kill matrix.

    PYTHONPATH=src python tests/mutants.py

Every run is ghostminion mode.  The first is unmutated; each later one
changes one thing:

* one switch of ``config.PROTECTION["ghostminion"]`` turned off with
  ``dataclasses.replace``, for every field of ``config.Protection``;
* ``GhostCache.lookup`` replaced by a lookup that ignores timestamps,
  while fills, extraction and the squash wipe stay guarded;
* ``Core._replays`` replaced by one that never replays, so a load that
  consumed a non-coherent copy commits without revalidation.

The oracles, each run at the default config unless said otherwise:

* the differential of every gadget over all its secrets;
* 300 seed-0 fuzz programs, ablated, at each geometry of
  ``fingerprint.GEOMETRIES``;
* the 150 ``random.Random(7)`` two-core pairs, ablated, with
  ``check_invariants=True``;
* the targeted programs of ``programs.py``, run as tier-1 runs them:
  an ablation FAIL of ``OLDER_READER``, ``DIVIDER_ORDER``, ``LRU_STATE``
  or ``LEAPFROG``, or a 0 in core 0's r2 after the message-passing pair.

A gadget that LEAKS (or gives ERROR), an ablation FAIL, a ``SimTimeout``,
an invariant ``AssertionError`` and a targeted program that notices each
kill the mutant.  One row is printed per run.  The exit status is 1 only
if the unmutated run fails an oracle: a mutant that survives is reported,
not failed.

The file is not collected by pytest; the whole matrix takes about two
minutes.
"""

import random
import sys
from contextlib import nullcontext
from dataclasses import fields, replace
from unittest import mock

from fingerprint import FUZZ_SEED, GEOMETRIES, PAIR_SEED, PAIRS
from programs import (DIVIDER_ORDER, LEAPFROG, LRU_STATE, MP_CORE0,
                      MP_CORE1, OLDER_READER)

from ghostsim import RunConfig, config, harness
from ghostsim.config import Protection
from ghostsim.core import Core
from ghostsim.gadgets import GADGETS
from ghostsim.ghost_cache import GhostCache
from ghostsim.machine import SimTimeout

FUZZ_PROGRAMS = 300

# single-core programs that tier-1 expects to PASS ablation
TARGETED = {"older_reader": OLDER_READER, "divider_order": DIVIDER_ORDER,
            "lru_state": LRU_STATE, "leapfrog": LEAPFROG}


_LOOKUP = GhostCache.lookup


def _unguarded_lookup(self, line_addr, ts):
    """``GhostCache.lookup`` with the timestamp check off for the call, so
    the mutant does not depend on how a set stores its ways."""
    guard, self.timeguard = self.timeguard, False
    try:
        return _LOOKUP(self, line_addr, ts)
    finally:
        self.timeguard = guard


METHODS = {
    "GhostCache.lookup unguarded": (GhostCache, "lookup", _unguarded_lookup),
    "Core._replays never": (Core, "_replays", lambda self, di: False),
}


def switched_off(name):
    row = replace(config.PROTECTION["ghostminion"], **{name: False})
    return mock.patch.dict(config.PROTECTION, {"ghostminion": row})


def mutants():
    """Yield (name, context manager) for the baseline and every mutant."""
    yield "none (ghostminion)", nullcontext()
    for f in fields(Protection):
        yield f"{f.name} off", switched_off(f.name)
    for name, (cls, attr, fn) in METHODS.items():
        yield name, mock.patch.object(cls, attr, fn)


def _ablation_fails(programs, cfg):
    try:
        return harness.run_ablation(programs, cfg).verdict != "PASS"
    except (SimTimeout, AssertionError):
        return True


def _stale_message(cfg):
    try:
        m, _ = harness.run([MP_CORE0, MP_CORE1], cfg)
    except (SimTimeout, AssertionError):
        return True
    return m.cores[0].regs[2] == 0


def targeted():
    """Names of the targeted programs that notice the running mutant."""
    cfg = RunConfig()
    out = [name for name, text in TARGETED.items()
           if _ablation_fails([text], cfg)]
    if _stale_message(cfg):
        out.append("message_passing")
    return out


def oracles(texts, pairs):
    """Run every oracle: (gadgets that did not give SAFE, fuzz FAILs per
    geometry, pair FAILs, targeted programs that notice)."""
    leaks = []
    for g in GADGETS.values():
        try:
            verdict = harness.run_differential(g, RunConfig()).verdict
        except SimTimeout:
            verdict = "timeout"
        except AssertionError:
            verdict = "invariant"
        if verdict != "SAFE":
            leaks.append(g.name if verdict == "LEAKS" else f"{g.name}:{verdict}")
    fuzz = {}
    for geo, overrides in GEOMETRIES.items():
        cfg = RunConfig(**overrides)
        fuzz[geo] = sum(_ablation_fails([t], cfg) for t in texts)
    cfg = RunConfig(check_invariants=True)
    pair_fails = sum(_ablation_fails(p, cfg) for p in pairs)
    return leaks, fuzz, pair_fails, targeted()


def main():
    rng = random.Random(FUZZ_SEED)
    texts = [harness._gen_program(rng) for _ in range(FUZZ_PROGRAMS)]
    rng = random.Random(PAIR_SEED)
    pairs = [[harness._gen_program(rng), harness._gen_program(rng)]
             for _ in range(PAIRS)]
    print(f"{'mutant':28s} {'killed':6s} {'pairs FAIL':10s} "
          f"{'fuzz FAIL (' + '+'.join(GEOMETRIES) + ')':36s} "
          f"{'gadgets LEAKS':24s} targeted")
    status = 0
    for i, (name, patch) in enumerate(mutants()):
        with patch:
            leaks, fuzz, pair_fails, hits = oracles(texts, pairs)
        failed = bool(leaks) or sum(fuzz.values()) > 0 or pair_fails > 0 \
            or bool(hits)
        if i == 0:
            killed = "-"
            status = 1 if failed else 0
        else:
            killed = "yes" if failed else "no"
        per_geo = "+".join(str(n) for n in fuzz.values())
        fuzz_col = f"{sum(fuzz.values())} ({per_geo})"
        print(f"{name:28s} {killed:6s} {pair_fails:<10d} {fuzz_col:36s} "
              f"{', '.join(leaks) or '-':24s} {', '.join(hits) or '-'}",
              flush=True)
    if status:
        print("the unmutated ghostminion run fails an oracle", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
