"""Switch off one GhostMinion mechanism at a time and show which
end-to-end oracle notices: the mutant kill matrix.

    PYTHONPATH=src python tests/mutants.py

Every run is ghostminion mode.  The first is unmutated; each later one
changes one thing:

* one switch of ``config.PROTECTION["ghostminion"]`` turned off with
  ``programs.switched_off``, for every field of ``config.Protection``;
* ``GhostCache.lookup`` replaced by a lookup that ignores timestamps,
  while fills, extraction and the squash wipe stay guarded;
* ``Core._replays`` replaced by one that never replays, so a load that
  consumed a non-coherent copy commits without revalidation;
* ``Core.do_complete`` wrapped so that the branch predictor also trains
  on every branch that completes, wrong path included, not at commit
  only;
* ``MemorySystem.data_access`` wrapped so that the stride prefetcher
  also trains on every data access, not only on committed loads whose
  line came from below the L1.

The oracles, each run at the default config unless said otherwise:

* the differential of every gadget over all its secrets;
* 300 ``FUZZ_SEED`` (0) fuzz programs, ablated, at each geometry of
  ``programs.GEOMETRIES``;
* the ``PAIRS`` (150) two-core pairs of ``PAIR_SEED`` (7), ablated,
  under ``programs.checking_invariants``;
* the targeted programs of ``programs.py``, run as tier-1 runs them:
  an ablation FAIL of ``OLDER_READER``, ``DIVIDER_ORDER``, ``LRU_STATE``
  or ``LEAPFROG``, a 0 in core 0's r2 after the message-passing pair, or
  (``l2_partition``) a core 0 timeline of the ``l2_partition`` probe at
  ``l2_mshrs=2`` that differs between secrets 0 and 1.

A gadget that LEAKS (or gives ERROR), an ablation FAIL, a ``SimTimeout``,
an invariant ``AssertionError`` and a targeted program that notices each
kill the mutant.  One row is printed per run.  Beside each count of
ablation FAILs, after a ``/``, is the count of ablations that PASS but
are impure (``CheckResult.pure``: the caches, owners or prefetcher
differ at HALT), a report only: it does not kill.  The exit status is 1
only if the unmutated run fails an oracle: a mutant that survives is
reported, not failed.

The file is not collected by pytest; the whole matrix takes about two
minutes.
"""

import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import fields
from unittest import mock

from programs import (DIVIDER_ORDER, FUZZ_SEED, GEOMETRIES, LEAPFROG,
                      LRU_STATE, MP_CORE0, MP_CORE1, OLDER_READER, PAIR_SEED,
                      PAIRS, checking_invariants, fuzz_text, l2_partition,
                      pair_texts, switched_off)

from ghostsim import RunConfig, harness
from ghostsim.config import Protection
from ghostsim.core import Core
from ghostsim.gadgets import GADGETS
from ghostsim.ghost_cache import GhostCache
from ghostsim.isa import BRANCH
from ghostsim.machine import SimTimeout
from ghostsim.memory import MemorySystem

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


_COMPLETE = Core.do_complete


def _complete_trains(self, cycle):
    """``Core.do_complete`` that then trains the predictor, as commit
    does, on each branch it completed, wrong path included.  An ablated
    branch never executed and does not train."""
    due = [di for di in self.inflight if di.done_at <= cycle
           and di.si.cls == BRANCH and not di.ablated]
    moved = _COMPLETE(self, cycle)
    counters = self.bp_counters
    for di in due:
        if di.completed == cycle:
            ctr = counters.get(di.si.pc, 1)
            counters[di.si.pc] = min(ctr + 1, 3) if di.taken \
                else max(ctr - 1, 0)
    return moved


_DATA_ACCESS = MemorySystem.data_access


def _access_trains(self, core, instr, line, spec, cycle):
    """``MemorySystem.data_access`` that then trains the prefetcher on
    the load, hit or miss, wrong path included."""
    out = _DATA_ACCESS(self, core, instr, line, spec, cycle)
    self.prefetch_notify(instr.si.pc, line, cycle)
    return out


METHODS = {
    "GhostCache.lookup unguarded": (GhostCache, "lookup", _unguarded_lookup),
    "Core._replays never": (Core, "_replays", lambda self, di: False),
    "do_complete trains predictor": (Core, "do_complete", _complete_trains),
    "data_access trains prefetcher": (MemorySystem, "data_access",
                                      _access_trains),
}


def mutants():
    """Yield (name, context manager) for the baseline and every mutant."""
    yield "none (ghostminion)", nullcontext()
    for f in fields(Protection):
        yield f"{f.name} off", switched_off(f.name)
    for name, (cls, attr, fn) in METHODS.items():
        yield name, mock.patch.object(cls, attr, fn)


def _ablation(programs, cfg):
    """"FAIL", "impure" for a PASS whose end state differs, or "PASS"."""
    try:
        res = harness.run_ablation(programs, cfg)
    except (SimTimeout, AssertionError):
        return "FAIL"
    if res.verdict != "PASS":
        return "FAIL"
    return "PASS" if res.pure else "impure"


def _stale_message(cfg):
    try:
        m, _ = harness.run([MP_CORE0, MP_CORE1], cfg)
    except (SimTimeout, AssertionError):
        return True
    return m.cores[0].regs[2] == 0


def _partition_leaks():
    cfg = RunConfig(l2_mshrs=2)
    try:
        a, b = (harness.run(l2_partition(s), cfg)[0].cores[0].timeline
                for s in (0, 1))
    except (SimTimeout, AssertionError):
        return True
    return a != b


def targeted():
    """Names of the targeted programs that notice the running mutant."""
    cfg = RunConfig()
    out = [name for name, text in TARGETED.items()
           if _ablation([text], cfg) == "FAIL"]
    if _stale_message(cfg):
        out.append("message_passing")
    if _partition_leaks():
        out.append("l2_partition")
    return out


def oracles():
    """Run every oracle: (gadgets that did not give SAFE, a Counter of
    ablation outcomes per fuzz geometry, that of the pairs, targeted
    programs that notice)."""
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
        fuzz[geo] = Counter(_ablation(fuzz_text(FUZZ_SEED, i), cfg)
                            for i in range(FUZZ_PROGRAMS))
    with checking_invariants():
        pairs = Counter(_ablation(pair_texts(PAIR_SEED, i), RunConfig())
                        for i in range(PAIRS))
    return leaks, fuzz, pairs, targeted()


def _counts(outcomes):
    """FAILs and impure PASSes as ``FAIL/impure``."""
    return f"{outcomes['FAIL']}/{outcomes['impure']}"


def main():
    print(f"{'mutant':30s} {'killed':6s} {'pairs FAIL/impure':17s} "
          f"{'fuzz FAIL/impure (' + '+'.join(GEOMETRIES) + ')':60s} "
          f"{'gadgets LEAKS':24s} targeted")
    status = 0
    for i, (name, patch) in enumerate(mutants()):
        with patch:
            leaks, fuzz, pairs, hits = oracles()
        total = sum(fuzz.values(), Counter())
        failed = bool(leaks) or total["FAIL"] > 0 or pairs["FAIL"] > 0 \
            or bool(hits)
        if i == 0:
            killed = "-"
            status = 1 if failed else 0
        else:
            killed = "yes" if failed else "no"
        per_geo = "+".join(_counts(n) for n in fuzz.values())
        fuzz_col = f"{_counts(total)} ({per_geo})"
        print(f"{name:30s} {killed:6s} {_counts(pairs):17s} {fuzz_col:60s} "
              f"{', '.join(leaks) or '-':24s} {', '.join(hits) or '-'}",
              flush=True)
    if status:
        print("the unmutated ghostminion run fails an oracle", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
