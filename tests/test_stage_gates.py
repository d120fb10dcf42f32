"""Oracle: ``Core.step`` calls a stage only when its occupancy says it
can act.  A reference loop that calls every stage on every visited
cycle, ungated, must give the same run as ``Machine.run``: timelines,
cycles, counters, non-speculative cache state, line owners and the
prefetcher's table, for normal and ablated runs alike.

Also: every method the benchmark's tracer wraps is still called, so a
later inlining cannot silently empty a per-layer metric."""

import random
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from fingerprint import PAIR_SEED
from programs import MP_CORE0, MP_CORE1

from ghostsim import Machine, RunConfig, SimTimeout, harness, load_program
from ghostsim.config import MODES
from ghostsim.gadgets import GADGETS
from ghostsim.harness import _gen_program

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

SECRETS = (0, 11)


def reference_run(m, max_cycles=None):
    """``Machine.run`` with each ``Core.step`` replaced by a call of every
    stage on every visited cycle."""
    limit = max_cycles if max_cycles is not None else m.cfg.max_cycles
    mem = m.mem
    cores = m.cores
    while True:
        if all(core.halted for core in cores):
            return m.cycle
        if m.cycle >= limit:
            raise SimTimeout(limit)
        c = m.cycle
        progress = mem.tick(c)
        for core in cores:
            progress |= core.do_complete(c)
            progress |= core.do_commit(c)
            progress |= core.do_issue(c)
            progress |= core.do_rename(c)
            progress |= core.do_fetch(c)
        if m.cfg.check_invariants:
            mem.check_invariants()
        if progress:
            m.cycle = c + 1
        else:
            events = mem._events
            wake = min(events[0][0] if events else float("inf"),
                       *(core.next_event(c) for core in cores))
            m.cycle = max(c + 1, min(wake, limit))


def _outcome(m, run, max_cycles=None):
    try:
        run(m, max_cycles)
        timeout = None
    except SimTimeout as e:
        timeout = e.cycles
    return (timeout, m.cycle, [core.timeline for core in m.cores],
            dict(m.mem.counters), m.mem.nonspec_sets(), m.mem.owner,
            m.mem.rpt)


def _runs(programs, cfg, run, ablate):
    """The outcome of the normal run and, if ``ablate``, of its ablation."""
    m1 = Machine(programs, cfg)
    out = [_outcome(m1, run)]
    if ablate:
        out.append(_outcome(Machine(programs, cfg, normal=m1), run, m1.cycle))
    return out


def _check(texts, cfg, ablate=False):
    programs = [load_program(t) for t in texts]
    assert (_runs(programs, cfg, Machine.run, ablate)
            == _runs(programs, cfg, reference_run, ablate))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", GADGETS)
def test_gadgets(name, mode):
    g = GADGETS[name]
    cfg = replace(RunConfig(mode=mode), **g.cfg_overrides)
    for s in SECRETS:
        _check(g.programs(s), cfg)


def test_fuzz_programs_ablated():
    rng = random.Random(0)
    cfg = RunConfig(mode="ghostminion")
    for _ in range(30):
        _check([_gen_program(rng)], cfg, ablate=True)


@pytest.mark.parametrize("mode", ("ghostminion", "unsafe"))
def test_two_core_pairs(mode):
    rng = random.Random(PAIR_SEED)
    cfg = RunConfig(mode=mode)
    for _ in range(10):
        _check([_gen_program(rng), _gen_program(rng)], cfg, ablate=True)


# (owner, attribute) of every method perfbench/tracing.py wraps, read
# from its target list, and ``Machine.not_after``, which it counts.  The
# package, harness and isa each hold a reference to the one
# load_program, which is counted once, under its isa name.
TRACED = [(owner, attr) for owner, attr, _, _ in tracing._targets()]
TRACED.append((Machine, "not_after"))


def _traced_name(owner, attr):
    if attr == "load_program":
        return "isa.load_program"
    return f"{owner.__name__.rpartition('.')[2]}.{attr}"


def test_traced_methods_are_called(monkeypatch):
    """One gadget, one ablated fuzz program and one two-core pair (which
    replays a load) call every traced method."""
    calls = Counter()
    for owner, attr in TRACED:
        def counted(*args, _fn=getattr(owner, attr),
                    _name=_traced_name(owner, attr), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    harness.run_differential(GADGETS["spectre_v1"], RunConfig())
    harness.run_ablation([_gen_program(random.Random(0))], RunConfig())
    harness.run([MP_CORE0, MP_CORE1], RunConfig())
    assert sorted({_traced_name(o, a) for o, a in TRACED} - set(calls)) == []
