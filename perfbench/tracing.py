"""Opt-in per-layer tracing for the benchmark's traced run.

``Tracer.install`` replaces ghostsim's public methods with timing wrappers
and ``Tracer.restore`` puts the originals back; nothing is wrapped outside
that window.  Spans are aggregated in memory per name: calls, self time
(span time minus the time of the spans it encloses) and, for the core's
stages, the calls that moved the stage's progress count.
"""

from collections import Counter
from time import perf_counter

import ghostsim
from ghostsim import harness, isa
from ghostsim.core import Core
from ghostsim.ghost_cache import GhostCache
from ghostsim.machine import Machine
from ghostsim.memory import COUNTER_KEYS, MemorySystem

MODES = ("ghostminion", "unsafe", "flush_only")
STAGES = ("fetch", "rename", "issue", "complete", "commit")
# the core's own progress counts; issue and complete keep none
PROGRESS = {"fetch": "fetch_seq", "rename": "rename_count",
            "commit": "commit_count"}
GHOST_OPS = ("lookup", "fill", "extract", "flush")

# name -> (unit, better); the per-layer metrics BENCHMARK.json declares
PER_LAYER = {
    "machine.construct_s": ("s", "lower"),
    "machine.loop_self_s": ("s", "lower"),
    "machine.idle_cycle_frac": ("ratio", "lower"),
    **{f"sim_cycles.{m}": ("cycles", "lower") for m in MODES},
    **{f"ipc.{m}": ("instr/cycle", "higher") for m in MODES},
    **{f"core.{s}.self_s": ("s", "lower") for s in STAGES},
    **{f"core.{s}.calls": ("count", "lower") for s in STAGES},
    **{f"core.{s}.active_frac": ("ratio", "higher") for s in PROGRESS},
    "core.squashed_frac": ("ratio", "lower"),
    "memory.tick.self_s": ("s", "lower"),
    "memory.tick.calls": ("count", "lower"),
    "memory.access.self_s": ("s", "lower"),
    "memory.access.calls": ("count", "lower"),
    "memory.commit_extract.self_s": ("s", "lower"),
    "memory.squash_flush.self_s": ("s", "lower"),
    "memory.retry_frac": ("ratio", "lower"),
    **{f"memory.{k}": ("count", "lower") for k in COUNTER_KEYS},
    **{f"ghost_cache.{o}.self_s": ("s", "lower") for o in GHOST_OPS},
    **{f"ghost_cache.{o}.calls": ("count", "lower") for o in GHOST_OPS},
    "order.not_after.calls": ("count", "lower"),
    "isa.load_program.self_s": ("s", "lower"),
    "gadgets.assemble_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _targets():
    """(owner, attribute, span name, progress attribute or None)."""
    out = [
        (Machine, "__init__", "machine.construct", None),
        (Machine, "run", "machine.loop", None),
        (MemorySystem, "tick", "memory.tick", None),
        (MemorySystem, "commit_extract", "memory.commit_extract", None),
        (MemorySystem, "squash_flush", "memory.squash_flush", None),
        (harness, "run", "harness", None),
        (harness, "run_ablation", "harness", None),
    ]
    out += [(MemorySystem, f"{k}_access", "memory.access", None)
            for k in ("data", "ifetch", "store", "replay")]
    out += [(Core, f"do_{s}", f"core.{s}", PROGRESS.get(s)) for s in STAGES]
    out += [(GhostCache, o, f"ghost_cache.{o}", None) for o in GHOST_OPS]
    # harness and the package hold their own references to load_program
    out += [(mod, "load_program", "isa.load_program", None)
            for mod in (isa, harness, ghostsim)]
    return out


class Tracer:
    def __init__(self):
        self.spans = {}               # name -> [calls, self seconds, active calls]
        self.not_after_calls = 0
        self.stepped = 0              # cycles seen by memory.tick
        self.idle = 0
        self.sim = {m: [0, 0] for m in MODES}   # mode -> [cycles, commits]
        self.fetched = 0
        self.committed = 0
        self.counters = Counter()
        self.bias = 0.0               # wrapper cost per call seen by the caller
        self._stack = [0.0]           # child time of each open span
        self._saved = []
        self._last = None             # (mem, state) before the previous tick

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn, progress=None):
        stack = self._stack
        acc = self.spans.setdefault(name, [0, 0.0, 0])

        def wrapper(*args, **kwargs):
            before = getattr(args[0], progress) if progress else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                acc[0] += 1
                acc[1] += dt - stack.pop()
                # the caller's self time excludes this call and its wrapper
                stack[-1] += dt + self.bias
                if progress and getattr(args[0], progress) != before:
                    acc[2] += 1
        return wrapper

    def _calibrate(self, n=20000, repeats=5):
        """Estimate the wrapper's own cost per call, as its caller sees it:
        the time around a wrapped no-op that the no-op's span leaves out."""
        def noop(_):
            pass
        wrapped = self._span("calibrate", noop)
        acc = self.spans["calibrate"]
        best = None
        for _ in range(repeats):
            acc[:] = [0, 0.0, 0]
            t0 = perf_counter()
            for _ in range(n):
                noop(None)
            plain = perf_counter() - t0
            t0 = perf_counter()
            for _ in range(n):
                wrapped(None)
            traced = perf_counter() - t0
            est = (traced - acc[1] - plain) / n
            best = est if best is None else min(best, est)
        del self.spans["calibrate"]
        self._stack[:] = [0.0]
        self.bias = max(best, 0.0)

    def _observe(self, mem):
        """Count the cycle that just ended as idle if no core's fetch,
        rename or commit count moved and the MSHR entry count held."""
        t0 = perf_counter()
        files = mem.l1d_file + mem.l1i_file + [mem.l2_file]
        state = (tuple((c.fetch_seq, c.rename_count, c.commit_count)
                       for c in mem.cores),
                 sum(len(f.entries) for f in files))
        if self._last is not None and self._last[0] is mem:
            self.stepped += 1
            self.idle += state == self._last[1]
        self._last = (mem, state)
        # charged to no span, so it inflates neither tick nor its caller
        self._stack[-1] += perf_counter() - t0

    def install(self):
        self._calibrate()
        for owner, attr, name, progress in _targets():
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._span(name, orig, progress))

        tick = MemorySystem.tick

        def observed_tick(mem, cycle):
            self._observe(mem)
            return tick(mem, cycle)

        run = Machine.run

        def recorded_run(machine, max_cycles=None):
            cycles = run(machine, max_cycles)
            self._observe(machine.mem)
            self._last = None
            sim = self.sim[machine.cfg.mode]
            sim[0] += cycles
            sim[1] += sum(c.commit_count for c in machine.cores)
            self.fetched += sum(c.fetch_seq for c in machine.cores)
            self.committed += sum(c.commit_count for c in machine.cores)
            self.counters.update(machine.mem.counters)
            return cycles

        not_after = Machine.not_after

        def counted_not_after(*args):
            self.not_after_calls += 1
            return not_after(*args)

        for owner, attr, fn in ((MemorySystem, "tick", observed_tick),
                                (Machine, "run", recorded_run),
                                (Machine, "not_after", counted_not_after)):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, fn)

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------- metrics

    def metrics(self, passes, assemble_s, overhead_s):
        """Per-layer metrics, per pass: times and counts are divided by the
        number of traced passes, which all did identical work."""
        c = {k: v[0] for k, v in self.spans.items()}
        s = {k: v[1] for k, v in self.spans.items()}
        active = {k: v[2] for k, v in self.spans.items()}
        out = {
            "machine.construct_s": s["machine.construct"] / passes,
            "machine.loop_self_s": s["machine.loop"] / passes,
            "machine.idle_cycle_frac": self.idle / max(self.stepped, 1),
            "core.squashed_frac": 1 - self.committed / max(self.fetched, 1),
            "memory.retry_frac": (self.counters["retries"]
                                  / max(c["memory.access"], 1)),
            "order.not_after.calls": self.not_after_calls // passes,
            "gadgets.assemble_s": assemble_s,
            "trace.overhead_s": overhead_s,
        }
        for m in MODES:
            cycles, commits = self.sim[m]
            out[f"sim_cycles.{m}"] = cycles // passes
            out[f"ipc.{m}"] = commits / cycles if cycles else 0.0
        for st in STAGES:
            out[f"core.{st}.self_s"] = s[f"core.{st}"] / passes
            out[f"core.{st}.calls"] = c[f"core.{st}"] // passes
        for st in PROGRESS:
            out[f"core.{st}.active_frac"] = (active[f"core.{st}"]
                                             / max(c[f"core.{st}"], 1))
        for name in ("tick", "access"):
            out[f"memory.{name}.self_s"] = s[f"memory.{name}"] / passes
            out[f"memory.{name}.calls"] = c[f"memory.{name}"] // passes
        for name in ("commit_extract", "squash_flush"):
            out[f"memory.{name}.self_s"] = s[f"memory.{name}"] / passes
        for k in COUNTER_KEYS:
            out[f"memory.{k}"] = self.counters[k] // passes
        for o in GHOST_OPS:
            out[f"ghost_cache.{o}.self_s"] = s[f"ghost_cache.{o}"] / passes
            out[f"ghost_cache.{o}.calls"] = c[f"ghost_cache.{o}"] // passes
        out["isa.load_program.self_s"] = s["isa.load_program"] / passes
        out["harness.self_s"] = s["harness"] / passes
        return {k: {"value": out[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
