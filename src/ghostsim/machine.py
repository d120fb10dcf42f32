"""Top-level simulation driver: one or two cores over a shared memory
system, advanced in a fixed global cycle order so every run is
bit-deterministic.
"""

from .config import RunConfig
from .core import Core
from .isa import WORD_BYTES
from .memory import MemorySystem


class SimTimeout(Exception):
    def __init__(self, cycles):
        super().__init__(f"simulation did not halt within {cycles} cycles")
        self.cycles = cycles


class Machine:
    def __init__(self, programs, cfg: RunConfig, normal=None):
        """One core per ``Program``.  A machine given the finished
        ``normal`` run of the same programs is its transient ablation:
        each core takes its fates from the same core of ``normal``."""
        programs = list(programs)
        self.cfg = cfg
        self.cycle = 0
        self.words = {}
        for p in programs:
            self.words.update(p.data)
        self.mem = MemorySystem(cfg, len(programs), self.not_after)
        self.cores = [Core(i, p, cfg, self.mem, self.words,
                           normal.cores[i] if normal is not None else None)
                      for i, p in enumerate(programs)]
        self.mem.cores = self.cores
        if cfg.warm_icache:
            self._warm_icache()

    def not_after(self, ts, ts2):
        """True iff stamp ``ts`` precedes or equals ``ts2`` in speculative
        program order: the one place where memory structures order
        stamps.  It stays a method so that the benchmark's tracer,
        ``tests/test_stage_gates.py`` and C06's window check can wrap it.

        Every micro-op in flight carries one stamp, and every speculative
        memory structure orders by it through this method; a core orders
        its own live instructions by ``ts`` directly, and those stamps are
        always fewer than ``rob`` apart.  The simulator stores
        the stamp as a plain counter.  Hardware keeps it modulo 2N, where
        N is the reorder-buffer capacity: at most N micro-ops are live at
        once, so any two stamps it compares are fewer than N apart, and
        for such a pair the windowed distance test orders them as the
        counter does.  C06 of the acceptance gate checks that every
        comparison is such a pair."""
        return ts <= ts2

    def read_word(self, addr):
        return self.words.get(addr & ~(WORD_BYTES - 1), 0)

    def _warm_icache(self):
        step = self.cfg.line_bytes
        for core in self.cores:
            base = core.code_base
            for line in range(base, base + max(core.program.end_pc, 1), step):
                self.mem.l1i[core.core_id].install(line)
                self.mem.l2.install(line)

    def run(self, max_cycles=None):
        """Advance until every core has halted.  Raises SimTimeout if the
        cycle budget runs out first.

        Each visited cycle ticks the memory system if the top of its event
        heap is due, then steps each core in order (``Core.step`` states
        which stages a core runs).  Only commit halts a core, so whether
        every core has halted is asked again only after a step that moved.

        A cycle in which neither the memory system nor any core changes
        state is followed by a jump to the next cycle at which something
        can happen (the top of the memory system's event heap and the
        earliest ``next_event`` of the cores), capped at the budget.  The
        cycles skipped would change nothing, so ``check_invariants`` still
        sees every cycle that does; ``run(max_cycles=cycle + 1)`` steps
        exactly one cycle, and a run with nothing left to wait for times
        out at once.

        The order in which a tick runs what it pops is stated once, in the
        ``memory`` module docstring.  The top of the heap may be a delivery
        whose miss was since freed or restarted: the run then visits its
        cycle, where the tick skips it and nothing else moves.  The clock
        is kept in a local and written back to ``self.cycle`` when the run
        halts or times out."""
        limit = max_cycles if max_cycles is not None else self.cfg.max_cycles
        check = self.cfg.check_invariants
        mem = self.mem
        events = mem._events
        cores = self.cores
        c = self.cycle
        halted = all(core.halted for core in cores)
        while not halted:
            if c >= limit:
                self.cycle = c
                raise SimTimeout(limit)
            progress = False
            if events and events[0][0] <= c:
                progress = mem.tick(c)
            for core in cores:
                if core.step(c):
                    progress = True
                    if core.halted:
                        halted = all(other.halted for other in cores)
            if check:
                mem.check_invariants()
            if progress:
                c += 1
            else:
                wake = events[0][0] if events else float("inf")
                for core in cores:
                    t = core.next_event(c)
                    if t < wake:
                        wake = t
                c = max(c + 1, min(wake, limit))
        self.cycle = c
        return c
