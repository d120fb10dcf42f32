"""Top-level simulation driver: one or two cores over a shared memory
system, advanced in a fixed global cycle order so every run is
bit-deterministic.
"""

from .config import RunConfig
from .core import Core
from .isa import WORD_BYTES
from .memory import MemorySystem
from .order import ts_not_after


class SimTimeout(Exception):
    def __init__(self, cycles):
        super().__init__(f"simulation did not halt within {cycles} cycles")
        self.cycles = cycles


class Machine:
    def __init__(self, programs, cfg: RunConfig, ablation=None):
        if not isinstance(programs, (list, tuple)):
            programs = [programs]
        self.programs = list(programs)
        self.cfg = cfg
        self.cycle = 0
        self.words = {}
        for p in self.programs:
            self.words.update(p.data)
        self.mem = MemorySystem(cfg, len(self.programs), self.not_after)
        self.cores = [Core(i, p, cfg, self.mem, self, ablation)
                      for i, p in enumerate(self.programs)]
        self.mem.cores = self.cores
        if cfg.warm_icache:
            self._warm_icache()

    def not_after(self, ts, ts2):
        if self.cfg.debug_unbounded_ts:
            return ts <= ts2
        return ts_not_after(ts, ts2, self.cfg.window)

    def read_word(self, addr):
        return self.words.get(addr & ~(WORD_BYTES - 1), 0)

    def write_word(self, addr, value):
        self.words[addr & ~(WORD_BYTES - 1)] = value

    def _warm_icache(self):
        for core in self.cores:
            step = self.cfg.line_bytes
            for pc in range(0, max(core.program.end_pc, 1), step):
                line = core._iline(pc)
                self.mem.l1i[core.core_id].install(line)
                self.mem.l2.install(line)

    def run(self, max_cycles=None):
        """Advance until every core has halted.  Raises SimTimeout if the
        cycle budget runs out first."""
        limit = max_cycles if max_cycles is not None else self.cfg.max_cycles
        while True:
            if all(c.halted for c in self.cores):
                return self.cycle
            if self.cycle >= limit:
                raise SimTimeout(limit)
            c = self.cycle
            self.mem.tick(c)
            for core in self.cores:
                core.do_complete(c)
                core.do_commit(c)
                core.do_issue(c)
                core.do_rename(c)
                core.do_fetch(c)
            if self.cfg.check_invariants:
                self.mem.check_invariants()
            self.cycle += 1
