"""Run configuration: core widths, cache geometry, protection mode, flags.

Configs are plain key=value text files (``#`` comments allowed) and are
fully deterministic: there is no seed here, only in the fuzz generator.
"""

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Protection:
    """The GhostMinion mechanisms a protection mode switches on, one
    switch each.  A misspelt switch is an AttributeError, not False."""

    side_buffer: bool = False            # speculative fills go to a side buffer
    timeguard: bool = False              # side-buffer reads/fills/wipes by timestamp
    hide_spec_lru: bool = False          # speculative hits leave L1/L2 LRU alone
    hide_spec_l2_fill: bool = False      # speculative misses do not fill the L2
    timeleap: bool = False               # an older request restarts a younger miss
    leapfrog: bool = False               # an older miss evicts a younger MSHR entry
    merge_core: bool = False             # each core has its own L2 MSHRs
    squash_cancels_misses: bool = False  # a squash cancels younger in-flight misses
    noncoherent_forward: bool = False    # two-core: forward a flagged copy, replay it
    inorder_divider: bool = False        # speculative divs start in timestamp order
    squash_frees_divider: bool = False   # a squash frees a squashed op's divider


# the one place a protection mode is interpreted
PROTECTION = {
    "unsafe": Protection(),
    "flush_only": Protection(side_buffer=True, hide_spec_lru=True,
                             hide_spec_l2_fill=True),
    "ghostminion": Protection(**{f.name: True for f in fields(Protection)}),
}
MODES = tuple(PROTECTION)
# sizes, ways, widths, units, queues, register counts and the cycle
# budget: at least 1
_COUNTS = ("width", "lq", "sq", "fetchq", "alu_units", "mul_units",
           "div_units", "mem_ports", "l1_sets", "l1_ways", "l1_mshrs",
           "l2_sets", "l2_ways", "l2_mshrs", "ghost_sets", "ghost_ways",
           "rpt_entries", "max_cycles")
# latencies in cycles: at least 0
_LATENCIES = ("alu_lat", "mul_lat", "div_lat", "squash_penalty", "l1_lat",
              "l2_lat", "mem_lat", "coh_lat")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    # core
    width: int = 4
    rob: int = 64
    lq: int = 16
    sq: int = 16
    fetchq: int = 16
    alu_units: int = 4
    mul_units: int = 2
    div_units: int = 1
    mem_ports: int = 2
    alu_lat: int = 1
    mul_lat: int = 3
    div_lat: int = 12
    squash_penalty: int = 5
    # caches (per-core L1 + speculative buffer, shared L2)
    line_bytes: int = 64
    l1_sets: int = 32
    l1_ways: int = 2
    l1_lat: int = 2
    l1_mshrs: int = 4
    l2_sets: int = 128
    l2_ways: int = 8
    l2_lat: int = 20
    l2_mshrs: int = 20
    mem_lat: int = 100
    ghost_sets: int = 16
    ghost_ways: int = 2
    # coherence (two-core mode)
    coh_lat: int = 20
    # prefetcher
    rpt_entries: int = 64
    rpt_confidence: int = 2
    # protection
    mode: str = "ghostminion"
    # harness
    warm_icache: bool = False
    max_cycles: int = 1_000_000

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.rob < 2:
            raise ConfigError("rob must be at least 2")
        for name in _COUNTS:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for name in _LATENCIES:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must not be negative")
        # a miss is requested after the MemorySystem.tick of its cycle has
        # run, so a zero-cycle miss would be delivered a cycle after it
        # is due
        if self.l1_lat + self.l2_lat < 1 or self.l2_lat + self.mem_lat < 1:
            raise ConfigError("l1_lat + l2_lat and l2_lat + mem_lat must "
                              "each be at least 1")
        if self.line_bytes < 8 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line_bytes must be a power of two, at least 8")
        # the prefetcher's confidence counter saturates at 3
        if not 1 <= self.rpt_confidence <= 3:
            raise ConfigError("rpt_confidence must be from 1 to 3")

    @property
    def protection(self) -> Protection:
        """The mechanisms ``mode`` switches on."""
        return PROTECTION[self.mode]

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        kinds = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in kinds:
                raise ConfigError(f"config line {lineno}: unknown key {key!r}")
            if key in kwargs:
                raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
            kind = kinds[key]
            if kind is bool:
                if val.lower() not in ("true", "false", "0", "1"):
                    raise ConfigError(f"config line {lineno}: bad boolean {val!r}")
                kwargs[key] = val.lower() in ("true", "1")
            elif kind is int:
                try:
                    kwargs[key] = int(val, 0)
                except ValueError:
                    raise ConfigError(f"config line {lineno}: bad integer {val!r}")
            else:
                kwargs[key] = val
        return cls(**kwargs)
