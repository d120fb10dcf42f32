"""Run drivers: single runs, differential leak checks, transient-ablation
equivalence checks, and the random-program fuzzer.

The central claim these drivers test is timing noninterference: a secret
touched only by squashed instructions must leave no trace in the
committed timeline.  All comparisons are bitwise — two runs either
produce identical committed timelines (every stage cycle and every
architectural value) or they do not; there is no statistical
thresholding.
"""

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field, replace
from itertools import islice

from .config import RunConfig
from .gadgets import SECRETS
from .isa import load_program
from .machine import Machine, SimTimeout

SCHEMA = 1


@dataclass
class Report:
    """Summary of one simulation run."""

    schema: int
    mode: str
    cycles: int
    commits: int
    ipc: float
    digest: str                      # stable hash of all committed timelines
    counters: dict = field(default_factory=dict)

    def to_text(self):
        return json.dumps({**asdict(self), "ipc": round(self.ipc, 4)},
                          indent=2)


# timeline records formatted and hashed at a time, so the digest never
# holds a whole timeline's text
_DIGEST_SLICE = 1024


def timeline_digest(machine):
    """sha256 over each core's timeline text followed by a NUL byte.  The
    text is ``[``, the records joined by ``", "``, then ``]``; a record
    ``(pc, op, f, r, i, c, m, result)`` at index ``seq`` is written
    ``(seq, pc, 'op', (f, r, i, c, m), result)``, each field by its repr,
    so the text is the repr of a list of such tuples.  It is hashed a
    slice of records at a time."""
    h = hashlib.sha256()
    for core in machine.cores:
        rows = enumerate(core.timeline)
        h.update(b"[")
        sep = ""
        while text := ", ".join([
                f"({seq!r}, {pc!r}, {op!r}, ({fet!r}, {ren!r}, {iss!r}, "
                f"{cpl!r}, {cmt!r}), {result!r})"
                for seq, (pc, op, fet, ren, iss, cpl, cmt, result)
                in islice(rows, _DIGEST_SLICE)]):
            h.update((sep + text).encode())
            sep = ", "
        h.update(b"]\x00")
    return h.hexdigest()


def _assemble(programs):
    """Each program text assembled; a ``Program`` is passed through."""
    return [load_program(p) if isinstance(p, str) else p for p in programs]


def run(programs, cfg: RunConfig):
    """Simulate to HALT and return (machine, Report)."""
    m = Machine(_assemble(programs), cfg)
    cycles = m.run()
    commits = sum(c.commit_count for c in m.cores)
    rep = Report(SCHEMA, cfg.mode, cycles, commits,
                 commits / cycles if cycles else 0.0,
                 timeline_digest(m), dict(m.mem.counters))
    return m, rep


def _first_divergence(cores_a, cores_b):
    """Locate the first committed instruction that differs between two
    runs, as (core, commit number, record_a, record_b), each record a
    ``Core.timeline`` tuple.

    Only the second run's timeline can be a proper prefix of the
    first's, and then ``record_b`` is None: the differential's structural
    check leaves only timelines of equal length, and ablation's first
    run ends each timeline at a HALT, after which a core commits
    nothing."""
    for cid, (a, b) in enumerate(zip(cores_a, cores_b)):
        ta, tb = a.timeline, b.timeline
        if ta == tb:
            continue
        for i, (ea, eb) in enumerate(zip(ta, tb)):
            if ea != eb:
                return (cid, i, ea, eb)
        return (cid, len(tb), ta[len(tb)], None)
    return None


@dataclass
class CheckResult:
    """One check's finding; every check returns this record.

    ``verdict`` is "SAFE", "LEAKS" or "ERROR" (differential) or "PASS" or
    "FAIL" (ablation).  ``divergence``, unless None, is the first differing
    commit with both runs' ``Core.timeline`` records, ``index`` its commit
    number: ``(secret, core, index, record_a, record_b)`` for the
    differential, ``record_a`` from the first secret's run; ``(core,
    index, record_normal, record_ablated)`` for ablation, a record None
    where its run committed nothing.  ``pure`` is whether ablation's
    caches, owners and prefetcher matched at HALT.
    """

    verdict: str
    divergence: tuple = None
    detail: str = ""
    pure: bool = True


def run_differential(gadget, cfg: RunConfig):
    """Run a gadget once per value of ``SECRETS`` and compare committed
    timelines.

    LEAKS if any two timelines differ in any stage cycle or value; SAFE
    if all are bitwise identical.  If the committed *instruction streams*
    differ structurally (sequence of pc/op), the gadget itself is
    secret-dependent and the comparison is meaningless: verdict ERROR.
    """
    cfg = replace(cfg, **gadget.cfg_overrides)
    baseline = None
    base_secret = None
    for s in SECRETS:
        m = Machine(_assemble(gadget.programs(s)), cfg)
        m.run()
        if baseline is None:
            baseline, base_secret = m, s
            # each core's committed (pc, op) stream, built once
            streams = [[e[:2] for e in c.timeline] for c in m.cores]
            continue
        # structural check: the committed (pc, op) stream must match
        for sa, b in zip(streams, m.cores):
            if sa != [e[:2] for e in b.timeline]:
                return CheckResult(
                    "ERROR",
                    detail=f"committed instruction streams differ "
                           f"structurally between secrets {base_secret} "
                           f"and {s} on core {b.core_id}")
        div = _first_divergence(baseline.cores, m.cores)
        if div is not None:
            cid, idx, ea, eb = div
            return CheckResult(
                "LEAKS", (s, cid, idx, ea, eb),
                detail=f"secret {base_secret} vs {s}: core {cid} commit "
                       f"#{idx} differs: {ea} != {eb}")
    return CheckResult("SAFE")


def run_ablation(programs, cfg: RunConfig):
    """Run normally, then re-run with every would-be-squashed instruction
    replaced at rename by a zero-latency no-op (fates taken from the
    first run).  PASS iff the committed timelines are identical — i.e.
    squashed work contributed nothing to committed timing.

    Identical timelines commit HALT in the same cycle, so the ablated run
    gets only the cycles the normal run took.  If it is still going then,
    it has diverged, and with its fates no longer lining up with what it
    renames it might never halt.

    Each text is assembled once, and both runs share the ``Program``.
    """
    programs = _assemble(programs)
    m1 = Machine(programs, cfg)
    m1.run()
    m2 = Machine(programs, cfg, normal=m1)
    try:
        m2.run(m1.cycle)
    except SimTimeout:
        pure = False   # it never reached HALT; its divergence is located below
    else:
        mem1, mem2 = m1.mem, m2.mem
        pure = (mem1.nonspec_sets() == mem2.nonspec_sets()
                and mem1.owner == mem2.owner and mem1.rpt == mem2.rpt)
    div = _first_divergence(m1.cores, m2.cores)
    if div is not None:
        cid, idx, ea, eb = div
        if eb is None:
            eb = f"nothing committed by cycle {m1.cycle}"
        return CheckResult(
            "FAIL", div, pure=pure,
            detail=f"core {cid} commit #{idx} differs between normal and "
                   f"ablated run: {ea} != {eb}")
    return CheckResult("PASS", pure=pure)


# ------------------------------------------------------------------ fuzzer

FUZZ_BASE = 0x1000       # small data region: 128 words / 16 lines
FUZZ_MASK = 0x3F8


def _gen_program(rng):
    """One random well-formed program: straight-line ALU work, loads and
    stores over a small address region, DIVs, forward branches on
    data-dependent conditions (a rich source of mispredictions), and a
    bounded loop.  Always halts."""
    lines = []
    for i in range(rng.randrange(4, 12)):
        lines.append(f".word {FUZZ_BASE + 8 * rng.randrange(128)} "
                     f"{rng.randrange(256)}")
    for r in range(1, 8):
        lines.append(f"li r{r}, {rng.randrange(64)}")
    label = 0
    for _ in range(rng.randrange(4, 14)):
        kind = rng.randrange(10)
        rd = rng.randrange(1, 8)
        ra = rng.randrange(1, 8)
        rb = rng.randrange(1, 8)
        if kind < 3:
            op = rng.choice(["add", "sub", "xor", "or", "and", "sll", "srl"])
            lines.append(f"{op} r{rd}, r{ra}, r{rb}")
        elif kind < 5:        # load from the data region
            lines.append(f"andi r{rd}, r{ra}, {FUZZ_MASK}")
            lines.append(f"ld r{rd}, r{rd}, {FUZZ_BASE}")
        elif kind == 5:       # store into the data region
            lines.append(f"andi r{rd}, r{ra}, {FUZZ_MASK}")
            lines.append(f"st r{rb}, r{rd}, {FUZZ_BASE}")
        elif kind == 6:
            lines.append(f"div r{rd}, r{ra}, r{rb}")
        elif kind == 7:
            lines.append(f"mul r{rd}, r{ra}, r{rb}")
        else:                 # forward branch over a small body
            cond = rng.choice(["beq", "bne", "blt", "bge"])
            lines.append(f"{cond} r{ra}, r{rb}, skip{label}")
            for _ in range(rng.randrange(1, 4)):
                rc = rng.randrange(1, 8)
                if rng.randrange(2):
                    lines.append(f"andi r{rc}, r{rb}, {FUZZ_MASK}")
                    lines.append(f"ld r{rc}, r{rc}, {FUZZ_BASE}")
                else:
                    lines.append(f"addi r{rc}, r{rc}, {rng.randrange(8)}")
            lines.append(f"skip{label}:")
            label += 1
    # one bounded loop with a load in the body: its exit branch
    # mispredicts once trained, giving a late transient window
    n = rng.randrange(2, 6)
    lines += [
        f"li r8, {n}",
        "loop:",
        f"andi r9, r8, {FUZZ_MASK}",
        f"ld r9, r9, {FUZZ_BASE}",
        "add r1, r1, r9",
        "addi r8, r8, -1",
        "bne r8, r0, loop",
        "halt",
    ]
    return "\n".join(lines) + "\n"


def fuzz_programs(count, cfg: RunConfig, seed=0):
    """Generate ``count`` seeded random programs and run the ablation
    check on each.  Returns (fails, first_failure) where first_failure
    is (index, program_text, CheckResult) or None; the other
    ``count - fails`` programs passed."""
    rng = random.Random(seed)
    fails = 0
    first_failure = None
    for i in range(count):
        text = _gen_program(rng)
        res = run_ablation([text], cfg)
        if res.verdict != "PASS":
            fails += 1
            if first_failure is None:
                first_failure = (i, text, res)
    return fails, first_failure
