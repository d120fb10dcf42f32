"""The benchmark's four workloads: how each one's program texts are made,
how one operation runs, and how a pass over all operations is checked.

An operation is one call into ghostsim's public harness together with its
check.  ``gadget_sweep`` and ``prime_2core`` run fixed gadgets, so their
digests are recorded per operation.  ``fuzz_ablate`` and ``stream_loop``
are generated from the workload seed; the simulator only ever sees the
generated program texts.
"""

import hashlib
import random
from dataclasses import dataclass, field, replace

from ghostsim import RunConfig
from ghostsim import harness
from ghostsim.gadgets import GADGETS

WORKLOADS = ("gadget_sweep", "prime_2core", "fuzz_ablate", "stream_loop")
SEEDED = ("fuzz_ablate", "stream_loop")

SWEEP_GADGETS = ("spectre_v1", "spectre_rewind", "speculative_interference",
                 "gadget_icache")
SWEEP_MODES = ("ghostminion", "unsafe", "flush_only")
PRIME_MODES = ("ghostminion", "unsafe")

# "full" is what the benchmark measures; "tiny" only checks that every
# metric is produced.  At 1600 stream iterations each run renames 26k-35k
# instructions, between two of CPython's dict-resize points (21.8k and
# 43.7k entries), so peak memory does not jump from one seed to the next.
SIZES = {
    "full": {"secrets": tuple(range(16)), "fuzz_programs": 600,
             "stream_iters": 1600},
    "tiny": {"secrets": (0, 15), "fuzz_programs": 4, "stream_iters": 40},
}

# stream_loop data: three streams of 256 lines each, 48 KiB in all, which
# is twelve times the 4 KiB L1 and three quarters of the 64 KiB L2
# (default geometry).
STREAM_BASE = 0x20000
STREAM_LINES = 256
LINE = 64


@dataclass
class Op:
    key: str                  # unique name within the workload
    mode: str
    programs: tuple           # program texts handed to ghostsim
    cfg: RunConfig
    ablate: bool = False      # also run the transient-ablation check
    group: str = ""           # differential group: gadget/mode
    arch: tuple = None        # stream_loop: expected (r3, {addr: word})


@dataclass
class OpResult:
    digest: str = None
    cycles: int = 0           # simulated cycles, summed over simulations
    commits: int = 0
    ok: bool = False          # the operation's own check passed
    pure: bool = True         # ablation left cache and prefetcher state alone


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    ops: list = field(default_factory=list)


def _gadget_ops(gadgets, modes, secrets):
    ops = []
    for name in gadgets:
        g = GADGETS[name]
        for mode in modes:
            cfg = replace(RunConfig(mode=mode), **g.cfg_overrides)
            for s in secrets:
                ops.append(Op(f"{name}/{mode}/{s}", mode, g.programs(s), cfg,
                              group=f"{name}/{mode}"))
    return ops


def stream_text(seed, iters):
    """A single-core loop over three 64-byte-strided load streams with a
    data-dependent branch guarding a DIV and a dependent load, plus one
    store per iteration.  Returns (text, (r3, {addr: word})), the second
    item being the architectural outcome computed here in Python."""
    rng = random.Random(seed)
    span = LINE * STREAM_LINES
    words = {STREAM_BASE + LINE * i: rng.randrange(8, 1 << 16)
             for i in range(3 * STREAM_LINES)}
    # the branch falls through on exactly one line in eight, at seeded
    # positions, so its outcome is data-dependent but its cost is not
    fall = set(rng.sample(range(STREAM_LINES), STREAM_LINES // 8))
    for j in range(STREAM_LINES):
        a = STREAM_BASE + LINE * j
        rem = sum(words[a + k * span] for k in range(3)) % 8
        if j in fall:
            words[a] -= rem
        elif rem == 0:
            words[a] += 1
    divisor = rng.randrange(3, 64)
    lines = [f".word {a} {v}" for a, v in words.items()]
    lines += [
        f"li r1, {iters}", "li r2, 0", "li r3, 0", f"li r11, {divisor}",
        "loop:",
        "slli r4, r2, 6",
        f"andi r4, r4, {span - 1}",
        f"ld r5, r4, {STREAM_BASE}",
        f"ld r8, r4, {STREAM_BASE + span}",
        f"ld r10, r4, {STREAM_BASE + 2 * span}",
        "add r9, r5, r8",
        "add r9, r9, r10",
        "andi r6, r9, 7",
        "bne r6, r0, skip",
        "div r7, r9, r11",
        "add r3, r3, r7",
        f"andi r12, r7, {span - LINE}",
        f"ld r12, r12, {STREAM_BASE}",
        "add r3, r3, r12",
        "skip:",
        "add r3, r3, r9",
        # the stored value does not depend on the loads, so a store never
        # holds back the next iterations' loads and the L1 MSHRs fill up
        f"st r2, r4, {STREAM_BASE + 8}",
        "addi r2, r2, 1",
        "bne r2, r1, loop",
        "halt",
    ]
    r3, stored = 0, {}
    for i in range(iters):
        off = (i * LINE) & (span - 1)
        v = sum(words[STREAM_BASE + k * span + off] for k in range(3))
        if v & 7 == 0:
            q = v // divisor
            r3 += q + words[STREAM_BASE + (q & (span - LINE))]
        r3 += v
        stored[STREAM_BASE + off + 8] = i
    return "\n".join(lines) + "\n", (r3, stored)


def build(name, seed, size="full"):
    """Generate the workload's program texts and configs."""
    sz = SIZES[size]
    wl = Workload(name, seed, size)
    if name == "gadget_sweep":
        wl.ops = _gadget_ops(SWEEP_GADGETS, SWEEP_MODES, sz["secrets"])
    elif name == "prime_2core":
        wl.ops = _gadget_ops(("spectre_prime",), PRIME_MODES, sz["secrets"])
    elif name == "fuzz_ablate":
        # the acceptance fuzzer's own generator, seeded from the command line
        rng = random.Random(seed)
        cfg = RunConfig(mode="ghostminion")
        wl.ops = [Op(f"fuzz/{i}", "ghostminion", (harness._gen_program(rng),),
                     cfg, ablate=True)
                  for i in range(sz["fuzz_programs"])]
    elif name == "stream_loop":
        text, arch = stream_text(seed, sz["stream_iters"])
        wl.ops = [Op(f"stream/{mode}", mode, (text,), RunConfig(mode=mode),
                     arch=arch)
                  for mode in ("ghostminion", "unsafe")]
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return wl


def run_op(op):
    """Simulate one operation to HALT and check it.  Raises whatever the
    simulator raises (including SimTimeout)."""
    m, rep = harness.run(list(op.programs), op.cfg)
    res = OpResult(rep.digest, rep.cycles, rep.commits, ok=True)
    if op.ablate:
        ab = harness.run_ablation(list(op.programs), op.cfg)
        # the acceptance fuzzer's criterion is the verdict; purity is
        # reported beside it
        res.ok = ab.verdict == "PASS"
        res.pure = ab.pure
        # the normal ablation run repeats harness.run exactly, and a PASS
        # means the ablated run committed the same timeline
        res.cycles *= 3
        res.commits *= 3
    if op.arch is not None:
        r3, stored = op.arch
        res.ok = (m.cores[0].regs[3] == r3
                  and all(m.words.get(a) == v for a, v in stored.items()))
    return res


def workload_digest(results):
    h = hashlib.sha256()
    for r in results:
        h.update((r.digest or "-").encode())
    return h.hexdigest()


def verdicts(ops, results):
    """SAFE when every secret of a gadget/mode group gave the same timeline
    digest, LEAKS otherwise."""
    seen = {}
    for op, r in zip(ops, results):
        if op.group:
            seen.setdefault(op.group, set()).add(r.digest)
    return {g: "SAFE" if len(d) == 1 else "LEAKS" for g, d in seen.items()}


def record_entry(wl, results):
    """What ``failed_ops`` compares later passes against: per-operation
    digests for the fixed workloads, a whole-workload digest for the
    seeded ones, and the simulated cycles either way."""
    entry = {"digest": workload_digest(results),
             "gm_sim_cycles": sum(r.cycles for op, r in zip(wl.ops, results)
                                  if op.mode == "ghostminion"),
             "sim_cycles": sum(r.cycles for r in results)}
    if wl.name not in SEEDED:
        entry["ops"] = {op.key: (r.digest or "")[:16]
                        for op, r in zip(wl.ops, results)}
    return entry


def expected_for(expected, wl):
    """The entry recorded for this workload, size and seed, or None."""
    if expected is None or expected["size"] != wl.size:
        return None
    entry = expected["workloads"].get(wl.name)
    if entry is not None and wl.name in SEEDED:
        entry = entry["seeds"].get(str(wl.seed))
    return entry


def failed_ops(wl, results, expected, reference):
    """Indexes of the operations that failed in one pass.

    ``expected`` is the recorded file's content.  Where it has no entry for
    this workload, size and seed, the entry made from ``reference`` (the
    first pass's results) stands in, so later passes must at least repeat
    the first exactly.
    """
    failed = {i for i, r in enumerate(results) if not r.ok}
    want = expected_for(expected, wl) or record_entry(wl, reference)
    got = record_entry(wl, results)
    if "ops" in want:
        failed |= {i for i, op in enumerate(wl.ops)
                   if got["ops"][op.key] != want["ops"][op.key]}
    elif (got["digest"], got["gm_sim_cycles"]) != (want["digest"],
                                                  want["gm_sim_cycles"]):
        # a whole-workload digest cannot say which operation diverged
        failed = set(range(len(results)))
    if expected is not None:
        table = expected["verdicts"]
        for group, verdict in verdicts(wl.ops, results).items():
            gadget, mode = group.split("/")
            if table[gadget][mode] != verdict:
                failed |= {i for i, op in enumerate(wl.ops) if op.group == group}
    return failed
