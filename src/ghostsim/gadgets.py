"""Leak-gadget generators.

Each gadget is a family of assembly programs parameterized by a 4-bit
secret (0..15).  The committed instruction stream of every program is
secret-independent by construction: the secret is touched only by
transient (squashed) instructions, or - for the covert-channel gadgets -
loaded transiently from a line that committed code warms via a sibling
word.  A protection mode leaks iff the committed timelines differ across
secrets.

The five families:

* ``spectre_v1``       - classic bounds-check bypass; transient load of
  probe[secret] pollutes the cache, recovered by a timed committed sweep.
* ``spectre_rewind``   - transient DIV chain contends for the single
  non-pipelined divider against a timed committed DIV.
* ``speculative_interference`` - a younger transient load to the same
  line as an older committed load changes the older load's miss timing
  via MSHR merging (the backwards-in-time channel; squash-time flushing
  alone cannot stop it).
* ``gadget_icache``    - transient jump fetches a far code line; a timed
  committed jump to that line observes the fill.
* ``spectre_prime``    - two cores: a victim's transient load downgrades
  the attacker's Modified lines; the attacker times re-stores.
"""

from dataclasses import dataclass, field
from functools import partial

# data layout (all well above any code line)
CHASE = 0x2000      # pointer-chase pairs, 128 bytes apart
ARRAY = 0x6000      # bounds-checked array, 17 words
TABLE = 0xA200      # per-trial index table for spectre_v1
PROBE = 0x8000      # probe array, one line per value
RESULT = 0xC400     # timing results, one word per slot
SECRET = 0xE040     # secret word; SECRET+8 is the committed warm-up word
PRIME = 0x10000     # primed lines for the two-core gadget
FLAG1 = 0x14000     # attacker -> victim handshake
FLAG2 = 0x14040     # victim -> attacker handshake
# the staggered bases keep the hot lines (secret, results, probe targets)
# in distinct L1 sets, so one gadget line cannot evict another's warm line

SECRETS = tuple(range(16))
BITS = 4


@dataclass
class Gadget:
    name: str
    assemble: object            # secret -> program text, or (attacker, victim)
    decode: object              # Machine -> recovered secret
    secrets: tuple = SECRETS
    two_core: bool = False
    cfg_overrides: dict = field(default_factory=dict)

    def programs(self, secret):
        out = self.assemble(secret)
        return out if isinstance(out, tuple) else (out,)


def _chase_pair(idx):
    """Two cold lines forming a dependent-load delay of ~2 memory trips;
    the chased value is zero."""
    a = CHASE + idx * 128
    b = a + 64
    return a, [f".word {a} {b}", f".word {b} 0"]


def _cold_zero(idx):
    """One cold line holding a zero word: a ~1-memory-trip delay."""
    a = CHASE + idx * 128
    return a, [f".word {a} 0"]


def _timed(slot, body, start="r11", end="r12"):
    """fence/rdcycle bracket around ``body``; the delta is stored to
    RESULT[slot]."""
    return ["fence", f"rdcycle {start}", *body, "fence", f"rdcycle {end}",
            f"sub r14, {end}, {start}", f"st r14, r0, {RESULT + 8 * slot}"]


def _read_results(machine, n):
    return [machine.read_word(RESULT + 8 * i) for i in range(n)]


# --------------------------------------------------------------- spectre_v1

def _asm_spectre_v1(secret):
    trials = [1, 2, 3, 1, 16]
    lines = []
    for i in range(16):
        lines.append(f".word {ARRAY + 8 * i} 16")   # in-bounds values -> probe[16]
    lines.append(f".word {ARRAY + 128} {secret}")   # arr[16]: the secret
    for t, idx in enumerate(trials):
        a, words = _chase_pair(t)
        lines += words
        lines.append(f".word {TABLE + 8 * t} {idx}")
    # one shared bounds-check branch, trained taken by the in-bounds
    # trials, so the out-of-bounds trial speculates into the access
    body = [
        "li r10, 16",
        "li r9, 0",
        f"li r8, {len(trials)}",
        "trial:",
        "slli r6, r9, 3",
        f"ld r1, r6, {TABLE}",
        "slli r6, r9, 7",
        f"ld r2, r6, {CHASE}",
        "ld r2, r2, 0",
        "add r7, r1, r2",          # delayed copy: stalls only the bounds check
        "blt r7, r10, ok",
        "jmp next",
        "ok:",
        "slli r3, r1, 3",
        f"ld r4, r3, {ARRAY}",
        "slli r4, r4, 6",
        f"ld r5, r4, {PROBE}",
        "next:",
        "addi r9, r9, 1",
        "blt r9, r8, trial",
    ]
    for i in range(16):
        body += _timed(i, [f"ld r13, r0, {PROBE + 64 * i}"], "r12", "r13")
    body.append("halt")
    return "\n".join(lines + body) + "\n"


def _decode_extreme(pick, machine):
    """The slot with the ``pick`` (min or max) delta."""
    deltas = _read_results(machine, 16)
    return pick(range(16), key=lambda i: deltas[i])


# ------------------------------------------------- bitwise covert channels

# Six sections: one per secret bit, plus known-0/known-1 calibration.
# Each section's transient path runs its select to set r4 (the activity
# flag).  The calibration flags are still computed *from the loaded word*
# so the calibration sections are shaped exactly like the bit sections
# (the inner branch resolves at the same point in the transient window).
_SELECTS = [[f"ld r7, r0, {SECRET}", flag] for flag in (
    *(f"andi r4, r7, {1 << b}" for b in range(BITS)),
    "andi r4, r7, 0",           # calibration: known 0
    "ori r4, r7, 1")]           # calibration: known 1


def _bit_gadget(secret, delay, first, section, tail=()):
    """The bit-channel program: the secret and warm words, a value-blind
    warm-up of the secret's line, then one section per select and
    ``halt``.  Section ``t`` gets the cold delay line ``delay(first + t)``
    and is ``section(t, addr, select)``; ``tail`` follows ``halt``."""
    words = [f".word {SECRET} {secret}", f".word {SECRET + 8} 0"]
    body = [
        "li r1, 1",
        f"ld r15, r0, {SECRET + 8}",  # warm the secret's line, value-blind
        "fence",
    ]
    for t, select in enumerate(_SELECTS):
        a, delay_words = delay(first + t)
        words += delay_words
        body += section(t, a, select)
    return "\n".join(words + body + ["halt", *tail]) + "\n"


def _decode_bits(sign, machine):
    """A bit is set when its section is slower (``sign`` 1) or faster
    (``sign`` -1, the cache-fill channels) than the calibration midpoint."""
    deltas = _read_results(machine, BITS + 2)
    thr = (deltas[BITS] + deltas[BITS + 1]) / 2
    return sum(1 << b for b in range(BITS) if sign * (deltas[b] - thr) > 0)


def _rewind_section(t, a, select):
    divs = ["div r6, r1, r1"] + ["div r6, r6, r1"] * 11
    return _timed(t, [
        f"ld r2, r0, {a}",           # cold: delays the committed DIV
        "addi r3, r2, 1",
        "div r5, r3, r1",            # the timed committed DIV
        f"beq r2, r0, out{t}",       # taken; predicted not-taken
        # ---- transient path ----
        *select,
        f"bne r4, r0, act{t}",
        f"jmp end{t}",
        f"act{t}:",
        *divs,                       # transient divider pressure
        f"end{t}:",
        "nop",
        f"out{t}:",
    ])


def _interference_section(t, a, select):
    lx = 0x18000 + t * 128           # unique cold line per section
    return _timed(t, [
        f"ld r2, r0, {a}",           # cold: delays X's address
        "add r3, r2, r0",
        f"ld r5, r3, {lx}",          # committed load X
        "add r8, r2, r0",            # two fillers: X issues just before
        "add r8, r8, r0",            # the branch resolves and squashes
        f"beq r8, r0, out{t}",       # taken; predicted not-taken
        # ---- transient path ----
        *select,
        f"bne r4, r0, act{t}",
        f"jmp end{t}",
        f"act{t}:",
        f"ld r6, r0, {lx}",          # younger transient load, same line
        f"end{t}:",
        "nop",
        f"out{t}:",
    ])


def _icache_section(t, a, select):
    return [
        f"ld r2, r0, {a}",
        "ld r2, r2, 0",              # ~2 memory trips: a long window
        f"beq r2, r0, meas{t}",      # taken; predicted not-taken
        # ---- transient path ----
        *select,
        f"bne r4, r0, go{t}",
        f"jmp idle{t}",
        f"go{t}:",
        f"jmp far{t}",               # transient fetch of the far line
        f"idle{t}:",
        f"jmp idle{t}",              # park wrong-path fetch until squash
        f"meas{t}:",
        # timed committed fetch of the far line
        *_timed(t, [f"jmp far{t}", f"back{t}:"]),
    ]


def _asm_spectre_rewind(secret):
    return _bit_gadget(secret, _cold_zero, 20, _rewind_section)


def _asm_interference(secret):
    return _bit_gadget(secret, _cold_zero, 40, _interference_section)


def _asm_icache(secret):
    far_lines = [line for t in range(len(_SELECTS))
                 for line in (".align 64", f"far{t}:", f"jmp back{t}")]
    return _bit_gadget(secret, _chase_pair, 60, _icache_section, far_lines)


# ------------------------------------------------------------ spectre_prime

def _asm_prime_attacker(_secret):
    body = ["li r1, 1"]
    for i in range(16):
        body.append(f"st r1, r0, {PRIME + 64 * i}")
    body += [
        "fence",
        f"st r1, r0, {FLAG1}",
        "fence",
        # spin shape: the not-taken fall-through is the loop itself, so the
        # untrained first iteration speculates down the loop, not the gadget
        "spin:",
        f"ld r2, r0, {FLAG2}",
        "bne r2, r0, go",
        "jmp spin",
        "go:",
    ]
    for i in range(16):
        # fast iff still Modified
        body += _timed(i, [f"st r1, r0, {PRIME + 64 * i}"])
    body.append("halt")
    return "\n".join(body) + "\n"


def _asm_prime_victim(secret):
    a, words = _cold_zero(80)
    lines = [f".word {SECRET} {secret}", f".word {SECRET + 8} 0"] + words
    body = [
        "li r1, 1",
        f"ld r15, r0, {SECRET + 8}",   # warm the secret line, value-blind
        "fence",
        "spin:",
        f"ld r2, r0, {FLAG1}",
        "bne r2, r0, go",
        "jmp spin",
        "go:",
        f"ld r3, r0, {a}",             # cold: opens the transient window
        "beq r3, r0, vdone",           # taken; predicted not-taken
        # ---- transient path ----
        f"ld r7, r0, {SECRET}",
        "slli r7, r7, 6",
        f"ld r6, r7, {PRIME}",         # touches the attacker's primed line
        "vdone:",
        "fence",
        f"st r1, r0, {FLAG2}",
        "halt",
    ]
    return "\n".join(lines + body) + "\n"


def _asm_spectre_prime(secret):
    return (_asm_prime_attacker(secret), _asm_prime_victim(secret))


# every gadget except the instruction-cache one runs with a warm
# instruction cache: their channels are in the data/divider/coherence
# domain, and cold instruction-line misses whose position depends on
# section alignment would only add measurement noise
GADGETS = {
    "spectre_v1": Gadget("spectre_v1", _asm_spectre_v1,
                         partial(_decode_extreme, min),
                         cfg_overrides={"warm_icache": True}),
    "spectre_rewind": Gadget("spectre_rewind", _asm_spectre_rewind,
                             partial(_decode_bits, 1),
                             cfg_overrides={"warm_icache": True}),
    "speculative_interference": Gadget("speculative_interference",
                                       _asm_interference,
                                       partial(_decode_bits, -1),
                                       cfg_overrides={"warm_icache": True}),
    "gadget_icache": Gadget("gadget_icache", _asm_icache,
                            partial(_decode_bits, -1),
                            cfg_overrides={"warm_icache": False}),
    "spectre_prime": Gadget("spectre_prime", _asm_spectre_prime,
                            partial(_decode_extreme, max), two_core=True,
                            cfg_overrides={"warm_icache": True}),
}
