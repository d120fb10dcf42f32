"""A minimal 16-register load/store ISA and its one-pass assembler.

The machine is word-oriented: 64-bit registers, 8-byte memory words,
4-byte instruction slots.  This is the smallest ISA that can express the
leak-gadget families the harness needs: indirect loads, divider
pressure, cycle-counter reads, and (mis)predictable branches.

Text format, one instruction per line::

    op dst, src1, src2|imm     # comment
    name:                      # label
    .word addr value           # data directive
    .align n                   # pad code with nops to an n-byte boundary,
                               # n a multiple of 4 up to MAX_ALIGN

A ``Program`` is assembled once and shared read-only by every machine
that runs it: a ``Machine`` copies ``data`` into its own memory.
"""

import operator
from dataclasses import dataclass, field

NUM_REGS = 16
INSTR_BYTES = 4
WORD_BYTES = 8
MAX_ALIGN = 4096   # widest .align: padding costs one nop per 4 bytes

# instruction classes
ALU = "ALU"
MUL = "MUL"
DIV = "DIV"
LOAD = "LOAD"
STORE = "STORE"
BRANCH = "BRANCH"
JMP = "JMP"
RDCYCLE = "RDCYCLE"
FENCE = "FENCE"
HALT = "HALT"
NOP = "NOP"


class ParseError(Exception):
    pass


class StaticInstr:
    """One assembled instruction, decoded once and read by every dynamic
    instance fetched from its pc; nothing writes it after assembly."""

    __slots__ = ("pc", "op", "cls", "dst", "s1", "s2", "imm", "target")

    def __init__(self, pc, op, cls, dst=0, s1=0, s2=0, imm=0, target=0):
        self.pc = pc
        self.op = op
        self.cls = cls
        self.dst = dst
        self.s1 = s1
        self.s2 = s2
        self.imm = imm
        self.target = target  # branch/jump target address


@dataclass
class Program:
    instrs: list = field(default_factory=list)
    data: dict = field(default_factory=dict)   # word address -> value

    def get(self, pc: int):
        """Decoded instruction at ``pc``; wrong-path fetches of addresses
        outside the image decode as no-ops."""
        idx = pc // INSTR_BYTES
        if 0 <= idx < len(self.instrs):
            return self.instrs[idx]
        return StaticInstr(pc=pc, op="nop", cls=NOP)

    @property
    def end_pc(self) -> int:
        return len(self.instrs) * INSTR_BYTES


_ALU_RRR = {"add", "sub", "and", "or", "xor", "sll", "srl", "slt"}
_ALU_RRI = {"addi", "andi", "ori", "xori", "slli", "srli", "slti"}

# op -> (class, operand form).  A form has one letter per operand, in
# source order: d = destination register, a/b = source registers s1/s2,
# i = immediate, t = branch/jump target.  r0 always reads as zero and a
# write to it is discarded.  An unused register field is r0 (so dst == 0
# for every class that writes no register), and an unused immediate is 0:
# the second operand of a computation is always ``regs[s2] + imm``.
DECODE = {
    **{op: (ALU, "dab") for op in _ALU_RRR},
    **{op: (ALU, "dai") for op in _ALU_RRI},
    "mul": (MUL, "dab"),
    "div": (DIV, "dab"),
    "ld": (LOAD, "dai"),
    "st": (STORE, "bai"),       # st rs2, rs1, imm : mem[rs1+imm] <- rs2
    **{op: (BRANCH, "abt") for op in ("beq", "bne", "blt", "bge")},
    "jmp": (JMP, "t"),
    "rdcycle": (RDCYCLE, "d"),
    "fence": (FENCE, ""),
    "halt": (HALT, ""),
    "nop": (NOP, ""),
}
# pseudo-op -> (op, operand form)
PSEUDO = {"li": ("addi", "di"), "mv": ("add", "da")}
# operand letter -> (operand kind, index into StaticInstr's (dst, s1, s2,
# imm, target)); kind r = register, i = immediate, t = branch target
_OPERAND = {"d": ("r", 0), "a": ("r", 1), "b": ("r", 2),
            "i": ("i", 3), "t": ("t", 4)}
# mnemonic (op or pseudo-op) -> (op, class, operands); the assembler's
# only encoding table
_FORMS = {**{op: (op, form) for op, (_, form) in DECODE.items()}, **PSEUDO}
ENCODE = {name: (op, DECODE[op][0], tuple(_OPERAND[k] for k in form))
          for name, (op, form) in _FORMS.items()}

MASK64 = (1 << 64) - 1


def s64(v):
    """``v`` as a register holds it: wrapped to signed 64 bits."""
    v &= MASK64
    return v - (1 << 64) if v >= (1 << 63) else v


def _div(a, b):
    """Truncating division; dividing by zero gives 0."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# op -> result of a computation on its two operands, before wrapping to
# 64 bits
OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "sll": lambda a, b: a << (b % 64),
    "srl": lambda a, b: (a & MASK64) >> (b % 64),
    "slt": lambda a, b: int(a < b),
    "mul": operator.mul,
    "div": _div,
}
OPS.update({op: OPS[op[:-1]] for op in _ALU_RRI})

BRANCH_CONDS = {"beq": operator.eq, "bne": operator.ne,
                "blt": operator.lt, "bge": operator.ge}


# a register operand is looked up as split from its line, so a name after
# ", " is found without stripping it
_REGS = {f"{sp}r{n}": n for n in range(NUM_REGS) for sp in ("", " ")}


def _reg(tok: str, lineno: int) -> int:
    """A register name: ``r`` followed by ASCII decimal digits."""
    if not tok.startswith("r"):
        raise ParseError(f"line {lineno}: expected register, got {tok!r}")
    digits = tok[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"line {lineno}: bad register {tok!r}")
    n = int(digits)
    if not 0 <= n < NUM_REGS:
        raise ParseError(f"line {lineno}: register {tok!r} out of range")
    return n


def _imm(tok: str, lineno: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise ParseError(f"line {lineno}: bad immediate {tok!r}")


def load_program(text: str) -> Program:
    """Assemble ``text`` into a program image.

    Raises ParseError (with source line numbers) for malformed lines,
    unknown opcodes/registers, and undefined or duplicate labels.

    One pass decodes each statement once; a branch to a label not yet
    defined is filled in from a fix-up list at the end.  Each error is
    raised where it is found, so the first bad line is the one named; a
    label that is never defined is known only after the pass, so it is
    raised last.
    """
    instrs = []
    labels = {}
    data = {}
    fixups = []      # (instruction, label, lineno): a branch to a later label
    for lineno, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        line = raw.strip()
        if not line:
            continue
        while ":" in line:
            label, _, line = line.partition(":")
            label = label.strip()
            if not label.isidentifier():
                raise ParseError(f"line {lineno}: bad label {label!r}")
            if label in labels:
                raise ParseError(f"line {lineno}: duplicate label {label!r}")
            labels[label] = len(instrs) * INSTR_BYTES
            line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        name = parts[0]
        enc = ENCODE.get(name)
        if enc is None:
            name = name.lower()
            enc = ENCODE.get(name)
        if enc is None:
            if name == ".word":
                toks = parts[1].split() if len(parts) > 1 else []
                if len(toks) != 2:
                    raise ParseError(f"line {lineno}: .word needs address and value")
                try:
                    addr, val = int(toks[0], 0), int(toks[1], 0)
                except ValueError:
                    addr, val = _imm(toks[0], lineno), _imm(toks[1], lineno)
                if addr < 0:
                    raise ParseError(f"line {lineno}: .word address must not be negative")
                if addr % WORD_BYTES:
                    raise ParseError(f"line {lineno}: .word address must be {WORD_BYTES}-byte aligned")
                data[addr] = s64(val)
            elif name == ".align":
                n = _imm(parts[1], lineno) if len(parts) > 1 else 0
                if n <= 0 or n % INSTR_BYTES or n > MAX_ALIGN:
                    raise ParseError(f"line {lineno}: bad alignment {parts[1] if len(parts) > 1 else ''!r}")
                while len(instrs) * INSTR_BYTES % n:
                    instrs.append(StaticInstr(len(instrs) * INSTR_BYTES,
                                              "nop", NOP))
            else:
                raise ParseError(f"line {lineno}: unknown opcode {name!r}")
            continue
        op, cls, operands = enc
        args = parts[1].split(",") if len(parts) > 1 else ()
        if len(args) != len(operands):
            raise ParseError(f"line {lineno}: {name} expects {len(operands)} operands")
        fields = [0, 0, 0, 0, 0]
        label = None
        for (kind, idx), tok in zip(operands, args):
            # a register or an immediate is read with its spaces:
            # _REGS holds " rN" and int() ignores them
            if kind == "r":
                val = _REGS.get(tok)
                if val is None:   # r01, or an error message
                    val = _reg(tok.strip(), lineno)
            elif kind == "i":
                try:
                    val = int(tok, 0)
                except ValueError:
                    val = _imm(tok.strip(), lineno)
            else:
                tok = tok.strip()
                if tok in labels:
                    val = labels[tok]
                elif tok.isidentifier():
                    label, val = tok, 0
                else:
                    val = _imm(tok, lineno)
                    if val % INSTR_BYTES:
                        raise ParseError(f"line {lineno}: misaligned branch target {val:#x}")
            fields[idx] = val
        si = StaticInstr(len(instrs) * INSTR_BYTES, op, cls, *fields)
        if label is not None:
            fixups.append((si, label, lineno))
        instrs.append(si)
    for si, label, lineno in fixups:
        if label not in labels:
            raise ParseError(f"line {lineno}: undefined label {label!r}")
        si.target = labels[label]
    return Program(instrs=instrs, data=data)
