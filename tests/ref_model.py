"""Independent architectural oracle: a sequential interpreter with no
pipeline, caches, or speculation.  Used to check that the simulator's
committed stream and final architectural state match a straightforward
reading of the ISA.  Supports everything except rdcycle (whose value is
timing-defined).
"""

from ghostsim import isa

MASK64 = (1 << 64) - 1


def _s64(v):
    v &= MASK64
    return v - (1 << 64) if v >> 63 else v


def ref_execute(program, max_steps=100_000):
    """Run to halt; returns (committed (pc, op) list, regs, words)."""
    regs = [0] * isa.NUM_REGS
    words = dict(program.data)
    committed = []
    pc = 0
    for _ in range(max_steps):
        si = program.get(pc)
        committed.append((pc, si.op))
        nxt = pc + isa.INSTR_BYTES
        a, b = regs[si.s1], regs[si.s2]
        if si.cls == isa.ALU:
            if si.op in isa._ALU_RRI:
                b = si.imm
            op = si.op
            if op in ("add", "addi"):
                r = a + b
            elif op == "sub":
                r = a - b
            elif op in ("and", "andi"):
                r = a & b
            elif op in ("or", "ori"):
                r = a | b
            elif op in ("xor", "xori"):
                r = a ^ b
            elif op in ("sll", "slli"):
                r = a << (b % 64)
            elif op in ("srl", "srli"):
                r = (a & MASK64) >> (b % 64)
            elif op in ("slt", "slti"):
                r = 1 if a < b else 0
            else:
                raise AssertionError(op)
            regs[si.dst] = _s64(r)
        elif si.cls == isa.MUL:
            regs[si.dst] = _s64(a * b)
        elif si.cls == isa.DIV:
            if b == 0:
                regs[si.dst] = 0
            else:
                q = abs(a) // abs(b)
                regs[si.dst] = _s64(-q if (a < 0) != (b < 0) else q)
        elif si.cls == isa.LOAD:
            addr = _s64(a + si.imm) & ~(isa.WORD_BYTES - 1)
            regs[si.dst] = words.get(addr, 0)
        elif si.cls == isa.STORE:
            addr = _s64(a + si.imm) & ~(isa.WORD_BYTES - 1)
            words[addr] = b
        elif si.cls == isa.BRANCH:
            taken = {"beq": a == b, "bne": a != b,
                     "blt": a < b, "bge": a >= b}[si.op]
            if taken:
                nxt = si.target
        elif si.cls == isa.JMP:
            nxt = si.target
        elif si.cls == isa.HALT:
            return committed, regs, words
        elif si.cls in (isa.NOP, isa.FENCE):
            pass
        else:
            raise AssertionError(f"ref model cannot execute {si.op}")
        regs[0] = 0   # r0 reads as zero: a write to it is discarded
        pc = nxt
    raise AssertionError("reference execution did not halt")
