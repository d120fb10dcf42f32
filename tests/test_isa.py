"""Assembler: encoding, labels, directives, and diagnostics."""

import pytest
from hypothesis import given, strategies as st

from ghostsim import RunConfig, harness
from ghostsim.isa import (
    ALU, BRANCH, DIV, HALT, JMP, LOAD, NOP, RDCYCLE, STORE,
    INSTR_BYTES, MAX_ALIGN, ParseError, load_program,
)


def test_basic_encoding():
    p = load_program("add r1, r2, r3\nld r4, r5, 16\nhalt\n")
    a, l, h = p.instrs
    assert (a.op, a.cls, a.dst, a.s1, a.s2) == ("add", ALU, 1, 2, 3)
    assert (l.op, l.cls, l.dst, l.s1, l.imm) == ("ld", LOAD, 4, 5, 16)
    assert h.cls == HALT
    assert p.end_pc == 3 * INSTR_BYTES


def test_store_operand_order():
    # st rs2, rs1, imm  ->  mem[rs1 + imm] <- rs2
    p = load_program("st r7, r2, 8\n")
    s = p.instrs[0]
    assert (s.cls, s.s1, s.s2, s.imm) == (STORE, 2, 7, 8)


def test_pseudo_ops():
    p = load_program("li r3, 42\nmv r4, r3\n")
    li, mv = p.instrs
    assert (li.op, li.dst, li.s1, li.imm) == ("addi", 3, 0, 42)
    assert (mv.op, mv.dst, mv.s1, mv.s2) == ("add", 4, 3, 0)


def test_labels_and_branches():
    p = load_program("top:\naddi r1, r1, 1\nbne r1, r2, top\njmp top\n")
    assert p.labels["top"] == 0
    br, j = p.instrs[1], p.instrs[2]
    assert (br.cls, br.s1, br.s2, br.target) == (BRANCH, 1, 2, 0)
    assert (j.cls, j.target) == (JMP, 0)


def test_label_on_same_line():
    p = load_program("loop: addi r1, r1, 1\n")
    assert p.labels["loop"] == 0
    assert len(p.instrs) == 1


def test_numeric_branch_target():
    p = load_program("jmp 0x40\n")
    assert p.instrs[0].target == 0x40


def test_forward_and_backward_targets():
    # a label defined later is filled in from the fix-up list at the end
    p = load_program("top:\nbeq r1, r2, end\nmid: jmp top\nbne r1, r0, mid\n"
                     "jmp end\nblt r1, r2, 8\nend: halt\n")
    assert [si.target for si in p.instrs] == [20, 0, 4, 20, 8, 0]
    assert p.labels == {"top": 0, "mid": 4, "end": 20}


def test_word_directive_and_comments():
    p = load_program("# header\n.word 0x100 7   # data\nnop\n")
    assert p.data == {0x100: 7}
    assert p.instrs[0].cls == NOP


@pytest.mark.parametrize("value", ["0xFFFFFFFFFFFFFFFF", "-1",
                                   "0x1FFFFFFFFFFFFFFFF"])
def test_word_holds_what_a_register_holds(value):
    # every spelling of the 64-bit word of all ones loads as -1, the value
    # ``li r2, -1`` gives, so the branch is taken and r3 stays 0
    text = (f".word 0x1000 {value}\nld r1, r0, 0x1000\nli r2, -1\n"
            "beq r1, r2, same\nli r3, 5\nsame:\nhalt\n")
    assert load_program(text).data == {0x1000: -1}
    m, _ = harness.run([text], RunConfig())
    assert m.cores[0].regs[1:4] == [-1, -1, 0]


def test_word_wraps_at_the_signed_64_bit_bounds():
    p = load_program(".word 0x100 0x8000000000000000\n"
                     ".word 0x108 0x7fffffffffffffff\n")
    assert p.data == {0x100: -(1 << 63), 0x108: (1 << 63) - 1}


def test_align_pads_with_nops():
    p = load_program("nop\n.align 16\nhalt\n")
    assert len(p.instrs) == 5           # 1 nop + 3 pad nops + halt
    assert p.instrs[4].cls == HALT
    assert p.instrs[4].pc == 16


def test_align_accepts_its_bound():
    p = load_program(f"nop\n.align {MAX_ALIGN}\nhalt\n")
    assert p.instrs[-1].pc == MAX_ALIGN


def test_off_image_fetch_decodes_as_nop():
    p = load_program("halt\n")
    assert p.get(0).cls == HALT
    assert p.get(400).cls == NOP
    assert p.get(400).pc == 400


def test_register_digits():
    p = load_program("add r01, r15, r0\n")
    assert (p.instrs[0].dst, p.instrs[0].s1, p.instrs[0].s2) == (1, 15, 0)


# every spelling the assembler accepts, with the fields it gives:
# (pc, op, cls, dst, s1, s2, imm, target)
SPELLINGS = """\
top:
add r01, r15, r0
addi r1, r2, -8
ld r3, r4, 0x40
andi r5, r6, 0b101
li r7, 1_000
add  r1 ,r2 ,   r3
st r7 , r2 , 8
add\tr1,\tr2,\tr3
beq r1 , r2 , top
li r3, -1
mv r4, r3
.word 0x100 0xff
.word 0x1_08 1_000
.word 272 -5
halt
"""
SPELLED = [
    (0, "add", ALU, 1, 15, 0, 0, 0),
    (4, "addi", ALU, 1, 2, 0, -8, 0),
    (8, "ld", LOAD, 3, 4, 0, 0x40, 0),
    (12, "andi", ALU, 5, 6, 0, 5, 0),
    (16, "addi", ALU, 7, 0, 0, 1000, 0),
    (20, "add", ALU, 1, 2, 3, 0, 0),
    (24, "st", STORE, 0, 2, 7, 8, 0),
    (28, "add", ALU, 1, 2, 3, 0, 0),
    (32, "beq", BRANCH, 0, 1, 2, 0, 0),
    (36, "addi", ALU, 3, 0, 0, -1, 0),
    (40, "add", ALU, 4, 3, 0, 0, 0),
    (44, "halt", HALT, 0, 0, 0, 0, 0),
]


def test_spellings():
    p = load_program(SPELLINGS)
    assert [(si.pc, si.op, si.cls, si.dst, si.s1, si.s2, si.imm, si.target)
            for si in p.instrs] == SPELLED
    assert p.data == {0x100: 0xFF, 0x108: 1000, 0x110: -5}
    assert p.labels == {"top": 0}


def test_misc_classes():
    p = load_program("div r1, r2, r3\nrdcycle r5\nfence\n")
    assert p.instrs[0].cls == DIV
    assert (p.instrs[1].cls, p.instrs[1].dst) == (RDCYCLE, 5)


# source -> the exact ParseError message, line number included
PARSE_ERRORS = {
    "frob r1, r2, r3\n": "line 1: unknown opcode 'frob'",
    "add r1, r2\n": "line 1: add expects 3 operands",
    "halt r1, r2\n": "line 1: halt expects 0 operands",
    "fence 7\n": "line 1: fence expects 0 operands",
    "add r1, r2, r99\n": "line 1: register 'r99' out of range",
    "add r1, r2, x3\n": "line 1: expected register, got 'x3'",
    "add r1, r2, rx\n": "line 1: bad register 'rx'",
    "ld r1, r2, zzz\n": "line 1: bad immediate 'zzz'",
    ".word 0x101 5\n": "line 1: .word address must be 8-byte aligned",
    ".word -8 5\n": "line 1: .word address must not be negative",
    ".word 0x100\n": "line 1: .word needs address and value",
    ".word\n": "line 1: .word needs address and value",
    ".align 3\n": "line 1: bad alignment '3'",
    ".align 0\n": "line 1: bad alignment '0'",
    ".align\n": "line 1: bad alignment ''",
    # padding is one nop per 4 bytes, so the width is bounded
    ".align 8192\n": "line 1: bad alignment '8192'",
    ".align 0x40000000\n": "line 1: bad alignment '0x40000000'",
    "beq r1, r2, nowhere\n": "line 1: undefined label 'nowhere'",
    "jmp 0x41\n": "line 1: misaligned branch target 0x41",
    "1bad: nop\n": "line 1: bad label '1bad'",
    # a label defined twice, on its own line or before an instruction
    "a:\nnop\na:\nhalt\njmp a\n":
        "line 3: duplicate label 'a'",
    "nop\nb: nop\nb: c: halt\n":
        "line 3: duplicate label 'b'",
    # a register is r and ASCII decimal digits, nothing else
    "add r1, r+2, r3\n": "line 1: bad register 'r+2'",
    "add r1, r2, r1_5\n": "line 1: bad register 'r1_5'",
    "add r 1, r2, r3\n": "line 1: bad register 'r 1'",
    "add r1, r-0, r3\n": "line 1: bad register 'r-0'",
    "add r1, r\u0661, r3\n": "line 1: bad register 'r\u0661'",
    "add r1, r, r3\n": "line 1: bad register 'r'",
    # an error on line 4, after labels and data, in each pass
    "top:\n.word 0x100 1\n.word 0x108 2\n.word 0x110 zz\nhalt\n":
        "line 4: bad immediate 'zz'",
    "top:\n.word 0x100 1\nnop\nadd r1, r2, rx\nhalt\n":
        "line 4: bad register 'rx'",
    # .align: a bad width on a later line; padding keeps line numbers
    "nop\n.align 6\n": "line 2: bad alignment '6'",
    "nop\n.align 16\nfrob\n": "line 3: unknown opcode 'frob'",
    # check order: the first bad line is named, whatever the kind of
    # its error; within a line, operand count before operands, operands
    # left to right
    "frob\n.word 0x101 5\n": "line 1: unknown opcode 'frob'",
    "add r99, r2\n": "line 1: add expects 3 operands",
    "add r99, x3, r1\n": "line 1: register 'r99' out of range",
    # branch targets through the fix-up list: an undefined label is
    # known only once the whole text is read, so it is reported after
    # every other error, whatever its line
    "nop\nbeq r1, r2, later\njmp nowhere\nlater: halt\n":
        "line 3: undefined label 'nowhere'",
    "jmp nowhere\njmp 0x41\n": "line 2: misaligned branch target 0x41",
    "jmp 0x42\njmp nowhere\n": "line 1: misaligned branch target 0x42",
    "add r1, r2, rx\njmp nowhere\nfrob\n": "line 1: bad register 'rx'",
    "bne r1, r0, nowhere\nld r1, r2, zz\n":
        "line 2: bad immediate 'zz'",
    "jmp nowhere\n.align 3\n": "line 2: bad alignment '3'",
    "jmp a\na:\nnop\na: halt\n": "line 4: duplicate label 'a'",
}


@pytest.mark.parametrize("bad", PARSE_ERRORS)
def test_parse_errors(bad):
    with pytest.raises(ParseError) as err:
        load_program(bad)
    assert str(err.value) == PARSE_ERRORS[bad]


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 3"):
        load_program("nop\nnop\nfrob r1, r2, r3\n")


# statements that assemble, between a "top:" first line and an "end:" last
# one, so both branch directions resolve
VALID_LINES = ["nop", "add r1, r2, r3", "ld r4, r5, 16", "st r7, r2, 8",
               "li r3, 42", "div r1, r2, r3", "beq r1, r2, top", "jmp end",
               ".word 0x100 7", ".align 8", "mv r4, r3"]
# one bad statement of each kind -> its message, less the line number
BAD_LINES = {
    "frob r1, r2, r3": "unknown opcode 'frob'",
    "add r1, r2": "add expects 3 operands",
    "add r1, rx, r3": "bad register 'rx'",
    "ld r1, r2, zz": "bad immediate 'zz'",
    ".word 0x101 5": ".word address must be 8-byte aligned",
    ".align 3": "bad alignment '3'",
    "top: nop": "duplicate label 'top'",
}


@given(st.lists(st.sampled_from(VALID_LINES), max_size=12),
       st.lists(st.tuples(st.sampled_from(sorted(BAD_LINES)),
                          st.integers(0, 12)),
                min_size=2, max_size=4, unique_by=lambda bad: bad[0]))
def test_first_bad_line_is_named(body, bads):
    lines = ["top:", *body, "end: halt"]
    load_program("\n".join(lines) + "\n")
    for line, at in bads:
        lines.insert(1 + min(at, len(lines) - 2), line)
    first = next(i for i, line in enumerate(lines, 1) if line in BAD_LINES)
    with pytest.raises(ParseError) as err:
        load_program("\n".join(lines) + "\n")
    assert str(err.value) == f"line {first}: {BAD_LINES[lines[first - 1]]}"
