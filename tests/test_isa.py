"""Assembler: encoding, labels, directives, and diagnostics."""

import pytest

from ghostsim.isa import (
    ALU, BRANCH, DIV, HALT, JMP, LOAD, NOP, RDCYCLE, STORE,
    INSTR_BYTES, ParseError, load_program,
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


def test_word_directive_and_comments():
    p = load_program("# header\n.word 0x100 7   # data\nnop\n")
    assert p.data == {0x100: 7}
    assert p.instrs[0].cls == NOP


def test_align_pads_with_nops():
    p = load_program("nop\n.align 16\nhalt\n")
    assert len(p.instrs) == 5           # 1 nop + 3 pad nops + halt
    assert p.instrs[4].cls == HALT
    assert p.instrs[4].pc == 16


def test_off_image_fetch_decodes_as_nop():
    p = load_program("halt\n")
    assert p.get(0).cls == HALT
    assert p.get(400).cls == NOP
    assert p.get(400).pc == 400


def test_misc_classes():
    p = load_program("div r1, r2, r3\nrdcycle r5\nfence\n")
    assert p.instrs[0].cls == DIV
    assert (p.instrs[1].cls, p.instrs[1].dst) == (RDCYCLE, 5)


@pytest.mark.parametrize("bad", [
    "frob r1, r2, r3\n",              # unknown opcode
    "add r1, r2\n",                   # wrong arity
    "halt r1, r2\n",                  # operands on an operand-less op
    "fence 7\n",
    "add r1, r2, r99\n",              # register out of range
    "add r1, r2, x3\n",               # not a register
    "ld r1, r2, zzz\n",               # bad immediate
    ".word 0x101 5\n",                # misaligned data word
    ".word 0x100\n",                  # missing value
    ".align 3\n",                     # bad alignment
    "beq r1, r2, nowhere\n",          # undefined label -> bad immediate
    "jmp 0x41\n",                     # misaligned branch target
    "1bad: nop\n",                    # malformed label
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        load_program(bad)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 3"):
        load_program("nop\nnop\nfrob r1, r2, r3\n")
