"""Harness drivers and CLI: reports, verdicts, fuzzing, exit codes."""

from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

from ghostsim import Machine, RunConfig, SimTimeout, load_program
from ghostsim.cli import main
from ghostsim.core import Core
from ghostsim.gadgets import GADGETS, Gadget
from ghostsim import harness

from programs import (DIVIDER_ORDER, GEOMETRIES, LEAPFROG, LRU_STATE,
                      MP_CORE0, MP_CORE1, OLDER_READER, PAIR_SEED, fuzz_text,
                      pair_texts, switched_off)

SIMPLE = "li r1, 5\nadd r2, r1, r1\nst r2, r0, 0x100\nhalt\n"


class TestRun:
    def test_reports_are_reproducible(self):
        _, a = harness.run([SIMPLE], RunConfig())
        _, b = harness.run([SIMPLE], RunConfig())
        assert a == b
        assert a.to_text() == b.to_text()

    def test_report_fields(self):
        m, rep = harness.run([SIMPLE], RunConfig())
        assert rep.schema == 1
        assert rep.mode == "ghostminion"
        assert rep.commits == 4
        assert rep.cycles == m.cycle
        assert rep.ipc == pytest.approx(4 / rep.cycles)
        assert len(rep.digest) == 64
        assert all(v >= 0 for v in rep.counters.values())

    def test_digest_tracks_timing(self):
        _, a = harness.run([SIMPLE], RunConfig())
        _, b = harness.run([SIMPLE], RunConfig(warm_icache=True))
        assert a.digest != b.digest

    def test_no_programs_report_no_cycles(self):
        _, rep = harness.run([], RunConfig())
        assert (rep.cycles, rep.commits, rep.ipc) == (0, 0, 0.0)

    def test_timeout_raises(self):
        with pytest.raises(SimTimeout):
            harness.run(["loop:\njmp loop\n"], RunConfig(max_cycles=50))


class TestDifferential:
    def test_secret_free_gadget_is_safe_everywhere(self):
        g = Gadget("noop", lambda s: (SIMPLE,), lambda m: 0)
        for mode in ("unsafe", "flush_only", "ghostminion"):
            assert harness.run_differential(g, RunConfig(mode=mode)).verdict == "SAFE"

    def test_structurally_divergent_gadget_rejected(self):
        g = Gadget("bad", lambda s: ("nop\n" * (s + 1) + "halt\n",),
                   lambda m: 0)
        res = harness.run_differential(g, RunConfig())
        assert res.verdict == "ERROR"
        assert "structurally" in res.detail

    def test_leak_reports_first_divergence(self):
        res = harness.run_differential(GADGETS["spectre_v1"],
                                       RunConfig(mode="unsafe"))
        assert res.verdict == "LEAKS"
        assert res.divergence is not None
        secret, cid, idx, ea, eb = res.divergence
        assert ea[:2] == eb[:2]      # same instruction, different timing


class TestAblation:
    def test_no_misprediction_program_passes_trivially(self):
        res = harness.run_ablation([SIMPLE], RunConfig())
        assert res.verdict == "PASS" and res.pure

    def test_fuzz_zero_count_vacuous(self):
        assert harness.fuzz_programs(0, RunConfig()) == (0, None)

    def test_fuzz_deterministic_per_seed(self):
        a = harness.fuzz_programs(5, RunConfig(), seed=42)
        b = harness.fuzz_programs(5, RunConfig(), seed=42)
        assert a == b

    def test_store_merged_into_squashed_load_miss_stays_dirty(self):
        # seed 12, program 533: a committing store merges into the miss of
        # a load that is later squashed; the line must be dirty in both
        # the normal and the ablated run
        res = harness.run_ablation(fuzz_text(12, 533),
                                   RunConfig(mode="ghostminion"))
        assert res.verdict == "PASS" and res.pure

    def test_diverged_ablated_run_fails_instead_of_timing_out(self):
        # seed 0, program 887 halts in 408 cycles in unsafe mode, but its
        # ablated run diverges and then loops on ablated no-ops
        res = harness.run_ablation(fuzz_text(0, 887),
                                   RunConfig(mode="unsafe", max_cycles=20_000))
        assert res.verdict == "FAIL"

    def test_two_core_forwarded_fill_keeps_l1_exclusive(self):
        # seed 7, pair 13: a non-coherent copy forwarded to core 0 used to
        # land in its side buffer after a committing store had put the
        # line in its L1D, breaking exclusivity and the ablation check
        res = harness.run_ablation(pair_texts(PAIR_SEED, 13), RunConfig())
        assert res.verdict == "PASS" and res.pure

    @pytest.mark.parametrize("index", [26, 38, 94, 118])
    def test_two_core_side_buffer_copies_stay_coherent(self, index):
        # seed 7: in pairs 26 and 94 a speculative miss was filled into the
        # side buffer as a coherent copy after the other core had taken
        # the line Exclusive; in pairs 38 and 118 a core took the line
        # Exclusive while the other held a coherent speculative copy
        res = harness.run_ablation(pair_texts(PAIR_SEED, index), RunConfig())
        assert res.verdict == "PASS" and res.pure

    def test_zero_latency_forwarded_fill_runs_after_next_deliveries(self):
        # seed 7, pair 104 at zerotiny: a copy forwarded with no latency
        # is queued for the next cycle and fills after that cycle's
        # deliveries, so the one-way side buffer already holds an older
        # load's line and rejects it; run before them, it would be filled
        # and then evicted by the older line
        pair = pair_texts(PAIR_SEED, 104)
        cfg = RunConfig(**GEOMETRIES["zerotiny"])
        _, rep = harness.run(pair, cfg)
        assert rep.counters == {
            "timeguard_blocks": 0, "fills_rejected": 1, "flush_count": 6,
            "lines_extracted": 7, "mshr_leapfrogs": 0, "timeleaps": 0,
            "retries": 0, "prefetches_issued": 0, "replays": 2}
        res = harness.run_ablation(pair, cfg)
        assert res.verdict == "PASS" and res.pure

    @pytest.mark.parametrize("mode, pure", [("flush_only", False),
                                            ("ghostminion", True)])
    def test_wrong_path_demotion_of_a_remote_line_is_impure(self, mode,
                                                            pure):
        # core 0's wrong-path load of 0x2000 issues once the cold r5 is
        # back, before the cold chain resolves the beq.  Without
        # non-coherent forwarding it demotes core 1's clean Exclusive copy
        # to Shared: the caches are unchanged, the owner map is not
        core0 = """\
.word 0x3000 0x40
ld r1, r0, 0x3000
ld r3, r1, 0x3000
ld r5, r0, 0x4000
beq r3, r0, skip
ld r2, r5, 0x2000
skip:
halt
"""
        core1 = "ld r1, r0, 0x2000\n" + "div r1, r1, r1\n" * 26 + "halt\n"
        res = harness.run_ablation([core0, core1],
                                   RunConfig(mode=mode, warm_icache=True))
        assert res.verdict == "PASS" and res.pure is pure

    def test_squashed_load_leaves_no_forwarded_copy(self):
        # seed 7, pair 45 at l2_mshrs=1: core 1's wrong-path load got a
        # non-coherent copy whose side-buffer fill was due after its
        # squash; filled then, with a stamp the squash had rewound, it
        # would let a correct-path load hit 29 cycles early
        cfg = RunConfig(l2_mshrs=1)
        res = harness.run_ablation(pair_texts(PAIR_SEED, 45), cfg)
        assert res.verdict == "PASS" and res.pure

    @pytest.mark.parametrize("switch, index, verdict", [
        pytest.param("squash_cancels_misses", 45, "FAIL",
                     id="squash_cancels_misses-FAIL"),
        pytest.param("side_buffer", 56, "PASS", id="side_buffer-PASS")])
    def test_forwarded_copy_with_a_switch_off(self, switch, index, verdict):
        # one of the two switches the forwarded fill reads turned off: in
        # pair 45, a copy filled after the squash lets the correct-path
        # load hit early; in pair 56, whose core 1 is forwarded a copy
        # before and after a squash, with no side buffer no copy is kept
        cfg = RunConfig(l2_mshrs=1)
        pair = pair_texts(PAIR_SEED, index)
        with switched_off(switch):
            m, _ = harness.run(pair, cfg)
            res = harness.run_ablation(pair, cfg)
        assert res.verdict == verdict and res.pure
        if switch == "side_buffer":
            assert not any(list(g.valid_lines()) for g in m.mem.dghost)

    def test_ablated_store_that_commits_writes_nothing(self):
        # a normal run whose committed count is cut to the first
        # instruction makes the ablated run ablate the correct-path store:
        # its no-op still commits, but writes no word and makes no access
        prog = load_program("li r1, 7\nst r1, r0, 0x2000\nhalt\n")
        m1 = Machine([prog], RunConfig())
        m1.run()
        assert m1.cores[0].committed == {0: 3}
        m1.cores[0].committed[0] = 1
        m2 = Machine([prog], RunConfig(), normal=m1)
        m2.run(m1.cycle)
        assert [e[1] for e in m2.cores[0].timeline] == ["addi", "st", "halt"]
        assert (m1.read_word(0x2000), m2.read_word(0x2000)) == (7, 0)
        assert m1.mem.owner == {0x2000: 0} and m2.mem.owner == {}

    def test_older_reader_cannot_see_younger_side_buffer_fill(self):
        # an older load issues after a younger wrong-path load has filled
        # the same line into the side buffer: only the timeguard hides it
        _, rep = harness.run([OLDER_READER], RunConfig())
        assert rep.counters["timeguard_blocks"] == 1
        res = harness.run_ablation([OLDER_READER], RunConfig())
        assert res.verdict == "PASS" and res.pure
        for mode in ("unsafe", "flush_only"):
            res = harness.run_ablation([OLDER_READER], RunConfig(mode=mode))
            assert res.verdict == "FAIL" and res.divergence[1] == 6
        with switched_off("timeguard"):
            res = harness.run_ablation([OLDER_READER], RunConfig())
        assert res.verdict == "FAIL"

    def test_younger_div_cannot_delay_older_div(self):
        # a younger wrong-path div takes the divider before an older one
        res = harness.run_ablation([DIVIDER_ORDER], RunConfig())
        assert res.verdict == "PASS"
        for mode in ("unsafe", "flush_only"):
            res = harness.run_ablation([DIVIDER_ORDER], RunConfig(mode=mode))
            assert res.verdict == "FAIL" and res.divergence[1] == 5
        with switched_off("inorder_divider"):
            res = harness.run_ablation([DIVIDER_ORDER], RunConfig())
        assert res.verdict == "FAIL"

    def test_wrong_path_hit_cannot_change_lru_victim(self):
        # the wrong-path hit would make A most recent, so C would evict B
        # instead of A and the last load of A would miss
        for mode in ("ghostminion", "flush_only"):
            res = harness.run_ablation([LRU_STATE], RunConfig(mode=mode))
            assert res.verdict == "PASS" and res.pure
        res = harness.run_ablation([LRU_STATE], RunConfig(mode="unsafe"))
        assert res.verdict == "FAIL" and res.divergence[1] == 9
        assert res.detail.endswith("nothing committed by cycle 506")
        with switched_off("hide_spec_lru"):
            res = harness.run_ablation([LRU_STATE], RunConfig())
        assert res.verdict == "FAIL" and res.divergence[1] == 9

    def test_wrong_path_misses_cannot_delay_older_load(self):
        # only leapfrogging frees a miss register for the older load
        res = harness.run_ablation([LEAPFROG], RunConfig())
        assert res.verdict == "PASS" and res.pure
        for mode in ("unsafe", "flush_only"):
            res = harness.run_ablation([LEAPFROG], RunConfig(mode=mode))
            assert res.verdict == "FAIL" and res.divergence[1] == 6
        with switched_off("leapfrog"):
            res = harness.run_ablation([LEAPFROG], RunConfig())
        assert res.verdict == "FAIL" and res.divergence[1] == 6

    def test_stale_forwarded_load_reexecutes_at_commit(self, monkeypatch):
        m, rep = harness.run([MP_CORE0, MP_CORE1], RunConfig())
        assert (m.cores[0].regs[1], m.cores[0].regs[2]) == (0, 1)
        assert rep.counters["replays"] == 1
        for mode in ("ghostminion", "unsafe", "flush_only"):
            res = harness.run_ablation([MP_CORE0, MP_CORE1],
                                       RunConfig(mode=mode))
            assert res.verdict == "PASS" and res.pure
        for mode in ("unsafe", "flush_only"):
            m, _ = harness.run([MP_CORE0, MP_CORE1], RunConfig(mode=mode))
            assert m.cores[0].regs[2] == 0
        monkeypatch.setattr(Core, "_replays", lambda self, di: False)
        m, _ = harness.run([MP_CORE0, MP_CORE1], RunConfig())
        assert m.cores[0].regs[2] == 0

    def test_generator_output_is_seed_dependent(self):
        texts = {fuzz_text(s, 0) for s in range(8)}
        assert len(texts) == 8


class TestCommittedPrefix:
    """Oracle: each epoch's committed positions are a prefix 0..k-1, so
    ``Core.committed``, the count k per epoch, names exactly the
    instructions that committed, in the normal and in the ablated run."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Core -> the akeys of the instructions it committed."""
        seen = {}
        commit = Core.do_commit

        def spy(core, cycle):
            # a call commits at most width instructions off the ROB head
            head = list(islice(core.rob, core.cfg.width))
            before = len(core.timeline)
            progress = commit(core, cycle)
            seen.setdefault(core, set()).update(
                di.akey for di in head[:len(core.timeline) - before])
            return progress

        monkeypatch.setattr(Core, "do_commit", spy)
        return seen

    @staticmethod
    def _check(seen, programs, cfg):
        """Whether a run squashed: an epoch after the first committed."""
        harness.run_ablation(programs, cfg)
        assert len(seen) == 2 * len(programs)   # normal and ablated cores
        for core, keys in seen.items():
            assert keys == {(e, p) for e, k in core.committed.items()
                            for p in range(k)}
        squashed = any(len(core.committed) > 1 for core in seen)
        seen.clear()
        return squashed

    @pytest.mark.parametrize("geometry", ["default", "tight"])
    @pytest.mark.parametrize("mode", ["ghostminion", "unsafe"])
    def test_fuzz_programs(self, seen, mode, geometry):
        cfg = replace(RunConfig(mode=mode), **GEOMETRIES[geometry])
        assert all([self._check(seen, fuzz_text(0, i), cfg)
                    for i in range(200)])

    @pytest.mark.parametrize("mode", ["ghostminion", "unsafe", "flush_only"])
    def test_gadgets(self, seen, mode):
        for g in GADGETS.values():
            if not g.two_core:
                cfg = replace(RunConfig(mode=mode), **g.cfg_overrides)
                assert self._check(seen, g.programs(0), cfg), g.name

    def test_replay_squash_at_commit(self, seen):
        # core 0's replayed load squashes from commit, then commits itself
        # as the last position of the epoch its squash ended
        assert self._check(seen, [MP_CORE0, MP_CORE1], RunConfig())


class TestTwoDividers:
    """With two dividers, issue scans for a free unit and a squash frees
    the unit a squashed divide holds, unit 1 included; ablation still
    passes, pure, on seed-0 fuzz programs."""

    def test_fuzz_programs(self, monkeypatch):
        on_unit1 = freed_unit1 = 0
        issue, squash = Core.do_issue, Core._squash_after

        def issue_spy(core, cycle):
            nonlocal on_unit1
            busy = core.div_busy[1]
            progress = issue(core, cycle)
            # an issue on a free unit makes it busy past this cycle
            on_unit1 += core.div_busy[1] != busy
            return progress

        def squash_spy(core, di, cycle, redirect_pc):
            nonlocal freed_unit1
            busy = core.div_busy[1]
            squash(core, di, cycle, redirect_pc)
            # a squash frees a busy unit by making it free this cycle
            freed_unit1 += busy > cycle == core.div_busy[1]

        monkeypatch.setattr(Core, "do_issue", issue_spy)
        monkeypatch.setattr(Core, "_squash_after", squash_spy)
        for geometry in ("default", "tight"):
            cfg = RunConfig(div_units=2, **GEOMETRIES[geometry])
            for i in range(100):
                res = harness.run_ablation(fuzz_text(0, i), cfg)
                assert res.verdict == "PASS" and res.pure, (geometry, i)
        assert on_unit1 and freed_unit1


# a program with a wrong path that passes, the same program failing
# under unsafe, and two two-core runs with stores that pass
SHARED_CASES = [
    pytest.param([OLDER_READER], "ghostminion", "PASS", id="older_reader"),
    pytest.param([OLDER_READER], "unsafe", "FAIL", id="older_reader-unsafe"),
    pytest.param([SIMPLE, DIVIDER_ORDER], "ghostminion", "PASS", id="stores"),
    pytest.param(pair_texts(PAIR_SEED, 13), "ghostminion", "PASS",
                 id="pair13"),
]


INSTR_FIELDS = ("pc", "op", "cls", "dst", "s1", "s2", "imm", "target")


def _image(prog):
    return ([tuple(getattr(si, f) for f in INSTR_FIELDS) for si in prog.instrs],
            prog.data)


class TestSharedProgram:
    """A ``Program`` is read-only during a run, so one assembly can serve
    every machine."""

    @pytest.mark.parametrize("texts, mode, verdict", SHARED_CASES)
    def test_ablation_same_on_program_and_text(self, texts, mode, verdict):
        cfg = RunConfig(mode=mode)
        a = harness.run_ablation(texts, cfg)
        b = harness.run_ablation([load_program(t) for t in texts], cfg)
        assert a.verdict == verdict
        assert (b.verdict, b.pure, b.detail) == (a.verdict, a.pure, a.detail)

    @pytest.mark.parametrize("texts, mode, verdict", SHARED_CASES)
    def test_runs_leave_program_unchanged(self, texts, mode, verdict):
        progs = [load_program(t) for t in texts]
        for _ in range(2):
            Machine(progs, RunConfig(mode=mode)).run()
        for prog, text in zip(progs, texts):
            assert _image(prog) == _image(load_program(text))


class TestCli:
    def _emit(self, tmp_path, name="spectre_v1"):
        assert main(["gadgets", "emit", name, "--dir", str(tmp_path)]) == 0
        return str(tmp_path / f"{name}.gasm")

    def test_run_ok(self, tmp_path, capsys):
        p = tmp_path / "p.gasm"
        p.write_text(SIMPLE)
        assert main(["run", str(p)]) == 0
        out = capsys.readouterr().out
        assert '"schema": 1' in out and '"digest"' in out

    def test_diff_exit_codes(self):
        assert main(["diff", "spectre_v1", "--mode", "ghostminion"]) == 0
        assert main(["diff", "spectre_v1", "--mode", "unsafe"]) == 1

    def test_diff_error_verdict_is_usage_error(self, monkeypatch, capsys):
        bad = Gadget("bad", lambda s: ("nop\n" * (s + 1) + "halt\n",),
                     lambda m: 0)
        monkeypatch.setitem(GADGETS, "bad", bad)
        assert main(["diff", "bad"]) == 2
        assert "verdict: ERROR" in capsys.readouterr().out

    def test_module_entry_point(self, monkeypatch, capsys):
        import runpy
        import sys
        import warnings
        monkeypatch.setattr(sys, "argv", ["ghostsim", "gadgets", "list"])
        with warnings.catch_warnings(), pytest.raises(SystemExit) as e:
            # runpy warns that the package has already imported the module
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("ghostsim.cli", run_name="__main__")
        assert e.value.code == 0
        assert "spectre_v1" in capsys.readouterr().out

    def test_ablate_exit_codes(self, tmp_path):
        g = self._emit(tmp_path)
        assert main(["ablate", g, "--mode", "ghostminion"]) == 0
        assert main(["ablate", g, "--mode", "unsafe"]) == 1

    def test_fuzz_exit_codes(self):
        assert main(["fuzz", "10", "--seed", "0"]) == 0
        assert main(["fuzz", "100", "--seed", "0", "--mode", "unsafe"]) == 1

    def test_usage_errors(self, tmp_path, capsys):
        assert main(["frobnicate"]) == 2
        assert main(["diff", "not_a_gadget"]) == 2
        assert main(["run", str(tmp_path / "missing.gasm")]) == 2
        bad = tmp_path / "bad.gasm"
        bad.write_text("frob r1, r2\n")
        assert main(["run", str(bad)]) == 2
        badcfg = tmp_path / "bad.cfg"
        badcfg.write_text("rob = banana\n")
        p = tmp_path / "p.gasm"
        p.write_text(SIMPLE)
        assert main(["run", str(p), "--config", str(badcfg)]) == 2

    def test_run_names_the_first_bad_line(self, tmp_path, capsys):
        # an instruction error before a directive error is the one named
        bad = tmp_path / "bad.gasm"
        bad.write_text("frob\n.word 0x101 5\nhalt\n")
        assert main(["run", str(bad)]) == 2
        assert "line 1: unknown opcode" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "{dir}"],
        ["ablate", "{binary}"],
        ["diff", "spectre_v1", "--config", "{dir}"],
    ], ids=["run-directory", "ablate-binary", "diff-config-directory"])
    def test_unreadable_file_is_usage_error(self, tmp_path, capsys, argv):
        binary = tmp_path / "binary.gasm"
        binary.write_bytes(b"\xff\xfe\x00\x81")
        argv = [a.format(dir=tmp_path, binary=binary) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ")
        assert "internal error" not in err

    @pytest.mark.parametrize("argv", [
        ["gadgets", "emit", "spectre_v1", "--dir", "{prog}"],
        ["gadgets", "emit", "spectre_v1", "--dir", "{prog}/sub"],
    ], ids=["emit-dir-file", "emit-dir-under-file"])
    def test_unwritable_path_is_usage_error(self, tmp_path, capsys, argv):
        prog = tmp_path / "p.gasm"
        prog.write_text(SIMPLE)
        argv = [a.format(prog=prog) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert "internal error" not in err

    def test_negative_fuzz_count_rejected(self, capsys):
        assert main(["fuzz", "-5"]) == 2
        assert "count" in capsys.readouterr().err

    def test_cycle_budget_below_one_rejected(self, tmp_path):
        p = tmp_path / "p.gasm"
        p.write_text(SIMPLE)
        assert main(["run", str(p), "--max-cycles", "0"]) == 2

    @pytest.mark.parametrize("secret", ["99", "-1", "16"])
    def test_out_of_range_secret_rejected(self, tmp_path, capsys, secret):
        assert main(["gadgets", "emit", "spectre_v1", "--dir", str(tmp_path),
                     "--secret", secret]) == 2
        assert "secret" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_timeout_exit_code(self, tmp_path):
        p = tmp_path / "p.gasm"
        p.write_text("loop:\njmp loop\n")
        assert main(["run", str(p), "--max-cycles", "100"]) == 3

    def test_config_file_round_trip(self, tmp_path):
        cfgf = tmp_path / "c.cfg"
        cfgf.write_text(RunConfig(mode="unsafe").to_text())
        p = tmp_path / "p.gasm"
        p.write_text(SIMPLE)
        assert main(["run", str(p), "--config", str(cfgf)]) == 0

    def test_gadgets_list(self, capsys):
        # one line per gadget: its name, its core count and the secret
        # domain; spectre_prime is the one two-core gadget
        assert main(["gadgets", "list"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows == [[name, "2-core" if name == "spectre_prime"
                         else "1-core", "secrets", "0..15"]
                        for name in GADGETS]

    def test_emit_all_writes_one_file_per_core(self, tmp_path, capsys):
        assert main(["gadgets", "emit", "all", "--dir", str(tmp_path)]) == 0
        texts = {}
        for g in GADGETS.values():
            programs = g.programs(0)
            for i, text in enumerate(programs):
                suffix = f".core{i}" if len(programs) > 1 else ""
                texts[f"{g.name}{suffix}.gasm"] = text
        assert "spectre_prime.core1.gasm" in texts
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == texts
        assert len(capsys.readouterr().out.splitlines()) == len(texts)

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ghostsim")

    @pytest.mark.parametrize("argv, method", [
        (["run", "{prog}"], "read_text"),
        (["gadgets", "emit", "spectre_v1", "--dir", "{dir}"], "write_text"),
    ], ids=["read", "write"])
    def test_os_error_without_strerror_names_the_path(
            self, tmp_path, monkeypatch, capsys, argv, method):
        # an OSError raised with a message only has no strerror: the
        # message stands in for it
        prog = tmp_path / "p.gasm"
        prog.write_text(SIMPLE)
        argv = [a.format(prog=prog, dir=tmp_path / "out") for a in argv]

        def refuse(*args, **kwargs):
            raise OSError("refused")
        monkeypatch.setattr(Path, method, refuse)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ") and err.endswith(": refused\n")
        assert str(tmp_path) in err

    def test_emitted_two_core_gadget_runs(self, tmp_path):
        assert main(["gadgets", "emit", "spectre_prime",
                     "--dir", str(tmp_path), "--secret", "7"]) == 0
        a = tmp_path / "spectre_prime.core0.gasm"
        v = tmp_path / "spectre_prime.core1.gasm"
        assert a.exists() and v.exists()
        assert main(["run", str(a), str(v)]) == 0


class TestInternalError:
    def test_internal_error_is_not_a_verdict(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("integer division or modulo by zero")
        monkeypatch.setattr(harness, "run_differential", broken)
        assert main(["diff", "spectre_v1"]) == 4
        err = capsys.readouterr().err
        assert "internal error" in err and "ZeroDivisionError" in err
