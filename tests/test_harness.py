"""Harness drivers and CLI: reports, verdicts, fuzzing, exit codes."""

import csv
from dataclasses import replace

import pytest

from ghostsim import Machine, RunConfig, SimTimeout, load_program
from ghostsim.cli import main
from ghostsim.config import PROTECTION
from ghostsim.core import Core
from ghostsim.gadgets import GADGETS, Gadget
from ghostsim import harness

from programs import (DIVIDER_ORDER, LEAPFROG, LRU_STATE, MP_CORE0,
                      MP_CORE1, OLDER_READER)

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

    def test_csv_output(self, tmp_path):
        _, rep = harness.run([SIMPLE], RunConfig())
        out = tmp_path / "c.csv"
        rep.write_csv(out)
        rows = dict(csv.reader(out.open()))
        assert rows["counter"] == "value"
        assert int(rows["cycles"]) == rep.cycles
        assert "timeguard_blocks" in rows

    def test_timeout_raises(self):
        with pytest.raises(SimTimeout):
            harness.run(["loop:\njmp loop\n"], RunConfig(max_cycles=50))


class TestDifferential:
    def test_secret_free_gadget_is_safe_everywhere(self):
        g = Gadget("noop", lambda s: SIMPLE, lambda m: 0, secrets=(0, 1, 2))
        for mode in ("unsafe", "flush_only", "ghostminion"):
            assert harness.run_differential(g, RunConfig(mode=mode)).verdict == "SAFE"

    def test_structurally_divergent_gadget_rejected(self):
        g = Gadget("bad", lambda s: "nop\n" * (s + 1) + "halt\n",
                   lambda m: 0, secrets=(0, 3))
        res = harness.run_differential(g, RunConfig())
        assert res.verdict == "ERROR"
        assert "structurally" in res.detail

    def test_leak_reports_first_divergence(self):
        res = harness.run_differential(GADGETS["spectre_v1"],
                                       RunConfig(mode="unsafe"))
        assert res.verdict == "LEAKS"
        assert res.divergence is not None
        secret, cid, idx, ea, eb = res.divergence
        assert ea[:3] == eb[:3]      # same instruction, different timing


def _pair_13():
    """Two-core pair 13 of seed 7 (both programs store)."""
    import random
    rng = random.Random(7)
    for _ in range(14):
        pair = [harness._gen_program(rng), harness._gen_program(rng)]
    return pair


class TestAblation:
    def test_no_misprediction_program_passes_trivially(self):
        res = harness.run_ablation([SIMPLE], RunConfig())
        assert res.verdict == "PASS" and res.pure

    def test_fuzz_zero_count_vacuous(self):
        assert harness.fuzz_programs(0, RunConfig()) == (0, 0, None)

    def test_fuzz_deterministic_per_seed(self):
        a = harness.fuzz_programs(5, RunConfig(), seed=42)
        b = harness.fuzz_programs(5, RunConfig(), seed=42)
        assert a == b

    def test_store_merged_into_squashed_load_miss_stays_dirty(self):
        # seed 12, program 533: a committing store merges into the miss of
        # a load that is later squashed; the line must be dirty in both
        # the normal and the ablated run
        import random
        rng = random.Random(12)
        for _ in range(534):
            text = harness._gen_program(rng)
        res = harness.run_ablation([text], RunConfig(mode="ghostminion"))
        assert res.verdict == "PASS" and res.pure

    def test_diverged_ablated_run_fails_instead_of_timing_out(self):
        # seed 0, program 887 halts in 408 cycles in unsafe mode, but its
        # ablated run diverges and then loops on ablated no-ops
        import random
        rng = random.Random(0)
        for _ in range(888):
            text = harness._gen_program(rng)
        res = harness.run_ablation([text], RunConfig(mode="unsafe",
                                                     max_cycles=20_000))
        assert res.verdict == "FAIL"

    def test_two_core_forwarded_fill_keeps_l1_exclusive(self):
        # seed 7, pair 13: a non-coherent copy forwarded to core 0 used to
        # land in its side buffer after a committing store had put the
        # line in its L1D, breaking exclusivity and the ablation check
        pair = _pair_13()
        harness.run(pair, RunConfig(check_invariants=True))
        res = harness.run_ablation(pair, RunConfig())
        assert res.verdict == "PASS" and res.pure

    @pytest.mark.parametrize("index", [26, 38, 94, 118])
    def test_two_core_side_buffer_copies_stay_coherent(self, index):
        # seed 7: in pairs 26 and 94 a speculative miss was filled into the
        # side buffer as a coherent copy after the other core had taken
        # the line Exclusive; in pairs 38 and 118 a core took the line
        # Exclusive while the other held a coherent speculative copy
        import random
        rng = random.Random(7)
        for _ in range(index + 1):
            pair = [harness._gen_program(rng), harness._gen_program(rng)]
        harness.run(pair, RunConfig(check_invariants=True))
        res = harness.run_ablation(pair, RunConfig())
        assert res.verdict == "PASS" and res.pure

    def test_older_reader_cannot_see_younger_side_buffer_fill(self,
                                                              monkeypatch):
        # an older load issues after a younger wrong-path load has filled
        # the same line into the side buffer: only the timeguard hides it
        _, rep = harness.run([OLDER_READER], RunConfig())
        assert rep.counters["timeguard_blocks"] == 1
        res = harness.run_ablation([OLDER_READER], RunConfig())
        assert res.verdict == "PASS" and res.pure
        for mode in ("unsafe", "flush_only"):
            res = harness.run_ablation([OLDER_READER], RunConfig(mode=mode))
            assert res.verdict == "FAIL" and res.divergence[1] == 6
        monkeypatch.setitem(PROTECTION, "ghostminion",
                            replace(PROTECTION["ghostminion"], timeguard=False))
        assert harness.run_ablation([OLDER_READER], RunConfig()).verdict == "FAIL"

    def test_younger_div_cannot_delay_older_div(self, monkeypatch):
        # a younger wrong-path div takes the divider before an older one
        res = harness.run_ablation([DIVIDER_ORDER], RunConfig())
        assert res.verdict == "PASS"
        for mode in ("unsafe", "flush_only"):
            res = harness.run_ablation([DIVIDER_ORDER], RunConfig(mode=mode))
            assert res.verdict == "FAIL" and res.divergence[1] == 5
        monkeypatch.setitem(PROTECTION, "ghostminion",
                            replace(PROTECTION["ghostminion"],
                                    inorder_divider=False))
        assert harness.run_ablation([DIVIDER_ORDER], RunConfig()).verdict == "FAIL"

    def test_wrong_path_hit_cannot_change_lru_victim(self, monkeypatch):
        # the wrong-path hit would make A most recent, so C would evict B
        # instead of A and the last load of A would miss
        for mode in ("ghostminion", "flush_only"):
            res = harness.run_ablation([LRU_STATE], RunConfig(mode=mode))
            assert res.verdict == "PASS" and res.pure
        res = harness.run_ablation([LRU_STATE], RunConfig(mode="unsafe"))
        assert res.verdict == "FAIL" and res.divergence[1] == 9
        assert res.detail.endswith("nothing committed by cycle 506")
        monkeypatch.setitem(PROTECTION, "ghostminion",
                            replace(PROTECTION["ghostminion"],
                                    hide_spec_lru=False))
        res = harness.run_ablation([LRU_STATE], RunConfig())
        assert res.verdict == "FAIL" and res.divergence[1] == 9

    def test_wrong_path_misses_cannot_delay_older_load(self, monkeypatch):
        # only leapfrogging frees a miss register for the older load
        res = harness.run_ablation([LEAPFROG], RunConfig())
        assert res.verdict == "PASS" and res.pure
        for mode in ("unsafe", "flush_only"):
            res = harness.run_ablation([LEAPFROG], RunConfig(mode=mode))
            assert res.verdict == "FAIL" and res.divergence[1] == 6
        monkeypatch.setitem(PROTECTION, "ghostminion",
                            replace(PROTECTION["ghostminion"], leapfrog=False))
        res = harness.run_ablation([LEAPFROG], RunConfig())
        assert res.verdict == "FAIL" and res.divergence[1] == 6

    def test_stale_forwarded_load_reexecutes_at_commit(self, monkeypatch):
        m, rep = harness.run([MP_CORE0, MP_CORE1],
                             RunConfig(check_invariants=True))
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
        import random
        texts = {harness._gen_program(random.Random(s)) for s in range(8)}
        assert len(texts) == 8


# a program with a wrong path that passes, the same program failing
# under unsafe, and two two-core runs with stores that pass
SHARED_CASES = [
    pytest.param([OLDER_READER], "ghostminion", "PASS", id="older_reader"),
    pytest.param([OLDER_READER], "unsafe", "FAIL", id="older_reader-unsafe"),
    pytest.param([SIMPLE, DIVIDER_ORDER], "ghostminion", "PASS", id="stores"),
    pytest.param(_pair_13(), "ghostminion", "PASS", id="pair13"),
]


INSTR_FIELDS = ("pc", "op", "cls", "dst", "s1", "s2", "imm", "target")


def _image(prog):
    return ([tuple(getattr(si, f) for f in INSTR_FIELDS) for si in prog.instrs],
            prog.data, prog.labels)


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

    def test_run_csv(self, tmp_path):
        p = tmp_path / "p.gasm"
        p.write_text(SIMPLE)
        out = tmp_path / "c.csv"
        assert main(["run", str(p), "--csv", str(out)]) == 0
        assert out.exists()

    def test_csv_is_a_run_option_only(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["diff", "spectre_v1", "--csv", str(out)]) == 2
        assert not out.exists()

    def test_diff_exit_codes(self):
        assert main(["diff", "spectre_v1", "--mode", "ghostminion"]) == 0
        assert main(["diff", "spectre_v1", "--mode", "unsafe"]) == 1

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
        ["run", "{prog}", "--csv", "{dir}"],
        ["run", "{prog}", "--csv", "{dir}/missing/c.csv"],
        ["gadgets", "emit", "spectre_v1", "--dir", "{prog}"],
        ["gadgets", "emit", "spectre_v1", "--dir", "{prog}/sub"],
    ], ids=["csv-directory", "csv-missing-parent", "emit-dir-file",
            "emit-dir-under-file"])
    def test_unwritable_path_is_usage_error(self, tmp_path, capsys, argv):
        prog = tmp_path / "p.gasm"
        prog.write_text(SIMPLE)
        argv = [a.format(dir=tmp_path, prog=prog) for a in argv]
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
        assert main(["gadgets", "list"]) == 0
        out = capsys.readouterr().out
        for name in GADGETS:
            assert name in out

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
