"""Harness drivers and CLI: reports, verdicts, fuzzing, exit codes."""

import csv
from dataclasses import replace

import pytest

from ghostsim import RunConfig, SimTimeout
from ghostsim.cli import main
from ghostsim.config import PROTECTION
from ghostsim.gadgets import GADGETS, Gadget
from ghostsim import harness

SIMPLE = "li r1, 5\nadd r2, r1, r1\nst r2, r0, 0x100\nhalt\n"

OLDER_READER = """\
.word 0x2000 0x3000
.word 0x3000 5
.word 0x4000 7
li r1, 0x2000
ld r2, r1, 0
ld r3, r2, 0
mul r4, r2, r0
mul r4, r4, r0
mul r4, r4, r0
ld r5, r4, 0x4000
bne r3, r0, skip
li r6, 0x4000
ld r7, r6, 0
skip:
add r8, r5, r5
halt
"""

DIVIDER_ORDER = """\
.word 0x2000 0x3000
.word 0x3000 5
li r1, 0x2000
li r9, 3
ld r2, r1, 0
ld r3, r2, 0
add r4, r2, r9
div r5, r4, r9
bne r3, r0, skip
div r6, r2, r9
skip:
add r8, r5, r5
halt
"""


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
        import random
        rng = random.Random(7)
        for _ in range(14):
            pair = [harness._gen_program(rng), harness._gen_program(rng)]
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

    def test_generator_output_is_seed_dependent(self):
        import random
        texts = {harness._gen_program(random.Random(s)) for s in range(8)}
        assert len(texts) == 8


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
