"""Config parsing, validation, and round-tripping; runs at the config
fields no other test, gadget or fingerprint geometry varies."""

from dataclasses import fields

import pytest

from ghostsim import harness
from ghostsim.config import MODES, PROTECTION, ConfigError, Protection, RunConfig

from programs import PAIR_SEED, STRIDED_LOOP, fuzz_text, pair_texts


def test_defaults():
    cfg = RunConfig()
    assert cfg.width == 4
    assert cfg.rob == 64
    assert cfg.mode == "ghostminion"


def test_round_trip_identical():
    cfg = RunConfig(mode="unsafe", l1_sets=8, warm_icache=True)
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg
    assert again.to_text() == cfg.to_text()


def test_partial_text_keeps_defaults():
    cfg = RunConfig.from_text("mode = flush_only\nrob = 32\n# comment\n"
                              "mem_lat = 0x40\n")
    assert cfg.mode == "flush_only"
    assert cfg.rob == 32
    assert cfg.mem_lat == 64   # integers take any base prefix
    assert cfg.width == RunConfig().width


def test_modes_enumerated():
    assert MODES == ("unsafe", "flush_only", "ghostminion")
    for m in MODES:
        assert RunConfig(mode=m).mode == m


def test_protection_rows():
    on = {m: {f.name for f in fields(Protection) if getattr(PROTECTION[m], f.name)}
          for m in MODES}
    assert on["unsafe"] == set()
    assert on["flush_only"] == {"side_buffer", "hide_spec_lru",
                                "hide_spec_l2_fill"}
    assert on["ghostminion"] == {f.name for f in fields(Protection)}
    assert RunConfig(mode="flush_only").protection is PROTECTION["flush_only"]
    assert "protection" not in {f.name for f in fields(RunConfig)}
    with pytest.raises(AttributeError):
        PROTECTION["ghostminion"].timegaurd


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError):
        RunConfig(mode="paranoid")


def test_tiny_rob_rejected():
    with pytest.raises(ConfigError):
        RunConfig(rob=1)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_text("robs = 64\n")


def test_removed_timestamp_knob_rejected(tmp_path, capsys):
    # stamps have a single encoding, so no key selects another
    from ghostsim.cli import main
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("debug_unbounded_ts = true\n")
    assert main(["diff", "spectre_v1", "--config", str(cfgf)]) == 2
    assert "debug_unbounded_ts" in capsys.readouterr().err


def test_duplicate_key_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_text("rob = 8\n# a comment\n\nrob = 16\n")
    assert str(exc.value) == "config line 4: duplicate key 'rob'"
    from ghostsim.cli import main
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("rob = 8\nrob = 16\n")
    assert main(["diff", "spectre_v1", "--config", str(cfgf)]) == 2
    assert "config line 2: duplicate key 'rob'" in capsys.readouterr().err


def test_bad_int_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_text("rob = sixty-four\n")


def test_bad_bool_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_text("warm_icache = maybe\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_text("rob 64\n")


COUNTS = ("width", "lq", "sq", "fetchq", "alu_units", "mul_units",
          "div_units", "mem_ports", "l1_sets", "l1_ways", "l1_mshrs",
          "l2_sets", "l2_ways", "l2_mshrs", "ghost_sets", "ghost_ways",
          "rpt_entries", "max_cycles")
LATENCIES = ("alu_lat", "mul_lat", "div_lat", "squash_penalty", "l1_lat",
             "l2_lat", "mem_lat", "coh_lat")


@pytest.mark.parametrize("name", COUNTS)
def test_zero_count_rejected(name):
    with pytest.raises(ConfigError, match=name):
        RunConfig(**{name: 0})


@pytest.mark.parametrize("name", LATENCIES)
def test_negative_latency_rejected(name):
    with pytest.raises(ConfigError, match=name):
        RunConfig(**{name: -5})


@pytest.mark.parametrize("line_bytes", [0, 4, 48, 96])
def test_bad_line_size_rejected(line_bytes):
    with pytest.raises(ConfigError, match="line_bytes"):
        RunConfig(line_bytes=line_bytes)


@pytest.mark.parametrize("lats", [(0, 0, 100), (2, 0, 0)])
def test_zero_cycle_miss_rejected(lats):
    # a miss that completes in the cycle it was requested is never seen
    l1, l2, mem = lats
    with pytest.raises(ConfigError):
        RunConfig(l1_lat=l1, l2_lat=l2, mem_lat=mem)


@pytest.mark.parametrize("conf", [-1, 0, 4, 9])
def test_rpt_confidence_out_of_range_rejected(conf):
    # the confidence counter saturates at 3, so a threshold above it
    # would switch the prefetcher off, and one below 1 would act as 1
    with pytest.raises(ConfigError, match="rpt_confidence"):
        RunConfig(rpt_confidence=conf)
    assert RunConfig(rpt_confidence=3).rpt_confidence == 3


SMALLEST = {**{n: 1 for n in COUNTS}, **{n: 0 for n in LATENCIES},
            "rob": 2, "line_bytes": 8, "l2_lat": 1, "rpt_confidence": 1}


def test_smallest_legal_values_accepted():
    cfg = RunConfig(**SMALLEST)
    assert RunConfig.from_text(cfg.to_text()) == cfg


# a value off the default for each field that nothing else varies
# on its own (the fingerprint's zerotiny sets l2_sets and l2_ways among
# seven others)
VARIED = {"width": 2, "fetchq": 3, "line_bytes": 32, "squash_penalty": 0,
          "alu_lat": 2, "mul_lat": 1, "div_lat": 5, "l2_sets": 8,
          "l2_ways": 2, "rpt_entries": 1, "rpt_confidence": 1}


@pytest.fixture(scope="module")
def field_corpus():
    """The strided loop, which wraps through the L2 and trains the
    prefetcher as the fuzz programs' 16 data lines never do, then 30
    seed-0 fuzz programs; each with its digest at the default config."""
    runs = [(STRIDED_LOOP.format(trips=300),)]
    runs += [fuzz_text(0, i) for i in range(30)]
    return [(t, harness.run(t, RunConfig())[1].digest) for t in runs]


@pytest.mark.parametrize("name", VARIED)
def test_varied_field_moves_a_digest(field_corpus, name):
    cfg = RunConfig(**{name: VARIED[name]})
    assert cfg != RunConfig()
    assert any(harness.run(texts, cfg)[1].digest != digest
               for texts, digest in field_corpus)


@pytest.mark.parametrize("overrides", [
    # every count 1, every latency 0 and the cycle budget left alone
    pytest.param({**SMALLEST, "max_cycles": RunConfig().max_cycles},
                 id="smallest"),
    pytest.param(VARIED, id="varied")])
def test_ablation_at_unvaried_fields(overrides):
    cfg = RunConfig(mode="ghostminion", **overrides)
    runs = [fuzz_text(0, i) for i in range(100)]
    runs += [pair_texts(PAIR_SEED, i) for i in range(20)]
    for i, programs in enumerate(runs):
        res = harness.run_ablation(programs, cfg)
        assert res.verdict == "PASS" and res.pure, i


def test_bad_config_file_exits_2(tmp_path, capsys):
    from ghostsim.cli import main
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("ghost_sets = 0\n")
    assert main(["diff", "spectre_v1", "--config", str(cfgf)]) == 2
    assert "ghost_sets" in capsys.readouterr().err


def test_check_invariants_key_is_gone(tmp_path, capsys):
    # the invariant check is installed by the tests, not configured
    from ghostsim.cli import main
    prog = tmp_path / "p.gasm"
    prog.write_text("halt\n")
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("check_invariants = true\n")
    assert main(["run", str(prog), "--config", str(cfgf)]) == 2
    assert "unknown key 'check_invariants'" in capsys.readouterr().err
