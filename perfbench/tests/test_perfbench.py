"""Tests of the benchmark itself, at tiny size.

    python -m pytest perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _tiny(name, trace, expected=EXPECTED):
    return run.run_benchmark(name, 3, 0, trace, size="tiny", expected=expected)


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_declared_metric(name, trace):
    line = run.final_line(_tiny(name, trace))
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_wrappers_gone_after_traced_run():
    targets = tracing._targets()
    before = [getattr(owner, attr) for owner, attr, _, _ in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = [getattr(owner, attr) for owner, attr, _, _ in targets]
    finally:
        tracer.restore()
    assert all(a is not b for a, b in zip(before, during))
    _tiny("gadget_sweep", True)
    after = [getattr(owner, attr) for owner, attr, _, _ in targets]
    assert all(a is b for a, b in zip(before, after))


def _recorded_tiny(name):
    """An expected file for the tiny size, made the way record.py makes the
    full one."""
    wl = workloads.build(name, 3, "tiny")
    entry = workloads.record_entry(wl, [workloads.run_op(op) for op in wl.ops])
    if name in workloads.SEEDED:
        entry = {"seeds": {"3": entry}}
    return {"size": "tiny", "verdicts": EXPECTED["verdicts"],
            "workloads": {name: entry}}


@pytest.mark.parametrize("name", ["gadget_sweep", "stream_loop"])
def test_corrupted_expected_digest_fails(name):
    expected = _recorded_tiny(name)
    rep = _tiny(name, False, expected)
    assert rep["expected"] == "recorded"
    assert rep["metrics"]["fail_frac"]["value"] == 0
    bad = copy.deepcopy(expected)
    entry = bad["workloads"][name]
    if name in workloads.SEEDED:
        entry["seeds"]["3"]["digest"] = "0" * 64
    else:
        key = next(iter(entry["ops"]))
        entry["ops"][key] = "0" * 16
    rep = _tiny(name, False, bad)
    assert rep["metrics"]["fail_frac"]["value"] > 0
    assert not run.final_line(rep)["correct"]


def test_wrong_verdict_fails_its_group():
    expected = copy.deepcopy(_recorded_tiny("prime_2core"))
    expected["verdicts"]["spectre_prime"]["unsafe"] = "SAFE"
    rep = _tiny("prime_2core", False, expected)
    assert rep["failed"] == len(workloads.SIZES["tiny"]["secrets"])


def test_stream_reference_matches_simulation():
    wl = workloads.build("stream_loop", 3, "tiny")
    assert all(workloads.run_op(op).ok for op in wl.ops)
    r3, stored = wl.ops[0].arch
    wl.ops[0].arch = (r3 + 1, stored)
    assert not workloads.run_op(wl.ops[0]).ok
