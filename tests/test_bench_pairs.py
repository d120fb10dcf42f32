"""``tests/bench_pairs.py`` refuses a base that is not a git checkout
before it runs anything."""

import bench_pairs
import pytest


@pytest.mark.parametrize("sub", ["", "missing"], ids=["plain-dir", "missing"])
def test_base_that_is_not_a_git_checkout_exits_2(tmp_path, monkeypatch,
                                                  capsys, sub):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may run")
    for name in ("_fingerprint", "_mutants", "bench"):
        monkeypatch.setattr(bench_pairs, name, refuse)
    base = tmp_path / sub
    assert bench_pairs.main(["--base-dir", str(base), "--out",
                             str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "not a git checkout" in err and "git worktree add" in err
    assert not (tmp_path / "out.json").exists()
