"""Benchmark a base checkout against this checkout in alternating pairs,
and write the result as a ``BENCH_<n>.json`` file.

    git worktree add --detach ../base REV
    python tests/bench_pairs.py --base-dir ../base --out BENCH_8.json
    git worktree remove ../base

Pair ``k`` runs ``perfbench/run.py --trace 0 --seed SEED+k`` once in the
base and once in this checkout, for every workload, the base first in
even pairs and this checkout first in odd ones.  Both sides run their
own ``perfbench``, which must be the same code.

The file holds, per workload and end-to-end metric of ``BENCHMARK.json``,
every run's value, the median and quartiles of each side, the ratio of
the medians (change / parent), and the pairs the change won (ties count
for neither side); whether every run was ``correct`` with no failed
operation; the seeds; and the output of ``tests/fingerprint.py
--compare`` between the base's sources and this checkout's: the records
that differ, then the summary line.  The file is also printed.  The
script is not collected by pytest; at the default 10 pairs of 8 s it
takes about twenty minutes.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gadget_sweep", "prime_2core", "fuzz_ablate", "stream_loop")


def _git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def _perfbench(checkout, workload, seed, seconds):
    """The result line of one plain benchmark run in ``checkout``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _fingerprint(base):
    """The output lines of ``fingerprint.py --compare`` base vs head."""
    script = str(ROOT / "tests" / "fingerprint.py")
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for name, checkout in (("base", base), ("head", ROOT)):
            path = os.path.join(tmp, f"{name}.json")
            env = {**os.environ, "PYTHONPATH": str(Path(checkout) / "src")}
            subprocess.run([sys.executable, script, path], env=env,
                           check=True, capture_output=True)
            files.append(path)
        out = subprocess.run([sys.executable, script, "--compare", *files],
                             env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                             capture_output=True, text=True).stdout
    lines = out.splitlines()
    # differing records exit 1 and are reported; anything else is a crash
    if not lines or not re.fullmatch(r"\d+ of \d+ records differ", lines[-1]):
        raise RuntimeError(f"fingerprint --compare failed:\n{out}")
    return lines


def _summary(values):
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def bench(base, pairs, seconds, seed):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = [seed + k for k in range(pairs)]
    runs = {w: {"parent": [], "change": []} for w in WORKLOADS}
    for k, s in enumerate(seeds):
        for w in WORKLOADS:
            order = (("parent", base), ("change", ROOT))
            for side, checkout in (order if k % 2 == 0 else order[::-1]):
                runs[w][side].append(_perfbench(checkout, w, s, seconds))
                print(f"pair {k} seed {s} {w} {side}: "
                      f"{runs[w][side][-1]['metrics']['wall_s']['value']:.4g} s",
                      file=sys.stderr, flush=True)
    report = {}
    for w in WORKLOADS:
        parent, change = runs[w]["parent"], runs[w]["change"]
        metrics = {}
        for m in declared:
            name, lower = m["name"], m["better"] == "lower"
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
            metrics[name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": _summary(p), "change": _summary(c),
                "ratio": statistics.median(c) / statistics.median(p),
                "wins": wins, "pairs": len(p),
            }
        report[w] = {
            "correct": all(r["correct"] and r["failed"] == 0
                           for r in parent + change),
            "metrics": metrics,
        }
    return seeds, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base-dir", required=True,
                    help="checkout of the base revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    base = os.path.abspath(args.base_dir)
    base_rev = _git("rev-parse", "HEAD", cwd=base)
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    head_rev = _git("rev-parse", "HEAD") + ("+dirty" if dirty else "")
    fingerprint = _fingerprint(base)
    seeds, report = bench(base, args.pairs, args.seconds, args.seed)
    out = {
        "base": base_rev,
        "head": head_rev,
        "pairs": args.pairs, "seconds": args.seconds, "seeds": seeds,
        "command": "perfbench/run.py --trace 0",
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "platform": platform.platform()},
        "fingerprint": fingerprint,
        "workloads": report,
    }
    text = json.dumps(out, indent=1) + "\n"
    Path(args.out).write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
