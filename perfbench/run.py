"""ghostsim benchmark: one workload, measured from a single process.

    python3 perfbench/run.py --workload gadget_sweep --seed 1 --seconds 25 --trace 0

The plain run (``--trace 0``) reports the end-to-end metrics; the traced
run (``--trace 1``) also measures a plain phase, then wraps ghostsim's
public methods for a traced phase and reports the per-layer metrics and
the tracing overhead.  Every operation's output is checked against
``expected.json``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full report.  See README.md in this directory.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 9

END_TO_END = {
    "wall_s": "s", "sim_cycles_per_s": "cycles/s", "commits_per_s": "instr/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
# reported with the rest, but not declared in BENCHMARK.json: fail_frac is
# 0 when all is well, and the simulated figures are checked exactly instead
EXTRA_UNITS = {"fail_frac": "ratio", "gm_sim_cycles": "cycles",
               "gm_cycle_overhead": "ratio"}


def _import_benchmark():
    """Import ghostsim from this checkout's ``src`` and never from anywhere
    else; exit 1 when it is not there."""
    if not (SRC / "ghostsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ghostsim sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ghostsim
    if Path(ghostsim.__file__).resolve().parent != SRC / "ghostsim":
        sys.exit(f"perfbench: ghostsim imported from {ghostsim.__file__}")


def measure_setup(name, seed, size):
    """Median time of fresh interpreters that import ghostsim and generate
    the workload's program texts, from spawn to exit, normalised by the
    pace kernel run just before and after each one."""
    import pace
    code = ("import sys; sys.path[:0] = [{!r}, {!r}]; import workloads; "
            "workloads.build({!r}, {!r}, {!r})").format(
                str(SRC), str(HERE), name, seed, size)
    times = []
    for _ in range(SETUP_REPEATS):
        ref = [pace.timed_kernel()[1] for _ in range(3)]
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        dt = perf_counter() - t0
        ref += [pace.timed_kernel()[1] for _ in range(3)]
        times.append(dt * pace.REF_S / statistics.mean(ref))
    return statistics.median(times)


class Phase:
    """Passes over a workload's operations until the time budget is spent:
    per-operation times, raw and normalised by ``pace``, and failures found
    by the checks."""

    def __init__(self, wl, expected, reference=None):
        self.wl = wl
        self.raw = [[] for _ in wl.ops]
        self.expected = expected
        self.reference = reference
        self.times = [[] for _ in wl.ops]
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.results = None

    def run(self, budget_s, pacer):
        import workloads
        start = perf_counter()
        while True:
            results = []
            for i, op in enumerate(self.wl.ops):
                t0 = perf_counter()
                try:
                    res = workloads.run_op(op)
                except Exception as exc:   # counted as a failed operation
                    print(f"perfbench: {op.key}: {type(exc).__name__}: {exc}",
                          file=sys.stderr)
                    res = workloads.OpResult()
                t1 = perf_counter()
                self.raw[i].append(t1 - t0)
                self.times[i].append(pacer.normalise(t0, t1))
                results.append(res)
                # a finished Machine is a reference cycle; free it here,
                # untimed, so peak memory is one operation's and not that
                # of however many the collector has yet to reach
                gc.collect()
            if self.reference is None:
                self.reference = results
            bad = workloads.failed_ops(self.wl, results, self.expected,
                                       self.reference)
            self.passes += 1
            self.attempted += len(results)
            self.failed += len(bad)
            self.results = results
            per_pass = (perf_counter() - start) / self.passes
            if perf_counter() - start + per_pass > budget_s:
                return self

    def wall_s(self, raw=False):
        """Sum over operations of each one's median time across passes."""
        return sum(statistics.median(t) for t in (self.raw if raw else self.times))


def _simulated(wl, results):
    gm = sum(r.cycles for op, r in zip(wl.ops, results) if op.mode == "ghostminion")
    unsafe = sum(r.cycles for op, r in zip(wl.ops, results) if op.mode == "unsafe")
    out = {"gm_sim_cycles": gm}
    if unsafe:
        out["gm_cycle_overhead"] = gm / unsafe - 1
    return out


def run_benchmark(name, seed, seconds, trace, size="full", expected=None):
    """Run one workload and return the report (a dict)."""
    import pace
    import tracing
    import workloads

    t0 = perf_counter()
    wl = workloads.build(name, seed, size)
    assemble_s = perf_counter() - t0
    report = {
        "benchmark": "ghostsim", "workload": name, "seed": seed,
        "seconds": seconds, "trace": trace, "size": size,
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "platform": platform.platform()},
        "ops_per_pass": len(wl.ops),
        "expected": ("recorded" if workloads.expected_for(expected, wl)
                     else "first pass"),
    }
    setup_s = measure_setup(name, seed, size)

    # what set-up left alive (modules, program texts) is frozen out of the
    # collector, so the collection after each operation costs ~0.3 ms
    # instead of ~5 ms
    gc.collect()
    gc.freeze()
    try:
        with pace.Pace() as pacer:
            plain = Phase(wl, expected).run(seconds / 3 if trace else seconds,
                                            pacer)
            phases = [plain]
            if trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = Phase(wl, expected, plain.reference).run(
                        seconds - seconds / 3, pacer)
                finally:
                    tracer.restore()
                phases.append(traced)
    finally:
        gc.unfreeze()
    if trace:
        overhead = traced.wall_s() - plain.wall_s()
        report["per_layer"] = tracer.metrics(traced.passes, assemble_s,
                                             overhead)
        report["traced_passes"] = traced.passes

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    results = plain.results
    wall = plain.wall_s()
    cycles = sum(r.cycles for r in results)
    commits = sum(r.commits for r in results)
    values = {
        "wall_s": wall,
        "sim_cycles_per_s": cycles / wall,
        "commits_per_s": commits / wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": failed / attempted,
        **_simulated(wl, results),
    }
    units = {**END_TO_END, **EXTRA_UNITS}
    report.update({
        "passes": plain.passes,
        "raw_wall_s": plain.wall_s(raw=True),
        "pace_kernel_s": pacer.median_ref(),
        "attempted": attempted, "failed": failed,
        "digest": workloads.workload_digest(results),
        "sim_cycles": cycles, "commits": commits,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    })
    if name not in workloads.SEEDED:
        report["verdicts"] = workloads.verdicts(wl.ops, results)
    if name == "fuzz_ablate":
        report["impure"] = [op.key for op, r in zip(wl.ops, results)
                            if not r.pure]
    return report


def final_line(report):
    """The result line: end-to-end metrics for a plain run,
    per-layer metrics for a traced one."""
    metrics = (report["per_layer"] if report["trace"] else
               {k: report["metrics"][k] for k in END_TO_END})
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_benchmark()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    report = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), expected=expected)
    shown = {**report["metrics"], **report.get("per_layer", {})}
    for k, m in shown.items():
        print(f"{k:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    print(json.dumps(final_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
