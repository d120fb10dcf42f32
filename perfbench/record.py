"""Record ``expected.json``: the verdict of every gadget in every mode, and
each workload's digests and simulated cycles at full size, for seeds
0..SEEDS-1 of the seeded workloads.

    python3 perfbench/record.py

Run it only at a commit whose simulated behaviour is known to be right;
the benchmark counts every later difference as a failed operation.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from ghostsim.gadgets import GADGETS  # noqa: E402

SEEDS = 32


def _pass(wl):
    return [workloads.run_op(op) for op in wl.ops]


def main():
    out = {"size": "full", "verdicts": {}, "workloads": {}}
    # every gadget in every mode, though the workloads run only some of them
    ops = workloads._gadget_ops(tuple(GADGETS), workloads.SWEEP_MODES,
                                workloads.SIZES["full"]["secrets"])
    for group, verdict in workloads.verdicts(ops, [workloads.run_op(op)
                                                   for op in ops]).items():
        gadget, mode = group.split("/")
        out["verdicts"].setdefault(gadget, {})[mode] = verdict
    for name in workloads.WORKLOADS:
        if name in workloads.SEEDED:
            seeds = {}
            for seed in range(SEEDS):
                wl = workloads.build(name, seed)
                seeds[str(seed)] = workloads.record_entry(wl, _pass(wl))
                print(name, seed, seeds[str(seed)], file=sys.stderr)
            out["workloads"][name] = {"seeds": seeds}
        else:
            wl = workloads.build(name, 0)
            out["workloads"][name] = workloads.record_entry(wl, _pass(wl))
    with open(HERE / "expected.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
