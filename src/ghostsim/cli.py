"""Command-line interface.

Exit codes: 0 = SAFE/PASS, 1 = LEAKS/FAIL, 2 = usage/parse/config error,
3 = cycle-budget timeout, 4 = internal error (a bug in ghostsim, never a
verdict).
"""

import argparse
import sys
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import harness
from .config import MODES, ConfigError, RunConfig
from .gadgets import GADGETS, SECRETS
from .isa import ParseError
from .machine import SimTimeout

EXIT_OK = 0
EXIT_LEAK = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """Bad input that no other error type names."""


def _add_common(p):
    p.add_argument("--config", metavar="FILE",
                   help="config file (key = value lines)")
    p.add_argument("--mode", choices=MODES, help="protection mode override")
    p.add_argument("--max-cycles", type=int, metavar="N",
                   help="abort if the run exceeds N cycles")


def _read_text(path):
    """A file named on the command line; one that cannot be read as text
    is a usage error, not a simulator bug."""
    try:
        return Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror if e.strerror else e}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"cannot read {path}: {e}") from None


@contextmanager
def _writing(path):
    """Writes to a path named on the command line; one that cannot be
    written is a usage error, not a simulator bug."""
    try:
        yield
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror if e.strerror else e}") from None


def _build_config(args):
    cfg = RunConfig.from_text(_read_text(args.config)) if args.config \
        else RunConfig()
    if args.mode:
        cfg = replace(cfg, mode=args.mode)
    if args.max_cycles is not None:
        cfg = replace(cfg, max_cycles=args.max_cycles)
    return cfg


def _read_programs(paths):
    return [_read_text(p) for p in paths]


def cmd_run(args):
    cfg = _build_config(args)
    _, rep = harness.run(_read_programs(args.program), cfg)
    print(rep.to_text())
    return EXIT_OK


def cmd_diff(args):
    cfg = _build_config(args)
    gadget = GADGETS[args.gadget]
    res = harness.run_differential(gadget, cfg)
    print(f"gadget: {gadget.name}")
    print(f"mode: {cfg.mode}")
    print(f"verdict: {res.verdict}")
    if res.detail:
        print(f"detail: {res.detail}")
    if res.verdict == "SAFE":
        return EXIT_OK
    if res.verdict == "LEAKS":
        return EXIT_LEAK
    return EXIT_USAGE


def cmd_ablate(args):
    cfg = _build_config(args)
    res = harness.run_ablation(_read_programs(args.program), cfg)
    print(f"mode: {cfg.mode}")
    print(f"verdict: {res.verdict}")
    print(f"pure: {res.pure}")
    if res.detail:
        print(f"detail: {res.detail}")
    return EXIT_OK if res.verdict == "PASS" else EXIT_LEAK


def cmd_fuzz(args):
    if args.count < 0:
        print(f"error: count must not be negative, got {args.count}",
              file=sys.stderr)
        return EXIT_USAGE
    cfg = _build_config(args)
    fails, first = harness.fuzz_programs(args.count, cfg, seed=args.seed)
    print(f"mode: {cfg.mode}")
    print(f"seed: {args.seed}")
    print(f"pass: {args.count - fails}/{args.count}")
    if first is not None:
        idx, text, res = first
        print(f"first failure: program #{idx}")
        print(f"detail: {res.detail}")
        print("--- program ---")
        print(text, end="")
        print("---------------")
    return EXIT_OK if fails == 0 else EXIT_LEAK


def cmd_gadgets(args):
    domain = f"{SECRETS[0]}..{SECRETS[-1]}"
    if args.action == "list":
        for g in GADGETS.values():
            cores = "2-core" if g.two_core else "1-core"
            print(f"{g.name:26s} {cores}  secrets {domain}")
        return EXIT_OK
    if args.secret not in SECRETS:
        print(f"error: a gadget takes a secret in {domain}, "
              f"got {args.secret}", file=sys.stderr)
        return EXIT_USAGE
    names = list(GADGETS) if args.name == "all" else [args.name]
    outdir = Path(args.dir)
    with _writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        g = GADGETS[name]
        texts = g.programs(args.secret)
        for i, text in enumerate(texts):
            suffix = f".core{i}" if len(texts) > 1 else ""
            path = outdir / f"{name}{suffix}.gasm"
            with _writing(path):
                path.write_text(text)
            print(path)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ghostsim",
        description="cycle-level out-of-order core simulator with "
                    "speculative-side-channel protection modes")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="simulate one or two programs to HALT")
    p.add_argument("program", nargs="+", help=".gasm file(s), one per core")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("diff", help="differential leak check over a "
                                    "gadget's secret domain")
    p.add_argument("gadget", choices=list(GADGETS))
    _add_common(p)
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("ablate", help="transient-ablation equivalence check")
    p.add_argument("program", nargs="+", help=".gasm file(s), one per core")
    _add_common(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("fuzz", help="ablation-check random programs")
    p.add_argument("count", type=int)
    _add_common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="program-generator seed")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("gadgets", help="list or emit gadget programs")
    gsub = p.add_subparsers(dest="action", required=True)
    gl = gsub.add_parser("list")
    gl.set_defaults(fn=cmd_gadgets)
    ge = gsub.add_parser("emit")
    ge.add_argument("name", choices=list(GADGETS) + ["all"])
    ge.add_argument("--secret", type=int, default=0)
    ge.add_argument("--dir", default=".")
    ge.set_defaults(fn=cmd_gadgets)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except SimTimeout as e:
        print(f"timeout: {e}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (ParseError, ConfigError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
