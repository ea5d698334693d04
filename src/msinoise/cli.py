"""Command-line front end.

Subcommands: `spectrum` (force-noise sweep), `compare` (exact vs reduced
model), `cooling` (occupancy report, optionally with pump optimisation),
`verify` (the invariant suite).  Exit codes: 0 success, 1 invariant
failure, 2 configuration error (including inputs whose results overflow
double precision, a sweep of Omega = 0 alone and an unwritable `--out`),
3 optical singularity over more than 10% of the grid (Omega = 0 is
skipped, not singular) or at a +/-omega_m sideband of `cooling`, 4
anti-damped (unstable) system.  A nonzero exit leaves no file behind.
`verify` reads no configuration: each invariant's tolerance is a
constant of its check in `verify.py`.  Floating-point warnings are
silenced here, once for every command, because each command refuses a
non-finite result with its own error line instead.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import load_config
from .errors import ConfigError, OpticalSingularity, SingularSweep, UnstableSystem
from .outputs import run_compare, run_cooling, run_spectrum
from .verify import DEFAULT_SEED, run_all

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_UNSTABLE = 4


def _seed(text: str) -> int:
    """A non-negative integer, the seeds numpy takes; argparse exits 2 otherwise."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"need a non-negative integer, got {text!r}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msinoise",
        description=(
            "Quantum noise and dynamic back-action of asymmetric recycled "
            "Michelson-Sagnac interferometers"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, required=True,
                       help="JSON run configuration (SI units)")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (default: current)")

    p_spec = sub.add_parser("spectrum", help="force-noise sweep to CSV/JSON")
    common(p_spec)

    p_cmp = sub.add_parser("compare", help="exact vs reduced-model error sweep")
    common(p_cmp)

    p_cool = sub.add_parser("cooling", help="steady-state occupancy report")
    common(p_cool)
    p_cool.add_argument("--optimize", action="store_true",
                        help="also optimise the pump split at fixed energy")

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                       help="seed for the randomized ensembles")
    p_ver.add_argument("--json", action="store_true",
                       help="print one JSON list of the checks instead of the table")
    return parser


def _cmd_sweep(args) -> int:
    """`spectrum` or `compare`: one CSV row per non-singular grid point but Omega = 0."""
    run = run_spectrum if args.command == "spectrum" else run_compare
    summary = run(load_config(args.config), args.out)
    print(f"wrote {args.out / (args.command + '.csv')} ({summary['rows']} rows)")
    return EXIT_OK


def _cmd_cooling(args) -> int:
    report = run_cooling(load_config(args.config), args.out, optimize=args.optimize)
    print(f"wrote {args.out / 'cooling.json'} (n_bar = {report['n_bar']:.6g})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_all(seed=args.seed)
    if args.json:
        print(json.dumps([asdict(result) for result in results]))
    else:
        print("\n".join(result.line() for result in results))
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} invariant(s) failed: "
              + ", ".join(r.name for r in failed), file=sys.stderr)
        return EXIT_INVARIANT
    if not args.json:
        print(f"all {len(results)} invariants passed")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "spectrum": _cmd_sweep,
        "compare": _cmd_sweep,
        "cooling": _cmd_cooling,
        "verify": _cmd_verify,
    }
    try:
        with np.errstate(all="ignore"):
            return handlers[args.command](args)
    except (ConfigError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OpticalSingularity, SingularSweep) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except UnstableSystem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (OverflowError, ZeroDivisionError) as exc:  # Python floats raise here
        print(f"error: configuration exceeds the double-precision range: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
