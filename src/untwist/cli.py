"""Experiment driver: group/invariant/divergence/subshift/cocycle subcommands
with seeded sampling and deterministic CSV/JSON artifacts.  This module parses
the arguments and dispatches; each subcommand's code is `run(args)` in its own
module of `untwist.commands`, imported only when that subcommand runs.

Exit codes: 0 when every embedded assertion passes, 1 when a run-level check
fails, 2 for unusable configuration, inputs or files.  A JSON file passed
through --config overrides parsed flags key by key.  Identically configured
runs produce byte-identical artifacts (seeded Mersenne Twister, floats at 17
significant digits, no timestamps).
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from .groups import DEFAULT_METRIC_BUDGET, InputError, OutOfRange, ResourceLimit
from .reporting import load_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="untwist",
        description="Exact word-metric invariants and cocycle untwisting "
                    "experiments on finitely generated groups.",
    )
    parser.add_argument("--config", help="JSON file whose keys override flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False, budgeted=False):
        p.add_argument("--group", required=True)
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        if budgeted:
            p.add_argument("--max-elements", type=int, default=DEFAULT_METRIC_BUDGET,
                           dest="max_elements",
                           help="element budget of the ball this subcommand lists")
        p.add_argument("--out", required=True)
        p.set_defaults(subparser=p)

    p = sub.add_parser("ball", help="export a ball table as CSV")
    common(p, budgeted=True)
    p.add_argument("--radius", type=int, required=True)

    p = sub.add_parser("invariants",
                       help="power lengths, compression, distortion, translation")
    common(p)
    p.add_argument("--element", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--sdt-base", type=float, default=None, dest="sdt_base")
    p.add_argument("--sdt-terms", type=int, default=32, dest="sdt_terms")

    p = sub.add_parser("divergence", help="sampled divergence function")
    common(p, seeded=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--window-factor", type=int, default=4, dest="window_factor")
    p.add_argument("--sample-budget", type=int, default=10, dest="sample_budget")
    p.add_argument("--pairs-per-n", type=int, default=2, dest="pairs_per_n")

    p = sub.add_parser("subshift", help="glue or membership-check configurations")
    p.add_argument("mode", choices=["glue", "check"])
    common(p, seeded=True)  # --seed is read by nothing; perfbench/workloads.py passes it
    p.add_argument("--spec", required=True, help="JSON task description")

    p = sub.add_parser("cocycle", help="untwist a cocycle specification")
    p.add_argument("mode", choices=["untwist"])
    common(p, seeded=True, budgeted=True)
    p.add_argument("--spec", required=True, help="cocycle spec JSON")
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--sample-radius", type=int, default=6, dest="sample_radius")
    p.add_argument("--sample-cells", type=int, default=4, dest="sample_cells")
    return parser


def _apply_config(args):
    """Override parsed flags with the keys of the JSON file args.config; each
    key must name an argument of the subcommand and fit its type and choices."""
    overrides = load_json(args.config)
    if not isinstance(overrides, dict):
        raise InputError(f"{args.config}: top level must be a JSON object, "
                         f"got {type(overrides).__name__}")
    actions = {a.dest: a for a in args.subparser._actions}
    for key, value in overrides.items():
        if key not in actions or key == "help":
            raise InputError(f"{args.config}: unknown key {key!r} for {args.command}")
        expected = actions[key].type or str
        allowed = (int, float) if expected is float else expected
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise InputError(f"{args.config}: key {key!r} needs a "
                             f"{expected.__name__}, got {value!r}")
        choices = actions[key].choices
        if choices is not None and value not in choices:
            raise InputError(f"{args.config}: key {key!r} must be one of "
                             f"{', '.join(map(str, choices))}, got {value!r}")
        setattr(args, key, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(args)
        command = import_module(f"{__package__}.commands.{args.command}")
        return command.run(args)
    except ResourceLimit as exc:
        print(f"error: {exc}; raise --max-elements", file=sys.stderr)
        return 2
    except (InputError, OutOfRange, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
