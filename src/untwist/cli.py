"""Experiment driver: group/invariant/divergence/subshift/cocycle subcommands
with seeded sampling and deterministic CSV/JSON artifacts.  This module parses
the arguments from one option table per subcommand and dispatches; each
subcommand's code is `run(args)` in its own module of `untwist.commands`,
imported only when that subcommand runs.

Exit codes: 0 when every embedded assertion passes, 1 when a run-level check
fails, 2 for unusable configuration, inputs or files.  A JSON file passed
through --config overrides parsed flags key by key.  Identically configured
runs produce byte-identical artifacts (seeded Mersenne Twister, floats at 17
significant digits, no timestamps).
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import SimpleNamespace

from .groups import DEFAULT_METRIC_BUDGET, InputError, OutOfRange, ResourceLimit
from .reporting import load_json

REQUIRED = object()

# One row per option: (spelling, type, default, choices), REQUIRED for an
# option that must be given.  A spelling without dashes is the positional
# argument.  The option's name, the attribute `run(args)` reads and the key a
# --config file sets, is the spelling without its dashes, with '_' for '-'.
GROUP = ("--group", str, REQUIRED, None)
SEED = ("--seed", int, 0, None)
BUDGET = ("--max-elements", int, DEFAULT_METRIC_BUDGET, None)  # where a ball is listed
OUT = ("--out", str, REQUIRED, None)
SPEC = ("--spec", str, REQUIRED, None)

COMMANDS = {
    "ball": ("export a ball table as CSV",
             (GROUP, BUDGET, OUT, ("--radius", int, REQUIRED, None))),
    "invariants": ("power lengths, compression, distortion, translation",
                   (GROUP, OUT, ("--element", str, REQUIRED, None),
                    ("--radius", int, REQUIRED, None), ("--sdt-base", float, None, None),
                    ("--sdt-terms", int, 32, None))),
    "divergence": ("sampled divergence function",
                   (GROUP, SEED, OUT, ("--nmax", int, REQUIRED, None),
                    ("--window-factor", int, 4, None), ("--sample-budget", int, 10, None),
                    ("--pairs-per-n", int, 2, None))),
    # --seed is read by nothing; perfbench/workloads.py passes it.
    "subshift": ("glue or membership-check configurations",
                 (("mode", str, REQUIRED, ("glue", "check")), GROUP, SEED, OUT, SPEC)),
    "cocycle": ("untwist a cocycle specification",
                (("mode", str, REQUIRED, ("untwist",)), GROUP, SEED, BUDGET, OUT, SPEC,
                 ("--epsilon", float, 1e-8, None), ("--tol", float, 1e-6, None),
                 ("--samples", int, 20, None), ("--sample-radius", int, 6, None),
                 ("--sample-cells", int, 4, None))),
}
TOP = (("--config", str, None, None), ("command", str, REQUIRED, tuple(COMMANDS)))
DESCRIPTION = ("Exact word-metric invariants and cocycle untwisting experiments on "
               "finitely generated groups.\n--config names a JSON file whose keys, "
               "the subcommand's option names, override its flags.")


def _name(spelling):
    return spelling.lstrip("-").replace("-", "_")


def _usage(prog, rows):
    words = [prog, "[-h]"]
    for spelling, _, default, choices in rows:
        if spelling.startswith("-"):
            word = f"{spelling} {_name(spelling).upper()}"
            words.append(word if default is REQUIRED else f"[{word}]")
    words += ["{" + ",".join(choices) + "}" for spelling, _, _, choices in rows
              if not spelling.startswith("-")]
    return "usage: " + " ".join(words) + (" ..." if rows is TOP else "")


def _help(prog, rows, description):
    lines = [_usage(prog, rows), "", description, ""]
    for spelling, kind, default, choices in rows:
        if rows is TOP and choices:
            lines += [f"  {name:<16} {COMMANDS[name][0]}" for name in choices]
            continue
        what = ("one of " + ", ".join(choices) if choices else kind.__name__) + (
            ", required" if default is REQUIRED
            else ", optional" if default is None else f", default {default}")
        lines.append(f"  {spelling:<16} {what}")
    return "\n".join(lines)


def _fail(prog, rows, message):
    print(f"{_usage(prog, rows)}\n{prog}: error: {message}", file=sys.stderr)
    sys.exit(2)


def _negative_number(arg):
    """argparse's -N, -N.N or -.N, which reads as a value, not a flag."""
    head, dot, tail = arg[1:].partition(".")
    return head.isdecimal() if not dot else (not head or head.isdecimal()) and tail.isdecimal()


def _classify(prog, rows, flags, arg):
    """None for an argument that reads as a value, else (flag, text after '=');
    flag is the whole spelling a unique prefix names, and None for an unknown
    flag, `--` included."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, text = arg.partition("=")
    if name not in flags and name.startswith("--") and arg != "--":
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            _fail(prog, rows, f"ambiguous option: {arg} could match {', '.join(matches)}")
        name = matches[0] if matches else None
    if name in flags:
        return name, text if eq else None
    return None if _negative_number(arg) or " " in arg else (None, None)


def _convert(prog, rows, row, text):
    spelling, kind, _, choices = row
    try:
        value = kind(text)
    except ValueError:
        _fail(prog, rows, f"argument {spelling}: invalid {kind.__name__} value: {text!r}")
    if choices is not None and value not in choices:
        _fail(prog, rows, f"argument {spelling}: invalid choice: {value!r} "
                          f"(choose from {', '.join(map(repr, choices))})")
    return value


def _scan(prog, rows, description, argv, args):
    """Read argv against rows into args, as argparse read it: a flag takes the
    next argument or its text after '=', the last of a repeated flag wins, and
    the first argument no flag takes is the positional.  At the top level, that
    is the subcommand, and the arguments after it are its own.  Returns the
    arguments nothing took and those after the subcommand."""
    flags = {"-h": None, "--help": None}
    flags.update((row[0], row) for row in rows if row[0].startswith("-"))
    positional = next((row for row in rows if not row[0].startswith("-")), None)
    for spelling, _, default, _ in rows:
        setattr(args, _name(spelling), None if default is REQUIRED else default)
    kinds = [_classify(prog, rows, flags, arg) for arg in argv]
    extras, seen, i = [], set(), 0
    while i < len(argv):
        arg, kind = argv[i], kinds[i]
        i += 1
        if kind is None and positional is not None and positional not in seen:
            row, text = positional, arg
        elif kind is None or kind[0] is None:
            extras.append(arg)
            continue
        else:
            flag, text = kind
            row = flags[flag]
            if row is None:
                if text is not None:
                    _fail(prog, rows, f"argument -h/--help: ignored explicit argument {text!r}")
                print(_help(prog, rows, description))
                sys.exit(0)
            if text is None:
                if i == len(argv) or kinds[i] is not None:
                    _fail(prog, rows, f"argument {flag}: expected one argument")
                text = argv[i]
                i += 1
        setattr(args, _name(row[0]), _convert(prog, rows, row, text))
        seen.add(row)
        if row is positional and rows is TOP:
            return extras, argv[i:]
    missing = [row[0] for row in rows if row[2] is REQUIRED and row not in seen]
    if missing:
        _fail(prog, rows, f"the following arguments are required: {', '.join(missing)}")
    return extras, []


class Parser:
    """The CLI's parser: `parse_args(argv)` reads the top level and then the
    subcommand's option table.  A usage error exits 2 with argparse's message,
    and -h/--help prints the usage read from the table and exits 0."""

    def parse_args(self, argv=None):
        argv = sys.argv[1:] if argv is None else list(argv)
        args = SimpleNamespace()
        extras, rest = _scan("untwist", TOP, DESCRIPTION, argv, args)
        description, rows = COMMANDS[args.command]
        more, _ = _scan(f"untwist {args.command}", rows, description, rest, args)
        if extras or more:
            _fail("untwist", TOP, f"unrecognized arguments: {' '.join(extras + more)}")
        return args


def build_parser() -> Parser:
    return Parser()


def _apply_config(args):
    """Override parsed flags with the keys of the JSON file args.config; each
    key must name an option of the subcommand and fit its type and choices."""
    overrides = load_json(args.config)
    if not isinstance(overrides, dict):
        raise InputError(f"{args.config}: top level must be a JSON object, "
                         f"got {type(overrides).__name__}")
    rows = {_name(row[0]): row for row in COMMANDS[args.command][1]}
    for key, value in overrides.items():
        if key not in rows:
            raise InputError(f"{args.config}: unknown key {key!r} for {args.command}")
        _, expected, _, choices = rows[key]
        allowed = (int, float) if expected is float else expected
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise InputError(f"{args.config}: key {key!r} needs a "
                             f"{expected.__name__}, got {value!r}")
        if choices is not None and value not in choices:
            raise InputError(f"{args.config}: key {key!r} must be one of "
                             f"{', '.join(map(str, choices))}, got {value!r}")
        setattr(args, key, value)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
