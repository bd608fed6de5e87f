"""The CLI's option-table parser against the argparse parser it replaced, kept
as the oracle in tests/oracles.py, on seeded argv lists over all five
subcommands.

Left out of the draws on purpose, because argparse reads them differently
from one Python version to the next or the CLI never documented them: the
`--` separator, negative numbers in other forms than -N, -N.N and -.N (such
as -1e3 and -1_000), and single-dash arguments other than -h (such as -hh)."""

import contextlib
import io
import random

import pytest

from oracles import build_parser as argparse_parser
from untwist.cli import build_parser

# Each subcommand's flags with the kind of value each takes; the flags marked
# True are required.
INT, FLOAT, STR = "int", "float", "str"
FLAGS = {
    "ball": {"--group": (STR, True), "--max-elements": (INT, False),
             "--out": (STR, True), "--radius": (INT, True)},
    "invariants": {"--group": (STR, True), "--out": (STR, True),
                   "--element": (STR, True), "--radius": (INT, True),
                   "--sdt-base": (FLOAT, False), "--sdt-terms": (INT, False)},
    "divergence": {"--group": (STR, True), "--seed": (INT, False), "--out": (STR, True),
                   "--nmax": (INT, True), "--window-factor": (INT, False),
                   "--sample-budget": (INT, False), "--pairs-per-n": (INT, False)},
    "subshift": {"--group": (STR, True), "--seed": (INT, False), "--out": (STR, True),
                 "--spec": (STR, True)},
    "cocycle": {"--group": (STR, True), "--seed": (INT, False),
                "--max-elements": (INT, False), "--out": (STR, True),
                "--spec": (STR, True), "--epsilon": (FLOAT, False),
                "--tol": (FLOAT, False), "--samples": (INT, False),
                "--sample-radius": (INT, False), "--sample-cells": (INT, False)},
}
MODES = {"subshift": ("glue", "check"), "cocycle": ("untwist",)}
GOOD = {INT: ["0", "7", "-3", "12", " 5", "1_000", "-2 "],
        FLOAT: ["0.5", "-0.25", "-.5", "1e-8", "3", "-2", "inf", "1E3"],
        STR: ["z^2", "heisenberg", "out.csv", "dir/x.json", "a b", "-1", "="]}
BAD = {INT: ["x", "1.5", "", "1e3", "0x10"], FLOAT: ["x", "", "1,5"], STR: []}
# Messages argparse has worded the same way in every Python the package supports.
PINNED = ("unrecognized arguments: ", "the following arguments are required: ",
          "invalid int value: ", "invalid float value: ")


def outcome(parser, argv):
    """("parsed", option values) or ("exit", code, the error message)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return "exit", exc.code, err.getvalue().rpartition("error: ")[2]
    values = dict(vars(args))
    values.pop("subparser", None)  # the oracle's own
    return "parsed", values


def spelling(rng, flag, flags):
    """flag, or a prefix of it that is unique among flags (and --help), or
    now and then a prefix shared with another flag."""
    others = [f for f in (*flags, "--help") if f != flag]
    unique = [flag[:n] for n in range(3, len(flag))
              if not any(o.startswith(flag[:n]) for o in others)]
    shared = [flag[:n] for n in range(3, len(flag))
              if any(o.startswith(flag[:n]) for o in others)]
    roll = rng.random()
    if roll < 0.3 and unique:
        return rng.choice(unique)
    if roll < 0.36 and shared:
        return rng.choice(shared)
    return flag


def setting(rng, flag, kind, flags):
    """One setting of flag as argv words: --flag value, --flag=value, a bad
    value, or the flag without its value."""
    value = rng.choice(BAD[kind]) if BAD[kind] and rng.random() < 0.08 else \
        rng.choice(GOOD[kind])
    name = spelling(rng, flag, flags)
    roll = rng.random()
    if roll < 0.04:
        return [name]  # its value is missing, or it takes the next word
    if roll < 0.3:
        return [f"{name}={value}"]
    return [name, value]


def draw_argv(rng):
    command = rng.choice(list(FLAGS))
    flags = FLAGS[command]
    settings = []
    for flag, (kind, required) in flags.items():
        if rng.random() < (0.95 if required else 0.5):
            settings.append(setting(rng, flag, kind, flags))
            if rng.random() < 0.1:  # a repeat, whose last value wins
                settings.append(setting(rng, flag, kind, flags))
    if rng.random() < 0.1:
        unknown = rng.choice(["--bogus", "--seed", "--max-elements", "--config", "-x"])
        settings.append([unknown] if rng.random() < 0.5 else [unknown, "1"])
    if rng.random() < 0.04:
        settings.append(["extra"])
    if command in MODES and rng.random() < 0.95:
        mode = rng.choice(MODES[command]) if rng.random() < 0.92 else "bogus"
        settings.append([mode])
    rng.shuffle(settings)
    argv = [word for words in settings for word in words]
    if rng.random() < 0.03:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["-h", "--help", "--he"]))
    top = []
    if rng.random() < 0.15:
        top = rng.choice([["--config", "cfg.json"], ["--config=c.json"], ["--conf", "c"],
                          ["--config"], ["--bogus"]])
    roll = rng.random()
    if roll < 0.02:
        return top
    if roll < 0.04:
        return [*top, "bogus", *argv]
    return [*top, command, *argv]


@pytest.mark.parametrize("seed", range(4))
def test_parser_agrees_with_the_argparse_oracle(seed):
    rng = random.Random(seed)
    ours, oracle = build_parser(), argparse_parser()
    exits = 0
    for _ in range(150):
        argv = draw_argv(rng)
        expected = outcome(oracle, argv)
        got = outcome(ours, argv)
        assert got[:2] == expected[:2], argv
        if expected[0] == "exit" and expected[1] == 2:
            exits += 1
            if any(phrase in expected[2] for phrase in PINNED):
                assert got[2] == expected[2], argv
    assert 10 <= exits <= 140  # both outcomes are drawn often
