"""Set-up probe: everything a CLI run does before its command body.

Imports `untwist.cli`, parses the workload's arguments, builds the group and
loads the workload's input file through the public loaders, then exits.

    PYTHONPATH=src python3 perfbench/probe.py <cli args>
"""

import json
import sys

from untwist.cli import build_parser
from untwist.cocycles import cocycle_spec_from_jsonable
from untwist.groups import parse_group
from untwist.shifts import Configuration


def main(argv):
    args = build_parser().parse_args(argv)
    group = parse_group(args.group)
    if args.command in ("cocycle", "subshift"):
        with open(args.spec, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if args.command == "cocycle":
            cocycle_spec_from_jsonable(obj, group)
        else:
            Configuration.from_jsonable(group, obj["x"])
            Configuration.from_jsonable(group, obj["x_prime"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
