"""`ball`: a ball table as CSV, one row per element, by length then form."""

from __future__ import annotations

from ..groups import enumerate_ball, parse_group
from ..reporting import echo, write_csv


def run(args) -> int:
    group = parse_group(args.group)
    table = enumerate_ball(group, args.radius, args.max_elements)
    config = echo(args, ("group", "radius"))
    rows = sorted(
        ((group.format_elem(g), length) for g, length in table.lengths.items()),
        key=lambda row: (row[1], row[0]),
    )
    write_csv(args.out, ["normal_form", "length"], rows, config)
    return 0
