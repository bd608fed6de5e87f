"""`divergence`: the sampled divergence function, with a growth fit."""

from __future__ import annotations

import math
import os

from ..divergence import classify_growth, div_function
from ..groups import parse_group
from ..reporting import echo, ensure_dir, write_csv, write_json


def run(args) -> int:
    group = parse_group(args.group)
    rows = div_function(group, args.nmax, window_factor=args.window_factor,
                        sample_budget=args.sample_budget,
                        pairs_per_n=args.pairs_per_n, seed=args.seed)
    out = ensure_dir(args.out)
    config = echo(args, ("group", "nmax", "window_factor", "sample_budget",
                         "pairs_per_n", "seed"))
    fmt = group.format_elem
    write_csv(
        os.path.join(out, "divergence.csv"),
        ["n", "div_estimate", "witness_a", "witness_b", "witness_c", "window"],
        [(r.n, r.value, fmt(r.witness_a), fmt(r.witness_b),
          fmt(r.witness_c) if r.witness_c is not None else "-", r.window_radius)
         for r in rows],
        config,
    )
    report = {"config": config,
              "any_infinite": any(math.isinf(r.value) for r in rows)}
    finite = [(r.n, r.value) for r in rows if math.isfinite(r.value)]
    if len(finite) >= 4:
        fit = classify_growth([n for n, _ in finite], [v for _, v in finite])
        report["growth"] = {"degree": fit.degree,
                            "subexp_statistic": fit.subexp_statistic,
                            "points_used": fit.points_used}
    write_json(os.path.join(out, "report.json"), report)
    return 0
