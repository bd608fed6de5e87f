"""`invariants`: power lengths, compression, distortion and translation data
of one element, with the exact-range inequality checks of its profile."""

from __future__ import annotations

import os

from ..groups import OutOfRange, parse_group
from ..invariants import build_profile, sdt_partial_sum
from ..reporting import echo, ensure_dir, write_csv, write_json


def run(args) -> int:
    group = parse_group(args.group)
    g = group.parse_elem(args.element)
    profile = build_profile(group, g, args.radius)
    # Checked before the first write, so bad settings leave no artifact.
    summary = (None if args.sdt_base is None
               else sdt_partial_sum(profile, args.sdt_base, args.sdt_terms))
    out = ensure_dir(args.out)
    config = echo(args, ("group", "element", "radius"))
    config["generating_set"] = group.generating_set_description()

    write_csv(os.path.join(out, "powers.csv"), ["j", "length"],
              list(profile.entries), config)
    write_csv(os.path.join(out, "compression.csv"), ["i", "rho"],
              [(i, profile.compression(i)) for i in range(1, profile.j_max + 1)],
              config)
    write_csv(os.path.join(out, "distortion.csv"), ["x", "delta"],
              [(x, profile.distortion(x)) for x in range(0, profile.radius + 1)],
              config)
    data = profile.translation_data()
    write_csv(os.path.join(out, "translation.csv"),
              ["n", "length", "upper_bound", "running_min"],
              [(n, length, ratio, data.running_min[i])
               for i, (n, length, ratio) in enumerate(data.terms)], config)

    checks = _profile_checks(profile)
    report = {
        "config": config,
        "j_max": profile.j_max,
        "lower_bound": profile.lower_bound.describe(),
        "translation_best_upper_bound": data.best_upper_bound,
        "translation_lower_bound": data.lower_bound,
        "undistorted_witness": data.undistorted_witness,
        "checks": checks,
    }
    if summary is not None:
        report["sdt"] = {
            "r": args.sdt_base, "T": args.sdt_terms,
            "partial": summary.partial_sum, "tail_bound": summary.tail_bound,
            "total_upper_bound": summary.total_upper_bound,
        }
    write_json(os.path.join(out, "report.json"), report)
    return 0 if all(checks.values()) else 1


def _profile_checks(profile) -> dict:
    """Exact-range inequality suite for one compression profile."""
    ok_bounds = all(
        profile.distortion(length) >= j and profile.compression(j) <= length
        for j, length in profile.entries
    )
    ok_between = True
    for x in range(1, profile.radius + 1):
        delta_x = profile.distortion(x)
        if x <= profile.j_max:
            rho_x = profile.compression(x)
            if not profile.distortion(rho_x - 1) < x:
                ok_between = False
        if delta_x + 1 <= profile.j_max:
            if not x < profile.compression(delta_x + 1):
                ok_between = False
        try:
            if profile.rho_inverse(x) > delta_x:
                ok_between = False
        except OutOfRange:
            pass
    ok_additive = True
    for x in range(1, profile.j_max + 1):
        for y in range(1, profile.j_max - x + 1):
            if profile.compression(x + y) > profile.compression(x) + profile.compression(y):
                ok_additive = False
    for x in range(1, profile.radius + 1):
        for y in range(1, profile.radius - x + 1):
            if profile.distortion(x + y) < profile.distortion(x) + profile.distortion(y):
                ok_additive = False
    return {
        "power_bounds": ok_bounds,
        "inverse_sandwich": ok_between,
        "additivity": ok_additive,
    }
