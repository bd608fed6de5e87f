"""Experiment driver: group/invariant/divergence/subshift/cocycle subcommands
with seeded sampling and deterministic CSV/JSON artifacts.

Exit codes: 0 when every embedded assertion passes, 1 when a run-level check
fails, 2 for unusable configuration, inputs or files.  A JSON file passed
through --config overrides parsed flags key by key.  Identically configured
runs produce byte-identical artifacts (seeded Mersenne Twister, floats at 17
significant digits, no timestamps).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from .groups import (
    DEFAULT_METRIC_BUDGET,
    InputError,
    OutOfRange,
    ResourceLimit,
    WordMetric,
    enumerate_ball,
    json_float,
    json_int,
    parse_group,
)
from .reporting import write_csv, write_json


def _load_json(path):
    """The JSON value in path; a file that is not UTF-8 JSON text is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not JSON: {exc}") from None


@contextlib.contextmanager
def _decoding(path):
    """Yield the JSON object in path; a key the block misses, or a value of the
    wrong type, is bad input.  The package's own errors keep their messages."""
    obj = _load_json(path)
    try:
        yield obj
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc.args[0]!r}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad value: {exc}") from None


def _echo(args, fields):
    config = {"command": args.command}
    for name in fields:
        config[name] = getattr(args, name)
    return config


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ball(args) -> int:
    group = parse_group(args.group)
    table = enumerate_ball(group, args.radius, args.max_elements)
    config = _echo(args, ("group", "radius"))
    rows = sorted(
        ((group.format_elem(g), length) for g, length in table.lengths.items()),
        key=lambda row: (row[1], row[0]),
    )
    write_csv(args.out, ["normal_form", "length"], rows, config)
    return 0


def cmd_invariants(args) -> int:
    from .invariants import build_profile, sdt_partial_sum

    group = parse_group(args.group)
    g = group.parse_elem(args.element)
    profile = build_profile(group, g, args.radius)
    # Checked before the first write, so bad settings leave no artifact.
    summary = (None if args.sdt_base is None
               else sdt_partial_sum(profile, args.sdt_base, args.sdt_terms))
    out = _ensure_dir(args.out)
    config = _echo(args, ("group", "element", "radius"))
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
            "r": summary.r, "T": summary.terms,
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


def cmd_divergence(args) -> int:
    from .divergence import classify_growth, div_function

    group = parse_group(args.group)
    rows = div_function(group, args.nmax, window_factor=args.window_factor,
                        sample_budget=args.sample_budget,
                        pairs_per_n=args.pairs_per_n, seed=args.seed)
    out = _ensure_dir(args.out)
    config = _echo(args, ("group", "nmax", "window_factor", "sample_budget",
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


def _load_subshift(group, obj):
    from .shifts import ContractError, FullShift, GoldenMean

    kind = obj.get("kind")
    if kind == "full":
        return FullShift(tuple(obj["alphabet"]))
    if kind == "golden_mean":
        families = tuple(
            tuple(group.parse_elem(f) for f in family)
            for family in obj["families"]
        )
        return GoldenMean(tuple(obj["alphabet"]), families)
    raise ContractError(f"unknown subshift kind {kind!r}")


def cmd_subshift(args) -> int:
    from .shifts import (ConeParams, Configuration, ContractError, GoldenMean,
                         default_specification_constants, glue, membership_check)

    group = parse_group(args.group)
    metric = WordMetric(group)
    with _decoding(args.spec) as spec_obj:
        shift = _load_subshift(group, spec_obj["subshift"])
        x = Configuration.from_jsonable(group, spec_obj["x"])
        if args.mode == "glue":
            anchor = group.parse_elem(spec_obj["anchor"])
            radius_R = json_int(spec_obj["R"], "R")
            x_prime = Configuration.from_jsonable(group, spec_obj["x_prime"])
            s_prime, t_prime = default_specification_constants(shift, metric)
            s_prime = json_float(spec_obj.get("s_prime", s_prime), "s_prime")
            t_prime = json_float(spec_obj.get("t_prime", t_prime), "t_prime")
            max_query_length = json_int(spec_obj.get("max_query_length", 64),
                                        "max_query_length")
    config = _echo(args, ("group", "spec", "mode"))
    if args.mode == "check":
        member = membership_check(x, shift)
        write_json(args.out, {"config": config, "member": member})
        return 0
    try:
        params = ConeParams.create(group, anchor, radius_R, s_prime, t_prime, metric,
                                   max_query_length=max_query_length)
    except ContractError as exc:  # each value it checks comes from the task
        raise InputError(f"{args.spec}: {exc}") from None
    payload = {"config": config, "n_spec": params.specification_ball_radius(),
               "overlap_bound": params.overlap_window_bound()}
    try:
        result = glue(x, x_prime, params)
    except (ContractError, AssertionError) as exc:
        payload["glued"] = False
        payload["error"] = str(exc)
        write_json(args.out, payload)
        return 1
    payload["glued"] = True
    payload["plus_agrees"] = result.plus_agrees
    payload["minus_agrees"] = result.minus_agrees
    payload["y"] = result.y.to_jsonable()
    if isinstance(shift, GoldenMean):
        payload["membership"] = {
            "x": membership_check(x, shift),
            "x_prime": membership_check(x_prime, shift),
            "y": membership_check(result.y, shift),
        }
    write_json(args.out, payload)
    return 0


def cmd_cocycle(args) -> int:
    from .cocycles import (CocycleError, TransferTable, VerificationError,
                           cocycle_spec_from_jsonable, extract_homomorphism,
                           generator_independence, relation_consistency)
    import random

    from .sampling import random_configuration
    from .targets import TargetError

    group = parse_group(args.group)
    with _decoding(args.spec) as spec_obj:
        try:
            spec = cocycle_spec_from_jsonable(spec_obj, group)
        except (CocycleError, TargetError) as exc:  # each names what the spec got wrong
            raise InputError(f"{args.spec}: {exc}") from None
    rng = random.Random(args.seed)
    # The sample pool, B(sample_radius) in BFS order, is listed once, and only
    # when a sample can hold a symbol besides the background.
    cells = (list(enumerate_ball(group, args.sample_radius, args.max_elements).order)
             if any(s != spec.background for s in spec.alphabet) else [])
    samples = [random_configuration(group, cells, spec.alphabet, rng,
                                    args.sample_cells, spec.background)
               for _ in range(args.samples)]
    config = _echo(args, ("group", "spec", "mode", "epsilon", "tol", "seed",
                          "samples", "sample_radius", "sample_cells"))
    positives = group.positive_labels
    anchors = [group.gen(lab) for lab in positives[:2]]
    elements = [group.gen(lab) for lab in positives]
    pair_pool = [(elements[i], elements[j])
                 for i in range(len(elements)) for j in range(len(elements))][:6]
    relation_defect = relation_consistency(spec, samples[:10], pair_pool)
    report = {
        "config": config,
        "relation_consistency": relation_defect,
        "anchors": [group.format_elem(a) for a in anchors],
    }
    failed = relation_defect > args.tol
    try:
        transfer = TransferTable(spec, anchors[0], args.epsilon)
        untwist = extract_homomorphism(spec, anchors[0], elements, samples,
                                       args.epsilon, args.tol, transfer)
        report["psi"] = {
            group.format_elem(g): spec.target.to_jsonable_elem(v)
            for g, v in sorted(untwist.psi.items(),
                               key=lambda kv: group.format_elem(kv[0]))
        }
        report["constancy_defect"] = untwist.constancy_defect
        report["homomorphism_defect"] = untwist.homomorphism_defect
        report["ok"] = untwist.ok
        failed = failed or not untwist.ok
        sample_cert = transfer.value(samples[0])[1]
        report["example_certificate"] = sample_cert.to_jsonable()
    except VerificationError as exc:
        report["ok"] = False
        report["error"] = str(exc)
        failed = True
    if len(anchors) == 2 and group.ends == "one" and group.subexponential_divergence:
        pairs = [(samples[i], samples[i + 1]) for i in range(0, len(samples) - 1, 2)]
        report["generator_independence"] = generator_independence(
            spec, anchors[0], anchors[1], pairs, args.epsilon)
        failed = failed or report["generator_independence"] > 2 * args.epsilon + args.tol
    write_json(args.out, report)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

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
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("invariants",
                       help="power lengths, compression, distortion, translation")
    common(p)
    p.add_argument("--element", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--sdt-base", type=float, default=None, dest="sdt_base")
    p.add_argument("--sdt-terms", type=int, default=32, dest="sdt_terms")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("divergence", help="sampled divergence function")
    common(p, seeded=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--window-factor", type=int, default=4, dest="window_factor")
    p.add_argument("--sample-budget", type=int, default=10, dest="sample_budget")
    p.add_argument("--pairs-per-n", type=int, default=2, dest="pairs_per_n")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("subshift", help="glue or membership-check configurations")
    p.add_argument("mode", choices=["glue", "check"])
    common(p, seeded=True)  # --seed is read by nothing; perfbench/workloads.py passes it
    p.add_argument("--spec", required=True, help="JSON task description")
    p.set_defaults(func=cmd_subshift)

    p = sub.add_parser("cocycle", help="untwist a cocycle specification")
    p.add_argument("mode", choices=["untwist"])
    common(p, seeded=True, budgeted=True)
    p.add_argument("--spec", required=True, help="cocycle spec JSON")
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--sample-radius", type=int, default=6, dest="sample_radius")
    p.add_argument("--sample-cells", type=int, default=4, dest="sample_cells")
    p.set_defaults(func=cmd_cocycle)
    return parser


def _apply_config(args):
    """Override parsed flags with the keys of the JSON file args.config; each
    key must name an argument of the subcommand and fit its type and choices."""
    overrides = _load_json(args.config)
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
        return args.func(args)
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
