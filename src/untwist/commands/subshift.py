"""`subshift`: glue two configurations along the anchor's cones, or check a
configuration's membership in a subshift."""

from __future__ import annotations

from ..configurations import Configuration, ContractError
from ..groups import InputError, WordMetric, parse_group
from ..reporting import decoding, echo, json_float, json_int, write_json
from ..shifts import (ConeParams, FullShift, GoldenMean, default_specification_constants,
                      glue, membership_check)


def _load_subshift(group, obj):
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


def run(args) -> int:
    group = parse_group(args.group)
    metric = WordMetric(group)
    with decoding(args.spec) as spec_obj:
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
    config = echo(args, ("group", "spec", "mode"))
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
