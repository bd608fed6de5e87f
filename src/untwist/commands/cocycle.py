"""`cocycle untwist`: untwist a cocycle spec through a certified transfer map
and read off the homomorphism, with the relation, constancy, homomorphism
and anchor-independence defects."""

from __future__ import annotations

import random

from ..cocycles import (CocycleError, TransferTable, VerificationError,
                        cocycle_spec_from_jsonable, extract_homomorphism,
                        generator_independence, relation_consistency)
from ..groups import InputError, enumerate_ball, parse_group
from ..reporting import decoding, echo, write_json
from ..sampling import random_configuration
from ..targets import TargetError


def run(args) -> int:
    group = parse_group(args.group)
    with decoding(args.spec) as spec_obj:
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
    config = echo(args, ("group", "spec", "mode", "epsilon", "tol", "seed",
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
        untwist = extract_homomorphism(transfer, elements, samples, args.tol)
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
        report["example_certificate"] = sample_cert._asdict()
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
