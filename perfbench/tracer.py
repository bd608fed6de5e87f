"""Outside-in layer tracer for one in-process `untwist.cli.main(argv)` call.

The tracer wraps public functions and methods of each package layer from
outside the package, records one span per call in memory (id, parent id, run
id, name, start, end, one optional value) and writes every span out when the
run ends.  Per-layer metrics are aggregated from the span file; a layer's time
is its self time, i.e. span duration minus the time covered by child spans.

Run as a script it traces one CLI invocation:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json RUN_ID -- <cli args>

`Group.mul`, `Configuration.__init__` and target-group operations are not
wrapped: at 1e5-1e6 calls per run the wrapper would cost more than the work.
Their time falls inside the spans of their callers.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


class Tracer:
    """In-memory span recorder; callers wrap functions with `wrap`."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []        # (id, parent, run_id, name, t0, t1, value)
        self._stack = [0]      # ids of the open spans; 0 = no parent
        self._next_id = 1

    def wrap(self, name, fn, value=None, before=None):
        """Return fn recording a span per call.

        value(args, result, pre) gives the span's value, where pre is
        before(args) evaluated just before the call.
        """
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            pre = before(args) if before is not None else None
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, run_id, name, t0, t1,
                              value(args, result, pre) if value is not None else None))

        return traced


def _is_finite_outcome(args, result, pre):
    return int(result is not None and result.outcome == "finite")


def _grown_radius(args, result, pre):
    return result.radius if result is not None and result is not pre else None


# (module, attribute, span name, value, before) for plain functions; every
# module of the package that bound the function with `from .x import y` is
# patched too.
FUNCTIONS = (
    ("groups", "enumerate_ball", "groups.enumerate_ball",
     lambda a, r, p: len(r) if r is not None else 0, None),
    ("divergence", "avoidant_shortest_path", "divergence.avoidant_bfs",
     _is_finite_outcome, None),
    ("divergence", "make_query", "divergence.make_query", None, None),
    ("divergence", "div_function", "divergence.div_function", None, None),
    ("invariants", "build_profile", "invariants.build_profile", None, None),
    ("shifts", "glue", "shifts.glue", None, None),
    ("shifts", "membership_check", "shifts.membership_check", None, None),
    ("cocycles", "holonomy", "cocycles.holonomy",
     lambda a, r, p: r[1].n_used if r is not None else 0, None),
    ("cocycles", "relation_consistency", "cocycles.relation_consistency", None, None),
    ("cocycles", "extract_homomorphism", "cocycles.extract_homomorphism", None, None),
    ("cocycles", "generator_independence", "cocycles.generator_independence", None, None),
    ("cocycles", "cocycle_spec_from_jsonable", "cocycles.spec_load", None, None),
    ("sampling", "random_configuration", "sampling.random_configuration", None, None),
    ("reporting", "write_csv", "reporting.write",
     lambda a, r, p: os.path.getsize(a[0]), None),
    ("reporting", "write_json", "reporting.write",
     lambda a, r, p: os.path.getsize(a[0]), None),
    ("cli", "main", "cli.main", None, None),
)

# (module, class, method, span name, value, before), patched on the class.
METHODS = (
    ("groups", "WordMetric", "length", "groups.word_metric.length", None, None),
    ("groups", "WordMetric", "table", "groups.word_metric.table",
     _grown_radius, lambda a: a[0]._table),
    ("shifts", "Configuration", "translate", "shifts.translate", None, None),
    ("shifts", "ConeParams", "cone_contains", "shifts.cone_contains",
     lambda a, r, p: int(bool(r)), None),
    ("cocycles", "TransferTable", "value", "cocycles.transfer",
     lambda a, r, p: int(p), lambda a: a[1] in a[0].cache),
)


def install(tracer):
    """Patch every traced name in the imported `untwist` modules."""
    import importlib

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "untwist" or name.startswith("untwist.")]
    for mod_name, attr, span, value, before in FUNCTIONS:
        original = getattr(importlib.import_module(f"untwist.{mod_name}"), attr)
        wrapper = tracer.wrap(span, original, value, before)
        for module in modules:
            for key, bound in list(vars(module).items()):
                if bound is original:
                    setattr(module, key, wrapper)
    for mod_name, cls_name, attr, span, value, before in METHODS:
        cls = getattr(importlib.import_module(f"untwist.{mod_name}"), cls_name)
        setattr(cls, attr, tracer.wrap(span, getattr(cls, attr), value, before))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

PER_LAYER = (
    # name, unit, better
    ("groups.enumerate_ball.calls", "count", "lower"),
    ("groups.enumerate_ball.elements", "count", "lower"),
    ("groups.enumerate_ball.s", "s", "lower"),
    ("groups.word_metric.length_calls", "count", "lower"),
    ("groups.word_metric.length_s", "s", "lower"),
    ("groups.word_metric.growths", "count", "lower"),
    ("groups.word_metric.max_radius", "count", "lower"),
    ("divergence.avoidant_bfs.calls", "count", "lower"),
    ("divergence.avoidant_bfs.s", "s", "lower"),
    ("divergence.avoidant_bfs.enumerate_ball_calls", "count", "lower"),
    ("divergence.finite_ratio", "ratio", "higher"),
    ("divergence.make_query.s", "s", "lower"),
    ("divergence.div_function.s", "s", "lower"),
    ("invariants.build_profile.calls", "count", "lower"),
    ("invariants.build_profile.s", "s", "lower"),
    ("shifts.translate.calls", "count", "lower"),
    ("shifts.translate.s", "s", "lower"),
    ("shifts.cone_contains.calls", "count", "lower"),
    ("shifts.cone_contains.s", "s", "lower"),
    ("shifts.cone_contains.hit_ratio", "ratio", "higher"),
    ("shifts.glue.s", "s", "lower"),
    ("shifts.membership_check.s", "s", "lower"),
    ("cocycles.holonomy.calls", "count", "lower"),
    ("cocycles.holonomy.factors", "count", "lower"),
    ("cocycles.holonomy.s", "s", "lower"),
    ("cocycles.holonomy.factors_per_s", "1/s", "higher"),
    ("cocycles.transfer.hit_ratio", "ratio", "higher"),
    ("cocycles.relation_consistency.s", "s", "lower"),
    ("cocycles.extract_homomorphism.s", "s", "lower"),
    ("cocycles.generator_independence.s", "s", "lower"),
    ("cocycles.spec_load.s", "s", "lower"),
    ("sampling.random_configuration.s", "s", "lower"),
    ("reporting.write.s", "s", "lower"),
    ("reporting.write.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)

def _ratio(num, den):
    return num / den if den else 0.0


def aggregate(spans):
    """Per-layer metrics (all but trace_overhead) from one run's spans."""
    child_time = {}
    names = {}
    for sid, parent, _, name, t0, t1, _ in spans:
        names[sid] = name
        child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    calls, self_s, total_s, values = {}, {}, {}, {}
    nested_balls = 0
    for sid, parent, _, name, t0, t1, value in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time.get(sid, 0.0)
        total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
        if value is not None:
            values.setdefault(name, []).append(value)
        if name == "groups.enumerate_ball" and names.get(parent) == "divergence.avoidant_bfs":
            nested_balls += 1

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def total(name):
        return sum(values.get(name, ()))

    grown = values.get("groups.word_metric.table", [])
    return {
        "groups.enumerate_ball.calls": n("groups.enumerate_ball"),
        "groups.enumerate_ball.elements": total("groups.enumerate_ball"),
        "groups.enumerate_ball.s": s("groups.enumerate_ball"),
        "groups.word_metric.length_calls": n("groups.word_metric.length"),
        "groups.word_metric.length_s": s("groups.word_metric.length"),
        "groups.word_metric.growths": len(grown),
        "groups.word_metric.max_radius": max(grown, default=0),
        "divergence.avoidant_bfs.calls": n("divergence.avoidant_bfs"),
        "divergence.avoidant_bfs.s": s("divergence.avoidant_bfs"),
        "divergence.avoidant_bfs.enumerate_ball_calls": nested_balls,
        "divergence.finite_ratio": _ratio(total("divergence.avoidant_bfs"),
                                          n("divergence.avoidant_bfs")),
        "divergence.make_query.s": s("divergence.make_query"),
        # Pair and obstacle sampling done by div_function itself.
        "divergence.div_function.s": s("divergence.div_function"),
        "invariants.build_profile.calls": n("invariants.build_profile"),
        "invariants.build_profile.s": s("invariants.build_profile"),
        "shifts.translate.calls": n("shifts.translate"),
        "shifts.translate.s": s("shifts.translate"),
        "shifts.cone_contains.calls": n("shifts.cone_contains"),
        "shifts.cone_contains.s": s("shifts.cone_contains"),
        "shifts.cone_contains.hit_ratio": _ratio(total("shifts.cone_contains"),
                                                 n("shifts.cone_contains")),
        "shifts.glue.s": s("shifts.glue"),
        "shifts.membership_check.s": s("shifts.membership_check"),
        "cocycles.holonomy.calls": n("cocycles.holonomy"),
        "cocycles.holonomy.factors": total("cocycles.holonomy"),
        "cocycles.holonomy.s": s("cocycles.holonomy"),
        # Throughput over the whole holonomy span: the factors' work includes
        # the translates and word-metric calls nested inside it.
        "cocycles.holonomy.factors_per_s": _ratio(total("cocycles.holonomy"),
                                                  total_s.get("cocycles.holonomy", 0.0)),
        "cocycles.transfer.hit_ratio": _ratio(total("cocycles.transfer"),
                                              n("cocycles.transfer")),
        "cocycles.relation_consistency.s": s("cocycles.relation_consistency"),
        "cocycles.extract_homomorphism.s": s("cocycles.extract_homomorphism"),
        "cocycles.generator_independence.s": s("cocycles.generator_independence"),
        "cocycles.spec_load.s": s("cocycles.spec_load"),
        "sampling.random_configuration.s": s("sampling.random_configuration"),
        "reporting.write.s": s("reporting.write"),
        "reporting.write.bytes": total("reporting.write"),
        "cli.self_s": s("cli.main"),
    }


# Self-time metrics of the traced layers, i.e. all times but the CLI's own.
SELF_TIMES = tuple(name for name, unit, _ in PER_LAYER
                   if unit == "s" and name != "cli.self_s")


def dominant_layer(metrics):
    """Self-time metric with the largest value."""
    return max(SELF_TIMES, key=lambda name: metrics[name])


def main(argv):
    spans_path, run_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json RUN_ID -- <cli args>")
    import untwist.cli

    tracer = Tracer(run_id)
    install(tracer)
    code = untwist.cli.main(cli_argv)
    dump_start = perf_counter()
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write('{"fields": ["id", "parent", "run_id", "name", "t0", "t1", "value"], '
                 '"spans": ')
        json.dump(tracer.spans, fh)
        # Written last so that it covers the dump itself.
        fh.write(f', "dump_s": {perf_counter() - dump_start!r}}}')
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
