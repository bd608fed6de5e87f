"""Negative controls for the cocycle checks, used only by the tests."""

from untwist import BlockMap, CocycleError, CocycleSpec


def corrupted_spec(spec: CocycleSpec, label: str, pattern_index: int,
                   new_value) -> CocycleSpec:
    """Copy of a cocycle specification with one table entry replaced."""
    bm = spec.maps[label].tabulated(spec.alphabet)
    patterns = sorted(bm.table)
    pattern = patterns[pattern_index % len(patterns)]
    table = dict(bm.table)
    if table[pattern] == new_value:
        raise CocycleError("corruption must change the entry")
    table[pattern] = new_value
    maps = dict(spec.maps)
    maps[label] = BlockMap(spec.target, bm.cells, bm.window, table=table)
    return CocycleSpec(spec.group, spec.target, spec.alphabet, spec.background,
                       maps, spec.rate)
