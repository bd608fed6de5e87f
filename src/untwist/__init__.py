"""Exact word-metric geometry of finitely generated groups and certified
cocycle untwisting over full shifts.

`import untwist` puts every submodule in `sys.modules` but runs none of them:
each runs on first use (`importlib.util.LazyLoader`), so a run loads only the
code it calls, while code that patches the modules after `import untwist`
still finds them all.  Each public name below is read from its module when
asked for (PEP 562), so `from untwist import X` runs the module that defines
X, with what that one uses.  The paper's checks that no command runs
(holonomy composition and forward/backward agreement, decay against the
gluing radius, the transfer map's modulus, conjugation, bi-invariance) are
test helpers, in `tests/paper_checks.py`.
"""

import importlib.machinery
import importlib.util
import sys

_HOMES = {
    "groups": (
        "BallTable", "DirectProduct", "DiscreteHeisenberg", "FreeGroup",
        "GroupError", "InfiniteCyclic", "InputError", "IntegerLattice",
        "OutOfRange", "ResourceLimit", "WordMetric", "enumerate_ball",
        "parse_group",
    ),
    "invariants": (
        "CompressionProfile", "build_profile", "sdt_partial_sum",
    ),
    "divergence": (
        "avoidant_shortest_path", "classify_growth", "div_function", "div_pair",
        "make_query",
    ),
    "shifts": (
        "ConeParams", "Configuration", "ContractError", "FullShift", "GoldenMean",
        "background_configuration", "default_specification_constants", "glue",
        "homoclinic_agreement_radius", "membership_check",
    ),
    "targets": (
        "FiniteGroup", "RealVector", "TargetGroup", "Torus", "cyclic_group",
    ),
    "cocycles": (
        "BlockMap", "CocycleError", "CocycleSpec", "HolonomyCertificate",
        "TransferTable", "VerificationError", "coboundary_cocycle",
        "cocycle_spec_from_jsonable", "cocycle_spec_to_jsonable",
        "extract_homomorphism", "generator_independence", "holonomy",
        "homomorphism_cocycle", "partial_product", "relation_consistency",
        "weighted_potential",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _lazy_submodule(name):
    spec = importlib.machinery.PathFinder.find_spec(f"{__name__}.{name}", __path__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Not cli: `python -m untwist.cli` runs it as __main__.
for _name in (*_HOMES, "reporting", "sampling"):
    globals()[_name] = _lazy_submodule(_name)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted([*globals(), *__all__])
