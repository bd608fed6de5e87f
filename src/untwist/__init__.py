"""Exact word-metric geometry of finitely generated groups and certified
cocycle untwisting over full shifts."""

from .groups import (
    BallTable,
    DirectProduct,
    DiscreteHeisenberg,
    FreeGroup,
    GroupError,
    InfiniteCyclic,
    IntegerLattice,
    OutOfRange,
    ResourceLimit,
    WordMetric,
    enumerate_ball,
    parse_group,
)
from .invariants import (
    CompressionProfile,
    PowerLengthTable,
    build_profile,
    conjugation_compression_check,
    power_lengths,
    sdt_partial_sum,
    translation_number,
)
from .divergence import (
    avoidant_shortest_path,
    classify_growth,
    div_function,
    div_pair,
    make_query,
)
from .shifts import (
    ConeParams,
    Configuration,
    ContractError,
    FullShift,
    GoldenMean,
    background_configuration,
    default_specification_constants,
    glue,
    homoclinic_agreement_radius,
    membership_check,
)
from .targets import (
    FiniteGroup,
    RealVector,
    TargetGroup,
    Torus,
    bi_invariance_defect,
    cyclic_group,
)
from .cocycles import (
    BlockMap,
    CocycleError,
    CocycleSpec,
    HolonomyCertificate,
    TransferTable,
    VerificationError,
    coboundary_cocycle,
    cocycle_spec_from_jsonable,
    cocycle_spec_to_jsonable,
    corrupted_spec,
    extract_homomorphism,
    generator_independence,
    holder_modulus,
    holonomy,
    holonomy_identity_check,
    homomorphism_cocycle,
    partial_product,
    plus_minus_agree,
    relation_consistency,
    specification_decay,
    weighted_potential,
)

__version__ = "0.1.0"
