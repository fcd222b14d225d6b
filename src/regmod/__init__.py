"""Exact classification of finitely presented modules over atomic regular algebras."""

from .boolean_core import (
    AtomSet,
    Idempotent,
    PartitionOfUnity,
    disjointify,
    restrict_partition,
    sup_family,
)
from .classification import (
    EliminationTrace,
    FinitelyDimensionalReport,
    IsoMap,
    IsoPiece,
    Passport,
    PassportEntry,
    PiecewiseBasis,
    PivotStep,
    atom_rank,
    build_isomorphism,
    extract_basis,
    finitely_dimensional_report,
    is_strictly_homogeneous,
    iso_check,
    kappa,
    passport,
    piecewise_basis,
    regular_eliminate,
)
from .errors import (
    ContextMismatchError,
    LengthMismatchError,
    NotFaithfulError,
    NotInModuleError,
    NotMinorantError,
    ParseError,
    PassportMismatchError,
    RankMismatchError,
    RegmodError,
    ValidationError,
    ZeroIdempotentError,
)
from .fields import Field, PrimeField, RationalField, Scalar, is_prime
from .module_file import parse_module_file, render_module_file
from .module_space import (
    GeneratorSet,
    IndependenceResult,
    MembershipResult,
    ModuleVector,
    combine,
    full_support_element,
    independence_test,
    membership,
    mix_vectors,
    split_product,
)
from .oracle import RankProfile, atom_rank_profile, oracle_passport, oracle_verify_iso
from .regular_algebra import (
    AlgebraElement,
    StepForm,
    StepTerm,
    mix_scalars,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "AtomSet", "Idempotent", "PartitionOfUnity", "sup_family",
    "restrict_partition", "disjointify",
    "Field", "PrimeField", "RationalField", "Scalar", "is_prime",
    "AlgebraElement", "StepForm", "StepTerm", "mix_scalars",
    "ModuleVector", "GeneratorSet", "MembershipResult", "IndependenceResult",
    "mix_vectors", "combine", "membership", "independence_test",
    "full_support_element", "split_product",
    "Passport", "PassportEntry", "PiecewiseBasis", "IsoMap", "IsoPiece",
    "PivotStep", "EliminationTrace", "FinitelyDimensionalReport",
    "regular_eliminate", "passport", "atom_rank", "kappa",
    "is_strictly_homogeneous", "extract_basis", "piecewise_basis", "iso_check",
    "build_isomorphism", "finitely_dimensional_report",
    "RankProfile", "atom_rank_profile", "oracle_passport", "oracle_verify_iso",
    "parse_module_file", "render_module_file",
    "SplitMix64",
    "RegmodError", "ContextMismatchError", "LengthMismatchError",
    "NotMinorantError", "ZeroIdempotentError", "NotFaithfulError",
    "NotInModuleError", "RankMismatchError", "PassportMismatchError",
    "ParseError", "ValidationError",
    "__version__",
]
