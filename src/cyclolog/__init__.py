"""cyclolog: arbitrary-precision toolkit for L(1,f) values of periodic
functions, rational relations among log(2 sin k pi/q), Dedekind-determinant
independence certificates, and integer-relation searches over the log basis.
"""

from .kernel import (
    Complex,
    PrecisionError,
    Real,
    ZeroClass,
    classify_zero,
    const,
    log_2sin,
)
from .characters import (
    DirichletCharacter,
    PeriodicFunction,
    UnitGroupStructure,
    enumerate_characters,
    fourier_transform,
    gauss_sum,
    principal_character,
    unit_group_structure,
)
from .lseries import (
    DecompositionVector,
    NonConvergentSeriesError,
    decompose_l1,
    digamma,
    digamma_series,
    hurwitz_zeta,
    l1,
    l1_chi_via_gauss,
)
from .relations import (
    LogBasis,
    RelationVector,
    construct_relation,
    enumerate_relations,
    fold_index,
    verify_relation,
)
from .dedekind import (
    DedekindMatrix,
    build_matrix,
    determinant_check,
    independence_certificate,
    s_chi,
)
from .scans import (
    DichotomyContradictionError,
    DichotomyVerdict,
    InconclusiveClassificationError,
    ScanReport,
    ScanStore,
    bbw_function,
    dichotomy,
    enumerate_sign_functions,
    scan,
)
from .intrel import (
    PiCoefficientViolation,
    RelationSearchResult,
    find_integer_relation,
    lll_reduce,
    relation_lattice_rank,
)

__version__ = "0.1.0"

__all__ = [
    "Complex",
    "DecompositionVector",
    "DedekindMatrix",
    "DichotomyContradictionError",
    "DichotomyVerdict",
    "DirichletCharacter",
    "InconclusiveClassificationError",
    "PiCoefficientViolation",
    "LogBasis",
    "NonConvergentSeriesError",
    "PeriodicFunction",
    "PrecisionError",
    "Real",
    "RelationSearchResult",
    "RelationVector",
    "ScanReport",
    "ScanStore",
    "UnitGroupStructure",
    "ZeroClass",
    "bbw_function",
    "build_matrix",
    "classify_zero",
    "const",
    "construct_relation",
    "decompose_l1",
    "dichotomy",
    "determinant_check",
    "digamma",
    "digamma_series",
    "enumerate_characters",
    "enumerate_relations",
    "enumerate_sign_functions",
    "find_integer_relation",
    "fold_index",
    "fourier_transform",
    "gauss_sum",
    "hurwitz_zeta",
    "independence_certificate",
    "l1",
    "l1_chi_via_gauss",
    "lll_reduce",
    "log_2sin",
    "principal_character",
    "relation_lattice_rank",
    "s_chi",
    "scan",
    "unit_group_structure",
    "verify_relation",
]
