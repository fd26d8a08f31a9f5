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
    unit_group_structure,
)
from .lseries import (
    DecompositionVector,
    NonConvergentSeriesError,
    decompose_l1,
    l1,
)
from .relations import (
    LogBasis,
    RelationVector,
    construct_relation,
    enumerate_relations,
    fold_index,
    verify_relation,
)
from .dedekind import determinant_check
from .scans import (
    DichotomyContradictionError,
    DichotomyVerdict,
    InconclusiveClassificationError,
    ScanReport,
    ScanStore,
    bbw_function,
    dichotomy,
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
    "classify_zero",
    "const",
    "construct_relation",
    "decompose_l1",
    "dichotomy",
    "determinant_check",
    "enumerate_characters",
    "enumerate_relations",
    "find_integer_relation",
    "fold_index",
    "l1",
    "lll_reduce",
    "log_2sin",
    "relation_lattice_rank",
    "scan",
    "unit_group_structure",
    "verify_relation",
]
