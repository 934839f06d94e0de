"""Exact double Hurwitz numbers with Toda-lattice identity verification.

Everything is exact rational arithmetic on sparse truncated series; the
character-free permutation oracle cross-checks every number the character
sums produce.
"""

from .characters import CharacterCache, central_character, character, dimension
from .hurwitz import (
    HurwitzRecord,
    build_tau,
    connected_series,
    cov_burnside,
    cov_with_transpositions,
    double_hurwitz,
    hurwitz_table,
    schur_in_power_sums,
    simple_hurwitz,
)
from .oracle import OracleLimitError, compare_all, count_tuples
from .partitions import (
    MayaSet,
    Partition,
    class_size,
    enumerate_partitions,
    f2_contents,
    f2_maya,
    maya_set,
    partitions_of,
    transposition_class,
    z_mu,
)
from .series import ShiftTerm, TruncatedSeries, make_key
from .verify import (
    VerificationReport,
    verify_hirota,
    verify_tau_n,
    verify_toda,
    verify_toda_specialized,
)

__all__ = [
    "CharacterCache",
    "HurwitzRecord",
    "MayaSet",
    "OracleLimitError",
    "Partition",
    "ShiftTerm",
    "TruncatedSeries",
    "VerificationReport",
    "build_tau",
    "central_character",
    "character",
    "class_size",
    "compare_all",
    "connected_series",
    "count_tuples",
    "cov_burnside",
    "cov_with_transpositions",
    "dimension",
    "double_hurwitz",
    "enumerate_partitions",
    "f2_contents",
    "f2_maya",
    "hurwitz_table",
    "make_key",
    "maya_set",
    "partitions_of",
    "schur_in_power_sums",
    "simple_hurwitz",
    "transposition_class",
    "verify_hirota",
    "verify_tau_n",
    "verify_toda",
    "verify_toda_specialized",
    "z_mu",
]

__version__ = "0.1.0"
