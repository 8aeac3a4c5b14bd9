"""Exact partition-statistic computations and identity verification.

Crank and rank count tables, the ospt function, seven auxiliary families
of partition counts, a registry of generating-function identities checked
by coefficient comparison, and an inequality-scan harness, all on top of
an exact truncated integer power-series engine.
"""

from .enumeration import (
    crank,
    crank_distribution_bruteforce,
    partitions_of,
    rank,
    rank_distribution_bruteforce,
    rank_distribution_dp,
)
from .errors import (
    EmptyPartition,
    InvalidK,
    InvalidParams,
    OrderExceeded,
    RangeError,
    SoftLimitExceeded,
    UnknownIdentity,
    UnknownTheorem,
)
from .families import (
    d_series,
    f_series,
    family_series,
    g_recurrence,
    g_series,
    h_recurrence,
    h_series,
    p_explicit,
    p_series,
    pp_series,
    t_series,
)
from .identities import check_identity, list_identities, list_proof_series, proof_series
from .series import (
    TruncatedSeries,
    first_mismatch,
    inv_pochhammer,
    monomial,
    pochhammer,
)
from .statistics import (
    crank_gf,
    crank_table,
    cumulative,
    ospt,
    partition_numbers,
    rank_table,
)
from .tables import CumulativeTable, DistributionTable
from .theorems import (
    VerifyContext,
    find_threshold,
    list_theorems,
    verify,
    verify_suite,
)

__version__ = "0.1.0"

# The only kernel implementation: exact Python ints throughout.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "TruncatedSeries",
    "monomial",
    "pochhammer",
    "inv_pochhammer",
    "first_mismatch",
    "partitions_of",
    "crank",
    "rank",
    "crank_distribution_bruteforce",
    "rank_distribution_bruteforce",
    "rank_distribution_dp",
    "crank_gf",
    "crank_table",
    "rank_table",
    "cumulative",
    "partition_numbers",
    "ospt",
    "DistributionTable",
    "CumulativeTable",
    "p_series",
    "p_explicit",
    "pp_series",
    "d_series",
    "t_series",
    "f_series",
    "g_series",
    "h_series",
    "g_recurrence",
    "h_recurrence",
    "family_series",
    "check_identity",
    "proof_series",
    "list_identities",
    "list_proof_series",
    "verify",
    "verify_suite",
    "find_threshold",
    "list_theorems",
    "VerifyContext",
    "OrderExceeded",
    "EmptyPartition",
    "SoftLimitExceeded",
    "InvalidK",
    "UnknownIdentity",
    "InvalidParams",
    "UnknownTheorem",
    "RangeError",
    "__version__",
]
