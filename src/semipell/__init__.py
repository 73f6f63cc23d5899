"""Semi-m-Pell compositions: counting, enumeration, structure checks.

The library works with two families of the same size.  Semi-m-Pell
compositions are compositions whose parts have pairwise distinct,
unimodal max m-powers; run forms are weakly unimodal compositions into
powers of m where each part size occupies one contiguous run whose
length is not divisible by m.  Counting, exhaustive generation, the
part-to-run bijection, a generating-series engine and a collection of
congruence sweeps all live in their own modules and share only exact
integer arithmetic.
"""

from .bijection import from_oc, roundtrip_check, to_oc
from .congruence import (
    check_mod3,
    check_mod4_base,
    check_mod4_general,
    check_ob_parity,
    check_oddness,
    check_partial_sum_mod3,
    check_special_cases,
    count_two_size_odd_partitions,
)
from .core import (
    NOT_DISTINCT,
    NOT_UNIMODAL,
    SearchBoundExceeded,
    is_semi_m_pell,
    max_m_power,
    membership_failure,
    runform_failure,
    runform_parts,
    tau1,
    tau2,
    tau3,
    validate_runform,
)
from .enumeration import (
    ENUMERATION_LIMIT,
    enumerate_oc,
    enumerate_sp,
    oracle_agreement,
    oracle_oc,
    oracle_sp,
)
from .recurrence import check_plateau_identity, check_scaling_identity, sp, sp_table
from .report import CongruenceReport
from .series import functional_equation_residual, qm_peak_terms, qm_series

__version__ = "0.1.0"

__all__ = [
    "CongruenceReport",
    "ENUMERATION_LIMIT",
    "NOT_DISTINCT",
    "NOT_UNIMODAL",
    "SearchBoundExceeded",
    "check_mod3",
    "check_mod4_base",
    "check_mod4_general",
    "check_ob_parity",
    "check_oddness",
    "check_partial_sum_mod3",
    "check_plateau_identity",
    "check_scaling_identity",
    "check_special_cases",
    "count_two_size_odd_partitions",
    "enumerate_oc",
    "enumerate_sp",
    "from_oc",
    "functional_equation_residual",
    "is_semi_m_pell",
    "max_m_power",
    "membership_failure",
    "oracle_agreement",
    "oracle_oc",
    "oracle_sp",
    "qm_peak_terms",
    "qm_series",
    "roundtrip_check",
    "runform_failure",
    "runform_parts",
    "sp",
    "sp_table",
    "tau1",
    "tau2",
    "tau3",
    "to_oc",
    "validate_runform",
]
