"""cycloeta: exact q-expansions of cyclotomic eta quotients and the
L-series decomposition of eta(7*tau)^7/eta(tau), with independent
verification routes for every computed quantity.
"""

from .analysis import (
    check_positivity,
    conjecture_scan,
    nondecomp_witness,
    uniqueness_hypotheses,
)
from .arith import epsilon, factorize, sieve_multiplicative
from .etaprod import (
    CORPUS,
    EtaQuotientSpec,
    cyclotomic_check,
    cyclotomic_spec,
    expand,
)
from .lseries import (
    CoeffTable,
    IdentityViolation,
    a_coeff,
    a_oracle,
    a_table,
    b_coeff,
    b_oracle,
    b_table,
    c_table,
    c_table_from_expansion,
    euler_truncate,
)
from .qseries import QSeries
from .quadfield import (
    PI_TWO,
    EulerFactor,
    QuadInt,
    SplitRep,
    hecke_weight,
    ideals_of_norm,
    split_euler_factor,
    split_rep,
    split_traces,
)

__version__ = "0.1.0"

__all__ = [
    "CORPUS",
    "CoeffTable",
    "EtaQuotientSpec",
    "EulerFactor",
    "IdentityViolation",
    "PI_TWO",
    "QSeries",
    "QuadInt",
    "SplitRep",
    "a_coeff",
    "a_oracle",
    "a_table",
    "b_coeff",
    "b_oracle",
    "b_table",
    "c_table",
    "c_table_from_expansion",
    "check_positivity",
    "conjecture_scan",
    "cyclotomic_check",
    "cyclotomic_spec",
    "epsilon",
    "euler_truncate",
    "expand",
    "factorize",
    "hecke_weight",
    "ideals_of_norm",
    "nondecomp_witness",
    "sieve_multiplicative",
    "split_euler_factor",
    "split_rep",
    "split_traces",
    "uniqueness_hypotheses",
]
