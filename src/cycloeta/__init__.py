"""cycloeta: exact q-expansions of cyclotomic eta quotients and the
L-series decomposition of eta(7*tau)^7/eta(tau), with independent
verification routes for every computed quantity.

The names below load their submodule on first access, so importing the
package (or one submodule, such as the CLI) loads no module it does not use.
"""

_SOURCES = {
    "analysis": (
        "check_positivity",
        "conjecture_scan",
        "nondecomp_witness",
        "uniqueness_hypotheses",
    ),
    "arith": ("epsilon", "factorize", "sieve_multiplicative"),
    "etaprod": (
        "CORPUS",
        "EtaQuotientSpec",
        "cyclotomic_check",
        "cyclotomic_spec",
        "expand",
    ),
    "lseries": (
        "CoeffTable",
        "IdentityViolation",
        "a_coeff",
        "a_oracle",
        "a_table",
        "b_coeff",
        "b_oracle",
        "b_table",
        "c_table",
        "c_table_from_expansion",
        "euler_truncate",
    ),
    "qseries": ("QSeries",),
    "quadfield": (
        "PI_TWO",
        "QuadInt",
        "hecke_weight",
        "ideals_of_norm",
        "split_rep",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
