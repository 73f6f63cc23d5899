"""Semi-m-Pell compositions: counting, enumeration, structure checks.

The library works with two families of the same size.  Semi-m-Pell
compositions are compositions whose parts have pairwise distinct,
unimodal max m-powers; run forms are weakly unimodal compositions into
powers of m where each part size occupies one contiguous run whose
length is not divisible by m.  Counting, exhaustive generation, the
round trip of the part-to-run bijection (whose two maps live in core), a
generating-series engine and a collection of congruence sweeps all live
in their own modules and share only exact integer arithmetic.

Every public name can be read from the package itself (``semipell.sp``,
``from semipell import enumerate_oc``), but ``import semipell`` loads
no submodule: reading a name imports the module that defines it (PEP
562), so a caller pays only for the modules it uses.
"""

__version__ = "0.1.0"

# Each public name, under the module that defines it: the one list of
# the package's surface, from which __all__ and __getattr__ are derived.
_EXPORTS = {
    "bijection": ("check_roundtrip", "roundtrip_check"),
    "congruence": (
        "check_mod3",
        "check_mod4_base",
        "check_mod4_general",
        "check_ob_parity",
        "check_oddness",
        "check_partial_sum_mod3",
        "check_special_cases",
    ),
    "core": (
        "CongruenceReport",
        "SearchBoundExceeded",
        "from_oc",
        "is_semi_m_pell",
        "to_oc",
    ),
    "enumeration": ("enumerate_oc", "enumerate_sp", "oracle_agreement", "oracle_oc", "oracle_sp"),
    "recurrence": ("check_plateau_identity", "check_scaling_identity", "sp", "sp_table"),
    "series": ("check_functional_equation", "functional_equation_residual", "qm_series"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines a public name, on its first read."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
