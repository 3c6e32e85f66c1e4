"""Solvability tests, Newton root lifting and canonical unit
decompositions for x^q = a over the p-adic numbers.

Importing the package loads no submodule: each name of __all__ loads the
submodule that defines it on first use, so a process pays only for the
modules it reaches.
"""

from importlib import import_module

# every exported name and the submodule that defines it, in __all__ order
_SOURCES = {
    "PAdic": "padic_core",
    "PrecisionError": "padic_core",
    "parse_value": "padic_core",
    "CongruenceSolution": "congruence",
    "euler_phi": "congruence",
    "find_primitive_root": "congruence",
    "index": "congruence",
    "int_valuation": "congruence",
    "is_prime": "congruence",
    "is_qth_residue": "congruence",
    "power_residue_solve": "congruence",
    "solve_linear": "congruence",
    "binom_valuation_kummer": "multinomial",
    "compute_Nk": "multinomial",
    "nk_sequence": "multinomial",
    "ntilde_pk": "multinomial",
    "Decomposition": "representation",
    "classify": "representation",
    "classify_coprime": "representation",
    "classify_p": "representation",
    "derived_epsilon_set": "representation",
    "epsilon_set": "representation",
    "find_nonresidue_unit": "representation",
    "j_no_solution_table": "representation",
    "verify_c1": "representation",
    "LiftContradictionError": "roots",
    "RootSet": "roots",
    "Verdict": "roots",
    "check_qp": "roots",
    "decide": "roots",
    "lift_root": "roots",
    "lift_roots": "roots",
    "solve": "roots",
}

__version__ = "0.1.0"

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    """An exported name, read from its submodule and kept as a package
    attribute, so that this runs once per name."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
