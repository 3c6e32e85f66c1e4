"""Solvability tests, Newton root lifting and canonical unit
decompositions for x^q = a over the p-adic numbers."""

from .congruence import (
    CongruenceSolution,
    IndexValue,
    euler_phi,
    find_primitive_root,
    index,
    int_valuation,
    is_prime,
    is_qth_residue,
    power_residue_solve,
    solve_linear,
)
from .multinomial import (
    NkTerm,
    binom_valuation_kummer,
    compute_Nk,
    multinomial_coeff,
    nk_dichotomy,
    nk_sequence,
    nk_terms,
    ntilde_pk,
)
from .padic_core import PAdic, PrecisionError, parse_value
from .representation import (
    Decomposition,
    classify_coprime,
    classify_p,
    derived_epsilon_set,
    epsilon_set,
    find_nonresidue_unit,
    j_no_solution_table,
    verify_c1,
)
from .roots import (
    LiftContradictionError,
    RootSet,
    Verdict,
    check_qp,
    decide,
    lift_root,
    lift_roots,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "PAdic",
    "PrecisionError",
    "parse_value",
    "CongruenceSolution",
    "IndexValue",
    "euler_phi",
    "find_primitive_root",
    "index",
    "int_valuation",
    "is_prime",
    "is_qth_residue",
    "power_residue_solve",
    "solve_linear",
    "NkTerm",
    "binom_valuation_kummer",
    "compute_Nk",
    "multinomial_coeff",
    "nk_dichotomy",
    "nk_sequence",
    "nk_terms",
    "ntilde_pk",
    "Decomposition",
    "classify_coprime",
    "classify_p",
    "derived_epsilon_set",
    "epsilon_set",
    "find_nonresidue_unit",
    "j_no_solution_table",
    "verify_c1",
    "LiftContradictionError",
    "RootSet",
    "Verdict",
    "check_qp",
    "decide",
    "lift_root",
    "lift_roots",
    "solve",
    "__version__",
]
