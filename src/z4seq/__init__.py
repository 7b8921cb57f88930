"""Quaternary sequences over Z4 from order-four generalized cyclotomy.

Construction of the residue-class systems modulo pq, sequence generation,
Galois-ring GR(4, 4^r) arithmetic, defining polynomials via the ring DFT,
closed-form and oracle linear complexity, and trace-form verification.
"""

from .analysis import (
    AnalysisReport,
    DefiningPolynomial,
    admissible_pairs,
    analyze,
    defining_poly_formula,
    dft,
    lc_by_count,
    lc_by_theorem,
    power_table,
    rho_value,
    verify_identities,
)
from .cyclotomy import (
    CASE1,
    CASE2,
    CyclotomicSystem,
    build_system,
    classify,
    count_solutions,
)
from .galois import GaloisRing, GrElement, R_MAX, is_constant, make_ring, root_of_unity
from .lfsr import LfsrResult, reeds_sloane, snf_min_length, solvable_z4
from .numtheory import (
    common_primitive_root,
    crt_pair,
    euler_phi,
    factorize,
    is_prime,
    mult_order,
)
from .sequence import QuaternarySequence, generate, to_csv, to_text
from .trace_repr import TraceParams, check_trace_repr, eval_trace_repr, trace_params

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "CASE1", "CASE2", "CyclotomicSystem", "DefiningPolynomial",
    "GaloisRing", "GrElement", "LfsrResult", "QuaternarySequence", "R_MAX",
    "TraceParams", "admissible_pairs", "analyze", "build_system",
    "check_trace_repr", "classify", "common_primitive_root",
    "count_solutions", "crt_pair", "defining_poly_formula", "dft",
    "euler_phi", "eval_trace_repr", "factorize", "generate", "is_constant",
    "is_prime", "lc_by_count", "lc_by_theorem", "make_ring", "mult_order",
    "power_table", "reeds_sloane", "rho_value", "root_of_unity",
    "snf_min_length", "solvable_z4", "to_csv", "to_text", "trace_params",
    "verify_identities",
]
