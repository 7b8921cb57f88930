"""The paper's closed-form defining polynomial: the reference `analysis.dft` is checked against.

Each coefficient is its exponent's class entry a*rho + b in
`cyclotomy.class_coefficients`, with rho = sum_{i=1..3} i * D_i(beta) from
`analysis.rho_value`; no DFT sum is taken.  Coefficients are packed, as
`analysis.dft` returns them.
"""

from z4seq.analysis import power_table, rho_value
from z4seq.cyclotomy import CyclotomicSystem, class_coefficients
from z4seq.errors import PeriodNotCongruent1Mod4
from z4seq.galois import GaloisRing, GrElement


def defining_poly_formula(system: CyclotomicSystem, ring: GaloisRing,
                          beta: GrElement) -> tuple:
    """Closed-form defining polynomial coefficients: each class's a*rho + b.

    (a, b) is the class's entry in `cyclotomy.class_coefficients`.
    """
    T = system.pq
    if T % 4 != 1:
        raise PeriodNotCongruent1Mod4(f"period {T} = {T % 4} (mod 4)")
    rho = rho_value(system, beta, power_table(beta, T))
    coeff = {label: (a * rho + b) & ring.mask
             for label, (a, b) in class_coefficients(system).items()}
    return tuple(coeff[label] for label in system.class_of)
