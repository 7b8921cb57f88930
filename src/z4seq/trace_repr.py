"""Trace-form evaluation of the quaternary digits over GR(4, 4^ell).

With ell the order of 2 modulo pq and beta the canonical primitive pq-th
root of unity, each digit is a Z4 combination of trace values of beta
powers.  The conjugate orbits are pure beta powers (exponents multiplied by
powers of 2), so every trace term reduces to table lookups.  The orbits are
found by walking each class under its Frobenius step (`analysis.orbits`),
and must tile it exactly once; that, the ring degree and the degree the
inner trace needs are verified up front and reported on failure.

The form is evaluated on a whole vector of indices u at once from the one
checked power table that `trace_params` builds (packed ints, see
`galois.GaloisRing.pack`).  Each class carries its coefficient a*rho + b
from `cyclotomy.class_coefficients` on the set sum of beta^(uw) over its
orbits (R's orbit is {0}), so each digit is rho A(u) + B(u): A sums the
set sums with the weights a, B with the Z4 weights b.  `analysis.coset_sums`
gives the set sums at one u per 2-cyclotomic coset; weighted into (A, B),
they are carried to 2u by the Frobenius map (`analysis.walk_cosets`).
rho, which the map does not fix, multiplies A afterwards, one packed product
per u.
"""

from collections import namedtuple

from .analysis import coset_sums, orbits, power_table, rho_value, walk_cosets
from .cyclotomy import CASE1, D_LABELS, CyclotomicSystem, case_two_class, class_coefficients
from .errors import NonConstantResult, TraceFormulaPreconditionFailed
from .galois import GaloisRing, GrElement, is_constant
from .numtheory import mult_order
from .sequence import generate


class TraceParams(namedtuple("TraceParams", (
        "ell ell_p ell_q epsilon rho q_orbits p_orbits d_orbits powers"))):
    """Trace-form parameters plus the precomputed conjugate-orbit exponents.

    epsilon is 1 or 2 in Case1 and None in Case2 (the inner trace descends
    to degree 4).  q_orbits are the exponent orbits under u -> 2u through
    the multiples of p (class P), p_orbits those through the multiples of
    q (class Q), d_orbits per class i the orbits under u -> 2^epsilon u
    (2^4 in Case2), powers the checked packed table of beta, and rho is
    packed, as `analysis.rho_value` returns it.
    """

    __slots__ = ()


def _flat(orbs) -> list:
    return [w for orbit in orbs for w in orbit]


def _tiling_orbits(system: CyclotomicSystem, label: str, step: int) -> tuple:
    """The orbits of u -> step*u through class `label`, which they must tile."""
    members = system.classes[label]
    found = orbits(system.pq, members, step)
    if sorted(_flat(found)) != sorted(members):
        raise TraceFormulaPreconditionFailed(
            f"conjugate orbits do not tile {label} exactly once")
    return tuple(found)


def trace_params(system: CyclotomicSystem, ring: GaloisRing,
                 beta: GrElement) -> TraceParams:
    """Compute orders, epsilon and orbit tables; verify each precondition."""
    p, q, n = system.p, system.q, system.pq
    ell = mult_order(2, n)
    ell_p = mult_order(2, p)
    ell_q = mult_order(2, q)
    if ring.r != ell:
        raise TraceFormulaPreconditionFailed(
            f"ring degree {ring.r} != ord of 2 mod {n} = {ell}")

    if system.case == CASE1:
        epsilon = case_two_class(system) // 2 + 1  # 2^epsilon: least power of 2 in D0
    else:
        epsilon = None
    eps_eff = epsilon or 4
    if ell % eps_eff != 0:
        raise TraceFormulaPreconditionFailed(
            f"inner trace needs {eps_eff} | ell, but ell = {ell}")
    step = pow(2, eps_eff, n)
    d_orbits = tuple(_tiling_orbits(system, lab, step) for lab in D_LABELS)
    q_orbits = _tiling_orbits(system, "P", 2)
    p_orbits = _tiling_orbits(system, "Q", 2)
    if epsilon is None:
        case_two_class(system)  # Case1 checked it for epsilon above

    pows = power_table(beta, n)
    return TraceParams(ell=ell, ell_p=ell_p, ell_q=ell_q, epsilon=epsilon,
                       rho=rho_value(system, beta, pows), q_orbits=q_orbits,
                       p_orbits=p_orbits, d_orbits=d_orbits, powers=pows)


def _trace_values(system: CyclotomicSystem, ring: GaloisRing, params: TraceParams,
                  us) -> list:
    """The trace form at each index u, packed and reduced."""
    orbit_sets = {"R": ((0,),), "P": params.q_orbits, "Q": params.p_orbits}
    orbit_sets.update(zip(D_LABELS, params.d_orbits))
    table = class_coefficients(system)
    sets = [_flat(orbit_sets[label]) for label in table]
    weights = tuple(zip(*table.values()))  # the a of each class, then the b
    out = walk_cosets(ring, [
        (coset, tuple(sum(w * v for w, v in zip(column, sums)) & ring.mask
                      for column in weights))
        for coset, sums in coset_sums(ring, params.powers, us, sets)])
    return [(ring.mul(params.rho, a) + b) & ring.mask for a, b in (out[u] for u in us)]


def check_trace_repr(system: CyclotomicSystem, ring: GaloisRing, beta: GrElement,
                     params: TraceParams):
    """(ok, first_mismatch): exhaustive digit-for-digit comparison.

    params is `trace_params(system, ring, beta)`, whose power table the form
    reads.  The first failing index decides: NonConstantResult if the form
    leaves Z4 there, else that index is returned as the first mismatch.
    """
    values = _trace_values(system, ring, params, range(system.pq))
    for u, (value, digit) in enumerate(zip(values, generate(system).digits)):
        if value != digit:
            if not is_constant(value):
                raise NonConstantResult(
                    f"trace form at u={u} is not in Z4: GrElement{ring.digits(value)}")
            return False, u
    return True, None
