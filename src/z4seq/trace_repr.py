"""Trace-form evaluation of the quaternary digits over GR(4, 4^ell).

With ell the order of 2 modulo pq and beta the canonical primitive pq-th
root of unity, each digit is a Z4 combination of trace values of beta
powers.  The conjugate orbits are pure beta powers (exponents multiplied by
powers of 2), so every trace term reduces to table lookups.  The index
ranges must tile the classes exactly once; that and all divisibility
requirements are verified up front and reported on failure.

The form is evaluated on a whole vector of indices u at once from the one
checked (pq, ell) uint8 power table that `trace_params` builds: each orbit
set contributes the row sums of pows[u * w mod pq], and each rho coefficient
multiplies its set sum through its ring multiplication matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .analysis import power_sums, power_table, rho_value
from .cyclotomy import CASE1, CyclotomicSystem
from .errors import (
    InternalCaseError,
    NonConstantResult,
    TraceFormulaPreconditionFailed,
)
from .galois import GaloisRing, GrElement
from .numtheory import mult_order
from .sequence import generate


@dataclass(frozen=True)
class TraceParams:
    """Trace-form parameters plus the precomputed conjugate-orbit exponents."""

    ell: int
    ell_p: int
    ell_q: int
    epsilon: int | None  # 1 or 2 in Case1; None in Case2 (inner trace descends to degree 4)
    rho: GrElement
    q_orbits: tuple = field(repr=False)  # exponent orbits through multiples of p
    p_orbits: tuple = field(repr=False)  # Case2 only, orbits through multiples of q
    d_orbits: tuple = field(repr=False)  # per class i, per (t, j), conjugate exponents
    powers: np.ndarray = field(repr=False, compare=False)  # checked table of beta


def _fail(reason: str):
    raise TraceFormulaPreconditionFailed(reason)


def trace_params(system: CyclotomicSystem, ring: GaloisRing,
                 beta: GrElement) -> TraceParams:
    """Compute orders, epsilon and orbit tables; verify every divisibility."""
    p, q, n, e = system.p, system.q, system.pq, system.e
    ell = mult_order(2, n)
    ell_p = mult_order(2, p)
    ell_q = mult_order(2, q)
    if ring.r != ell:
        _fail(f"ring degree {ring.r} != ord of 2 mod {n} = {ell}")

    if system.case == CASE1:
        two = system.two_class
        if two == 0:
            epsilon = 1
        elif two == 2:
            epsilon = 2
        else:
            raise InternalCaseError(f"Case1 system with 2 in D{two}")
        eps_eff = epsilon
    else:
        epsilon = None
        eps_eff = 4
    if ell % eps_eff != 0:
        _fail(f"inner trace needs {eps_eff} | ell, but ell = {ell}")
    if (e * eps_eff) % (4 * ell) != 0:
        _fail(f"class splitting bound (e*eps)/(4*ell) = {e}*{eps_eff}/{4 * ell} "
              f"is not an integer")
    t_count = e * eps_eff // (4 * ell)
    orbit_len = ell // eps_eff
    step = pow(2, eps_eff, n)

    d_orbits = []
    for i in range(4):
        pairs = []
        atoms = []
        for t in range(t_count):
            for j in range(4):
                w = pow(system.g, 4 * t + i, n) * pow(system.h, j, n) % n
                orbit = []
                for _ in range(orbit_len):
                    orbit.append(w)
                    w = w * step % n
                pairs.append(tuple(orbit))
                atoms.extend(orbit)
        if sorted(atoms) != sorted(system.members(f"D{i}")):
            _fail(f"conjugate orbits do not tile D{i} exactly once")
        d_orbits.append(tuple(pairs))

    def unit_orbits(prime, other, order):
        reps = []
        atoms = []
        for i in range((prime - 1) // order):
            w = pow(system.g, i, n) * other % n
            orbit = []
            for _ in range(order):
                orbit.append(w)
                w = w * 2 % n
            reps.append(tuple(orbit))
            atoms.extend(orbit)
        expected = sorted(k * other % n for k in range(1, prime))
        if sorted(atoms) != expected:
            _fail(f"orbits do not tile the nonzero multiples of {other}")
        return tuple(reps)

    q_orbits = unit_orbits(q, p, ell_q)
    p_orbits = unit_orbits(p, q, ell_p) if system.case != CASE1 else ()

    pows = power_table(beta, n)
    return TraceParams(ell=ell, ell_p=ell_p, ell_q=ell_q, epsilon=epsilon,
                       rho=rho_value(system, beta, pows), q_orbits=q_orbits,
                       p_orbits=p_orbits, d_orbits=tuple(d_orbits), powers=pows)


def _flat(orbits) -> list:
    return [w for orbit in orbits for w in orbit]


def _trace_values(system: CyclotomicSystem, ring: GaloisRing, params: TraceParams,
                  pows: np.ndarray, us) -> np.ndarray:
    """(len(us), r) uint8: the trace form at each index u, reduced mod 4."""
    units = params.q_orbits + (params.p_orbits if system.case != CASE1 else ())
    total = 2 * power_sums(pows, us, _flat(units))
    total[:, 0] += 2
    for i in range(4):
        if system.case == CASE1:
            coef = params.rho - ring.scalar(i)
        else:
            coef = params.rho + ring.scalar(2 - i)
        total += power_sums(pows, us, _flat(params.d_orbits[i])) @ ring.mul_matrix(coef.coeffs)
    return total % 4


def _non_constant(ring: GaloisRing, u: int, value) -> NonConstantResult:
    return NonConstantResult(f"trace form at u={u} is not in Z4: {ring.element(value)!r}")


def eval_trace_repr(system: CyclotomicSystem, ring: GaloisRing, beta: GrElement,
                    params: TraceParams, u: int, powers=None) -> int:
    """The Z4 digit produced by the trace form at index u.

    Raises NonConstantResult if the evaluated expression leaves Z4.
    """
    pows = powers if powers is not None else params.powers
    value = _trace_values(system, ring, params, pows, [u])[0]
    if value[1:].any():
        raise _non_constant(ring, u, value)
    return int(value[0])


def check_trace_repr(system: CyclotomicSystem, ring: GaloisRing, beta: GrElement,
                     params: TraceParams | None = None):
    """(ok, first_mismatch): exhaustive digit-for-digit comparison.

    The first failing index decides: NonConstantResult if the form leaves Z4
    there, else that index is returned as the first mismatch.
    """
    if params is None:
        params = trace_params(system, ring, beta)
    n = system.pq
    values = _trace_values(system, ring, params, params.powers, np.arange(n))
    outside = values[:, 1:].any(axis=1)
    failing = outside | (values[:, 0] != np.array(generate(system).digits))
    if not failing.any():
        return True, None
    u = int(failing.argmax())
    if outside[u]:
        raise _non_constant(ring, u, values[u])
    return False, u
