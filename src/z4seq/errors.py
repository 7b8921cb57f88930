"""Exception types shared across the package."""


class Z4SeqError(Exception):
    """Base class for all library errors."""


class NotPrime(Z4SeqError):
    """An argument that must be an odd prime is not."""


class EqualPrimes(Z4SeqError):
    """p and q must be distinct."""


class GcdNotFour(Z4SeqError):
    """gcd(p-1, q-1) = 4 is the standing admissibility condition."""


class NotCoprime(Z4SeqError):
    """Multiplicative order requested for a non-unit."""


class DegreeTooLarge(Z4SeqError):
    """Requested Galois-ring extension degree exceeds the configured cap."""


class PeriodNotDividing(Z4SeqError):
    """Root-of-unity order must divide 2^r - 1."""


class PeriodMismatch(Z4SeqError):
    """beta is not a primitive root of unity of the sequence period."""


class PeriodNotCongruent1Mod4(Z4SeqError):
    """Exact DFT inversion without a 1/T factor needs T = 1 (mod 4)."""


class InternalCaseError(Z4SeqError):
    """Class of 2 inconsistent with the residue case (construction bug)."""


class TraceFormulaPreconditionFailed(Z4SeqError):
    """A divisibility or coverage requirement of the trace form failed."""


class NonConstantResult(Z4SeqError):
    """Trace-form evaluation left the prime subring Z4."""
