"""Quaternary sequence construction and serialization."""

from collections import namedtuple

from .cyclotomy import CyclotomicSystem

_DIGIT_FOR = {
    "R": 2, "Q": 2,   # u in Q union R
    "P": 0,           # u in P
    "D0": 0, "D1": 1, "D2": 2, "D3": 3,
}


class QuaternarySequence(namedtuple("QuaternarySequence", "period digits")):
    """One period of Z4 digits."""

    __slots__ = ()

    def __new__(cls, period, digits):
        if len(digits) != period:
            raise ValueError(f"{len(digits)} digits for period {period}")
        if any(d not in (0, 1, 2, 3) for d in digits):
            raise ValueError("digits must lie in Z4")
        return super().__new__(cls, period, digits)


def generate(system: CyclotomicSystem) -> QuaternarySequence:
    """Digit e_u = 2 on Q union R, 0 on P, i on D_i; period pq."""
    return QuaternarySequence(
        period=system.pq,
        digits=tuple(_DIGIT_FOR[lab] for lab in system.class_of),
    )


def to_text(seq: QuaternarySequence) -> str:
    """Single line of digit characters with a trailing newline."""
    return "".join(str(d) for d in seq.digits) + "\n"


def to_csv(seq: QuaternarySequence) -> str:
    lines = ["index,digit"]
    lines.extend(f"{u},{d}" for u, d in enumerate(seq.digits))
    return "\n".join(lines) + "\n"
