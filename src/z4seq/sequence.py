"""Quaternary sequence construction and serialization."""

from dataclasses import dataclass

from .cyclotomy import CyclotomicSystem

_DIGIT_FOR = {
    "R": 2, "Q": 2,   # u in Q union R
    "P": 0,           # u in P
    "D0": 0, "D1": 1, "D2": 2, "D3": 3,
}


@dataclass(frozen=True)
class QuaternarySequence:
    """One period of Z4 digits."""

    period: int
    digits: tuple

    def __post_init__(self):
        if len(self.digits) != self.period:
            raise ValueError(f"{len(self.digits)} digits for period {self.period}")
        if any(d not in (0, 1, 2, 3) for d in self.digits):
            raise ValueError("digits must lie in Z4")


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
