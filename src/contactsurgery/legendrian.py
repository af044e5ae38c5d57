"""Classical-invariant calculus for Legendrian and transverse knots.

All records use Seifert-framing coordinates: the contact framing of a
Legendrian knot equals its Thurston-Bennequin number tb.  The sign
convention is fixed so that a negative stabilization lowers rot by one,
which makes sl = tb - rot invariant under negative stabilization.

InvariantStatus is the status of a knot's invariant at one framing, as
the ledger records it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import NotRealizable, quote

# knot_type fields hold a catalog.KnotType; the annotations are never
# evaluated, so this module does not import catalog.

NEGATIVE = "-"
POSITIVE = "+"


class InvariantStatus(enum.Enum):
    ZERO = "Zero"
    NONZERO = "NonZero"
    UNKNOWN = "Unknown"


@dataclass(frozen=True, order=True)
class Framing:
    """A framing written as f_S + offset relative to the Seifert framing."""

    offset: int

    def __str__(self) -> str:
        return f"f_S{self.offset:+d}"


@dataclass(frozen=True)
class LegendrianKnot:
    """An oriented Legendrian knot remembered by (tb, rot).  Every Legendrian
    knot in the 3-sphere has tb + rot odd, and no other pair is built."""

    tb: int
    rot: int
    knot_type: KnotType | None = None

    def __post_init__(self) -> None:
        if (self.tb + self.rot) % 2 == 0:
            raise NotRealizable(
                f"(tb, rot) = ({quote(self.tb)}, {quote(self.rot)}): tb + rot "
                "is even; a Legendrian knot in the 3-sphere has tb + rot odd"
            )


@dataclass(frozen=True)
class TransverseKnot:
    """A transverse knot remembered by its self-linking number."""

    sl: int
    knot_type: KnotType | None = None

    def __post_init__(self) -> None:
        # Knots in the 3-sphere have odd self-linking number.
        if self.sl % 2 != 1:
            raise ValueError(f"self-linking number must be odd, got {quote(self.sl)}")


def stabilize(knot: LegendrianKnot, sign: str) -> LegendrianKnot:
    """Stabilize once: tb drops by 1, rot moves by -1 ('-') or +1 ('+')."""
    if sign not in (NEGATIVE, POSITIVE):
        raise ValueError(f"stabilization sign must be '+' or '-', got {sign!r}")
    step = -1 if sign == NEGATIVE else 1
    return LegendrianKnot(knot.tb - 1, knot.rot + step, knot.knot_type)

