"""Classical-invariant calculus for Legendrian and transverse knots.

All records use Seifert-framing coordinates: the contact framing of a
Legendrian knot equals its Thurston-Bennequin number tb.  The sign
convention is fixed so that a negative stabilization lowers rot by one,
which makes sl = tb - rot invariant under negative stabilization.  A
framing f_S + k is its integer offset k.  A knot records its classical
invariants only; the knot type of a framed subject is a field of
ledger.LedgerSubject.

InvariantStatus is the status of a knot's invariant at one framing, as
the ledger records it.
"""

from __future__ import annotations

import enum

from .errors import NotRealizable, quote
from .record import Record

NEGATIVE = "-"
POSITIVE = "+"


class InvariantStatus(enum.Enum):
    ZERO = "Zero"
    NONZERO = "NonZero"
    UNKNOWN = "Unknown"


# A framing f_S + k is its offset k; bench/workloads.py still builds Framing(k).
Framing = int


class LegendrianKnot(Record):
    """An oriented Legendrian knot remembered by (tb, rot).  Every Legendrian
    knot in the 3-sphere has tb + rot odd, and no other pair is built."""

    _fields = ("tb", "rot")

    def _check(self) -> None:
        if (self.tb + self.rot) % 2 == 0:
            raise NotRealizable(
                f"(tb, rot) = ({quote(self.tb)}, {quote(self.rot)}): tb + rot "
                "is even; a Legendrian knot in the 3-sphere has tb + rot odd"
            )


class TransverseKnot(Record):
    """A transverse knot remembered by its self-linking number."""

    _fields = ("sl",)

    def _check(self) -> None:
        # Knots in the 3-sphere have odd self-linking number.
        if self.sl % 2 != 1:
            raise NotRealizable(f"self-linking number must be odd, got {quote(self.sl)}")


def stabilize(knot: LegendrianKnot, sign: str) -> LegendrianKnot:
    """Stabilize once: tb drops by 1, rot moves by -1 ('-') or +1 ('+')."""
    if sign not in (NEGATIVE, POSITIVE):
        raise ValueError(f"stabilization sign must be '+' or '-', got {quote(sign)!r}")
    step = -1 if sign == NEGATIVE else 1
    return LegendrianKnot(knot.tb - 1, knot.rot + step)
