"""Classical-invariant calculus for Legendrian and transverse knots.

All records use Seifert-framing coordinates: the contact framing of a
Legendrian knot equals its Thurston-Bennequin number tb.  The sign
convention is fixed so that a negative stabilization lowers rot by one,
which makes sl = tb - rot invariant under negative stabilization.

A Bennequin-bound violation is a hard error when a knot is constructed
through legendrian_approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import KnotType
from .errors import NotRealizable

NEGATIVE = "-"
POSITIVE = "+"


@dataclass(frozen=True, order=True)
class Framing:
    """A framing written as f_S + offset relative to the Seifert framing."""

    offset: int

    def __str__(self) -> str:
        return f"f_S{self.offset:+d}"


@dataclass(frozen=True)
class LegendrianKnot:
    """An oriented Legendrian knot remembered by (tb, rot)."""

    tb: int
    rot: int
    knot_type: KnotType | None = None


@dataclass(frozen=True)
class TransverseKnot:
    """A transverse knot remembered by its self-linking number."""

    sl: int
    knot_type: KnotType | None = None

    def __post_init__(self) -> None:
        # Knots in the 3-sphere have odd self-linking number.
        if self.sl % 2 != 1:
            raise ValueError(f"self-linking number must be odd, got {self.sl}")


def stabilize(knot: LegendrianKnot, sign: str) -> LegendrianKnot:
    """Stabilize once: tb drops by 1, rot moves by -1 ('-') or +1 ('+')."""
    if sign not in (NEGATIVE, POSITIVE):
        raise ValueError(f"stabilization sign must be '+' or '-', got {sign!r}")
    step = -1 if sign == NEGATIVE else 1
    return LegendrianKnot(knot.tb - 1, knot.rot + step, knot.knot_type)


def stabilize_many(knot: LegendrianKnot, signs) -> LegendrianKnot:
    for sign in signs:
        knot = stabilize(knot, sign)
    return knot


def reverse_orientation(knot: LegendrianKnot) -> LegendrianKnot:
    """Orientation reversal keeps tb and negates rot."""
    return LegendrianKnot(knot.tb, -knot.rot, knot.knot_type)


def transverse_pushoff(knot: LegendrianKnot) -> TransverseKnot:
    """Positive transverse pushoff, sl = tb - rot."""
    return TransverseKnot(knot.tb - knot.rot, knot.knot_type)


def legendrian_approximation(knot: TransverseKnot, tb_cap: int) -> LegendrianKnot:
    """The Legendrian approximation with tb = tb_cap and rot = tb_cap - sl.

    Raises NotRealizable when the requested tb exceeds the recorded
    maximum or when (tb, rot) violates the Bennequin bound
    tb + |rot| <= 2*genus - 1.
    """
    kt = knot.knot_type
    if kt is not None and kt.max_tb is not None and tb_cap > kt.max_tb:
        raise NotRealizable(
            f"tb {tb_cap} exceeds max_tb {kt.max_tb} of {kt.name}"
        )
    rot = tb_cap - knot.sl
    if kt is not None:
        bound = 2 * kt.genus - 1
        if tb_cap + abs(rot) > bound:
            raise NotRealizable(
                f"(tb, rot) = ({tb_cap}, {rot}) violates the Bennequin "
                f"bound tb + |rot| <= {bound} for {kt.name}"
            )
    return LegendrianKnot(tb_cap, rot, kt)
