"""Expansion of rational contact surgery coefficients into (+1)/(-1) chains.

A contact r-surgery on a Legendrian knot is traded for a chain of
contact (-1)-surgeries (plus a single (+1)-surgery when r >= 1) through
the negative continued fraction expansion of 1 - r.  Each chain link is
a pushoff of its predecessor carrying a prescribed number of
stabilizations; enumerating the stabilization sign choices produces the
whole set of presentations, all-negative choice first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidCoefficient,
    NotRealizable,
    OutOfRange,
    UnsupportedCoefficient,
)
from .legendrian import (
    NEGATIVE,
    POSITIVE,
    Framing,
    LegendrianKnot,
    stabilize_many,
)

ROLE_PLUS_ONE = "originalPlusOne"
ROLE_CHAIN = "chainLink"


# The most terms a negative continued fraction may have.  Contact r-surgery
# for r = 10**400 or r = -10**-30 would expand along about 10**400 or 10**30.
TERMS_CAP = 10**6


def negative_continued_fraction(x) -> tuple[int, ...]:
    """Terms a_0, ..., a_m >= 2 with x = a_0 - 1/(a_1 - 1/(... - 1/a_m)).

    The expansion with all terms >= 2 exists and is unique exactly for
    rational x > 1; the leading term is ceil(x).  An expansion longer
    than TERMS_CAP terms raises OutOfRange before it is built.
    """
    x = Fraction(x)
    if x <= 1:
        raise OutOfRange(f"negative continued fraction needs x > 1, got {x}")
    # x = p / q.  After the term a = ceil(x) comes 1 / (a - x) = 1 + 1/y with
    # y = r / d, r = a q - p, d = q - r; it starts with floor(y) terms 2, and
    # after them x = 1 + d / (r mod d).  The expansion ends where r mod d = 0
    # (r = 0 when x = a).  So a step costs one division, and each run of twos
    # is counted before it is written out.
    p, q = x.numerator, x.denominator
    terms = []
    while True:
        a = -(-p // q)
        r = a * q - p
        d = q - r
        twos, rest = divmod(r, d)
        if len(terms) + 1 + twos > TERMS_CAP:
            # x is not printed: its digits may exceed int-to-str's limit.
            raise OutOfRange(
                f"the negative continued fraction has more than {TERMS_CAP} terms"
            )
        terms += [a] + [2] * twos
        if rest == 0:
            return tuple(terms)
        p, q = rest + d, rest


def evaluate_continued_fraction(terms) -> Fraction:
    """Evaluate [a_0, ..., a_m] = a_0 - 1/(a_1 - 1/(... - 1/a_m))."""
    if not terms:
        raise ValueError("empty continued fraction")
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a - 1 / value
    return value


@dataclass(frozen=True)
class Component:
    """One link component of a surgery presentation.

    Stabilizations commute, so a component stores how many of each sign it
    carries.  Its role follows from the coefficient: the one +1 is on the
    original knot, and every -1 is a chain link.
    """

    legendrian: LegendrianKnot
    coefficient: int
    negative_stabs: int = 0
    positive_stabs: int = 0

    def __post_init__(self) -> None:
        if self.coefficient not in (1, -1):
            raise ValueError("contact coefficient must be +1 or -1")
        if self.negative_stabs < 0 or self.positive_stabs < 0:
            raise ValueError("stabilization counts must be non-negative")

    @property
    def role(self) -> str:
        """ROLE_PLUS_ONE for the +1 coefficient, ROLE_CHAIN for -1."""
        return ROLE_PLUS_ONE if self.coefficient == 1 else ROLE_CHAIN

    @property
    def stab_signs(self) -> tuple[str, ...]:
        """The stabilization signs, negatives first."""
        return (NEGATIVE,) * self.negative_stabs + (POSITIVE,) * self.positive_stabs


@dataclass(frozen=True)
class ContactSurgeryPresentation:
    """An ordered chain of components presenting a contact surgery.

    At most one component carries the +1 coefficient; it precedes the
    chain, and every chain link is a pushoff of its predecessor.
    """

    components: tuple[Component, ...] = ()
    overtwisted: bool = False

    def __post_init__(self) -> None:
        plus_ones = [i for i, c in enumerate(self.components) if c.coefficient == 1]
        if len(plus_ones) > 1:
            raise ValueError("at most one +1 component is allowed")
        if plus_ones and plus_ones[0] != 0:
            raise ValueError("the +1 component must precede the chain")

    def tb_rot_profile(self) -> tuple[tuple[int, int], ...]:
        return tuple((c.legendrian.tb, c.legendrian.rot) for c in self.components)


def _require_realizable(knot: LegendrianKnot) -> None:
    # Not in LegendrianKnot itself: placeholders such as the ledger's
    # (max_tb, 0) carry only tb.
    if (knot.tb + knot.rot) % 2 == 0:
        raise NotRealizable(
            f"(tb, rot) = ({knot.tb}, {knot.rot}): tb + rot is even; a Legendrian "
            "knot in the 3-sphere has tb + rot odd"
        )


def _chain_presentations(
    base: LegendrianKnot,
    one_minus_r: Fraction,
    prefix: tuple[Component, ...],
) -> tuple[ContactSurgeryPresentation, ...]:
    # Link by link over the continued fraction terms.  A link depends on its
    # prefix only through the previous knot: k stabilizations, plus of them
    # positive, so tb - k and rot + plus - (k - plus) as in stabilize, in O(1).
    # Stabilizations commute, so a level's choices are the counts
    # plus = 0..k, and a link stores (k - plus, plus) in O(1).  Each prefix
    # is extended by its choices in turn: lexicographic order, '-' < '+'.
    chains = [(list(prefix), base)]
    for a in negative_continued_fraction(one_minus_r):
        k = a - 2
        grown = []
        for links, last in chains:
            for plus in range(k + 1):
                knot = LegendrianKnot(last.tb - k, last.rot + 2 * plus - k, last.knot_type)
                # Other choices copy the prefix list, the last takes it over:
                # no list is shared, and a level with one choice (a = 2)
                # copies nothing, so a long chain such as r = -1/N stays O(links).
                extended = links if plus == k else links.copy()
                extended.append(Component(knot, -1, k - plus, plus))
                grown.append((extended, knot))
        chains = grown
    return tuple(ContactSurgeryPresentation(tuple(links)) for links, _ in chains)


def expand(knot: LegendrianKnot, r) -> tuple[ContactSurgeryPresentation, ...]:
    """All (+1)/(-1) presentations of contact r-surgery on the given knot.

    r must be a nonzero rational with r < 0 or r >= 1.  The result is
    ordered lexicographically over stabilization sign sequences with
    '-' < '+', so the all-negative presentation comes first; its length
    is the product of (a_i - 1) over the continued fraction terms.
    """
    _require_realizable(knot)
    r = Fraction(r)
    if r == 0:
        raise InvalidCoefficient("surgery coefficient 0 is not allowed")
    if 0 < r < 1:
        # r is not printed: its digits may exceed int-to-str's limit.
        raise UnsupportedCoefficient("coefficients in (0, 1) are not supported")
    if r < 0:
        # The chain starts at a pushoff of the knot, which copies (tb, rot).
        return _chain_presentations(knot, 1 - r, prefix=())
    plus_one = Component(knot, 1)
    if r == 1:
        return (ContactSurgeryPresentation((plus_one,)),)
    residual = Fraction(r.numerator, r.denominator - r.numerator)
    return _chain_presentations(knot, 1 - residual, prefix=(plus_one,))


def all_negative_presentation(
    knot: LegendrianKnot, n: int
) -> ContactSurgeryPresentation:
    """The all-negative member of expand(knot, n) for a positive integer n.

    One (+1)-surgery on the knot plus (n - 1) copies of its negative
    stabilization; for n = 1 there is no chain.
    """
    _require_realizable(knot)
    if n < 1:
        raise InvalidCoefficient(f"integer coefficient must be >= 1, got {n}")
    components = [Component(knot, 1)]
    if n > 1:
        # One stabilized pushoff, then unstabilized parallel copies of it,
        # matching the chain produced by expand(knot, n).
        stabilized = stabilize_many(knot, (NEGATIVE,))
        components.append(Component(stabilized, -1, 1))
        for _ in range(n - 2):
            components.append(Component(stabilized, -1))
    return ContactSurgeryPresentation(tuple(components))


def presentation_for_framing(
    knot: LegendrianKnot, framing: Framing
) -> ContactSurgeryPresentation:
    """Presentation of the canonical contact structure on surgery with the
    given framing, built from the all-negative stabilization choice.

    For framings f <= tb the result is known to be overtwisted and is
    flagged as such; the knot is first stabilized down to tb = f - 1.
    """
    _require_realizable(knot)
    f = framing.offset
    if f > knot.tb:
        return all_negative_presentation(knot, f - knot.tb)
    drop = knot.tb - (f - 1)
    stabilized = stabilize_many(knot, (NEGATIVE,) * drop)
    base = all_negative_presentation(stabilized, 1)
    return ContactSurgeryPresentation(base.components, overtwisted=True)


@dataclass(frozen=True)
class Slope:
    """Boundary slope of a convex torus, reduced, with -infinity allowed."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator < 0:
            raise ValueError("denominator must be non-negative")
        if self.denominator == 0:
            if abs(self.numerator) != 1:
                raise ValueError("infinite slope stores numerator +1 or -1")
        elif math.gcd(abs(self.numerator), self.denominator) != 1:
            raise ValueError("slope must be in lowest terms")

    @property
    def is_infinite(self) -> bool:
        return self.denominator == 0

    def __str__(self) -> str:
        if self.is_infinite:
            return "-inf" if self.numerator < 0 else "+inf"
        return f"{self.numerator}/{self.denominator}"


def _twist(num: int, den: int, h: int) -> tuple[int, int]:
    # Slope change under h meridional twists of the solid torus.
    new_num, new_den = num, den + num * h
    if new_den < 0:
        new_num, new_den = -new_num, -new_den
    g = math.gcd(abs(new_num), abs(new_den))
    if g:
        new_num //= g
        new_den //= g
    return new_num, new_den


def normalize_slope(n: int) -> Slope:
    """Normalize the integer slope n into (-infinity, -1], giving -n/(n-1).

    For n = 1 the normalized slope is -infinity, encoded as -1/0.
    """
    if n < 1:
        raise ValueError(f"slope normalization expects n >= 1, got {n}")
    for h in range(0, -4, -1):
        num, den = _twist(n, 1, h)
        if den == 0:
            # The -infinity end of the normalization range (n = 1 case).
            return Slope(-1, 0)
        if Fraction(num, den) <= -1:
            return Slope(num, den)
    raise AssertionError("slope normalization did not terminate")


def gluing_pullback(n: int) -> tuple[int, int]:
    """Pull the meridional direction (0, 1) back through the surgery gluing.

    The gluing matrix is ((n, -1), (1, 0)); the pullback of (0, 1) is
    (1, n), the dividing-set direction on the solid torus boundary.
    """
    a, b, c, d = n, -1, 1, 0
    det = a * d - b * c
    if det != 1:
        raise AssertionError("gluing matrix must have determinant 1")
    # Inverse of ((a, b), (c, d)) applied to the column (0, 1).
    return (-b, a)
