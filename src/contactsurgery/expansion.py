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
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    InvalidCoefficient,
    NotRealizable,
    OutOfRange,
    UnsupportedCoefficient,
    quote,
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

    # The `Expansion` that built this presentation, whose linking matrix
    # it shares.  Not a field: equality, hash and repr ignore it, and
    # dataclasses.replace makes a presentation without it.
    _expansion = None

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
            f"(tb, rot) = ({quote(knot.tb)}, {quote(knot.rot)}): tb + rot "
            "is even; a Legendrian knot in the 3-sphere has tb + rot odd"
        )


class Expansion:
    """The presentations of contact r-surgery on a knot, as a lazy,
    read-only sequence.

    Chain link j is a pushoff of its predecessor (of the knot, for the
    first) with k_j = a_j - 2 stabilizations, p_j of them positive, so its
    tb is fixed and its rot is the predecessor's plus 2 p_j - k_j.  A
    presentation is one choice of p_0, ..., p_m, read as a mixed-radix
    number with p_0 most significant: the order is lexicographic over
    stabilization sign sequences with '-' < '+', and the all-negative
    presentation comes first.

    Every presentation has the same tbs and coefficients, so all of them
    share one `LinkingMatrix`, `matrix`, built on first use, and its
    factorization is run at most once.  `count` = prod(a_j - 1) is an
    int; `len` raises OverflowError past sys.maxsize, as for a range.
    Iteration extends each prefix of choices in turn, so the next
    presentation rebuilds only the links after the last choice that
    changed; an int index builds its presentation in O(links), and a
    slice returns a tuple.
    """

    def __init__(self, knot: LegendrianKnot, terms: tuple[int, ...], plus_one: bool):
        self.knot = knot
        self.terms = terms
        self.head = (Component(knot, 1),) if plus_one else ()
        # Per chain link: its tb and its number of stabilizations.
        links, tb = [], knot.tb
        for a in terms:
            tb -= a - 2
            links.append((tb, a - 2))
        self._links = tuple(links)
        self.count = math.prod(a - 1 for a in terms)
        self.tbs = tuple([c.legendrian.tb for c in self.head] + [tb for tb, _ in links])

    @cached_property
    def matrix(self) -> LinkingMatrix:
        """The linking matrix of every presentation."""
        # Imported here, so that listing presentations does not load linalg.
        from .linalg import LinkingMatrix

        coefficients = [c.coefficient for c in self.head] + [-1] * len(self._links)
        return LinkingMatrix.of_pushoffs(self.tbs, coefficients)

    @property
    def stabilizations(self) -> tuple[int, ...]:
        """k_j, the stabilizations of chain link j in every presentation."""
        return tuple(k for _, k in self._links)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        links = self._links
        plus = [0] * len(links)
        rots = [self.knot.rot] * (len(links) + 1)
        chain = [None] * len(links)
        movable = [j for j, (_, k) in enumerate(links) if k]
        start = 0
        while True:
            yield self._build(chain, rots, plus, start)
            # The next mixed-radix number: the last link that has a further
            # choice takes it, and the links after it start over.
            for start in reversed(movable):
                if plus[start] < links[start][1]:
                    plus[start] += 1
                    break
                plus[start] = 0
            else:
                return

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(*index.indices(self.count))))
        i = operator.index(index)
        if i < 0:
            i += self.count
        if not 0 <= i < self.count:
            raise IndexError("Expansion index out of range")
        links = self._links
        plus = [0] * len(links)
        for j in reversed(range(len(links))):
            if links[j][1]:
                i, plus[j] = divmod(i, links[j][1] + 1)
        return self._build([None] * len(links), [self.knot.rot] * (len(links) + 1), plus, 0)

    def _build(self, chain, rots, plus, start) -> ContactSurgeryPresentation:
        # Links before `start` are those of the previous presentation; link j
        # starts from its predecessor's rot, rots[j], in O(1).
        links, knot_type = self._links, self.knot.knot_type
        for j in range(start, len(chain)):
            tb, k = links[j]
            p = plus[j]
            rots[j + 1] = rot = rots[j] + 2 * p - k
            chain[j] = Component(LegendrianKnot(tb, rot, knot_type), -1, k - p, p)
        presentation = ContactSurgeryPresentation(self.head + tuple(chain))
        object.__setattr__(presentation, "_expansion", self)
        return presentation


def _chain_terms(r) -> tuple[bool, tuple[int, ...]]:
    """Whether contact r-surgery has a +1 head, and the continued fraction
    terms of its chain."""
    r = Fraction(r)
    if r == 0:
        raise InvalidCoefficient("surgery coefficient 0 is not allowed")
    if 0 < r < 1:
        # r is not printed: its digits may exceed int-to-str's limit.
        raise UnsupportedCoefficient("coefficients in (0, 1) are not supported")
    if r < 0:
        # The chain starts at a pushoff of the knot, which copies (tb, rot).
        return False, negative_continued_fraction(1 - r)
    if r == 1:
        return True, ()
    residual = Fraction(r.numerator, r.denominator - r.numerator)
    return True, negative_continued_fraction(1 - residual)


def expand(knot: LegendrianKnot, r) -> Expansion:
    """All (+1)/(-1) presentations of contact r-surgery on the given knot.

    r must be a nonzero rational with r < 0 or r >= 1.  The result is a
    lazy `Expansion`, ordered lexicographically over stabilization sign
    sequences with '-' < '+', so the all-negative presentation comes
    first; its `count` is the product of (a_i - 1) over the continued
    fraction terms.
    """
    _require_realizable(knot)
    plus_one, terms = _chain_terms(r)
    return Expansion(knot, terms, plus_one)


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
