"""Expansion of rational contact surgery coefficients into (+1)/(-1) chains.

A contact r-surgery on a Legendrian knot is traded for a chain of
contact (-1)-surgeries (plus a single (+1)-surgery when r >= 1) through
the negative continued fraction expansion of 1 - r.  Each chain link is
a pushoff of its predecessor carrying a prescribed number of
stabilizations; enumerating the stabilization sign choices produces the
whole set of presentations, all-negative choice first.

The records it builds, `Component` and `ContactSurgeryPresentation`, and
the two roles live in `presentation`, which a diagram reader loads without
this module; they are re-exported here.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import islice

from .errors import InvalidCoefficient, OutOfRange, UnsupportedCoefficient, quote
from .legendrian import NEGATIVE, LegendrianKnot, stabilize
# The records live in `presentation`; this module re-exports all four names.
from .presentation import (  # noqa: F401
    ROLE_CHAIN, ROLE_PLUS_ONE, Component, ContactSurgeryPresentation)
from .record import set_field, unchecked_builder

# The most terms a negative continued fraction may have.  Contact r-surgery
# for r = 10**400 or r = -10**-30 would expand along about 10**400 or 10**30.
TERMS_CAP = 10**6

# The most records one iteration of an `Expansion` keeps for reuse, all of
# them the last link's: its knots, and its recorded runs, each counting as
# its k_m + 1 components once stored.  A component is a few hundred bytes
# (about 1.3 MB when full); a full cache is cleared, so a stream's memory
# stays bounded however long it runs, the one run being recorded on top.
LINK_CACHE_CAP = 4096


def negative_continued_fraction(x) -> tuple[int, ...]:
    """Terms a_0, ..., a_m >= 2 with x = a_0 - 1/(a_1 - 1/(... - 1/a_m)).

    The expansion with all terms >= 2 exists and is unique exactly for
    rational x > 1; the leading term is ceil(x).  An expansion longer
    than TERMS_CAP terms raises OutOfRange before it is built.
    """
    x = Fraction(x)
    if x <= 1:
        raise OutOfRange(f"negative continued fraction needs x > 1, got {quote(x)}")
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


# The builders `Expansion._presentations` uses, which skip `_check`.  Use them
# only where every check is known to pass, and only for a class whose `_check`
# stores nothing.  There the head, checked, comes first, every link's
# coefficient is -1, both counts lie in [0, k], and each link keeps tb + rot
# odd, since it moves tb by -k and rot by 2 p - k.  The tests'
# `reference_expansion` builds the same records through the checked
# constructors.
_UNCHECKED = tuple(map(unchecked_builder, (LegendrianKnot, Component, ContactSurgeryPresentation)))


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
    share one `LinkingMatrix`, factored when built, so its chain kernel
    runs at most once.  `homology.linking_matrix` of any presentation
    returns it: that function builds it on first use, from whichever
    presentation comes first, and keeps it in `_matrix`, which starts at
    None.  `count` = prod(a_j - 1) is an int; `len` raises OverflowError
    past sys.maxsize, as for a range.
    Iteration extends each prefix of choices in turn: an odometer steps
    p_0, ..., p_{m-1}, rebuilding only the links after the last choice
    that changed, and builds that prefix's tuple once; an inner loop then
    walks the last link, p_m from its start to k_m, its rot stepping by 2.
    The last link's run of choices is built only as it is walked, so an
    int index builds its presentation in O(links) even for k_m = 10**400 - 1,
    and a slice builds a tuple, iterating from its start when its step
    is 1.  All take one generator, `_presentations`.

    The odometer builds link j < m, knot and component, each time a choice
    at or before it changes, prod(k_i + 1 for i <= j) times in a full
    iteration, and keeps it only in the prefix.  Only the last link's
    records are kept.  It is walked one of two ways: a prefix that starts
    it from a rot with a recorded run walks that run, and any other builds
    it as it walks.  Its knot at a rot recurs across prefixes, so whenever
    a prefix comes before it (m >= 1) the walk keeps each knot by rot and
    shares it.  Its components depend only on the rot it starts from, so
    with m >= 2 a walk from p_m = 0 also records the run of k_m + 1
    components it built, under that rot.  A one-link expansion keeps
    nothing.  One budget bounds what an iteration keeps: LINK_CACHE_CAP
    records, a knot counting 1 and a run k_m + 1; all of it is cleared
    when the next would not fit.  A run counts once stored, at the end of
    its walk, so a knot may clear the cache while a run is recorded, and
    the one run in progress comes on top of the budget.
    Knots and runs are kept only when k_m + 1 fits the budget, and a run
    only once it is whole, so an int index, which stops after one
    presentation, keeps no run, and a stream holds O(links) memory plus at
    most LINK_CACHE_CAP records and one run.  The generator holds what the
    records' `_check`s would prove, so it builds with the three builders
    this module compiles once, `_UNCHECKED`: `unchecked_LegendrianKnot`,
    `unchecked_Component` and `unchecked_ContactSurgeryPresentation`, which
    run no `_check`.  A presentation costs one tuple and one record, plus
    the last link's component unless it walks a recorded run, and its knot
    unless that is shared; and a knot and a component for each link from
    the last choice that changed on.
    """

    _matrix = None

    def __init__(self, knot: LegendrianKnot, terms: tuple[int, ...], plus_one: bool):
        self.knot = knot
        self.head = (Component(knot, 1),) if plus_one else ()
        # Per chain link: its tb and its number of stabilizations.
        links, tb = [], knot.tb
        for a in terms:
            tb -= a - 2
            links.append((tb, a - 2))
        self._links = tuple(links)
        self.count = math.prod(a - 1 for a in terms)
        self.tbs = tuple([c.legendrian.tb for c in self.head] + [tb for tb, _ in links])

    @property
    def stabilizations(self) -> tuple[int, ...]:
        """k_j, the stabilizations of chain link j in every presentation."""
        return tuple(k for _, k in self._links)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return self._presentations(0)

    def __getitem__(self, index):
        if isinstance(index, slice):
            indices = range(*index.indices(self.count))
            if indices.step == 1 and indices:
                return tuple(islice(self._presentations(indices.start), len(indices)))
            return tuple(next(self._presentations(i)) for i in indices)
        i = operator.index(index)
        if i < 0:
            i += self.count
        if not 0 <= i < self.count:
            raise IndexError("Expansion index out of range")
        return next(self._presentations(i))

    def _presentations(self, i):
        """The presentations in order, from index i (0 <= i < count) on."""
        links, head = self._links, self.head
        knot, component, presentation = _UNCHECKED
        if not links:
            only = presentation(head)
            set_field(only, "_expansion", self)
            yield only
            return
        # The choices p_0, ..., p_m of presentation i: its mixed-radix digits.
        plus = [0] * len(links)
        for j in reversed(range(len(links))):
            if links[j][1]:
                i, plus[j] = divmod(i, links[j][1] + 1)
        m = len(links) - 1
        tb_m, k_m = links[m]
        rots = [self.knot.rot] * (m + 1)
        chain = [None] * m
        # The odometer steps links 0, ..., m - 1; the last link is walked below.
        movable = [j for j, (_, k) in enumerate(links[:m]) if k]
        # What the iteration keeps, `held` records in all (see the class):
        # in `runs`, the rot the last link starts from -> its run of k_m + 1
        # components, counted once stored; in `knots`, a rot -> the last
        # link's knot there.  Both are kept only after a prefix, and only
        # if k_m + 1 fits.
        runs, knots, held, cap = {}, {}, 0, LINK_CACHE_CAP
        share = m > 0 and k_m < cap
        start = 0
        while True:
            # Links before `start` are those of the previous prefix; link j
            # starts from its predecessor's rot, rots[j], in O(1).
            for j in range(start, m):
                tb, k = links[j]
                p = plus[j]
                rots[j + 1] = rot = rots[j] + 2 * p - k
                chain[j] = component(knot(tb, rot), -1, k - p, p)
            prefix = head + tuple(chain)
            # The last link: each further positive stabilization adds 2 to rot.
            p, first = plus[m], rots[m]
            rot = first + 2 * p - k_m
            run = runs.get(first)
            if run is not None:
                for link in islice(run, p, None):
                    built = presentation(prefix + (link,))
                    set_field(built, "_expansion", self)
                    yield built
            else:
                # With m > 1 a walk from p_m = 0 records its run, which is
                # kept only once whole, so an int index never keeps one.
                record = [] if share and m > 1 and not p else None
                for p in range(p, k_m + 1):
                    shape = knots.get(rot)
                    if shape is None:
                        shape = knot(tb_m, rot)
                        if share:
                            if held >= cap:
                                runs, knots, held = {}, {}, 0
                            knots[rot] = shape
                            held += 1
                    link = component(shape, -1, k_m - p, p)
                    if record is not None:
                        record.append(link)
                    built = presentation(prefix + (link,))
                    set_field(built, "_expansion", self)
                    yield built
                    rot += 2
                if record is not None:
                    # The run counts once stored; a knot may have cleared
                    # the cache during its walk.
                    if held + k_m + 1 > cap:
                        runs, knots, held = {}, {}, 0
                    runs[first] = record
                    held += k_m + 1
            plus[m] = 0
            # The next prefix, a mixed-radix number: the last link before m
            # that has a further choice takes it, and the links after it
            # start over.
            for start in reversed(movable):
                if plus[start] < links[start][1]:
                    plus[start] += 1
                    break
                plus[start] = 0
            else:
                return


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
    plus_one, terms = _chain_terms(r)
    return Expansion(knot, terms, plus_one)


def all_negative_presentation(
    knot: LegendrianKnot, n: int
) -> ContactSurgeryPresentation:
    """The all-negative member of expand(knot, n) for a positive integer n.

    One (+1)-surgery on the knot plus (n - 1) copies of its negative
    stabilization; for n = 1 there is no chain.
    """
    if n < 1:
        raise InvalidCoefficient(f"integer coefficient must be >= 1, got {quote(n)}")
    components = [Component(knot, 1)]
    if n > 1:
        # One stabilized pushoff, then unstabilized parallel copies of it,
        # matching the chain produced by expand(knot, n).
        stabilized = stabilize(knot, NEGATIVE)
        components.append(Component(stabilized, -1, 1))
        for _ in range(n - 2):
            components.append(Component(stabilized, -1))
    return ContactSurgeryPresentation(tuple(components))


def presentation_for_framing(knot: LegendrianKnot, f: int) -> ContactSurgeryPresentation:
    """Presentation of the canonical contact structure on surgery with the
    framing f_S + f, built from the all-negative stabilization choice.

    For framings f <= tb the result is known to be overtwisted and is
    flagged as such; the knot is first stabilized down to tb = f - 1.
    """
    if f > knot.tb:
        return all_negative_presentation(knot, f - knot.tb)
    # `drop` negative stabilizations, in closed form: each lowers tb and rot by 1.
    drop = knot.tb - (f - 1)
    stabilized = LegendrianKnot(knot.tb - drop, knot.rot - drop)
    return ContactSurgeryPresentation((Component(stabilized, 1),), overtwisted=True)
