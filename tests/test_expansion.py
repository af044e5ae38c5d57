import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from contactsurgery.errors import (
    InvalidCoefficient,
    NotRealizable,
    OutOfRange,
    UnsupportedCoefficient,
)
from contactsurgery.expansion import (
    ROLE_CHAIN,
    TERMS_CAP,
    ROLE_PLUS_ONE,
    Component,
    ContactSurgeryPresentation,
    all_negative_presentation,
    evaluate_continued_fraction,
    expand,
    negative_continued_fraction,
    presentation_for_framing,
)
from contactsurgery.homology import linking_matrix
from contactsurgery import legendrian
from contactsurgery.legendrian import Framing, LegendrianKnot, stabilize

SETTINGS = settings(
    max_examples=50, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def brute_force_expansion(x: Fraction, max_len=6, max_term=6):
    """All-terms->=2 expansions found by exhaustive search (test oracle)."""
    found = []
    for length in range(1, max_len + 1):
        for terms in itertools.product(range(2, max_term + 1), repeat=length):
            if evaluate_continued_fraction(terms) == x:
                found.append(terms)
    return found


def test_continued_fraction_closed_form():
    for n in range(2, 11):
        x = Fraction(2 * n - 1, n - 1)
        assert negative_continued_fraction(x) == (3,) + (2,) * (n - 2)


def test_continued_fraction_single_term():
    assert negative_continued_fraction(2) == (2,)
    assert negative_continued_fraction(5) == (5,)


def test_continued_fraction_against_brute_force():
    x = Fraction(17, 5)
    matches = brute_force_expansion(x)
    assert matches == [(4, 2, 3)]
    assert negative_continued_fraction(x) == (4, 2, 3)


def test_continued_fraction_leading_term_is_ceiling():
    for x in (Fraction(9, 7), Fraction(23, 6), Fraction(31, 30)):
        terms = negative_continued_fraction(x)
        assert terms[0] == -((-x.numerator) // x.denominator)
        assert evaluate_continued_fraction(terms) == x


def test_continued_fraction_domain():
    with pytest.raises(OutOfRange):
        negative_continued_fraction(1)
    with pytest.raises(OutOfRange):
        negative_continued_fraction(Fraction(1, 2))


def _fraction_expansion(x: Fraction):
    """The expansion one term at a time in Fraction arithmetic (test oracle)."""
    terms = []
    while True:
        a = math.ceil(x)
        terms.append(a)
        if x == a:
            return tuple(terms)
        x = 1 / (a - x)


@SETTINGS
@given(st.integers(1, 10**4), st.integers(1, 10**4))
@example(1, 20000)
@example(10**6 - 1, 1)
def test_continued_fraction_matches_the_one_term_oracle(excess, q):
    x = 1 + Fraction(excess, q)
    assert negative_continued_fraction(x) == _fraction_expansion(x)


def test_continued_fraction_cap_is_inclusive():
    assert negative_continued_fraction(1 + Fraction(1, TERMS_CAP)) == (2,) * TERMS_CAP
    with pytest.raises(OutOfRange, match=f"more than {TERMS_CAP} terms"):
        negative_continued_fraction(1 + Fraction(1, TERMS_CAP + 1))


@pytest.mark.parametrize("r", [Fraction(10**400), Fraction(-1, 10**30), -Fraction(1, 10**5000)])
def test_expand_rejects_an_expansion_past_the_cap(r):
    # About 10**400, 10**30 and 10**5000 terms: each is counted, not built.
    with pytest.raises(OutOfRange, match="more than"):
        expand(LegendrianKnot(-1, 0), r)


def test_expand_rejects_bad_coefficients():
    knot = LegendrianKnot(-1, 0)
    with pytest.raises(InvalidCoefficient):
        expand(knot, 0)
    with pytest.raises(UnsupportedCoefficient):
        expand(knot, Fraction(1, 2))


def test_expand_plus_one():
    knot = LegendrianKnot(-1, 0)
    (presentation,) = expand(knot, 1)
    assert len(presentation.components) == 1
    comp = presentation.components[0]
    assert comp.role == ROLE_PLUS_ONE
    assert comp.coefficient == 1
    assert (comp.legendrian.tb, comp.legendrian.rot) == (-1, 0)


def test_expand_integer_coefficient_two_choices():
    knot = LegendrianKnot(-1, 0)
    for n in range(2, 9):
        presentations = expand(knot, n)
        assert len(presentations) == 2
        assert presentations[0] == all_negative_presentation(knot, n)


def test_expand_negative_counts():
    knot = LegendrianKnot(-1, 0)
    assert len(expand(knot, -2)) == 2  # 1 - r = 3 = [3]
    terms = negative_continued_fraction(1 - Fraction(-9, 7))
    expected = 1
    for a in terms:
        expected *= a - 1
    assert len(expand(knot, Fraction(-9, 7))) == expected


def test_expand_positive_rational():
    knot = LegendrianKnot(-1, 0)
    presentations = expand(knot, Fraction(3, 2))
    # residual surgery is 3/(2-3) = -3 and 1 - (-3) = 4 = [4]: three choices
    assert len(presentations) == 3
    for presentation in presentations:
        assert presentation.components[0].role == ROLE_PLUS_ONE
        chain = presentation.components[1:]
        assert len(chain) == 1
        assert all(c.coefficient == -1 for c in chain)
        assert chain[0].legendrian.tb == -3  # two stabilizations of a pushoff


def test_all_negative_comes_first_lexicographically():
    knot = LegendrianKnot(-1, 0)
    presentations = expand(knot, Fraction(-9, 4))

    def key(presentation):
        # lexicographic with '-' < '+'
        order = {"-": 0, "+": 1}
        return tuple(
            tuple(order[s] for s in c.stab_signs) for c in presentation.components
        )

    keys = [key(p) for p in presentations]
    assert keys == sorted(keys)
    assert all(
        all(s == "-" for s in c.stab_signs) for c in presentations[0].components
    )


def test_all_negative_presentation_shape():
    knot = LegendrianKnot(-1, 0)
    presentation = all_negative_presentation(knot, 2)
    assert presentation.tb_rot_profile() == ((-1, 0), (-2, -1))
    assert [c.coefficient for c in presentation.components] == [1, -1]

    single = all_negative_presentation(knot, 1)
    assert len(single.components) == 1
    assert single.components[0].coefficient == 1


@pytest.mark.parametrize("n", [0, -3])
def test_all_negative_presentation_needs_a_positive_integer(n):
    with pytest.raises(InvalidCoefficient, match=f"must be >= 1, got {n}"):
        all_negative_presentation(LegendrianKnot(-1, 0), n)


def test_an_empty_continued_fraction_has_no_value():
    with pytest.raises(ValueError, match="empty continued fraction"):
        evaluate_continued_fraction(())


def test_presentation_for_framing_above_tb():
    knot = LegendrianKnot(-1, 0)
    presentation = presentation_for_framing(knot, Framing(1))
    assert presentation == all_negative_presentation(knot, 2)
    assert not presentation.overtwisted


def test_presentation_for_framing_at_or_below_tb_is_overtwisted():
    knot = LegendrianKnot(-1, 0)
    presentation = presentation_for_framing(knot, Framing(-1))
    assert presentation.overtwisted
    (comp,) = presentation.components
    assert comp.coefficient == 1
    assert comp.legendrian.tb == -2  # stabilized to tb = f - 1


def test_presentation_for_framing_far_below_tb_is_closed_form():
    # The stabilized knot is computed, not stabilized once per step.
    knot = LegendrianKnot(-1, 0)
    tracemalloc.start()
    try:
        presentation_for_framing(knot, Framing(-10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
    (far,) = presentation_for_framing(knot, Framing(-10**12)).components
    assert far.legendrian == LegendrianKnot(-10**12 - 1, -10**12)
    for f in range(-6, 0):
        stabilized = knot
        for _ in range(knot.tb - (f - 1)):
            stabilized = stabilize(stabilized, "-")
        (comp,) = presentation_for_framing(knot, Framing(f)).components
        assert comp.legendrian == stabilized


def test_presentation_well_defined_under_pre_stabilization():
    knot = LegendrianKnot(-1, 0)
    target = presentation_for_framing(knot, Framing(2))
    for extra in range(1, 4):
        stabilized = knot
        for _ in range(extra):
            stabilized = stabilize(stabilized, "-")
        other = presentation_for_framing(stabilized, Framing(2))
        assert len(other.components) == len(target.components) + extra


@st.composite
def knots(draw):
    """(tb, rot) with tb in [-6, 1], tb + rot odd and |rot| <= |tb| + 1."""
    tb = draw(st.integers(-6, 1))
    bound = abs(tb) + 1
    rot = draw(st.sampled_from([r for r in range(-bound, bound + 1) if (tb + r) % 2]))
    return LegendrianKnot(tb, rot)


def chain_terms(r: Fraction) -> tuple[int, ...]:
    """The continued fraction terms of the chain of contact r-surgery."""
    return negative_continued_fraction(1 - (r if r < 0 else r / (1 - r)))


def presentation_count(r: Fraction) -> int:
    return 1 if r == 1 else math.prod(a - 1 for a in chain_terms(r))


@st.composite
def coefficients(draw, max_count=500):
    """r < 0 or r >= 1 with at most max_count presentations."""
    q = draw(st.integers(1, 12))
    p = draw(st.integers(0 if draw(st.booleans()) else -max_count * q, max_count))
    r = Fraction(-p, q) if p > 0 else Fraction(q - p, q)
    try:
        count = presentation_count(r)
    except OutOfRange:
        # More than TERMS_CAP terms, as for r = 3000002/3 when max_count is
        # 10**6: expand refuses it, as
        # test_expand_rejects_an_expansion_past_the_cap checks.
        count = None
    assume(count is not None and count <= max_count)
    return r


def reference_expansion(knot: LegendrianKnot, r: Fraction):
    """expand by brute force: itertools.product over the stabilization
    choices, each sign folded through stabilize one at a time."""
    head = () if r < 0 else (Component(knot, 1),)
    if r == 1:
        return (ContactSurgeryPresentation(head),)
    counts = [a - 2 for a in chain_terms(r)]
    presentations = []
    for choice in itertools.product(*(range(k + 1) for k in counts)):
        current, chain = knot, []
        for k, plus in zip(counts, choice):
            signs = ("-",) * (k - plus) + ("+",) * plus
            for sign in signs:
                current = stabilize(current, sign)
            chain.append(Component(current, -1, k - plus, plus))
        presentations.append(ContactSurgeryPresentation(head + tuple(chain)))
    return tuple(presentations)


@SETTINGS
@given(knots(), coefficients())
@example(LegendrianKnot(-1, 0), Fraction(-500))
@example(LegendrianKnot(-2, 1), Fraction(500, 499))
def test_expand_matches_brute_force(knot, r):
    assert tuple(expand(knot, r)) == reference_expansion(knot, r)


@SETTINGS
@given(knots(), coefficients(max_count=120))
@example(LegendrianKnot(-1, 0), Fraction(1))
@example(LegendrianKnot(-2, 1), Fraction(7, 2))
@example(LegendrianKnot(-1, 0), Fraction(-9, 7))
def test_every_index_matches_iteration_and_brute_force(knot, r):
    expansion = expand(knot, r)
    iterated = tuple(expansion)
    reference = reference_expansion(knot, r)
    assert expansion.count == len(expansion) == len(iterated) == len(reference)
    for i, presentation in enumerate(reference):
        assert expansion[i] == iterated[i] == presentation
        assert expansion[i - len(reference)] == presentation


def test_indices_slices_and_index_error():
    expansion = expand(LegendrianKnot(-1, 0), Fraction(-9, 4))
    whole = tuple(expansion)
    assert len(whole) == 3
    assert expansion[-1] == whole[-1] and expansion[-3] == whole[0]
    assert expansion[1:] == whole[1:]
    assert expansion[::-1] == whole[::-1]
    assert expansion[5:] == () and expansion[:] == whole
    assert tuple(reversed(expansion)) == whole[::-1]
    for index in (3, -4, 10**400):
        with pytest.raises(IndexError):
            expansion[index]
    with pytest.raises(TypeError):
        expansion["0"]


def test_a_huge_expansion_is_counted_and_indexed_without_being_built():
    # 1 - r = 10**400 + 1: one link with 10**400 - 1 stabilizations.
    expansion = expand(LegendrianKnot(-1, 0), -Fraction(10**400))
    assert expansion.count == 10**400 == presentation_count(-Fraction(10**400))
    with pytest.raises(OverflowError):
        len(expansion)
    (link,) = expansion[-1].components
    assert (link.negative_stabs, link.positive_stabs) == (0, 10**400 - 1)
    assert link.legendrian == LegendrianKnot(-(10**400), 10**400 - 1)
    assert expansion.stabilizations == (10**400 - 1,)
    assert next(iter(expansion)) == expansion[0]


@SETTINGS
@given(knots(), coefficients(max_count=60))
@example(LegendrianKnot(-1, 0), Fraction(1))
def test_every_presentation_shares_one_linking_matrix(knot, r):
    expansion = expand(knot, r)
    shared = linking_matrix(expansion[0])
    assert shared is expansion.matrix
    assert all(linking_matrix(p) is shared for p in expansion)
    # An equal presentation built elsewhere gets an equal matrix of its own.
    rebuilt = ContactSurgeryPresentation(expansion[-1].components)
    assert rebuilt == expansion[-1] and hash(rebuilt) == hash(expansion[-1])
    assert repr(rebuilt) == repr(expansion[-1])
    assert linking_matrix(rebuilt) == shared and linking_matrix(rebuilt) is not shared
    assert linking_matrix(dataclasses.replace(expansion[0])) is not shared


@SETTINGS
@given(coefficients(max_count=10**6))
@example(Fraction(1))
@example(Fraction(-8000))
def test_count_presentations_does_not_expand(r):
    assert expand(LegendrianKnot(-1, 0), r).count == presentation_count(r)


def fold_stabilize(knot, signs):
    for sign in signs:
        knot = stabilize(knot, sign)
    return knot


def test_expand_is_linear_in_its_output(monkeypatch):
    # r = -N is one link with N - 1 stabilizations and N sign choices.
    # Restabilizing every choice one sign at a time makes about N^2 / 2
    # stabilize calls (stabilize_many loops over them); building each link
    # from its predecessor makes at most one call per link of the output.
    calls = 0

    def counted(knot, sign):
        nonlocal calls
        calls += 1
        assert calls <= 2000, "expand restabilizes sign by sign"
        return stabilize(knot, sign)

    monkeypatch.setattr(legendrian, "stabilize", counted)
    knot = LegendrianKnot(-3, 0)
    presentations = expand(knot, -2000)
    assert len(presentations) == 2000
    for p, presentation in enumerate(presentations):
        assert presentation.tb_rot_profile() == ((-2002, -1999 + 2 * p),)
    all_negative = Component(fold_stabilize(knot, "-" * 1999), -1, 1999)
    assert presentations[0] == ContactSurgeryPresentation((all_negative,))


@SETTINGS
@given(knots(), coefficients(max_count=60))
def test_order_of_h1_of_every_presentation(knot, r):
    # Contact r-surgery is smooth (tb + r)-surgery, so |H1| = |tb q + p|
    # for r = p/q, on every presentation and with or without the +1 head.
    for presentation in expand(knot, r):
        det = linking_matrix(presentation).determinant()
        assert abs(det) == abs(knot.tb * r.denominator + r.numerator)


@pytest.mark.parametrize("build", [
    lambda knot: expand(knot, -3),
    lambda knot: expand(knot, Fraction(7, 2)),
    lambda knot: all_negative_presentation(knot, 3),
    lambda knot: presentation_for_framing(knot, Framing(4)),
    lambda knot: presentation_for_framing(knot, Framing(-4)),
])
@pytest.mark.parametrize("tb, rot", [(0, 0), (-2, 2), (-1, 1)])
def test_even_tb_plus_rot_is_not_realizable(build, tb, rot):
    with pytest.raises(NotRealizable, match="tb \\+ rot is even") as info:
        build(LegendrianKnot(tb, rot))
    assert info.value.exit_code == 2


def test_expand_stores_stabilizations_as_counts():
    # r = -8000 is one link with 7999 stabilizations and 8000 choices: sign
    # tuples would hold about 3.2e7 entries (about 500 MB of Python objects).
    tracemalloc.start()
    try:
        presentations = expand(LegendrianKnot(-3, 0), -8000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(presentations) == 8000
    assert peak < 16 * 2**20
    link = presentations[5].components[0]
    assert (link.negative_stabs, link.positive_stabs) == (7994, 5)


def test_stabilization_signs_are_a_multiset():
    knot = LegendrianKnot(-5, 0)
    counted = Component(knot, -1, negative_stabs=1, positive_stabs=1)
    assert counted == Component(knot, -1, 1, 1)
    assert hash(counted) == hash(Component(knot, -1, 1, 1))
    assert counted.stab_signs == ("-", "+")
    assert Component(knot, -1).stab_signs == ()
    assert counted != Component(knot, -1, 2)


@pytest.mark.parametrize("kwargs", [
    {"negative_stabs": -1},
    {"positive_stabs": -2},
])
def test_component_rejects_bad_stabilizations(kwargs):
    with pytest.raises(ValueError):
        Component(LegendrianKnot(-5, 0), -1, **kwargs)


def test_component_role_follows_its_coefficient():
    knot = LegendrianKnot(-5, 0)
    assert [f.name for f in dataclasses.fields(Component)] == [
        "legendrian", "coefficient", "negative_stabs", "positive_stabs"]
    assert Component(knot, 1).role == ROLE_PLUS_ONE
    assert Component(knot, -1).role == ROLE_CHAIN
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        Component(knot, 0)


@pytest.mark.parametrize("coefficients, message", [
    ((1, 1), "at most one \\+1 component is allowed"),
    ((-1, 1), "the \\+1 component must precede the chain"),
])
def test_presentation_rejects_a_misplaced_plus_one(coefficients, message):
    knot = LegendrianKnot(-5, 0)
    with pytest.raises(ValueError, match=message):
        ContactSurgeryPresentation(tuple(Component(knot, c) for c in coefficients))
