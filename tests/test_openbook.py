import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactsurgery.acceptance import chain_reduction_fixture, lantern_ambient_model
from contactsurgery.errors import (
    CannotCapLastBoundary,
    InvalidStabilization,
    PatternMismatch,
    UnknownCurve,
)
from contactsurgery.linalg import det_int, identity_int, mat_mul_int
from contactsurgery.openbook import (
    LanternConfiguration,
    SurfaceModel,
    attach_surgery_twists,
    cap_off,
    cyclic_words_equal,
    free_reduce,
    giroux_destabilize,
    giroux_stabilize,
    homology_action,
    lantern_rewrite,
)


def torus_like_surface():
    """Genus-1 page with two boundary components (rank 3), one boundary
    direction in the radical of the pairing."""
    return SurfaceModel(
        genus=1,
        boundary_count=2,
        pairing=((0, 1, 0), (-1, 0, 0), (0, 0, 0)),
        curves=(
            ("a", (1, 0, 0)),
            ("b", (0, 1, 0)),
            ("m", (1, 1, 1)),
            ("bdry", (0, 0, 1)),
        ),
        boundary_classes=((0, 0, 1), (0, 0, -1)),
    )


def test_surface_validation():
    with pytest.raises(ValueError):
        SurfaceModel(genus=0, boundary_count=0, pairing=())
    with pytest.raises(ValueError):
        SurfaceModel(genus=0, boundary_count=2, pairing=((0, 0), (0, 0)))  # wrong size
    with pytest.raises(ValueError):
        SurfaceModel(
            genus=0,
            boundary_count=3,
            pairing=((0, 1), (1, 0)),  # not skew
        )
    with pytest.raises(UnknownCurve):
        torus_like_surface().curve_class("nope")


def test_free_reduce():
    assert free_reduce((("a", "+"), ("a", "-"))) == ()
    assert free_reduce((("a", "+"), ("b", "+"), ("b", "-"), ("a", "-"))) == ()
    word = (("a", "+"), ("b", "+"), ("a", "-"))
    assert free_reduce(word) == word


def test_cyclic_equality():
    w1 = (("a", "+"), ("b", "-"), ("c", "+"))
    w2 = (("b", "-"), ("c", "+"), ("a", "+"))
    assert cyclic_words_equal(w1, w2)
    assert not cyclic_words_equal(w1, (("a", "+"), ("c", "+"), ("b", "-")))


def test_cyclic_equality_cancels_across_the_ends():
    word = (("x", "+"), ("y", "+"), ("x", "-"))
    assert cyclic_words_equal(word, word[1:] + word[:1])
    assert cyclic_words_equal(word, (("y", "+"),))
    assert cyclic_words_equal((("x", "+"), ("x", "-")), ())
    assert not cyclic_words_equal(word, (("y", "-"),))


def test_empty_word_acts_as_identity():
    surface = torus_like_surface()
    assert homology_action((), surface) == identity_int(3)


def test_inverse_twists_cancel():
    surface = torus_like_surface()
    word = (("a", "+"), ("a", "-"))
    assert homology_action(word, surface) == identity_int(3)


def _product(a, b):
    """a . b by the triple loop (test oracle)."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


@st.composite
def pages(draw):
    """A page with a small alphabet, and a word over it.  Rank 0 is drawn
    (genus 0, one boundary), and the alphabet may hold the zero class and
    a class in the radical of the pairing (Omega c = 0)."""
    genus = draw(st.integers(0, 2))
    boundary_count = draw(st.integers(1, 3))
    rank = 2 * genus + boundary_count - 1
    entries = st.integers(-2, 2)
    # A pairing that is zero in the last direction puts e_last in its radical.
    radical = rank > 0 and draw(st.booleans())
    above = {
        (i, j): 0 if radical and j == rank - 1 else draw(entries)
        for i in range(rank) for j in range(i + 1, rank)
    }
    pairing = tuple(
        tuple(above[i, j] if i < j else -above[j, i] if i > j else 0 for j in range(rank))
        for i in range(rank)
    )
    vectors = st.tuples(*[entries] * rank)
    names = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    curves = tuple((name, draw(vectors)) for name in names)
    if draw(st.booleans()):
        names.append("zero")
        curves += (("zero", (0,) * rank),)
    if radical:
        names.append("rad")
        curves += (("rad", (0,) * (rank - 1) + (draw(st.sampled_from((1, -1, 2))),)),)
    # Multiples of one class pair to zero with each other.
    base = draw(vectors)
    multiples = draw(st.lists(st.integers(-2, 2), max_size=boundary_count))
    boundary_classes = tuple(tuple(m * x for x in base) for m in multiples)
    surface = SurfaceModel(genus, boundary_count, pairing, curves, boundary_classes)
    letters = st.tuples(st.sampled_from(names), st.sampled_from("+-"))
    return surface, tuple(draw(st.lists(letters, max_size=12)))


def _transvection(surface, name, sign):
    """T = I + s c (Omega c)^T, written out entry by entry."""
    omega, c = surface.pairing, surface.curve_class(name)
    s, rank = 1 if sign == "+" else -1, surface.h1_rank
    omega_c = [sum(omega[j][k] * c[k] for k in range(rank)) for j in range(rank)]
    return tuple(
        tuple((i == j) + s * c[i] * omega_c[j] for j in range(rank))
        for i in range(rank)
    )


@settings(max_examples=200, deadline=None, database=None)
@given(pages(), st.integers(0, 12))
def test_action_is_monoid_homomorphism(page, cut):
    surface, word = page
    w1, w2 = word[:cut], word[cut:]
    assert homology_action(word, surface) == _product(
        homology_action(w1, surface), homology_action(w2, surface)
    )


@settings(max_examples=200, deadline=None, database=None)
@given(pages(), st.sampled_from("+-"))
def test_one_letter_acts_by_its_transvection(page, sign):
    surface, _ = page
    for name, _ in surface.curves:
        assert homology_action(((name, sign),), surface) == _transvection(surface, name, sign)


@settings(max_examples=300, deadline=None, database=None)
@given(pages())
def test_action_is_the_product_of_its_transvections(page):
    # The whole word against the triple-loop fold, in word order.
    surface, word = page
    expected = identity_int(surface.h1_rank)
    for name, sign in word:
        expected = _product(expected, _transvection(surface, name, sign))
    assert homology_action(word, surface) == expected


def test_action_rejects_an_unknown_sign():
    surface, _ = lantern_ambient_model()
    with pytest.raises(ValueError, match="twist sign must be '\\+' or '-', got 'x'"):
        homology_action((("b1", "x"),), surface)


LANTERN_NAMES = ("b1", "b2", "b3", "b4", "c12", "c13", "c23", "p1", "p2", "p3", "spare")


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.sampled_from(("LtoR", "RtoL")),
    st.lists(st.tuples(st.sampled_from(LANTERN_NAMES), st.sampled_from("+-")), max_size=6),
    st.integers(0, 10),
)
def test_lantern_round_trip_keeps_word_and_action(direction, rest, shift):
    surface, config = lantern_ambient_model()
    source = config.source(direction)
    # Rotate source + rest so that the source window may wrap the end.
    cyclic = source + tuple(rest)
    shift %= len(cyclic)
    word = cyclic[shift:] + cyclic[:shift]
    at = (len(cyclic) - shift) % len(cyclic)
    wrapped = at + len(source) > len(word)
    rewritten = lantern_rewrite(word, config, at, direction, surface)
    # A wrapped window is written at the start of the result: the round
    # trip gives back the word rotated to begin at the window.
    start = 0 if wrapped else at
    reverse = "RtoL" if direction == "LtoR" else "LtoR"
    back = lantern_rewrite(rewritten, config, start, reverse, surface)
    expected = word[at:] + word[:at] if wrapped else word
    assert back == expected
    assert cyclic_words_equal(back, word)
    assert homology_action(rewritten, surface) == homology_action(expected, surface)


def _matrices(rows, cols, entries):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols).map(tuple),
        min_size=rows, max_size=rows,
    ).map(tuple)


@st.composite
def products(draw):
    """Factors a (n x k) and b (k x m), dense, sparse or zero; n or m may be 0."""
    n, k, m = draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 5))
    entries = draw(st.sampled_from((
        st.integers(-10**6, 10**6),  # dense
        st.sampled_from((0, 0, 0, 0, 1, -3)),  # sparse
        st.just(0),
    )))
    return draw(_matrices(n, k, entries)), draw(_matrices(k, m, entries))


@settings(max_examples=200, deadline=None, database=None)
@given(products())
@example((((1, 2), (3, 4)), ((0, 0), (0, 0))))
@example(((), ((1, 2),)))
def test_mat_mul_int_matches_the_triple_loop(factors):
    a, b = factors
    assert mat_mul_int(a, b) == _product(a, b)


@pytest.mark.parametrize("a, b", [
    (((1, 2),), ((1,),)),
    (((1,), (2,)), ((1, 2), (3, 4))),
    (((0, 0, 0),), ((0,), (0,))),
])
def test_mat_mul_int_rejects_a_dimension_mismatch(a, b):
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_mul_int(a, b)


def test_transvections_are_unimodular():
    surface = torus_like_surface()
    rng = random.Random(13)
    names = ["a", "b", "m"]
    for _ in range(10):
        word = tuple((rng.choice(names), rng.choice("+-")) for _ in range(5))
        assert det_int(homology_action(word, surface)) == 1


def test_action_unknown_curve():
    with pytest.raises(UnknownCurve):
        homology_action((("ghost", "+"),), torus_like_surface())


def test_lantern_sides_act_equally():
    surface, config = lantern_ambient_model()
    config.validate(surface)
    left = (("c12", "-"), ("b1", "+"), ("b2", "+"), ("b3", "+"))
    right = config.target("LtoR")
    assert homology_action(left, surface) == homology_action(right, surface)


def test_lantern_rewrite_basic_and_round_trip():
    surface, config = lantern_ambient_model()
    word = (("c12", "-"), ("b1", "+"), ("b2", "+"), ("b3", "+"))
    rewritten = lantern_rewrite(word, config, 0, "LtoR", surface)
    assert rewritten == (("c13", "+"), ("c23", "+"), ("b4", "-"))
    assert lantern_rewrite(rewritten, config, 0, "RtoL", surface) == word


def test_lantern_rewrite_inside_longer_word():
    surface, config = lantern_ambient_model()
    prefix = (("p1", "+"), ("spare", "-"))
    suffix = (("p2", "-"),)
    source = (("c12", "-"), ("b1", "+"), ("b2", "+"), ("b3", "+"))
    word = prefix + source + suffix
    rewritten = lantern_rewrite(word, config, 2, "LtoR", surface)
    assert rewritten == prefix + (("c13", "+"), ("c23", "+"), ("b4", "-")) + suffix
    assert homology_action(word, surface) == homology_action(rewritten, surface)


def test_lantern_rewrite_mismatch():
    surface, config = lantern_ambient_model()
    word = (("b1", "+"), ("c12", "-"), ("b2", "+"), ("b3", "+"))
    with pytest.raises(PatternMismatch):
        lantern_rewrite(word, config, 0, "LtoR", surface)


def test_lantern_configuration_validation_rejects_bad_classes():
    surface, config = lantern_ambient_model()
    from dataclasses import replace

    broken = replace(surface, curves=surface.curves + (("fake", (9, 0, 0, 0, 0, 0, 0)),))
    bad = replace(config, one_two="fake")
    with pytest.raises(ValueError):
        bad.validate(broken)
    # The rewrite validates too, though the word matches the pattern.
    word = (("fake", "-"), ("b1", "+"), ("b2", "+"), ("b3", "+"))
    # A failed check is not remembered: the second call raises too.
    for _ in range(2):
        with pytest.raises(ValueError, match="lantern homology relation 12 = 1 \\+ 2 fails"):
            lantern_rewrite(word, bad, 0, "LtoR", broken)


def test_giroux_stabilize_disk_to_annulus():
    disk = SurfaceModel(genus=0, boundary_count=1, pairing=(), curves=(),
                        boundary_classes=((),))
    annulus, word = giroux_stabilize(disk, (), "core", (1,))
    assert annulus.h1_rank == 1
    assert annulus.boundary_count == 2
    assert word == (("core", "+"),)


def test_giroux_stabilize_orders_commute_in_rank():
    disk = SurfaceModel(genus=0, boundary_count=1, pairing=())
    one, w1 = giroux_stabilize(disk, (), "x", (1,))
    two, w2 = giroux_stabilize(one, w1, "y", (0, 1))
    assert two.h1_rank == 2
    assert w2 == (("x", "+"), ("y", "+"))
    other, _ = giroux_stabilize(
        *giroux_stabilize(disk, (), "y", (1,)), "x", (0, 1)
    )
    assert other.h1_rank == two.h1_rank
    assert other.boundary_count == two.boundary_count


def test_giroux_stabilize_accommodates_extra_curves():
    annulus = SurfaceModel(
        genus=0,
        boundary_count=2,
        pairing=((0,),),
        curves=(("kappa", (1,)),),
        boundary_classes=((1,), (-1,)),
    )
    stabilized, word = giroux_stabilize(annulus, (), "sigma1", (0, 1))
    assert stabilized.curve_class("kappa") == (1, 0)
    assert stabilized.curve_class("sigma1") == (0, 1)
    from dataclasses import replace

    stabilized = replace(
        stabilized, curves=stabilized.curves + (("kappa_minus", (1, 1)),)
    )
    again, _ = giroux_stabilize(stabilized, word, "sigma2", (0, 0, 1))
    for name in ("kappa", "kappa_minus", "sigma1", "sigma2"):
        assert again.has_curve(name)
    assert again.curve_class("kappa") == (1, 0, 0)
    assert again.curve_class("kappa_minus") == (1, 1, 0)


def test_giroux_stabilize_rejects_bad_class():
    disk = SurfaceModel(genus=0, boundary_count=1, pairing=())
    with pytest.raises(InvalidStabilization):
        giroux_stabilize(disk, (), "core", (2,))
    with pytest.raises(InvalidStabilization):
        giroux_stabilize(disk, (), "core", (1, 1))


def test_giroux_stabilize_rejects_a_name_in_the_alphabet():
    surface, _ = lantern_ambient_model()
    new_class = (0,) * surface.h1_rank + (1,)
    with pytest.raises(InvalidStabilization, match="'b1' is already in the alphabet"):
        giroux_stabilize(surface, (), "b1", new_class)


@st.composite
def stabilizations(draw):
    """A page, a word over its alphabet, and the class of a curve that
    crosses the handle a stabilization adds."""
    surface, word = draw(pages())
    vectors = st.tuples(*[st.integers(-2, 2)] * surface.h1_rank)
    new_class = draw(vectors) + (draw(st.sampled_from((1, -1))),)
    return surface, word, new_class


@settings(max_examples=200, deadline=None, database=None)
@example((torus_like_surface(), (("a", "+"),), (0, 0, 0, 1)))
@given(stabilizations())
def test_giroux_destabilize_inverts_stabilize(case):
    surface, word, new_class = case
    stabilized = giroux_stabilize(surface, word, "h", new_class)
    assert stabilized[1] == word + (("h", "+"),)
    assert giroux_destabilize(*stabilized, "h") == (surface, word)


def test_giroux_destabilize_reduces_modulo_the_curve():
    # x = e1 - e2 bounds after destabilizing, so e2 = e1 and y = 2e1 + 3e2 = 5e1.
    surface = SurfaceModel(
        genus=0,
        boundary_count=3,
        pairing=((0, 0), (0, 0)),
        curves=(("x", (1, -1)), ("y", (2, 3))),
        boundary_classes=((0, 1), (1, 1)),
    )
    smaller, word = giroux_destabilize(surface, (("y", "-"), ("x", "+")), "x")
    assert smaller.curves == (("y", (5,)),)
    assert smaller.boundary_classes == ((1,),)
    assert word == (("y", "-"),)


def test_giroux_destabilize_requires_unique_positive_twist():
    surface = torus_like_surface()
    bigger, longer = giroux_stabilize(surface, (), "core", (0, 0, 0, 1))
    with pytest.raises(InvalidStabilization):
        giroux_destabilize(bigger, longer + (("core", "+"),), "core")
    with pytest.raises(InvalidStabilization):
        giroux_destabilize(bigger, (), "core")


@pytest.mark.parametrize("drop_index", [5, -1])
def test_giroux_destabilize_rejects_an_index_outside_the_class(drop_index):
    annulus = SurfaceModel(
        genus=0, boundary_count=2, pairing=((0,),),
        curves=(("kappa", (1,)),), boundary_classes=((1,), (-1,)),
    )
    page, word = giroux_stabilize(annulus, (), "h", (0, 1))
    assert page.h1_rank == 2
    with pytest.raises(InvalidStabilization, match=f"at index {drop_index}"):
        giroux_destabilize(page, word, "h", drop_index=drop_index)


def test_cap_off_deletes_matching_twists():
    surface = torus_like_surface()
    word = (("bdry", "+"), ("a", "+"), ("bdry", "-"))
    capped, reduced = cap_off(surface, word, 0)
    assert reduced == (("a", "+"),)
    assert capped.boundary_count == 1
    assert capped.h1_rank == 2
    assert not capped.has_curve("bdry")


def test_cap_off_surgered_binding_cancels_the_negative_twist():
    # The capped binding is parallel to the surgery curve, so filling it
    # removes exactly the one left-handed twist of the surgery word.
    surface, _, base, *_ = chain_reduction_fixture(1)
    word = attach_surgery_twists(surface, base, "kappa", "kappa_minus", 3)
    assert word.count(("kappa", "-")) == 1
    capped, reduced = cap_off(surface, word, 0)  # boundary class equals kappa's
    assert reduced == base + (("kappa_minus", "+"),) * 2
    assert not capped.has_curve("kappa")
    assert capped.h1_rank == surface.h1_rank - 1


def test_cap_off_untouched_word():
    surface = torus_like_surface()
    word = (("a", "+"), ("b", "-"))
    capped, reduced = cap_off(surface, word, 1)
    assert reduced == word
    assert capped.h1_rank == surface.h1_rank - 1


def test_cap_off_last_boundary_fails():
    surface = torus_like_surface()
    capped, _ = cap_off(surface, (), 0)
    with pytest.raises(CannotCapLastBoundary):
        cap_off(capped, (), 0)


def test_cap_off_action_descends_to_quotient():
    surface = torus_like_surface()
    rng = random.Random(99)
    names = ["a", "b", "m", "bdry"]
    # reduction map: drop the capped e3 direction
    projection = ((1, 0, 0), (0, 1, 0))
    for _ in range(10):
        word = tuple((rng.choice(names), rng.choice("+-")) for _ in range(6))
        capped, reduced_word = cap_off(surface, word, 0)
        big = homology_action(word, surface)
        small = homology_action(reduced_word, capped)
        assert mat_mul_int(projection, big) == mat_mul_int(small, projection)


def test_attach_surgery_twists_shapes():
    surface, _, base, *_ = chain_reduction_fixture(1)
    only_negative = attach_surgery_twists(surface, base, "kappa_minus", "pushoff", 1)
    assert only_negative == base + (("kappa_minus", "-"),)
    three = attach_surgery_twists(surface, base, "kappa_minus", "pushoff", 3)
    assert three[-3:] == (
        ("kappa_minus", "-"),
        ("pushoff", "+"),
        ("pushoff", "+"),
    )
    assert det_int(homology_action(three, surface)) == 1
    with pytest.raises(UnknownCurve):
        attach_surgery_twists(surface, base, "kappa_minus", "ghost", 2)


def _page(curves=(("a", (1, 0, 0)),), boundary_classes=((0, 0, 1), (0, 0, -1))):
    """A rank-3 page like `torus_like_surface`, with the given alphabet."""
    return SurfaceModel(genus=1, boundary_count=2,
                        pairing=((0, 1, 0), (-1, 0, 0), (0, 0, 0)),
                        curves=curves, boundary_classes=boundary_classes)


def _lantern_on_a_torus():
    """Classes that meet the four lantern relations, with roles 1 and 2 on
    the two crossing curves of a one-holed torus."""
    surface = SurfaceModel(
        genus=1, boundary_count=1, pairing=((0, 1), (-1, 0)),
        curves=(("p", (1, 0)), ("q", (0, 1)), ("z", (0, 0)), ("pq", (1, 1)),
                ("n", (-1, -1))),
    )
    config = LanternConfiguration(one="p", two="q", three="z", four="n", one_two="pq",
                                  one_three="p", two_three="q")
    return config, surface


def _lantern_rewrite(letters, direction="LtoR"):
    surface, config = lantern_ambient_model()
    return lantern_rewrite(letters, config, 0, direction, surface)


@pytest.mark.parametrize("refused, error, message", [
    (lambda: _page(curves=(("a", (1, 0, 0)), ("a", (0, 1, 0)))), ValueError,
     "duplicate curve names"),
    (lambda: _page(boundary_classes=((0, 0, 1), (0, 1))), ValueError,
     "boundary class has wrong length"),
    (lambda: _page(boundary_classes=((1, 0, 0), (0, 1, 0))), ValueError,
     "boundary classes must pairwise pair to zero"),
    (lambda: LanternConfiguration.validate(*_lantern_on_a_torus()), ValueError,
     "lantern boundary roles must pair to zero"),
    (lambda: _lantern_rewrite((("b1", "+"),), "sideways"), ValueError,
     "direction must be 'LtoR' or 'RtoL', got 'sideways'"),
    (lambda: _lantern_rewrite((("c12", "-"),)), PatternMismatch,
     "no room for the pattern at position 0"),
    (lambda: giroux_destabilize(
        SurfaceModel(genus=1, boundary_count=1, pairing=((0, 1), (-1, 0)),
                     curves=(("a", (1, 0)),)), (("a", "+"),), "a"),
     InvalidStabilization, "cannot destabilize past one boundary component"),
    (lambda: giroux_destabilize(_page(curves=(("d", (2, 0, 2)),)), (("d", "+"),), "d"),
     InvalidStabilization, "class of 'd' has no unimodular coordinate to drop"),
    (lambda: giroux_destabilize(_page(curves=(("e", (0, 0, 1)),)), (("e", "+"),), "e",
                                drop_boundary=2),
     InvalidStabilization, "no such boundary component"),
    (lambda: attach_surgery_twists(_page(), (), "a", "a", 0), ValueError,
     "surgery parameter n must be >= 1, got 0"),
], ids=["duplicate-name", "boundary-length", "boundary-pairing", "lantern-pairing",
        "direction", "no-room", "last-boundary", "no-unimodular", "no-boundary",
        "surgery-n"])
def test_open_book_refusals(refused, error, message):
    with pytest.raises(error, match=message):
        refused()


def _rotation_oracle(first, second) -> bool:
    """Cancel inverse neighbours, the last and first letters included, one
    pair at a time until none is left, then try every rotation."""

    def reduce(word):
        word = list(word)
        while len(word) >= 2:
            for i in range(len(word)):
                j = (i + 1) % len(word)
                if word[i][0] == word[j][0] and word[i][1] != word[j][1]:
                    word = [x for k, x in enumerate(word) if k not in (i, j)]
                    break
            else:
                break
        return tuple(word)

    a, b = reduce(first), reduce(second)
    return len(a) == len(b) and (not a or any(a[i:] + a[:i] == b for i in range(len(a))))


LETTERS = st.tuples(st.sampled_from("xyz"), st.sampled_from("+-"))
WORDS = st.lists(LETTERS, max_size=12).map(tuple)


@st.composite
def conjugate_pairs(draw):
    """A word, and a rotation of it with inverse pairs put in: mostly
    conjugate, sometimes with a letter changed so they may not be."""
    first = draw(WORDS)
    k = draw(st.integers(0, len(first)))
    second = list(first[k:] + first[:k])
    for _ in range(draw(st.integers(0, 3))):
        name, sign = draw(LETTERS)
        i = draw(st.integers(0, len(second)))
        second[i:i] = [(name, sign), (name, "-" if sign == "+" else "+")]
    if second and draw(st.booleans()):
        i = draw(st.integers(0, len(second) - 1))
        second[i] = draw(LETTERS)
    return first, tuple(second)


@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(conjugate_pairs(), st.tuples(WORDS, WORDS)))
@example(((("x", "+"), ("y", "+"), ("x", "-")), (("y", "+"),)))
@example(((("x", "+"), ("x", "-")), ()))
@example(((("x", "+"), ("y", "-")), (("y", "-"), ("x", "+"))))
def test_cyclic_equality_matches_a_rotation_oracle(pair):
    first, second = pair
    assert cyclic_words_equal(first, second) == _rotation_oracle(first, second)
    assert cyclic_words_equal(second, first) == _rotation_oracle(first, second)
