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
    quote,
)
from contactsurgery import openbook
from contactsurgery.legendrian import LegendrianKnot, stabilize
from contactsurgery.linalg import det_int, mat_mul_int
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


LONG_NAME = "x" * 100_000
HUGE_INTEGER = 10**4000  # 4,001 digits, under the int-to-str limit


def _with_curve(cls):
    """torus_like_surface with one more curve, named LONG_NAME."""
    surface = torus_like_surface()
    return SurfaceModel(surface.genus, surface.boundary_count, surface.pairing,
                        surface.curves + ((LONG_NAME, cls),), surface.boundary_classes)


def _lantern_with_a_long_name():
    """lantern_rewrite's arguments on the lantern ambient model with c12
    renamed LONG_NAME, and letters that do not match its LtoR side."""
    surface, _ = lantern_ambient_model()
    curves = tuple((LONG_NAME if name == "c12" else name, cls) for name, cls in surface.curves)
    surface = SurfaceModel(surface.genus, surface.boundary_count, surface.pairing, curves,
                           surface.boundary_classes)
    config = LanternConfiguration("b1", "b2", "b3", "b4", LONG_NAME, "c13", "c23")
    return ((LONG_NAME, "+"),) * 4, config, 0, "LtoR", surface


@pytest.mark.parametrize("call, error, echoed", [
    (lambda: SurfaceModel(genus=HUGE_INTEGER, boundary_count=1, pairing=()), ValueError,
     2 * HUGE_INTEGER),
    (lambda: torus_like_surface().curve_class(LONG_NAME), UnknownCurve, LONG_NAME),
    (lambda: lantern_ambient_model()[1].source(LONG_NAME), ValueError, LONG_NAME),
    (lambda: lantern_rewrite((("b1", "+"),) * 4, lantern_ambient_model()[1], HUGE_INTEGER,
                             "LtoR", lantern_ambient_model()[0]), PatternMismatch, HUGE_INTEGER),
    (lambda: lantern_rewrite(*_lantern_with_a_long_name()), PatternMismatch, (LONG_NAME, "-")),
    (lambda: giroux_stabilize(_with_curve((1, 0, 0)), (), LONG_NAME, (0, 0, 0, 1)),
     InvalidStabilization, LONG_NAME),
    (lambda: giroux_destabilize(_with_curve((1, 0, 0)), (), LONG_NAME), InvalidStabilization,
     LONG_NAME),
    (lambda: giroux_destabilize(_with_curve((2, 0, 0)), ((LONG_NAME, "+"),), LONG_NAME),
     InvalidStabilization, LONG_NAME),
    (lambda: stabilize(LegendrianKnot(-1, 0), LONG_NAME), ValueError, LONG_NAME),
], ids=["rank", "curve_class", "direction", "position", "letters", "stabilize",
        "destabilize-twists", "destabilize-no-unit", "legendrian-sign"])
def test_a_message_quotes_a_long_name_or_integer(call, error, echoed):
    with pytest.raises(error) as raised:
        call()
    message = str(raised.value)
    assert quote(echoed) in message
    assert len(message.encode()) < 600


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


@pytest.mark.parametrize("call", [
    lambda: free_reduce([("a", "+"), ("a", "x")]),
    lambda: free_reduce(iter([("a", "-"), ("b", "+"), ("b", "x")])),
    lambda: cyclic_words_equal((("b1", "x"),), (("b1", "x"),)),
    lambda: cyclic_words_equal((), (("b1", "+"), ("b2", "x"))),
], ids=["free-reduce-pair", "free-reduce-iterator", "cyclic-same", "cyclic-second"])
def test_word_rewrites_refuse_a_sign_as_the_action_does(call):
    with pytest.raises(ValueError, match="twist sign must be '\\+' or '-', got 'x'"):
        call()


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_empty_word_acts_as_identity():
    surface = torus_like_surface()
    assert homology_action((), surface) == _identity(3)


def test_inverse_twists_cancel():
    surface = torus_like_surface()
    word = (("a", "+"), ("a", "-"))
    assert homology_action(word, surface) == _identity(3)


def _product(a, b):
    """a . b by the triple loop (test oracle)."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _skew_pairing(draw, rank, entries, radical):
    """A skew pairing drawn above the diagonal.  With radical, it is zero
    in the last direction, which puts e_last in its radical."""
    above = {
        (i, j): 0 if radical and j == rank - 1 else draw(entries)
        for i in range(rank) for j in range(i + 1, rank)
    }
    return tuple(
        tuple(above[i, j] if i < j else -above[j, i] if i > j else 0 for j in range(rank))
        for i in range(rank)
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
    radical = rank > 0 and draw(st.booleans())
    pairing = _skew_pairing(draw, rank, entries, radical)
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


@st.composite
def long_pages(draw):
    """A page of rank 3 to 6 with e_last in the radical of its pairing, and
    a word of up to 400 letters, long enough to close chunks of the packed
    rows.  The alphabet holds small classes, the zero class, the radical
    class and one class whose entries reach 10**40, so its growth bound may
    pass 2**128 and the slot width grow past 256 bits."""
    genus = draw(st.integers(1, 2))
    boundary_count = draw(st.integers(2, 3))
    rank = 2 * genus + boundary_count - 1
    entries = st.integers(-2, 2)
    pairing = _skew_pairing(draw, rank, entries, radical=True)
    vectors = st.tuples(*[entries] * rank)
    huge = st.tuples(*[st.sampled_from((-10**40, 10**40)) | entries] * rank)
    curves = tuple((f"c{i}", draw(vectors)) for i in range(draw(st.integers(1, 3))))
    curves += (("huge", draw(huge)), ("zero", (0,) * rank),
               ("rad", (0,) * (rank - 1) + (draw(st.sampled_from((1, -1, 2))),)))
    surface = SurfaceModel(genus, boundary_count, pairing, curves)
    letters = st.tuples(st.sampled_from([name for name, _ in curves]), st.sampled_from("+-"))
    size = draw(st.integers(0, 400))
    return surface, tuple(draw(st.lists(letters, min_size=size, max_size=size)))


def _pair_oracle(surface, x, y):
    """<x, y> by the double index loop (test oracle)."""
    rank = surface.h1_rank
    return sum(x[i] * surface.pairing[i][j] * y[j] for i in range(rank) for j in range(rank))


@settings(max_examples=200, deadline=None, database=None)
@given(pages(), st.data())
def test_the_pairing_is_the_double_loop_and_skew(page, data):
    surface, _ = page
    vectors = st.tuples(*[st.integers(-3, 3)] * surface.h1_rank)
    x, y = data.draw(vectors), data.draw(vectors)
    assert surface._pair(x, y) == _pair_oracle(surface, x, y) == -surface._pair(y, x)
    assert surface._pair(x, x) == 0


@settings(max_examples=200, deadline=None, database=None)
@given(pages(), st.data())
def test_a_page_takes_exactly_the_boundary_classes_that_pair_to_zero(page, data):
    # Multiples of one class always pair to zero; one more class may not.
    surface, _ = page
    vectors = st.tuples(*[st.integers(-2, 2)] * surface.h1_rank)
    base = data.draw(vectors)
    multiples = data.draw(st.lists(st.integers(-2, 2), max_size=3))
    classes = [tuple(m * x for x in base) for m in multiples]
    classes += data.draw(st.lists(vectors, max_size=1))
    classes.insert(data.draw(st.integers(0, len(classes))), data.draw(vectors))
    pair_to_zero = all(_pair_oracle(surface, a, b) == 0 for a in classes for b in classes)
    try:
        SurfaceModel(surface.genus, surface.boundary_count, surface.pairing, surface.curves,
                     tuple(classes))
    except ValueError as exc:
        assert not pair_to_zero
        assert str(exc) == "boundary classes must pairwise pair to zero"
    else:
        assert pair_to_zero


def _counting_images(monkeypatch):
    """Count the calls of the pairing primitive, Omega c."""
    calls = [0]
    image = SurfaceModel._image

    def counted(self, c):
        calls[0] += 1
        return image(self, c)

    monkeypatch.setattr(SurfaceModel, "_image", counted)
    return calls


def test_a_page_takes_one_image_per_boundary_class(monkeypatch):
    # Genus 0, B boundary components: e_0 ... e_(B-2) and minus their sum.
    # Pairing every two classes through the double index loop cost O(B^2 r^2).
    boundary_count = 60
    rank = boundary_count - 1
    classes = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    images = _counting_images(monkeypatch)
    SurfaceModel(genus=0, boundary_count=boundary_count, pairing=((0,) * rank,) * rank,
                 boundary_classes=classes + ((-1,) * rank,))
    assert images[0] <= boundary_count


def test_every_lantern_rewrite_validates_with_three_pairings(monkeypatch):
    surface, config = lantern_ambient_model()
    word = (("c12", "-"), ("b1", "+"), ("b2", "+"), ("b3", "+"))
    images = _counting_images(monkeypatch)
    for calls in (1, 2):
        lantern_rewrite(word, config, 0, "LtoR", surface)
        assert images[0] == 3 * calls


def test_the_action_takes_one_image_per_curve_and_surface(monkeypatch):
    surface, _ = lantern_ambient_model()
    word = tuple((name, sign) for name, _ in surface.curves for sign in "+-")
    images = _counting_images(monkeypatch)
    for _ in range(3):
        homology_action(word, surface)
    assert images[0] == len(surface.curves)


def _transvection(surface, name, sign):
    """T = I + s c (Omega c)^T, written out entry by entry."""
    omega, c = surface.pairing, surface.curve_class(name)
    s, rank = 1 if sign == "+" else -1, surface.h1_rank
    omega_c = [sum(omega[j][k] * c[k] for k in range(rank)) for j in range(rank)]
    return tuple(
        tuple((i == j) + s * c[i] * omega_c[j] for j in range(rank))
        for i in range(rank)
    )


def _fold(surface, word):
    """The whole word as the triple-loop product of its transvections, in
    word order."""
    expected = _identity(surface.h1_rank)
    for name, sign in word:
        expected = _product(expected, _transvection(surface, name, sign))
    return expected


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
    surface, word = page
    assert homology_action(word, surface) == _fold(surface, word)


@settings(max_examples=60, deadline=None, database=None)
@given(long_pages(), st.data())
def test_packed_action_of_a_long_word_is_its_fold_and_a_homomorphism(page, data):
    surface, word = page
    action = homology_action(word, surface)
    assert action == _fold(surface, word)
    cut = data.draw(st.integers(0, len(word)))
    assert action == _product(
        homology_action(word[:cut], surface), homology_action(word[cut:], surface)
    )


def test_packed_slots_decode_at_their_limit(monkeypatch):
    # Pairing p = 2**51 - 2 on a rank-2 page: each letter's growth bound
    # g = 1 + p has 51 bits, so a 256-bit chunk holds five letters, and the
    # alternating word drives each chunk's negative entries to 255 bits.
    p = 2**51 - 2
    surface = SurfaceModel(1, 1, ((0, p), (-p, 0)), (("a", (1, 0)), ("b", (0, 1))))
    word = (("a", "+"), ("b", "-")) * 10
    calls = []

    def recording(a, b):
        calls.append((a, b))
        return mat_mul_int(a, b)

    monkeypatch.setattr("contactsurgery.linalg.mat_mul_int", recording)
    assert homology_action(word, surface) == _fold(surface, word)
    # The first chunk is the product the second one is composed after.
    chunks = [calls[0][1]] + [a for a, _ in calls]
    assert len(chunks) >= 4
    for chunk in chunks:
        assert 250 <= max(-x for row in chunk for x in row).bit_length() <= 255


def test_a_chunk_closes_before_its_bound_reaches_the_slot_width():
    # p = 2**64 - 2: four letters' growth bounds sum to exactly 256 bits, and
    # four letters of the alternating word make 256-bit entries, one bit too
    # many for a 256-bit slot, so each chunk must close after three.
    p = 2**64 - 2
    surface = SurfaceModel(1, 1, ((0, p), (-p, 0)), (("a", (1, 0)), ("b", (0, 1))))
    word = (("a", "+"), ("b", "-")) * 6
    assert homology_action(word, surface) == _fold(surface, word)


def _alternating_page(p):
    """A rank-2 page with pairing p, on which a+ b- acts hyperbolically:
    k alternating letters from the identity make entries of at least p^k,
    while each letter's growth bound is g = 1 + p."""
    return SurfaceModel(1, 1, ((0, p), (-p, 0)), (("a", (1, 0)), ("b", (0, 1))))


def _counting_chunks(monkeypatch):
    """Record each unpacked chunk and each pair that mat_mul_int composes."""
    unpacked, composed = [], []
    unpack = openbook._unpack

    def counted_unpack(rows, width):
        unpacked.append(unpack(rows, width))
        return unpacked[-1]

    def recording(a, b):
        composed.append((a, b))
        return mat_mul_int(a, b)

    monkeypatch.setattr(openbook, "_unpack", counted_unpack)
    monkeypatch.setattr("contactsurgery.linalg.mat_mul_int", recording)
    return unpacked, composed


def test_a_chunk_fills_its_slots_to_one_bit_below_the_slot_width(monkeypatch):
    # p = 2**51 - 1, so g = 1 + p = 2**51 and each letter adds exactly
    # ceil(log2 g) = 51 bits to the bound (bitlen(g) would add 52).  Five
    # alternating letters bring it to 255 = B - 1 with entries of 255 bits,
    # the most a signed 256-bit slot holds, and the sixth letter composes
    # the chunk.
    surface = _alternating_page(2**51 - 1)
    word = (("a", "+"), ("b", "-")) * 6
    unpacked, composed = _counting_chunks(monkeypatch)
    assert homology_action(word, surface) == _fold(surface, word)
    assert [max(abs(x) for row in chunk for x in row).bit_length()
            for chunk in unpacked] == [255, 255, 102]
    assert len(composed) == 2


@st.composite
def reset_pages(draw):
    """A rank-2 page whose pairing p has 8 to 200 bits (slot width 256 to
    402), and a word that in acting order starts with cancelling pairs
    a+ a- enough for the bound to reach the slot width while the entries
    stay at most p, so the chunk is measured and kept; then alternates
    a+ b- long enough to drive the entries past half the slot width and
    reach a trigger after, so the chunk is composed; then ends with up to
    40 letters over a, b and a small third class."""
    p = draw(st.integers(2**7, 2**200 - 1))
    growth = p.bit_length()  # ceil(log2 g) for g = 1 + p
    width = max(256, 2 * growth + 2)
    third = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    surface = SurfaceModel(1, 1, ((0, p), (-p, 0)),
                           (("a", (1, 0)), ("b", (0, 1)), ("c", third)))
    pairs = width // growth + 1 + draw(st.integers(0, 3))
    cancelling = (("a", "+"), ("a", "-")) * pairs
    least = 2 * (width // (p.bit_length() - 1)) + 3
    alternating = (("a", "+"), ("b", "-")) * draw(st.integers(least // 2 + 1, least))
    letters = st.tuples(st.sampled_from("abc"), st.sampled_from("+-"))
    rest = tuple(draw(st.lists(letters, max_size=40)))
    return surface, tuple(reversed(cancelling + alternating + rest))


@settings(max_examples=60, deadline=None, database=None)
@given(reset_pages(), st.data())
def test_a_measured_chunk_is_kept_or_composed_exactly(page, data):
    surface, word = page
    with pytest.MonkeyPatch.context() as patch:
        unpacked, composed = _counting_chunks(patch)
        action = homology_action(word, surface)
    # Every trigger unpacks once and then keeps or composes the chunk, and
    # the last chunk is unpacked after the loop.  mat_mul_int runs once per
    # chunk composed at a trigger: the first becomes the product, and the
    # last chunk is composed after the product.
    kept = len(unpacked) - 1 - len(composed)
    assert kept >= 1 and len(composed) >= 1
    assert action == _fold(surface, word)
    cut = data.draw(st.integers(0, len(word)))
    assert action == _product(
        homology_action(word[:cut], surface), homology_action(word[cut:], surface)
    )


def test_a_kept_chunk_is_driven_to_its_slot_limit_before_it_is_composed(monkeypatch):
    # p = 2**51 - 2, so g = 1 + p has 51 bits and B = 256.  In acting
    # order a+ a- a+ a- a+ brings the bound to 255 with entries of 51 bits:
    # the next letter, b-, keeps the chunk, restarting the bound at
    # 51 + 51.  With three more alternating letters the chunk acts as five,
    # with 255-bit entries, and the letter after composes it.
    surface = _alternating_page(2**51 - 2)
    acting = (("a", "+"), ("a", "-")) * 2 + (("a", "+"), ("b", "-")) * 5
    word = tuple(reversed(acting))
    unpacked, composed = _counting_chunks(monkeypatch)
    assert homology_action(word, surface) == _fold(surface, word)
    assert [max(abs(x) for row in chunk for x in row).bit_length()
            for chunk in unpacked] == [51, 255, 255]
    # The chunk composed at the trigger is the product the last one is
    # composed after.
    assert len(composed) == 1
    assert composed[0][1] == unpacked[1]


def test_a_kept_chunk_closes_before_its_bound_reaches_the_slot_width():
    # p = 2**64 - 2: in acting order a+ a- a+ brings the bound to 192 with
    # entries of 64 bits, so the next letter keeps the chunk at a bound of
    # 64 + 64.  Two letters later the bound reaches exactly 256, where four
    # alternating letters make 256-bit entries, one bit too many for a
    # 256-bit slot: the chunk must be composed there.
    surface = _alternating_page(2**64 - 2)
    acting = (("a", "+"), ("a", "-")) + (("a", "+"), ("b", "-")) * 3
    word = tuple(reversed(acting))
    assert homology_action(word, surface) == _fold(surface, word)


def test_a_random_lantern_word_of_2000_letters_composes_at_most_one_chunk(monkeypatch):
    # Random lantern words grow about 0.11 bits a letter, far below the
    # growth bound: a chunk closed on the bound alone was composed 15 times.
    surface, _ = lantern_ambient_model()
    names = [name for name, _ in surface.curves]
    rng = random.Random(5)
    word = tuple((rng.choice(names), rng.choice("+-")) for _ in range(2000))
    _, composed = _counting_chunks(monkeypatch)
    action = homology_action(word, surface)
    assert len(composed) <= 1
    monkeypatch.undo()
    assert action == _product(
        homology_action(word[:1000], surface), homology_action(word[1000:], surface)
    )


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
    broken = SurfaceModel(surface.genus, surface.boundary_count, surface.pairing,
                          surface.curves + (("fake", (9, 0, 0, 0, 0, 0, 0)),),
                          surface.boundary_classes)
    bad = LanternConfiguration(config.one, config.two, config.three, config.four, "fake",
                               config.one_three, config.two_three)
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
    stabilized = SurfaceModel(
        stabilized.genus, stabilized.boundary_count, stabilized.pairing,
        stabilized.curves + (("kappa_minus", (1, 1)),), stabilized.boundary_classes,
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


@pytest.mark.parametrize("n, index", [(1, 2), (2, 1), (3, 1)])
def test_giroux_destabilize_drops_the_last_unit_coordinate(n, index):
    # The coordinates A8's chain reductions drop: v = (0, 1, 1), for n = 1,
    # has two unit entries and loses the last; sigma2 = (0, 1, 0), for
    # n = 2 and 3, has one.
    surface, _, _, _, curve, boundary, _ = chain_reduction_fixture(n)
    page, word = giroux_destabilize(surface, ((curve, "+"),), curve, drop_boundary=boundary)
    rest = tuple((name, vec) for name, vec in surface.curves if name != curve)
    assert word == ()
    assert page == openbook._quotient(surface, surface.curve_class(curve), index, rest, boundary)


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
    with pytest.raises(ValueError, match="got <an integer too long to print>$"):
        attach_surgery_twists(surface, base, "kappa_minus", "pushoff", -10**5000)


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


@pytest.mark.parametrize("one, two, three, one_two, one_three, two_three", [
    ("p", "q", "z", "pq", "p", "q"),
    ("p", "z", "q", "p", "pq", "q"),
    ("z", "p", "q", "p", "q", "pq"),
], ids=["roles-1-2", "roles-1-3", "roles-2-3"])
def test_lantern_validation_checks_each_pair_of_boundary_roles(
        one, two, three, one_two, one_three, two_three):
    # The two crossing curves of a one-holed torus fill two of roles 1, 2, 3.
    _, surface = _lantern_on_a_torus()
    config = LanternConfiguration(one=one, two=two, three=three, four="n", one_two=one_two,
                                  one_three=one_three, two_three=two_three)
    with pytest.raises(ValueError, match="lantern boundary roles must pair to zero"):
        config.validate(surface)


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
