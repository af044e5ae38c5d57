"""The O(n) pushoff-chain kernel against the generic elimination.

`det_int`, `signature_exact` and `solve_exact`, the one-call entry points
of the generic elimination, run on the materialized n x n entries, are
the oracle: on every chain of unit links, zero continuants and singular
matrices included, the kernel's det, signature, adjugate vector, solution
and c^2 must equal theirs.  A chain with a link other than +1 or -1 is
refused.  c^2 must equal x . rot, the check `SpinCEvaluation` does
not make itself.  d3, which reads det * c^2 as one integer
(`adjugate_form`), must equal the DGS formula assembled from them.
"""

import dataclasses
import os
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import contactsurgery
from contactsurgery import linalg
from contactsurgery.diagramio import presentation_from_dict, presentation_to_dict
from contactsurgery.errors import NotRationalHomologySphere
from contactsurgery.expansion import (
    ContactSurgeryPresentation,
    Component,
    all_negative_presentation,
    expand,
    presentation_for_framing,
)
from contactsurgery.homology import (
    HomologyData,
    LinkingMatrix,
    d3_invariant,
    homology_data,
    homology_fields,
    linking_matrix,
    spin_c_evaluation,
)
from contactsurgery.legendrian import LegendrianKnot
from contactsurgery.linalg import det_int, pushoff_chain, signature_exact, solve_exact

SETTINGS = settings(
    max_examples=50, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def knots(draw, tb_min=-6, tb_max=1):
    """(tb, rot) with tb + rot odd and |rot| <= |tb| + 1."""
    tb = draw(st.integers(tb_min, tb_max))
    bound = abs(tb) + 1
    rot = draw(st.sampled_from([r for r in range(-bound, bound + 1) if (tb + r) % 2]))
    return LegendrianKnot(tb, rot)


coefficients = st.one_of(
    st.integers(1, 11).map(Fraction),  # a +1 head, then a chain
    st.builds(lambda p, q: Fraction(-p, q), st.integers(1, 9), st.integers(1, 6)),
)


def zero_tail_presentation(knot):
    """+1 on the knot, then -1 on its unstabilized pushoff: T[1][1] = 0, so
    P_1 = 0, the continuant the tail-first substitution would divide by."""
    return ContactSurgeryPresentation((
        Component(knot, 1),
        Component(knot, -1),
    ))


@st.composite
def presentations(draw):
    knot = draw(knots())
    kind = draw(st.sampled_from(["coefficient", "infinite H1", "zero tail"]))
    if kind == "zero tail":
        return zero_tail_presentation(knot)
    if kind == "infinite H1":
        # tb + n = 0: the surgered manifold has infinite H1.
        knot = draw(knots(tb_max=-1))
        r = Fraction(-knot.tb)
    else:
        r = draw(coefficients)
    choices = expand(knot, r)
    return choices[draw(st.integers(0, len(choices) - 1))]


def row_formula(presentation):
    """Row i is (tb_0, ..., tb_{i-1}, tb_i + coefficient_i, tb_i, ..., tb_i)."""
    comps = presentation.components
    tbs = [c.legendrian.tb for c in comps]
    return tuple(
        tuple(tbs[min(i, j)] + (c.coefficient if i == j else 0) for j in range(len(comps)))
        for i, c in enumerate(comps)
    )


def assert_solves(matrix, rot):
    """adj(M) rot = det * x for the generic solution x, which solves
    M x = rot by substitution, and det * (x . rot) = rot^T adj(M) rot."""
    entries, det = matrix.entries, matrix.determinant()
    solution = solve_exact(entries, rot)
    assert all(sum(a * x for a, x in zip(row, solution)) == r for row, r in zip(entries, rot))
    assert matrix.adjugate_vector(rot) == [det * x for x in solution]
    c_squared = sum(x * r for x, r in zip(solution, rot))
    assert det * c_squared == matrix.adjugate_form(rot)


def assert_matches_generic(diagonal, linking, rot):
    matrix = LinkingMatrix(diagonal, linking)
    entries = matrix.entries
    assert matrix.determinant() == det_int(entries)
    assert homology_data(matrix).signature == signature_exact(entries)
    if matrix.determinant():
        assert_solves(matrix, rot)


@SETTINGS
@given(presentations())
def test_kernel_matches_generic_on_presentations(presentation):
    # The O(n) path (determinant, signature, spin_c_evaluation) never
    # builds the entries; here they are built, checked against the rows of
    # the linking matrix, and handed to the generic kernels.
    matrix = linking_matrix(presentation)
    entries = matrix.entries
    assert entries == row_formula(presentation)
    rot = tuple(c.legendrian.rot for c in presentation.components)
    det = det_int(entries)
    assert matrix.determinant() == det
    data = homology_data(matrix)
    assert (data.determinant, data.signature) == (det, signature_exact(entries))
    if det:
        spin = spin_c_evaluation(presentation)
        assert spin.solution == solve_exact(entries, rot)
        assert spin.c_squared == sum(x * r for x, r in zip(spin.solution, rot))
        # The independent pass: spin^c reads det * c^2 off adj(M) rot.
        assert det * spin.c_squared == matrix.adjugate_form(rot)


@SETTINGS
@given(presentations())
# A lone +1 on a tb = -1 knot, and +1 then two links on a tb = -3 knot:
# det = 0, so |H1| is infinite, under a +1 head.
@example(all_negative_presentation(LegendrianKnot(-1, 0), 1))
@example(all_negative_presentation(LegendrianKnot(-3, 0), 3))
def test_the_homology_verbs_reader_is_homology_data_as_a_dict(presentation):
    # The `homology` verb renders `homology_fields`, which builds no record.
    matrix = linking_matrix(presentation)
    fields = homology_fields(matrix)
    assert fields == dataclasses.asdict(homology_data(matrix))
    assert list(fields) == [f.name for f in dataclasses.fields(HomologyData)]
    assert "homology_fields" not in contactsurgery.__all__


@SETTINGS
@given(presentations())
def test_determinant_is_bareiss_on_shared_and_parsed_matrices(presentation):
    # A presentation from expand reads its expansion's shared matrix; the
    # same diagram read back from its dict gets a matrix of its own.
    parsed = presentation_from_dict(presentation_to_dict(presentation))
    assert parsed == presentation
    shared, own = linking_matrix(presentation), linking_matrix(parsed)
    assert own == shared
    assert shared.determinant() == own.determinant() == det_int(own.entries)


@st.composite
def chains(draw):
    """Any pushoff chain of unit links: its diagonal d, and M[i][j] =
    t_min(i, j) off it, with each b_k = t_k - d_k drawn from +1 and -1.

    Half the time d_k is drawn so that a_k = d_k - d_{k-1} - 2 b_{k-1} is
    -1, 0 or 1, so that zero continuants are common.
    """
    n = draw(st.integers(0, 8))
    d = [draw(st.integers(-8, 8))] if n else []
    t = []
    for _ in range(n - 1):
        t.append(d[-1] + draw(st.sampled_from((1, -1))))
        near = 2 * t[-1] - d[-1]  # where a_k = 0
        d.append(draw(st.one_of(st.integers(-8, 8), st.integers(near - 1, near + 1))))
    return tuple(d), tuple(t)


@SETTINGS
@given(chains(), st.lists(st.integers(-6, 6), min_size=8, max_size=8))
# An interior zero continuant, P_1 = 0, with det = 1.
@example(((-1, 0, 1), (0, 1)), [1, -2, 3, 0, 0, 0, 0, 0])
@example(((), ()), [0] * 8)  # n = 0: det 1, signature 0, the empty solution
@example(((-2,), ()), [3] + [0] * 7)  # n = 1: no link, so no b
def test_kernel_matches_generic_on_any_chain(chain, rhs):
    diagonal, linking = chain
    entries = LinkingMatrix(diagonal, linking).entries
    assert entries == tuple(
        tuple(diagonal[i] if i == j else linking[min(i, j)] for j in range(len(diagonal)))
        for i in range(len(diagonal))
    )
    rot = tuple(rhs[: len(entries)])
    matrix = LinkingMatrix(diagonal, linking)
    assert matrix.determinant() == det_int(entries)
    data = homology_data(matrix)
    assert (data.determinant, data.signature) == (det_int(entries), signature_exact(entries))
    assert_matches_generic(diagonal, linking, rot)


def counted_pushoff_chain(monkeypatch):
    """Route `linalg.pushoff_chain` through a counter; returns the list of
    the chain lengths it was called on."""
    calls = []

    def counted(diagonal, linking):
        calls.append(len(diagonal))
        return pushoff_chain(diagonal, linking)

    monkeypatch.setattr(linalg, "pushoff_chain", counted)
    return calls


def test_linking_needs_one_entry_fewer_than_diagonal(monkeypatch):
    LinkingMatrix((), ())
    LinkingMatrix((3,), ())
    calls = counted_pushoff_chain(monkeypatch)
    for diagonal, linking in [((3,), (1,)), ((3, 4), ()), ((), (1,))]:
        with pytest.raises(ValueError, match="one entry fewer"):
            LinkingMatrix(diagonal, linking)
    assert calls == []  # the lengths are checked before the matrix is factored


def test_a_matrix_is_factored_when_built_and_only_then(monkeypatch):
    diagonal, linking = (-1, -4, -4), (-2, -3)
    expected = pushoff_chain(diagonal, linking)
    calls = counted_pushoff_chain(monkeypatch)
    matrix = LinkingMatrix(diagonal, linking)
    assert vars(matrix)["_chain"] == expected  # stored by the constructor
    assert calls == [3]
    assert (matrix.determinant(), homology_data(matrix).signature) == expected[2:]
    assert matrix.adjugate_form((-1, -2, -2)) == -1
    rhs = (-1, -2, -2)
    solution = solve_exact(matrix.entries, rhs)
    assert solution == (1, 0, 0)
    assert matrix.adjugate_vector(rhs) == [expected[2] * x for x in solution]
    assert calls == [3]
    # `_chain` is not a field, and the `entries` are built on each read,
    # never kept: equality, hash and repr read the fields only.
    assert matrix.entries == matrix.entries
    assert set(vars(matrix)) == {"diagonal", "linking", "_chain"}
    other = LinkingMatrix(diagonal, linking)
    assert matrix == other and hash(matrix) == hash(other)
    assert repr(matrix) == "LinkingMatrix(diagonal=(-1, -4, -4), linking=(-2, -3))"


@pytest.mark.parametrize("first", [0, -1], ids=["first presentation", "last presentation"])
def test_an_expansion_builds_its_matrix_once_whichever_read_comes_first(monkeypatch, first):
    expansion = expand(LegendrianKnot(-2, 1), Fraction(-31, 7))
    calls = counted_pushoff_chain(monkeypatch)
    matrix = linking_matrix(expansion[first])
    assert expansion._matrix is matrix  # kept by the expansion, its owner
    assert all(linking_matrix(p) is matrix for p in expansion)
    assert calls == [len(expansion.tbs)]
    assert matrix == LinkingMatrix(
        tuple(c.legendrian.tb + c.coefficient for c in expansion[0].components),
        expansion.tbs[:-1])


def d3_path_frames(presentation):
    """The code of each Python frame `homology_data(linking_matrix(p))` and
    then `d3_invariant(p)` enter, in order, recorded by `sys.setprofile`."""
    codes = []

    def record(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(record)
    try:
        homology_data(linking_matrix(presentation))
        d3_invariant(presentation)
    finally:
        sys.setprofile(None)
    return codes


def is_machinery(code):
    """Whether a frame runs `functools` (a `cached_property` read) or
    importlib (a function-local import), not the package's own work."""
    name = code.co_filename
    return name.endswith(f"{os.sep}functools.py") or name.startswith("<frozen importlib")


@pytest.mark.parametrize("make, fresh, kept", [
    (lambda: all_negative_presentation(LegendrianKnot(-1, 0), 12), 11, 8),
    (lambda: expand(LegendrianKnot(-1, 0), Fraction(-7, 3))[1], 11, 8),
], ids=["all negative", "expansion"])
def test_the_d3_path_enters_few_python_frames(make, fresh, kept):
    # The benchmark times each op after a reference load, with cold caches,
    # as a one-shot CLI call runs; a cold op pays mostly for the frames it
    # enters.  The budgets are the counts on Python 3.11, where they were
    # measured; CI runs 3.10-3.13.  One frame is `d3_invariant`'s rot
    # comprehension, which 3.12 and later inline.  First use also builds
    # and factors the matrix (`LinkingMatrix.__init__`, `_check`,
    # `pushoff_chain`), an expansion's shared matrix just as a standalone
    # presentation's own.  The process's first `HomologyData` makes the
    # class a dataclass, a one-time cost outside the d3 path; one is built
    # first, so the count is the same when the test runs alone.
    HomologyData(1, 1, 0, 2)
    presentation = make()
    first = d3_path_frames(presentation)
    assert len(first) <= fresh
    assert not [code.co_filename for code in first if is_machinery(code)]
    assert len(d3_path_frames(presentation)) <= kept


def iteration_frames(presentations, n):
    """The code of each Python frame that taking the next n items of the
    iterator `presentations` enters, recorded by `sys.setprofile`."""
    codes = []

    def record(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(record)
    try:
        for _ in islice(presentations, n):
            pass
    finally:
        sys.setprofile(None)
    return codes


@pytest.mark.parametrize("r, frames", [
    (-1000, 4),
    (Fraction(-1656602001, 8242004), 4),
    (Fraction(-1721, 42), 3.1),
], ids=["one link", "four links", "two links"])
def test_iterating_an_expansion_enters_few_python_frames(r, frames):
    # The one link has 999 stabilizations; the four links 200 each, so 999
    # presentations run the last link's inner loop over 5 prefixes.  A
    # presentation enters the generator and the unchecked builders of its
    # last link's knot and component and of itself: 4 frames, on Python
    # 3.11, where they were measured.  A new prefix adds a few frames
    # more, and the count's mean, to one decimal, leaves them out.  With
    # the checked constructors, whose `_check`s re-prove what the
    # generator holds, a presentation entered 7.  The two links, 1 - r =
    # [42, 42], have 40 stabilizations each, so 999 presentations span 25
    # prefixes.  An iteration builds the last link's knot at a rot once and
    # shares it across prefixes: 3.1 frames, against 4.1 when each
    # presentation built its own knot.
    n = 999
    codes = iteration_frames(iter(expand(LegendrianKnot(-1, 0), r)), n)
    assert round(len(codes) / n, 1) <= frames
    assert not [code.co_filename for code in codes if is_machinery(code)]


@SETTINGS
@given(knots())
@example(LegendrianKnot(-1, 0))
def test_zero_tail_continuant_through_the_chain_kernel(knot):
    # An unstabilized pushoff of the +1 component: T[1][1] = 0, so P_1 = 0.
    # The -1 surgery on the pushoff cancels the +1 surgery, so d3 is that
    # of the standard S^3 for every knot.
    presentation = zero_tail_presentation(knot)
    matrix = linking_matrix(presentation)
    tb, rot = knot.tb, knot.rot
    assert matrix.entries == ((tb + 1, tb), (tb, tb - 1))
    assert pushoff_chain(matrix.diagonal, matrix.linking)[0][1] == 0  # a_1 = P_1
    assert homology_data(matrix).determinant == -1
    spin = spin_c_evaluation(presentation)
    assert spin.solution == solve_exact(matrix.entries, (rot, rot))
    assert spin.c_squared == sum(x * r for x, r in zip(spin.solution, (rot, rot)))
    assert d3_invariant(presentation) == Fraction(-1, 2)


def test_kernel_on_the_hand_checked_matrix():
    # ((-1, -2, -2), (-2, -4, -3), (-2, -3, -4))
    assert pushoff_chain((-1, -4, -4), (-2, -3)) == ((-1, -1, -2), (-1, 1), 1, -1)
    matrix = LinkingMatrix((-1, -4, -4), (-2, -3))
    assert (matrix.determinant(), homology_data(matrix).signature) == (1, -1)
    solution = solve_exact(matrix.entries, (-1, -2, -2))
    assert solution == (1, 0, 0)
    assert matrix.adjugate_vector((-1, -2, -2)) == [matrix.determinant() * x for x in solution]
    assert matrix.adjugate_form((-1, -2, -2)) == -1
    assert LinkingMatrix((), ()).determinant() == 1


@pytest.mark.parametrize("rhs", [(-1, -2), (-1, -2, -2, 0)], ids=["short", "long"])
def test_the_kernels_refuse_a_right_hand_side_of_the_wrong_length(rhs):
    # The loops zip the rhs against the matrix, which would silently
    # truncate either one.
    matrix = LinkingMatrix((-1, -4, -4), (-2, -3))
    for solve in (matrix.adjugate_vector, matrix.adjugate_form,
                  lambda rhs: solve_exact(matrix.entries, rhs)):
        with pytest.raises(ValueError, match=f"rhs needs 3 entries, got {len(rhs)}"):
            solve(rhs)


@SETTINGS
@given(knots(tb_max=-1), st.integers(1, 200))
@example(LegendrianKnot(-1, 0), 200)
@example(LegendrianKnot(-6, 5), 200)
def test_d3_invariant_under_negative_stabilization(knot, n):
    # A3: surgery at one framing on K and on its negative stabilization
    # present the same contact manifold.  The generic elimination would
    # take about a minute per d3 at n = 200.
    assume(knot.tb + n != 0)
    stabilized = LegendrianKnot(knot.tb - 1, knot.rot - 1)
    framing = knot.tb + n
    assert d3_invariant(all_negative_presentation(knot, n)) == d3_invariant(
        presentation_for_framing(stabilized, framing)
    )


def test_d3_memory_is_linear_in_the_chain_length():
    # The n x n linking matrix of this chain alone would hold 16 million
    # references (a tracemalloc peak of about 120 MB); the O(n) path holds
    # a few n-tuples (about 1 MB).
    knot = LegendrianKnot(-1, 0)
    tracemalloc.start()
    try:
        d3 = d3_invariant(all_negative_presentation(knot, 4000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d3 == d3_invariant(presentation_for_framing(LegendrianKnot(-2, -1), 3999))
    assert peak < 4 * 2**20


def long_chain(n):
    """The first presentation of a random negative continued fraction with
    n terms of 3-5 (`random.Random(5)`) on the Legendrian unknot: its
    continuants grow by about 1.85 bits per link."""
    rng = random.Random(5)
    terms = [rng.randint(3, 5) for _ in range(n)]
    p, q = 1, 0  # [a_0, ..., a_m] = p / q, from the tail
    for a in reversed(terms):
        p, q = a * p - q, p
    presentation = expand(LegendrianKnot(-1, 0), 1 - Fraction(p, q))[0]
    assert len(presentation.components) == n
    return presentation


def test_spin_c_evaluation_keeps_nothing_on_the_matrix():
    # The matrix is shared by the whole expansion and lives as long as any
    # of its presentations; tail continuants kept on it would hold about
    # 0.5 MB here.
    presentation = long_chain(2000)
    matrix = linking_matrix(presentation)
    matrix.determinant()  # runs the forward pass, whose result the matrix keeps
    tracemalloc.start()
    try:
        spin = spin_c_evaluation(presentation)
        assert spin.c_squared == sum(x * r for x, r in zip(spin.solution, spin.rot_vector))
        del spin
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 0.1 * 2**20


def test_spin_c_evaluation_peaks_near_its_answer():
    # The row walk keeps two w's beside the answer's n Fractions (about
    # 1.9 MB here), and each integer of adj(M) rot gives way to its
    # Fraction in place; lists of n continuants and of n w's, or the
    # integers and the Fractions held at once, would double it.
    presentation = long_chain(2000)
    linking_matrix(presentation).determinant()
    tracemalloc.start()
    try:
        spin = spin_c_evaluation(presentation)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spin.solution) == 2000
    assert peak <= 1.25 * retained


def bordered(entries, rhs):
    """[[M, rhs], [rhs^T, 0]], whose determinant is -rhs^T adj(M) rhs."""
    return tuple(row + (r,) for row, r in zip(entries, rhs)) + (tuple(rhs) + (0,),)


@SETTINGS
@given(chains(), st.lists(st.integers(-6, 6), min_size=8, max_size=8))
@example(((1, 4), (2,)), [1, -2, 0, 0, 0, 0, 0, 0])  # T = [[1, 1], [1, 1]], singular
@example(((-1, 0, 1), (0, 1)), [1, -2, 3, 0, 0, 0, 0, 0])
def test_adjugate_form_is_det_times_c_squared(chain, rhs):
    # rhs^T adj(M) rhs by the bordered determinant on every chain, singular
    # ones included, and det * c^2 from the generic solution where det != 0.
    diagonal, linking = chain
    rot = tuple(rhs[: len(diagonal)])
    matrix = LinkingMatrix(diagonal, linking)
    form = matrix.adjugate_form(rot)
    assert isinstance(form, int)
    assert form == -det_int(bordered(matrix.entries, rot))
    if matrix.determinant():
        assert_solves(matrix, rot)


@st.composite
def standalone_presentations(draw):
    """A presentation from `expand`, from `all_negative_presentation`
    (tb + n = 0 included), or read back from its dict."""
    kind = draw(st.sampled_from(["expansion", "all negative", "parsed"]))
    if kind == "all negative":
        return all_negative_presentation(draw(knots()), draw(st.integers(1, 24)))
    presentation = draw(presentations())
    if kind == "parsed":
        return presentation_from_dict(presentation_to_dict(presentation))
    return presentation


def generic_d3(presentation):
    """(x . rot - 3 signature - 2 (n + 1)) / 4 + q, by the generic kernels
    on the n x n entries; None where the matrix is singular."""
    entries = linking_matrix(presentation).entries
    assert entries == row_formula(presentation)
    if det_int(entries) == 0:
        return None
    comps = presentation.components
    rot = tuple(c.legendrian.rot for c in comps)
    x = solve_exact(entries, rot)
    q = sum(1 for c in comps if c.coefficient == 1)
    c_squared = sum(xi * r for xi, r in zip(x, rot))
    return (c_squared - 3 * signature_exact(entries) - 2 * (len(comps) + 1)) / 4 + q


@settings(SETTINGS, derandomize=True)
@given(standalone_presentations())
def test_d3_invariant_matches_the_generic_formula(presentation):
    expected = generic_d3(presentation)
    if expected is None:
        with pytest.raises(NotRationalHomologySphere, match="infinite H1"):
            d3_invariant(presentation)
        return
    d3 = d3_invariant(presentation)
    assert d3 == expected
    assert d3_invariant(presentation) == d3  # from the kept matrix


@pytest.mark.parametrize("make", [
    lambda: all_negative_presentation(LegendrianKnot(-2, 1), 9),
    lambda: presentation_from_dict(
        presentation_to_dict(expand(LegendrianKnot(-1, 0), Fraction(-9, 4))[1])),
], ids=["all negative", "parsed"])
def test_a_standalone_presentation_factors_its_matrix_once(make, monkeypatch):
    presentation, fresh = make(), make()
    before = (repr(presentation), hash(presentation))
    calls = []

    def counted(diagonal, linking):
        calls.append(len(diagonal))
        return pushoff_chain(diagonal, linking)

    monkeypatch.setattr(linalg, "pushoff_chain", counted)
    matrix = linking_matrix(presentation)
    assert linking_matrix(presentation) is matrix
    homology_data(linking_matrix(presentation))
    d3_invariant(presentation)
    assert calls == [len(matrix.diagonal)]
    # The kept matrix is not a field.
    assert (repr(presentation), hash(presentation)) == before
    assert presentation == fresh and hash(fresh) == hash(presentation)
    assert repr(fresh) == repr(presentation)
    copy = ContactSurgeryPresentation(presentation.components, presentation.overtwisted)
    assert linking_matrix(copy) is not matrix
    assert linking_matrix(copy) == matrix
    assert linking_matrix(fresh) is not matrix


@st.composite
def tridiagonals(draw):
    """(diagonal, linking, rhs) of a pushoff chain drawn through its
    tridiagonal form: unit links b_k, and a_k so small that zero head and
    tail continuants, and singular matrices, are common, with n = 0 and
    n = 1 among them."""
    n = draw(st.integers(0, 9))
    a = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    b = draw(st.lists(st.sampled_from((1, -1)), min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    # Invert a_0 = d_0, b_k = t_k - d_k and a_k = d_k - 2 t_{k-1} + d_{k-1}.
    d, t = a[:1], []
    for ak, bk in zip(a[1:], b):
        t.append(d[-1] + bk)
        d.append(ak + 2 * t[-1] - d[-1])
    rhs = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    return tuple(d), tuple(t), tuple(rhs)


@st.composite
def presentation_chains(draw):
    """(diagonal, linking, rot) of a presentation, +1 heads included."""
    presentation = draw(presentations())
    matrix = linking_matrix(presentation)
    return matrix.diagonal, matrix.linking, tuple(c.legendrian.rot for c in presentation.components)


@settings(SETTINGS, max_examples=300)
@given(st.one_of(tridiagonals(), presentation_chains()))
@example(((), (), ()))  # n = 0
@example(((-2,), (), (3,)))  # n = 1
@example(((1, 4), (2,), (1, -2)))  # T = [[1, 1], [1, 1]], singular
@example(((0, 3), (1,), (1, 1)))  # a zero head continuant, h_1 = a_0 = 0
@example(((1, 4, 7), (2, 5), (2, -1, 1)))  # an interior zero head continuant, h_2 = 0
@example(((-1, 0, 1), (0, 1), (1, -2, 3)))  # a zero tail continuant, P_1 = 0
@example(((-1, -3), (-2,), (1, 1)))  # a +1 head, then its unstabilized pushoff: P_1 = 0
def test_forward_passes_match_the_bordered_determinant(chain):
    # det and signature from the one forward pass, rhs^T adj(M) rhs from
    # the bordered recurrence, and the solution from the row walk back from
    # w_{n-1}, against the generic elimination on the n x n entries.
    diagonal, linking, rhs = chain
    matrix = LinkingMatrix(diagonal, linking)
    entries = matrix.entries
    det = det_int(entries)
    assert (matrix.determinant(), homology_data(matrix).signature) == (
        det, signature_exact(entries))
    form = matrix.adjugate_form(rhs)
    assert isinstance(form, int)
    assert form == -det_int(bordered(entries, rhs))
    if det:
        assert matrix.adjugate_vector(rhs) == [det * x for x in solve_exact(entries, rhs)]


@pytest.mark.parametrize("diagonal, linking, link, b", [
    ((3, 3), (3,), 0, 0),  # T = diag(3, 0)
    ((0, 3), (0,), 0, 0),  # T = diag(0, 3)
    ((2, 5), (2,), 0, 0),  # T = diag(2, 3)
    ((2, 5, 4), (2, 3), 0, 0),  # b = (0, -2): the first is named
    ((2, 4, 9, 12), (2, 5, 9), 0, 0),  # b = (0, 1, 0)
    ((-1, -4, -4, -4), (-2, -4, -5), 1, 0),  # an inner split
    ((1, 4, 7), (2, 4), 1, 0),  # a split at the last link
    ((0, 3), (2,), 0, 2),
    ((-1, -4, -4), (-2, -2), 1, 2),
    ((-1, -4, -4, -4), (-2, -6, -5), 1, -2),
])
def test_a_link_other_than_a_unit_is_refused(diagonal, linking, link, b):
    # In a chain of (+1) and (-1) surgeries b_k = -coefficient_k, so only
    # unit links are admitted; the error names the first other one.
    message = rf"^link {link} has linking - diagonal = {b}, not \+1 or -1$"
    with pytest.raises(ValueError, match=message):
        pushoff_chain(diagonal, linking)
    with pytest.raises(ValueError, match=message):
        LinkingMatrix(diagonal, linking)


def cofactor_vector(entries, rhs):
    """adj(M) rhs by cofactors: entry i is the sum over j of
    (-1)^(i + j) det(M without row j and column i) rhs_j."""
    n = len(entries)
    return [
        sum((-1) ** (i + j) * det_int(tuple(
            row[:i] + row[i + 1:] for r, row in enumerate(entries) if r != j)) * rhs[j]
            for j in range(n))
        for i in range(n)
    ]


@settings(SETTINGS, max_examples=200)
@given(st.one_of(tridiagonals(), presentation_chains()))
@example(((), (), ()))  # n = 0
@example(((0,), (), (3,)))  # n = 1, singular: adj(M) = (1)
@example(((1, 4), (2,), (1, -2)))  # T = [[1, 1], [1, 1]], singular
@example(((-1, 0, 1), (0, 1), (1, -2, 3)))  # a zero tail continuant, P_1 = 0
@example(((1, 4, 7), (2, 5), (2, -1, 1)))  # an interior zero head continuant, h_2 = 0
def test_adjugate_vector_is_the_cofactor_expansion(chain):
    diagonal, linking, rhs = chain
    matrix = LinkingMatrix(diagonal, linking)
    vector = matrix.adjugate_vector(rhs)
    assert len(vector) == len(rhs) and all(type(v) is int for v in vector)
    if len(rhs) <= 8:
        assert vector == cofactor_vector(matrix.entries, rhs)
    assert sum(v * r for v, r in zip(vector, rhs)) == matrix.adjugate_form(rhs)
    det = matrix.determinant()
    if det:
        assert vector == [det * x for x in solve_exact(matrix.entries, rhs)]


@settings(SETTINGS, max_examples=200)
@given(st.one_of(tridiagonals(), presentation_chains()), st.booleans())
@example(((-1, -4, -4), (-2, -3), (1, 0, 0)), True)  # det 1: every v is in the image
@example(((-5, -5), (-4,), (1, 0)), False)  # T = [[-5, 1], [1, -2]], det 9
def test_h1_is_cyclic_so_one_sum_tells_the_image(chain, in_image):
    # Unit links make coker M = H1 cyclic of order |det|, generated by
    # e_0's class, and 1^T adj(M) = e_0^T adj(T) P^T is primitive.  So v
    # lies in M Z^n, the test of two rot vectors for one spin^c structure,
    # just when the one sum of adj(M) v is divisible by det.
    diagonal, linking, u = chain
    matrix = LinkingMatrix(diagonal, linking)
    det = matrix.determinant()
    assume(det)
    entries = matrix.entries
    v = tuple(sum(m * x for m, x in zip(row, u)) for row in entries) if in_image else u
    integral = all(x.denominator == 1 for x in solve_exact(entries, v))
    assert integral == (sum(matrix.adjugate_vector(v)) % det == 0)
    if in_image:
        assert integral
