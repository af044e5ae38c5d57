"""The O(n) pushoff-chain kernel against the generic kernels it replaces.

`det_int`, `signature_exact` and `solve_exact` are the oracle: on every
chain the kernel's det, signature, solution and c^2 must equal theirs,
and every matrix the kernel declines must still get the generic answer.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from contactsurgery.expansion import (
    ContactSurgeryPresentation,
    Component,
    ROLE_CHAIN,
    ROLE_PLUS_ONE,
    all_negative_presentation,
    expand,
    presentation_for_framing,
)
from contactsurgery.homology import (
    LinkingMatrix,
    d3_invariant,
    homology_data,
    linking_matrix,
    spin_c_evaluation,
)
from contactsurgery.legendrian import Framing, LegendrianKnot
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


@st.composite
def presentations(draw):
    knot = draw(knots())
    if draw(st.booleans()):
        # tb + n = 0: the surgered manifold has infinite H1.
        knot = draw(knots(tb_max=-1))
        r = Fraction(-knot.tb)
    else:
        r = draw(coefficients)
    choices = expand(knot, r)
    return choices[draw(st.integers(0, len(choices) - 1))]


def assert_matches_generic(entries, rot):
    chain = pushoff_chain(entries)
    assert chain is not None
    assert chain.determinant == det_int(entries)
    assert chain.signature == signature_exact(entries)
    if chain.determinant:
        solution, c_squared = chain.solve(rot)
        assert solution == solve_exact(entries, rot)
        assert c_squared == sum(x * r for x, r in zip(solution, rot))


@SETTINGS
@given(presentations())
def test_kernel_matches_generic_on_presentations(presentation):
    entries = linking_matrix(presentation).entries
    rot = tuple(c.legendrian.rot for c in presentation.components)
    assert_matches_generic(entries, rot)


@st.composite
def chain_matrices(draw):
    """Any integer pushoff chain: M[i][j] = t_min(i, j) off the diagonal."""
    n = draw(st.integers(1, 8))
    t = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    d = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    return tuple(
        tuple(d[i] if i == j else t[min(i, j)] for j in range(n)) for i in range(n)
    )


@SETTINGS
@given(chain_matrices(), st.lists(st.integers(-6, 6), min_size=8, max_size=8))
def test_kernel_matches_generic_on_any_chain(entries, rhs):
    rot = tuple(rhs[: len(entries)])
    if pushoff_chain(entries) is None:
        # A zero continuant below P_0: only the generic path answers.
        data = homology_data(LinkingMatrix(entries))
        assert data.determinant == det_int(entries)
        assert data.signature == signature_exact(entries)
    else:
        assert_matches_generic(entries, rot)


def is_chain(m):
    n = len(m)
    return all(
        m[i][j] == m[j][i] == m[i][i + 1] for i in range(n) for j in range(i + 1, n)
    )


@SETTINGS
@given(st.integers(2, 6).flatmap(
    lambda n: st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n).map(
        lambda xs: tuple(
            tuple(xs[min(i, j) * n + max(i, j)] for j in range(n)) for i in range(n)
        )
    )
))
def test_non_chains_take_the_generic_path(entries):
    assume(not is_chain(entries))
    assert pushoff_chain(entries) is None
    matrix = LinkingMatrix(entries)
    data = homology_data(matrix)
    assert data.determinant == det_int(entries)
    assert data.signature == signature_exact(entries)


def test_asymmetric_matrices_are_not_chains():
    assert pushoff_chain(((1, 2), (3, 4))) is None
    assert pushoff_chain(((1, 2, 2), (2, 4, 5), (2, 6, 4))) is None
    assert pushoff_chain(((1,), (2, 3))) is None


def test_zero_tail_continuant_takes_the_generic_path():
    # An unstabilized pushoff of the +1 component: T[1][1] = 0, so P_1 = 0.
    knot = LegendrianKnot(-1, 0)
    presentation = ContactSurgeryPresentation((
        Component(ROLE_PLUS_ONE, knot, 1),
        Component(ROLE_CHAIN, knot, -1),
    ))
    matrix = linking_matrix(presentation)
    assert matrix.entries == ((0, -1), (-1, -2))
    assert matrix.chain is None
    assert homology_data(matrix).determinant == -1
    spin = spin_c_evaluation(presentation, matrix)
    assert spin.solution == solve_exact(matrix.entries, (0, 0))
    assert d3_invariant(presentation) == Fraction(-1, 2)


def test_kernel_on_the_hand_checked_matrix():
    chain = pushoff_chain(((-1, -2, -2), (-2, -4, -3), (-2, -3, -4)))
    assert chain.diagonal == (-1, -1, -2)
    assert chain.off_diagonal == (-1, 1)
    assert (chain.determinant, chain.signature) == (1, -1)
    assert chain.solve((-1, -2, -2)) == ((1, 0, 0), -1)
    assert pushoff_chain(()).determinant == 1


@SETTINGS
@given(knots(tb_max=-1), st.integers(1, 200))
@example(LegendrianKnot(-1, 0), 200)
@example(LegendrianKnot(-6, 5), 200)
def test_d3_invariant_under_negative_stabilization(knot, n):
    # A3: surgery at one framing on K and on its negative stabilization
    # present the same contact manifold.  The generic path would take
    # about a minute per d3 at n = 200.
    assume(knot.tb + n != 0)
    stabilized = LegendrianKnot(knot.tb - 1, knot.rot - 1)
    framing = Framing(knot.tb + n)
    assert linking_matrix(all_negative_presentation(knot, n)).chain is not None
    assert d3_invariant(all_negative_presentation(knot, n)) == d3_invariant(
        presentation_for_framing(stabilized, framing)
    )
