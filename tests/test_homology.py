import dataclasses
import itertools
import math
import os
import pathlib
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactsurgery.acceptance import cap_class_evaluations
from contactsurgery.catalog import UNKNOT, cable_of_trefoil, torus_knot
from contactsurgery.errors import NotRationalHomologySphere
from contactsurgery.expansion import (
    ContactSurgeryPresentation,
    all_negative_presentation,
)
import contactsurgery
from contactsurgery.homology import (
    HomologyData,
    d3_invariant,
    homology_data,
    linking_matrix,
    spin_c_evaluation,
)
from contactsurgery.ledger import RULES_BY_ID, LedgerSubject
from contactsurgery.legendrian import LegendrianKnot, TransverseKnot
from contactsurgery.linalg import det_int, signature_exact, solve_exact


# ---------------------------------------------------------------------------
# Sturm-sequence signature oracle: characteristic polynomial by
# Faddeev-LeVerrier, eigenvalue signs counted with multiplicity.


def charpoly(matrix):
    """Ascending coefficients of det(tI - M), exact."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    current = [row[:] for row in m]
    for k in range(1, n + 1):
        trace = sum(current[i][i] for i in range(n))
        coeffs[n - k] = -trace / k
        if k == n:
            break
        for i in range(n):
            current[i][i] += coeffs[n - k]
        current = [
            [sum(m[i][t] * current[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _divmod_poly(num, den):
    num, den = _trim(list(num)), _trim(list(den))
    if not den:
        raise ZeroDivisionError
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    rem = list(num)
    while len(rem) >= len(den) and _trim(rem):
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
        rem = _trim(rem)
        if not rem:
            break
    return _trim(quot), _trim(rem)


def _monic(p):
    p = _trim(list(p))
    return [c / p[-1] for c in p] if p else p


def _gcd_poly(a, b):
    a, b = _monic(a), _monic(b)
    while b:
        _, r = _divmod_poly(a, b)
        a, b = b, _monic(r)
    return a


def _deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _sign_at_zero(p):
    return (p[0] > 0) - (p[0] < 0) if p else 0


def _sign_at_inf(p, positive):
    lead = p[-1]
    sign = (lead > 0) - (lead < 0)
    if not positive and (len(p) - 1) % 2 == 1:
        sign = -sign
    return sign


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_distinct(p, positive):
    p = _trim(list(p))
    if len(p) <= 1:
        return 0
    chain = [p, _deriv(p)]
    while _trim(chain[-1]):
        _, r = _divmod_poly(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    chain = [c for c in chain if _trim(c)]
    at_zero = _variations([_sign_at_zero(c) for c in chain])
    if positive:
        at_end = _variations([_sign_at_inf(c, True) for c in chain])
        return at_zero - at_end
    at_end = _variations([_sign_at_inf(c, False) for c in chain])
    return at_end - at_zero


def _count_roots(p, positive):
    p = _trim(list(p))
    if len(p) <= 1:
        return 0
    g = _gcd_poly(p, _deriv(p))
    square_free, _ = _divmod_poly(p, g)
    return _sturm_distinct(square_free, positive) + _count_roots(g, positive)


def signature_sturm(matrix) -> int:
    """Signature through eigenvalue-sign counting (independent oracle)."""
    p = charpoly(matrix)
    while p and p[0] == 0:
        p = p[1:]  # discard zero eigenvalues
    return _count_roots(p, True) - _count_roots(p, False)


# ---------------------------------------------------------------------------
# Linking matrices and homology data


def test_linking_matrix_unknot_two_components():
    presentation = all_negative_presentation(LegendrianKnot(-1, 0), 2)
    matrix = linking_matrix(presentation)
    assert matrix.entries == ((0, -1), (-1, -3))
    assert abs(matrix.determinant()) == 1


def test_linking_matrix_unknot_three_components():
    presentation = all_negative_presentation(LegendrianKnot(-1, 0), 3)
    matrix = linking_matrix(presentation)
    assert matrix.entries == ((0, -1, -1), (-1, -3, -2), (-1, -2, -3))
    assert matrix.determinant() == 2


def test_linking_matrix_single_plus_one():
    presentation = all_negative_presentation(LegendrianKnot(-1, 0), 1)
    matrix = linking_matrix(presentation)
    assert matrix.entries == ((0,),)
    assert homology_data(matrix).order_h1 is None  # infinite H1


def test_homology_data_hand_checked():
    presentation = all_negative_presentation(LegendrianKnot(-1, 0), 2)
    data = homology_data(linking_matrix(presentation))
    assert data.determinant == -1
    assert data.signature == 0
    assert data.euler_characteristic == 3


_DATA_REPR = "HomologyData(determinant=-5, order_h1=5, signature=-2, euler_characteristic=3)"


def test_homology_data_is_one_frozen_dataclass():
    # The first record built makes the class a dataclass in place, so every
    # name for it, the package's included, is the one class object.
    data = HomologyData(-5, 5, -2, 3)
    built = homology_data(linking_matrix(all_negative_presentation(LegendrianKnot(-1, 0), 2)))
    assert type(built) is HomologyData is contactsurgery.HomologyData
    assert dataclasses.is_dataclass(HomologyData)
    assert (HomologyData.__qualname__, HomologyData.__module__) == (
        "HomologyData", "contactsurgery.homology")
    assert repr(data) == _DATA_REPR
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.signature = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del data.signature
    same = HomologyData(determinant=-5, order_h1=5, signature=-2, euler_characteristic=3)
    assert data == same and hash(data) == hash(same)
    assert data != HomologyData(5, 5, -2, 3)
    assert pickle.loads(pickle.dumps(data)) == data
    assert dataclasses.replace(data, determinant=5) == HomologyData(5, 5, -2, 3)
    assert dataclasses.asdict(data) == {
        "determinant": -5, "order_h1": 5, "signature": -2, "euler_characteristic": 3}


def _fresh_process(probe: str, stdin: bytes = b"") -> list[str]:
    """The lines `probe` prints in a fresh `python -S` process."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], input=stdin,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, check=True, timeout=60,
    )
    return result.stdout.decode().splitlines()


def test_the_first_homology_data_of_a_process_loads_dataclasses():
    probe = (
        "import sys\n"
        "from contactsurgery.homology import HomologyData\n"
        "print('dataclasses' in sys.modules)\n"
        "data = HomologyData(1, 1, 0, 2)\n"
        "print('dataclasses' in sys.modules)\n"
        "import dataclasses\n"
        "print(repr(data), dataclasses.is_dataclass(data), data == HomologyData(1, 1, 0, 2))\n"
        "print(dataclasses.replace(data, signature=-1))\n"
    )
    assert _fresh_process(probe) == [
        "False", "True",
        "HomologyData(determinant=1, order_h1=1, signature=0, euler_characteristic=2) True True",
        "HomologyData(determinant=1, order_h1=1, signature=-1, euler_characteristic=2)",
    ]


def test_a_homology_data_built_by_keyword_or_unpickled_first_is_a_dataclass():
    by_keyword = (
        "from contactsurgery.homology import HomologyData\n"
        "print(HomologyData(determinant=-5, order_h1=5, signature=-2, euler_characteristic=3))\n"
    )
    assert _fresh_process(by_keyword) == [_DATA_REPR]
    unpickled = (
        "import pickle, sys\n"
        "data = pickle.load(sys.stdin.buffer)\n"
        "print(data, hash(data) == hash((-5, 5, -2, 3)))\n"
        "from contactsurgery.homology import HomologyData\n"
        "print(data == HomologyData(-5, 5, -2, 3))\n"
    )
    stdin = pickle.dumps(HomologyData(-5, 5, -2, 3))
    assert _fresh_process(unpickled, stdin) == [f"{_DATA_REPR} True", "True"]


def test_characteristic_polynomial_of_spec_matrix():
    m = ((-1, -2, -2), (-2, -4, -3), (-2, -3, -4))
    assert det_int(m) == 1
    # (t + 1)(t^2 + 8t - 1), ascending coefficients
    assert charpoly(m) == [Fraction(-1), Fraction(7), Fraction(9), Fraction(1)]
    assert signature_exact(m) == -1
    assert signature_sturm(m) == -1


def test_signature_degenerate_blocks():
    assert signature_exact(((0, 0), (0, 5))) == 1
    assert signature_exact(((0, 1), (1, 0))) == 0
    assert signature_exact(((0, 0), (0, 0))) == 0
    assert signature_exact(()) == 0


def test_signature_matches_sturm_on_random_matrices():
    rng = random.Random(4251)
    for _ in range(60):
        n = rng.randrange(1, 7)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randrange(-4, 5)
        rows = tuple(tuple(row) for row in m)
        assert signature_exact(rows) == signature_sturm(rows)


def test_signature_matches_sturm_on_linking_matrices():
    for t in range(-1, -6, -1):
        for n in range(1, 7):
            matrix = linking_matrix(
                all_negative_presentation(LegendrianKnot(t, t + 1), n)
            )
            assert signature_exact(matrix.entries) == signature_sturm(matrix.entries)


def test_solve_exact_is_exact():
    m = ((0, -1, -1), (-1, -3, -2), (-1, -2, -3))
    rhs = (0, -1, -1)
    x = solve_exact(m, rhs)
    assert all(
        sum(Fraction(m[i][j]) * x[j] for j in range(3)) == rhs[i] for i in range(3)
    )


def det_leibniz(m) -> int:
    """Determinant as the signed sum over permutations (independent oracle)."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


@st.composite
def square_matrices(draw):
    """General, symmetric, antisymmetric, zero-diagonal or singular: between
    them they reach every pivot rule of the elimination."""
    n = draw(st.integers(0, 5))
    m = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)]
    kind = draw(st.sampled_from(["general", "symmetric", "antisymmetric", "zero diagonal"]))
    for i in range(n):
        for j in range(i):
            if kind == "antisymmetric":
                m[i][j] = -m[j][i]
            elif kind != "general":
                m[i][j] = m[j][i]
        if kind in ("antisymmetric", "zero diagonal"):
            m[i][i] = 0
    if n >= 2 and draw(st.booleans()):  # singular: one row or line a multiple of another
        a, b = draw(st.permutations(range(n)))[:2]
        f = draw(st.integers(-2, 2))
        m[b] = [f * x for x in m[a]]
        if kind != "general":
            for i in range(n):
                m[i][b] = f * m[i][a]
            m[b][b] = f * f * m[a][a]
    return tuple(tuple(row) for row in m)


@settings(max_examples=400, deadline=None, database=None)
@given(square_matrices(), st.lists(st.integers(-6, 6), min_size=5, max_size=5))
@example(((0, 0), (0, 5)), [1, 2, 0, 0, 0])  # symmetric swap
@example(((0, 1), (1, 0)), [1, 2, 0, 0, 0])  # congruence e_k += e_j
@example(((0, 1), (-1, 0)), [1, 2, 0, 0, 0])  # row swap
@example(((0, 0, 1), (0, 0, 0), (1, 0, 0)), [1, 2, 3, 0, 0])  # a null direction
def test_elimination_against_independent_oracles(m, rhs):
    n = len(m)
    rhs = tuple(rhs[:n])
    det = det_int(m)
    assert det == det_leibniz(m)
    if all(m[i][j] == m[j][i] for i in range(n) for j in range(i)):
        assert signature_exact(m) == signature_sturm(m)
    else:
        with pytest.raises(ValueError):
            signature_exact(m)
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            solve_exact(m, rhs)
    else:
        x = solve_exact(m, rhs)
        assert all(sum(a * xj for a, xj in zip(row, x)) == r for row, r in zip(m, rhs))


# ---------------------------------------------------------------------------
# d3


def test_d3_empty_presentation():
    assert d3_invariant(ContactSurgeryPresentation()) == Fraction(-1, 2)


def test_d3_hand_checked_values():
    assert d3_invariant(
        all_negative_presentation(LegendrianKnot(-1, 0), 2)
    ) == Fraction(-1, 2)
    pre_stabilized = all_negative_presentation(LegendrianKnot(-2, -1), 3)
    spin = spin_c_evaluation(pre_stabilized)
    assert spin.solution == (Fraction(1), Fraction(0), Fraction(0))
    assert spin.c_squared == -1
    assert d3_invariant(pre_stabilized) == Fraction(-1, 2)


def test_d3_and_order_invariant_under_stabilization_trade():
    # Replacing (knot, n) by (negatively stabilized knot, n + 1) changes
    # the diagram but not the surgered contact manifold.
    from contactsurgery.legendrian import stabilize

    for tb, rot in ((-1, 0), (1, 0), (-2, 1), (3, -2)):
        knot = LegendrianKnot(tb, rot)
        for n in range(1, 7):
            if tb + n == 0:
                continue
            base = all_negative_presentation(knot, n)
            traded = all_negative_presentation(stabilize(knot, "-"), n + 1)
            assert abs(linking_matrix(base).determinant()) == abs(
                linking_matrix(traded).determinant()
            )
            assert d3_invariant(base) == d3_invariant(traded)


def test_d3_rejects_infinite_homology():
    presentation = all_negative_presentation(LegendrianKnot(-1, 0), 1)
    with pytest.raises(NotRationalHomologySphere):
        d3_invariant(presentation)


def test_spin_c_evaluation_refuses_a_singular_matrix():
    presentation = all_negative_presentation(LegendrianKnot(-1, 0), 1)
    matrix = linking_matrix(presentation)
    assert matrix.determinant() == 0
    with pytest.raises(NotRationalHomologySphere, match="linking matrix is singular"):
        spin_c_evaluation(presentation)


def test_d3_denominator_and_integer_sphere_lint():
    for t in range(-5, 0):
        for n in range(1, 8):
            if t + n == 0:
                continue
            presentation = all_negative_presentation(LegendrianKnot(t, t + 1), n)
            value = d3_invariant(presentation)
            assert 4 % value.denominator == 0
            if abs(t + n) == 1:  # integral homology sphere
                assert (value + Fraction(1, 2)).denominator == 1


# ---------------------------------------------------------------------------
# Chern evaluations and the nonvanishing criterion


def _r5_certifies(knot, knot_type, n, binding=True):
    """Whether the rule table's R5 entry, read on the transverse pushoff of
    `knot` of type `knot_type`, asserts NonZero at the surgery framing tb + n."""
    pushoff = TransverseKnot(knot.tb - knot.rot)
    subject = LedgerSubject(transverse=pushoff, knot_type=knot_type, binding=binding)
    r5 = RULES_BY_ID["R5"]
    return r5.holds(subject) and r5.offset(subject) == knot.tb + n


def test_nonvanishing_criterion_instances():
    cable = cable_of_trefoil(2, 3)
    assert _r5_certifies(LegendrianKnot(6, -1), cable, 2)
    trefoil = torus_knot(2, 3)
    assert _r5_certifies(LegendrianKnot(1, 0), trefoil, 1)
    assert not _r5_certifies(LegendrianKnot(-1, 0), UNKNOT, 1)
    assert not _r5_certifies(LegendrianKnot(6, -1), cable, 2, binding=False)
    # Without a knot type there is no genus for R5 to read.
    assert not _r5_certifies(LegendrianKnot(6, -1), None, 2)


def test_criterion_matches_cap_evaluation():
    cable = cable_of_trefoil(2, 3)
    certified = 0
    for tb in range(2, 7):
        for rot in range(-3, 4):
            if (tb - rot) % 2 == 0:
                continue  # sl = tb - rot is odd for a knot in the 3-sphere
            n = 2 * cable.genus - tb
            if n >= 1 and _r5_certifies(LegendrianKnot(tb, rot), cable, n):
                certified += 1
                assert cap_class_evaluations(n, rot, [rot - 1] * (n - 1))[1] == 0
    assert certified == 3  # sl = 7: (tb, rot) = (4, -3), (5, -2), (6, -1)
