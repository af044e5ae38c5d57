import pytest
from hypothesis import given
from hypothesis import strategies as st

from contactsurgery.catalog import cable_of_trefoil, torus_knot
from contactsurgery.errors import NotRealizable, quote
from contactsurgery.ledger import RULES_BY_ID, LedgerSubject
from contactsurgery.legendrian import LegendrianKnot, TransverseKnot, stabilize


def _pushoff(knot):
    """The positive transverse pushoff, sl = tb - rot."""
    return TransverseKnot(knot.tb - knot.rot)


def _fold_stabilize(knot, signs):
    for sign in signs:
        knot = stabilize(knot, sign)
    return knot


def _r5_holds(transverse, knot_type):
    subject = LedgerSubject(transverse=transverse, knot_type=knot_type, binding=True)
    return RULES_BY_ID["R5"].holds(subject)


def test_stabilize_signs():
    knot = LegendrianKnot(-1, 0)
    assert stabilize(knot, "-") == LegendrianKnot(-2, -1)
    assert stabilize(knot, "+") == LegendrianKnot(-2, 1)


@pytest.mark.parametrize("sign", ["", "x", "+-", None])
def test_stabilize_rejects_a_sign_other_than_plus_or_minus(sign):
    with pytest.raises(ValueError, match="stabilization sign must be"):
        stabilize(LegendrianKnot(-1, 0), sign)


@pytest.mark.parametrize("tb,rot", [(-1, 0), (3, 2), (-4, -3), (0, 5)])
def test_negative_stabilization_preserves_pushoff_sl(tb, rot):
    knot = LegendrianKnot(tb, rot)
    assert (tb - 1) - (rot - 1) == tb - rot
    stabilized = stabilize(knot, "-")
    assert stabilized.tb - stabilized.rot == knot.tb - knot.rot


def test_reverse_is_involution_and_swaps_stabilizations():
    # Orientation reversal keeps tb and negates rot.
    def reverse(k):
        return LegendrianKnot(k.tb, -k.rot)

    knot = LegendrianKnot(-3, 2)
    assert reverse(reverse(knot)) == knot
    assert reverse(stabilize(knot, "+")) == stabilize(reverse(knot), "-")
    assert reverse(stabilize(knot, "-")) == stabilize(reverse(knot), "+")


def test_transverse_pushoff_values():
    assert _pushoff(LegendrianKnot(-1, 0)).sl == -1
    cable = cable_of_trefoil(2, 3)
    pushoff = _pushoff(LegendrianKnot(6, -1))
    assert pushoff.sl == 7 == cable.max_sl
    assert _r5_holds(pushoff, cable)
    assert not _r5_holds(_pushoff(stabilize(LegendrianKnot(6, -1), "+")), cable)


def test_pushoff_invariant_under_repeated_negative_stabilization():
    knot = LegendrianKnot(2, 1)
    expected = _pushoff(knot)
    for _ in range(6):
        knot = stabilize(knot, "-")
        assert _pushoff(knot) == expected
    assert _fold_stabilize(LegendrianKnot(2, 1), "-" * 6) == knot


def test_deep_negative_stabilizations_stay_realizable():
    # tb -3, rot -4 on the trefoil satisfies tb + |rot| = 1 = 2g - 1.
    trefoil = torus_knot(2, 3)
    deep = _fold_stabilize(LegendrianKnot(1, 0), "----")
    assert (deep.tb, deep.rot) == (-3, -4)
    assert deep.tb + abs(deep.rot) == 2 * trefoil.genus - 1
    assert _pushoff(deep).sl == trefoil.max_sl == 1
    assert _r5_holds(_pushoff(deep), trefoil)


# Small integers, and integers past Python's 4,300-digit int-to-str limit.
_INTEGERS = st.integers() | st.builds(
    lambda k, far: k + far, st.integers(-3, 3), st.sampled_from([10**5000, -10**5000]))


@given(_INTEGERS, _INTEGERS)
def test_a_legendrian_knot_exists_exactly_when_tb_plus_rot_is_odd(tb, rot):
    if tb % 2 != rot % 2:
        knot = LegendrianKnot(tb, rot)
        assert (knot.tb, knot.rot) == (tb, rot)
        return
    with pytest.raises(NotRealizable, match="tb \\+ rot is even") as info:
        LegendrianKnot(tb, rot)
    assert info.value.exit_code == 2
    assert str(info.value).startswith(f"(tb, rot) = ({quote(tb)}, {quote(rot)}): ")
    assert len(str(info.value)) < 200


def test_a_transverse_knot_past_the_int_to_str_limit_is_refused_as_even():
    with pytest.raises(NotRealizable, match="^self-linking number must be odd, got <an integer"):
        TransverseKnot(2 * 10**5000)


def test_transverse_parity_enforced():
    with pytest.raises(NotRealizable):
        TransverseKnot(0)
    TransverseKnot(-7)  # negative odd values are fine
