import pytest

from contactsurgery.catalog import cable_of_trefoil, torus_knot
from contactsurgery.ledger import RULES_BY_ID, LedgerSubject
from contactsurgery.legendrian import (
    Framing,
    LegendrianKnot,
    TransverseKnot,
    stabilize,
    stabilize_many,
)


def _pushoff(knot):
    """The positive transverse pushoff, sl = tb - rot."""
    return TransverseKnot(knot.tb - knot.rot, knot.knot_type)


def _r5_holds(transverse):
    return RULES_BY_ID["R5"].holds(LedgerSubject(transverse=transverse, binding=True))


def test_stabilize_signs():
    knot = LegendrianKnot(-1, 0)
    assert stabilize(knot, "-") == LegendrianKnot(-2, -1)
    assert stabilize(knot, "+") == LegendrianKnot(-2, 1)


@pytest.mark.parametrize("sign", ["", "x", "+-", None])
def test_stabilize_rejects_a_sign_other_than_plus_or_minus(sign):
    with pytest.raises(ValueError, match="stabilization sign must be"):
        stabilize(LegendrianKnot(-1, 0), sign)
    with pytest.raises(ValueError, match="stabilization sign must be"):
        stabilize_many(LegendrianKnot(-1, 0), ["-", sign])


@pytest.mark.parametrize("tb,rot", [(-1, 0), (3, 2), (-4, -3), (0, 5)])
def test_negative_stabilization_preserves_pushoff_sl(tb, rot):
    knot = LegendrianKnot(tb, rot)
    assert (tb - 1) - (rot - 1) == tb - rot
    stabilized = stabilize(knot, "-")
    assert stabilized.tb - stabilized.rot == knot.tb - knot.rot


def test_reverse_is_involution_and_swaps_stabilizations():
    # Orientation reversal keeps tb and negates rot.
    def reverse(k):
        return LegendrianKnot(k.tb, -k.rot, k.knot_type)

    knot = LegendrianKnot(-3, 2)
    assert reverse(reverse(knot)) == knot
    assert reverse(stabilize(knot, "+")) == stabilize(reverse(knot), "-")
    assert reverse(stabilize(knot, "-")) == stabilize(reverse(knot), "+")


def test_transverse_pushoff_values():
    assert _pushoff(LegendrianKnot(-1, 0)).sl == -1
    cable = cable_of_trefoil(2, 3)
    pushoff = _pushoff(LegendrianKnot(6, -1, cable))
    assert pushoff.sl == 7 == cable.max_sl
    assert _r5_holds(pushoff)
    assert not _r5_holds(_pushoff(stabilize(LegendrianKnot(6, -1, cable), "+")))


def test_pushoff_invariant_under_repeated_negative_stabilization():
    knot = LegendrianKnot(2, 1, torus_knot(2, 5))
    expected = _pushoff(knot)
    for _ in range(6):
        knot = stabilize(knot, "-")
        assert _pushoff(knot) == expected
    assert stabilize_many(LegendrianKnot(2, 1, torus_knot(2, 5)), "-" * 6) == knot


def test_deep_negative_stabilizations_stay_realizable():
    # tb -3, rot -4 on the trefoil satisfies tb + |rot| = 1 = 2g - 1.
    trefoil = torus_knot(2, 3)
    deep = stabilize_many(LegendrianKnot(1, 0, trefoil), "----")
    assert (deep.tb, deep.rot) == (-3, -4)
    assert deep.tb + abs(deep.rot) == 2 * trefoil.genus - 1
    assert _pushoff(deep).sl == trefoil.max_sl == 1
    assert _r5_holds(_pushoff(deep))


def test_transverse_parity_enforced():
    with pytest.raises(ValueError):
        TransverseKnot(0)
    TransverseKnot(-7)  # negative odd values are fine


def test_framing_ordering():
    assert Framing(-1) < Framing(0) < Framing(3)
    assert str(Framing(2)) == "f_S+2"
    assert str(Framing(-1)) == "f_S-1"
