import pytest

from contactsurgery.catalog import UNKNOT, cable_of_trefoil, torus_knot
from contactsurgery.errors import NotRealizable
from contactsurgery.legendrian import (
    Framing,
    LegendrianKnot,
    TransverseKnot,
    legendrian_approximation,
    reverse_orientation,
    stabilize,
    transverse_pushoff,
)


def test_stabilize_signs():
    knot = LegendrianKnot(-1, 0)
    assert stabilize(knot, "-") == LegendrianKnot(-2, -1)
    assert stabilize(knot, "+") == LegendrianKnot(-2, 1)


@pytest.mark.parametrize("tb,rot", [(-1, 0), (3, 2), (-4, -3), (0, 5)])
def test_negative_stabilization_preserves_pushoff_sl(tb, rot):
    knot = LegendrianKnot(tb, rot)
    assert (tb - 1) - (rot - 1) == tb - rot
    stabilized = stabilize(knot, "-")
    assert stabilized.tb - stabilized.rot == knot.tb - knot.rot


def test_reverse_orientation():
    assert reverse_orientation(LegendrianKnot(-1, 0)) == LegendrianKnot(-1, 0)
    assert reverse_orientation(LegendrianKnot(-5, 3)) == LegendrianKnot(-5, -3)


def test_reverse_is_involution_and_swaps_stabilizations():
    knot = LegendrianKnot(-3, 2)
    assert reverse_orientation(reverse_orientation(knot)) == knot
    assert reverse_orientation(stabilize(knot, "+")) == stabilize(
        reverse_orientation(knot), "-"
    )


def test_transverse_pushoff_values():
    assert transverse_pushoff(LegendrianKnot(-1, 0)).sl == -1
    cable = cable_of_trefoil(2, 3)
    pushoff = transverse_pushoff(LegendrianKnot(6, -1, cable))
    assert pushoff.sl == 7 == cable.max_sl


def test_pushoff_invariant_under_repeated_negative_stabilization():
    knot = LegendrianKnot(2, 1, torus_knot(2, 5))
    expected = transverse_pushoff(knot)
    for _ in range(6):
        knot = stabilize(knot, "-")
        assert transverse_pushoff(knot) == expected


def test_transverse_parity_enforced():
    with pytest.raises(ValueError):
        TransverseKnot(0)
    TransverseKnot(-7)  # negative odd values are fine


def test_legendrian_approximation_examples():
    cable = cable_of_trefoil(2, 3)
    approx = legendrian_approximation(TransverseKnot(7, cable), 6)
    assert (approx.tb, approx.rot) == (6, -1)
    assert transverse_pushoff(approx).sl == 7

    unknot_approx = legendrian_approximation(TransverseKnot(-1, UNKNOT), -1)
    assert (unknot_approx.tb, unknot_approx.rot) == (-1, 0)


def test_approximation_round_trip():
    knot = LegendrianKnot(1, 0, torus_knot(2, 3))
    recovered = legendrian_approximation(transverse_pushoff(knot), knot.tb)
    assert recovered == knot


def test_approximation_rejects_bennequin_violations():
    trefoil = torus_knot(2, 3)
    # tb 1 with sl -1 would need rot 2; 1 + 2 exceeds 2g - 1 = 1.
    with pytest.raises(NotRealizable):
        legendrian_approximation(TransverseKnot(-1, trefoil), 1)
    with pytest.raises(NotRealizable):
        legendrian_approximation(TransverseKnot(1, trefoil), 2)


def test_deep_negative_stabilizations_stay_realizable():
    # tb -3, rot -4 on the trefoil satisfies tb + |rot| = 1 = 2g - 1.
    trefoil = torus_knot(2, 3)
    approx = legendrian_approximation(TransverseKnot(1, trefoil), -3)
    assert (approx.tb, approx.rot) == (-3, -4)


def test_framing_ordering():
    assert Framing(-1) < Framing(0) < Framing(3)
    assert str(Framing(2)) == "f_S+2"
    assert str(Framing(-1)) == "f_S-1"
