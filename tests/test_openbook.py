import random

import pytest

from contactsurgery.acceptance import chain_reduction_fixture, lantern_ambient_model
from contactsurgery.errors import (
    CannotCapLastBoundary,
    InvalidStabilization,
    PatternMismatch,
    UnknownCurve,
)
from contactsurgery.linalg import det_int, identity_int, mat_mul_int
from contactsurgery.openbook import (
    BindingVerdict,
    InvariantStatus,
    SurfaceModel,
    attach_surgery_twists,
    binding_vanishing_rule,
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


def test_action_is_monoid_homomorphism():
    surface = torus_like_surface()
    rng = random.Random(11)
    names = ["a", "b", "m", "bdry"]
    for _ in range(20):
        w1 = tuple((rng.choice(names), rng.choice("+-")) for _ in range(3))
        w2 = tuple((rng.choice(names), rng.choice("+-")) for _ in range(3))
        assert homology_action(w1 + w2, surface) == mat_mul_int(
            homology_action(w1, surface), homology_action(w2, surface)
        )


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
    broken = surface.with_curve("fake", (9, 0, 0, 0, 0, 0, 0))
    from dataclasses import replace

    bad = replace(config, one_two="fake")
    with pytest.raises(ValueError):
        bad.validate(broken)


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
    two, w2 = giroux_stabilize(one, w1, "y", (0, 1), side="left")
    assert two.h1_rank == 2
    assert w2 == (("y", "+"), ("x", "+"))
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
    stabilized, word = giroux_stabilize(
        annulus,
        (),
        "sigma1",
        (0, 1),
        extra_curves=(("kappa_minus", (1, 1)),),
    )
    assert stabilized.curve_class("kappa") == (1, 0)
    assert stabilized.curve_class("kappa_minus") == (1, 1)
    again, _ = giroux_stabilize(
        stabilized,
        word,
        "sigma2",
        (0, 0, 1),
        extra_curves=(("double_stabilized", (1, 1, 1)),),
    )
    for name in ("kappa", "kappa_minus", "double_stabilized"):
        assert again.has_curve(name)
    assert again.curve_class("double_stabilized") == (1, 1, 1)


def test_giroux_stabilize_rejects_bad_class():
    disk = SurfaceModel(genus=0, boundary_count=1, pairing=())
    with pytest.raises(InvalidStabilization):
        giroux_stabilize(disk, (), "core", (2,))
    with pytest.raises(InvalidStabilization):
        giroux_stabilize(disk, (), "core", (1, 1))


def test_giroux_destabilize_inverts_stabilize():
    surface = torus_like_surface()
    word = (("a", "+"),)
    bigger, longer = giroux_stabilize(surface, word, "core", (0, 0, 0, 1))
    restored, shorter = giroux_destabilize(bigger, longer, "core")
    assert shorter == word
    assert restored.h1_rank == surface.h1_rank
    assert restored.boundary_count == surface.boundary_count
    assert restored.curve_class("a") == surface.curve_class("a")


def test_giroux_destabilize_requires_unique_positive_twist():
    surface = torus_like_surface()
    bigger, longer = giroux_stabilize(surface, (), "core", (0, 0, 0, 1))
    with pytest.raises(InvalidStabilization):
        giroux_destabilize(bigger, longer + (("core", "+"),), "core")
    with pytest.raises(InvalidStabilization):
        giroux_destabilize(bigger, (), "core")


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


def test_binding_vanishing_rule():
    assert (
        binding_vanishing_rule(InvariantStatus.ZERO, 0)
        is BindingVerdict.FORCES_ZERO
    )
    assert (
        binding_vanishing_rule(InvariantStatus.NONZERO, 0)
        is BindingVerdict.NO_CONCLUSION
    )
    assert (
        binding_vanishing_rule(InvariantStatus.ZERO, 1)
        is BindingVerdict.NO_CONCLUSION
    )
