import json

import pytest

from contactsurgery.catalog import (
    Catalog,
    FLAG_SQP_FIBERED,
    KnotType,
    UNKNOT,
    build_seed_entries,
    cable_of_trefoil,
    connected_sum,
    lint_knot,
    torus_knot,
)
from contactsurgery.errors import (
    DiagramFormatError,
    IncompleteData,
    InvalidCableParameters,
    NotInCatalog,
)


@pytest.fixture(scope="module")
def catalog():
    return Catalog.builtin()


def test_lookup_trefoil(catalog):
    trefoil = catalog.lookup("T(2,3)")
    assert trefoil.genus == 1
    assert trefoil.max_tb == 1
    assert trefoil.max_sl == 1


def test_lookup_unknot(catalog):
    unknot = catalog.lookup("unknot")
    assert unknot.genus == 0
    assert unknot.max_tb == -1
    assert unknot.max_sl == -1


def test_lookup_cable(catalog):
    cable = catalog.lookup("C(2,3;T(2,3))")
    assert cable.max_sl == 7
    assert cable.max_tb == 6
    assert cable.genus == 4


def test_lookup_unknown_name(catalog):
    with pytest.raises(NotInCatalog):
        catalog.lookup("K(nonsense)")


@pytest.mark.parametrize(
    "p,q,max_sl,max_tb,genus",
    [(2, 3, 7, 6, 4), (1, 2, 3, 2, 2), (3, 4, 13, 12, 7)],
)
def test_cable_closed_forms(p, q, max_sl, max_tb, genus):
    cable = cable_of_trefoil(p, q)
    assert (cable.max_sl, cable.max_tb, cable.genus) == (max_sl, max_tb, genus)
    assert cable.max_sl - cable.max_tb == q - p > 0


@pytest.mark.parametrize("p,q", [(3, 2), (2, 2), (1, 3), (2, 4)])
def test_torus_knot_rejects_bad_parameters(p, q):
    with pytest.raises(InvalidCableParameters):
        torus_knot(p, q)


@pytest.mark.parametrize("fields, message", [
    ({"genus": -1, "slice_genus": 0}, "genus must be non-negative"),
    ({"genus": 1, "slice_genus": 1, "flags": frozenset({"torus", "knotted"})},
     r"unknown flags \['knotted'\]"),
])
def test_knot_type_rejects_an_impossible_record(fields, message):
    with pytest.raises(ValueError, match=message):
        KnotType("k", **fields)


def test_a_catalog_file_must_hold_a_list(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text('{"name": "k"}')
    with pytest.raises(DiagramFormatError, match="top level must be a list"):
        Catalog.from_json(str(path))


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (0, 1), (2, 4)])
def test_cable_rejects_bad_parameters(p, q):
    with pytest.raises(InvalidCableParameters):
        cable_of_trefoil(p, q)


def test_connected_sum_growth():
    cable = cable_of_trefoil(2, 3)
    double = connected_sum(cable, cable)
    assert double.max_sl == 15
    assert double.max_tb == 13
    assert double.genus == 8


def test_connected_sum_unknot_is_identity():
    trefoil = torus_knot(2, 3)
    summed = connected_sum(UNKNOT, trefoil)
    assert (summed.genus, summed.slice_genus) == (trefoil.genus, trefoil.slice_genus)
    assert (summed.max_tb, summed.max_sl) == (trefoil.max_tb, trefoil.max_sl)


def test_connected_sum_preserves_sqp_relation():
    trefoil = torus_knot(2, 3)
    double = connected_sum(trefoil, trefoil)
    assert double.genus == 2
    assert double.max_sl == 3 == 2 * double.genus - 1
    assert FLAG_SQP_FIBERED in double.flags


def test_connected_sum_commutative_associative():
    a, b, c = torus_knot(2, 3), cable_of_trefoil(1, 2), torus_knot(2, 5)

    def numbers(k):
        return (k.genus, k.slice_genus, k.max_tb, k.max_sl)

    assert numbers(connected_sum(a, b)) == numbers(connected_sum(b, a))
    assert numbers(connected_sum(connected_sum(a, b), c)) == numbers(
        connected_sum(a, connected_sum(b, c))
    )


def test_connected_sum_needs_complete_data():
    partial = KnotType("mystery", genus=2, slice_genus=1)
    with pytest.raises(IncompleteData):
        connected_sum(partial, UNKNOT)


def test_sqp_flag_forces_maximal_sl():
    for entry in Catalog.builtin():
        if FLAG_SQP_FIBERED in entry.flags:
            assert entry.max_sl == 2 * entry.genus - 1


def test_invariant_violations_rejected():
    with pytest.raises(ValueError):
        KnotType("bad", genus=1, slice_genus=2)
    with pytest.raises(ValueError):
        KnotType("bad", genus=1, slice_genus=1, max_sl=2)
    with pytest.raises(ValueError):
        KnotType("bad", genus=2, slice_genus=2, max_sl=2,
                 flags=frozenset({FLAG_SQP_FIBERED}))


def test_even_max_sl_rejected(tmp_path):
    # Self-linking numbers of knots in the 3-sphere are odd.
    with pytest.raises(ValueError, match="must be odd"):
        KnotType("bad", genus=2, slice_genus=2, max_sl=2)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"name": "bad", "genus": 2, "slice_genus": 2, "max_sl": 2}]))
    with pytest.raises(DiagramFormatError, match=r"catalog record \[0\]: bad: .* must be odd"):
        Catalog.from_json(str(path))


def test_max_sl_below_max_tb_is_lint_not_error():
    knot = KnotType("left-handed-ish", genus=1, slice_genus=1, max_tb=-6, max_sl=-7)
    assert lint_knot(knot)


def test_seed_file_matches_builders(catalog):
    rebuilt = {k.name: k for k in build_seed_entries()}
    assert set(catalog.names()) == set(rebuilt)
    for entry in catalog:
        reference = rebuilt[entry.name]
        assert (entry.genus, entry.slice_genus) == (
            reference.genus,
            reference.slice_genus,
        )
        assert (entry.max_tb, entry.max_sl) == (reference.max_tb, reference.max_sl)
        assert entry.flags == reference.flags


def test_seed_contains_required_families(catalog):
    assert "unknot" in catalog
    for name in ("T(2,3)", "T(2,5)", "T(6,7)", "C(1,2;T(2,3))", "C(2,3;T(2,3))"):
        assert name in catalog
    assert "C(2,3;T(2,3)) # C(2,3;T(2,3))" in catalog
    assert "C(2,3;T(2,3)) # C(2,3;T(2,3)) # C(2,3;T(2,3))" in catalog


def test_catalog_override_file(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(
        json.dumps(
            [
                {
                    "name": "custom",
                    "genus": 3,
                    "slice_genus": 2,
                    "max_tb": 1,
                    "max_sl": 3,
                    "flags": [],
                    "provenance": "test data",
                }
            ]
        )
    )
    catalog = Catalog.from_json(str(path))
    assert catalog.lookup("custom").genus == 3
    assert "unknot" not in catalog
