"""The package namespace: each public name resolves, on first access, to the
object in its home module."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import contactsurgery

HOMES = {
    "catalog": ["Catalog", "KnotType", "UNKNOT", "cable_of_trefoil", "connected_sum",
                "torus_knot"],
    "errors": ["ContactSurgeryError"],
    "expansion": ["Component", "ContactSurgeryPresentation", "all_negative_presentation",
                  "evaluate_continued_fraction", "expand", "negative_continued_fraction",
                  "presentation_for_framing"],
    "homology": ["HomologyData", "LinkingMatrix", "SpinCEvaluation", "d3_invariant",
                 "homology_data", "linking_matrix", "spin_c_evaluation"],
    "ledger": ["LedgerState", "LedgerSubject", "LedgerVerdict", "TightnessReport",
               "apply_rules", "assert_fact", "inverse_limit_status", "tight_surgery_ranges"],
    "legendrian": ["Framing", "LegendrianKnot", "TransverseKnot", "stabilize"],
    "linalg": [],
    "openbook": ["InvariantStatus", "LanternConfiguration", "SurfaceModel",
                 "attach_surgery_twists", "cap_off", "cyclic_words_equal", "free_reduce",
                 "giroux_destabilize", "giroux_stabilize", "homology_action",
                 "lantern_rewrite"],
}
# The 44 re-exported names and the 8 submodules.
PUBLIC = {name for names in HOMES.values() for name in names} | set(HOMES)


def test_the_public_names_are_the_44_re_exports_and_8_submodules():
    assert len(PUBLIC) == 52
    assert set(contactsurgery.__all__) == PUBLIC
    assert PUBLIC <= set(dir(contactsurgery))


def test_each_name_is_the_object_in_its_home_module():
    for home, names in HOMES.items():
        module = importlib.import_module(f"contactsurgery.{home}")
        assert getattr(contactsurgery, home) is module
        for name in names:
            assert getattr(contactsurgery, name) is getattr(module, name), name


def test_invariant_status_is_one_class_whose_home_is_legendrian():
    from contactsurgery import legendrian, openbook

    assert contactsurgery._HOMES["InvariantStatus"] == "legendrian"
    assert contactsurgery.InvariantStatus is legendrian.InvariantStatus
    assert openbook.InvariantStatus is legendrian.InvariantStatus


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from contactsurgery import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        contactsurgery.no_such_name
    assert contactsurgery.__version__ == "0.1.0"


def test_a_bare_import_loads_no_submodule_and_lists_every_name():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, contactsurgery; "
        "print(sorted(m for m in sys.modules if m.startswith('contactsurgery'))); "
        "print(sorted(n for n in dir(contactsurgery) if not n.startswith('_'))); "
        "print(contactsurgery.expand is sys.modules['contactsurgery.expansion'].expand)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.splitlines() == [
        "['contactsurgery']", str(sorted(PUBLIC)), "True"]
