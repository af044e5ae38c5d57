"""Acceptance gate: every criterion runs at its stated scope and prints a
PASS/FAIL line (visible with pytest -s, and via the CLI selftest verb).
The lemma helpers that A5 and A10 carry are checked on their own below."""

import pytest

from contactsurgery.acceptance import (
    CRITERIA,
    adjunction_congruence,
    basis_change_check,
    cap_class_evaluations,
    gluing_pullback,
    normalize_slope,
)


@pytest.mark.parametrize("code,title,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(code, title, check):
    ok, detail = check()
    print(f"{code} {'PASS' if ok else 'FAIL'}  {title}: {detail}")
    assert ok, f"{code} {title}: {detail}"


def test_cap_class_evaluation_values():
    # (rot, n) -> rot + n - 1, with rot on beta and rot - 1 on each x_i.
    for rot, n, expected in ((-1, 2, 0), (0, 1, 0), (-2, 5, 2)):
        assert cap_class_evaluations(n, rot, [rot - 1] * (n - 1))[1] == expected


def test_basis_change_check_instances():
    assert cap_class_evaluations(5, -3, [-4] * 4) == ([1, 1, 1, 1], 1)
    assert basis_change_check(2, 0)
    assert basis_change_check(5, -3)


def test_basis_change_mutation_detected():
    rot = 4
    values = [rot - 1] * 4
    values[1] = rot  # perturb the value on the second x class
    e_values, total = cap_class_evaluations(5, rot, values)
    assert not (all(v == 1 for v in e_values) and total == rot + 5 - 1)


def test_adjunction_congruence_examples():
    assert adjunction_congruence(4, 0) == (8, 8, True)
    assert adjunction_congruence(1, 0) == (2, 2, True)
    assert adjunction_congruence(2, 1) == (5, 3, False)
    # enumerate representatives -11, -3, 5, 13 by hand
    assert min(abs(v) for v in (-11, -3, 5, 13)) == 3


def test_normalize_slope_values():
    assert normalize_slope(1) == (-1, 0)  # -infinity
    assert normalize_slope(2) == (-2, 1)
    assert normalize_slope(3) == (-3, 2)
    for n in range(2, 11):
        num, den = normalize_slope(n)
        assert (num, den) == (-n, n - 1)
        assert num <= -den  # num/den <= -1


def test_gluing_pullback():
    for n in range(1, 8):
        assert gluing_pullback(n) == (1, n)
