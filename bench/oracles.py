"""Independent oracles for the benchmark's outputs.

Nothing here imports the package under test.  Each check restates the
mathematics in its own, simpler form, so a bug in the library path
cannot hide behind the same bug in its checker:

- continued fractions by plain integer arithmetic;
- |H1| of contact p/q-surgery on a knot with Thurston-Bennequin number
  tb is |tb*q + p| (the smooth coefficient is tb + p/q);
- the all-negative presentation as a list of (tb, rot) profiles;
- the ledger closure from the max Zero offset and the min NonZero offset;
- integer matrix products and cyclic word equality.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction


def negative_cf(x: Fraction) -> list[int]:
    """Terms a_0..a_m >= 2 with x = a_0 - 1/(a_1 - ...), for rational x > 1."""
    num, den = x.numerator, x.denominator
    if num <= den:
        raise ValueError(f"need x > 1, got {x}")
    terms = []
    while True:
        a = -(-num // den)  # ceiling division
        terms.append(a)
        rem = a * den - num
        if rem == 0:
            return terms
        num, den = den, rem


def eval_negative_cf(terms) -> Fraction:
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a - 1 / value
    return value


def chain_x(r: Fraction) -> tuple[bool, Fraction]:
    """(carries a +1 component, x) for contact r-surgery, r < 0 or r > 1:
    the chain's terms are the negative continued fraction of x."""
    if r < 0:
        return False, 1 - r
    return True, 1 - Fraction(r.numerator, r.denominator - r.numerator)


def chain_terms(r: Fraction) -> tuple[bool, list[int]]:
    """(carries a +1 component, chain terms) for contact r-surgery."""
    plus_one, x = chain_x(r)
    return plus_one, negative_cf(x)


def presentation_count(r: Fraction) -> int:
    _, terms = chain_terms(r)
    return math.prod(a - 1 for a in terms)


def order_h1(tb: int, r: Fraction) -> int:
    return abs(tb * r.denominator + r.numerator)


def all_negative_profile(tb: int, rot: int, r: Fraction) -> list[tuple]:
    """(coefficient, tb, rot, stabilization signs) per component of the
    first presentation: every chain link stabilized negatively only."""
    plus_one, terms = chain_terms(r)
    profile = [(1, tb, rot, "")] if plus_one else []
    for a in terms:
        tb, rot = tb - (a - 2), rot - (a - 2)
        profile.append((-1, tb, rot, "-" * (a - 2)))
    return profile


def legendrian_unknots() -> list[tuple[int, int]]:
    """Legendrian unknot invariants: tb in [-6, -1], |rot| <= -tb-1,
    tb + rot odd."""
    return [
        (tb, rot)
        for tb in range(-6, 0)
        for rot in range(tb + 1, -tb)
        if (tb + rot) % 2
    ]


def ledger_window(facts, lo: int, hi: int) -> list[tuple[int, str, str | None]]:
    """Closed-form window of a consistent fact set with distinct offsets.

    Zero holds at and below the max Zero offset, justified by the Zero fact
    at the nearest offset at or above k; NonZero holds at and above the min
    NonZero offset, justified by the NonZero fact at the nearest offset at
    or below k.
    """
    zeros = sorted((off, rule) for off, status, rule in facts if status == "Zero")
    nonzeros = sorted((off, rule) for off, status, rule in facts if status == "NonZero")
    zero_offsets = [off for off, _ in zeros]
    nonzero_offsets = [off for off, _ in nonzeros]
    rows = []
    for k in range(lo, hi + 1):
        i = bisect.bisect_left(zero_offsets, k)
        if i < len(zeros):
            rows.append((k, "Zero", zeros[i][1]))
            continue
        j = bisect.bisect_right(nonzero_offsets, k) - 1
        if j >= 0:
            rows.append((k, "NonZero", nonzeros[j][1]))
        else:
            rows.append((k, "Unknown", None))
    return rows


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _free_reduce(letters) -> list:
    out: list = []
    for name, sign in letters:
        if out and out[-1][0] == name and out[-1][1] != sign:
            out.pop()
        else:
            out.append((name, sign))
    while len(out) > 1 and out[0][0] == out[-1][0] and out[0][1] != out[-1][1]:
        out = out[1:-1]
    return out


def cyclically_equal(first, second) -> bool:
    """Equal as cyclic words after free and cyclic cancellation."""
    a, b = _free_reduce(first), _free_reduce(second)
    if len(a) != len(b):
        return False
    encode = {letter: i for i, letter in enumerate(set(a) | set(b))}
    doubled = [encode[x] for x in a + a]
    target = [encode[x] for x in b]
    n = len(target)
    return n == 0 or any(doubled[i:i + n] == target for i in range(n))


def tight_lines(record: dict) -> list[str]:
    """classify's text output for a catalog record, from the published
    criteria: max_sl = 2g-1 certifies r >= 2g, and max_tb = 2*g4 - 1 > 0
    certifies r >= max_tb + 1."""
    name, genus, g4 = record["name"], record["genus"], record["slice_genus"]
    max_tb, max_sl = record.get("max_tb"), record.get("max_sl")
    ranges = []
    if max_sl is not None and genus >= 1 and max_sl == 2 * genus - 1:
        ranges.append((2 * genus, "max-self-linking"))
    if max_tb is not None and max_tb == 2 * g4 - 1 and max_tb > 0:
        ranges.append((max_tb + 1, "max-thurston-bennequin"))
    lines = [f"{name}: tight for r >= {a} [{rule}]" for a, rule in sorted(ranges)]
    if not ranges:
        lines.append(f"{name}: no tight range certified by the built-in rules")
    if max_sl is not None and max_tb is not None:
        lines.append(f"max_sl - max_tb = {max_sl - max_tb}")
    return lines


def ledger_lines(record: dict, tb: int, sl: int | None, binding: bool,
                 lo: int = -3, hi: int = 12) -> list[str]:
    """ledger's text output for a Legendrian (tb) in the standard tight S^3
    with the ambient invariant nonzero: R1 gives Zero at tb and below; R5
    (binding, sl = 2g-1, g >= 1) gives NonZero from 2g; R6 (tb = 2*g4-1 > 0)
    and E1 (g = 0, tb = -1) give NonZero from tb + 1."""
    genus, g4 = record["genus"], record["slice_genus"]
    nonzero = []
    if binding and sl is not None and genus >= 1 and sl == 2 * genus - 1:
        nonzero.append((2 * genus, "R5"))
    if tb == 2 * g4 - 1 and tb > 0:
        nonzero.append((tb + 1, "R6"))
    if genus == 0 and tb == -1:
        nonzero.append((tb + 1, "E1"))
    # Two NonZero rules may land on one offset; the first asserted, in
    # rule order, justifies it.
    first_rule: dict[int, str] = {}
    for off, rule in nonzero:
        first_rule.setdefault(off, rule)
    facts = [(tb, "Zero", "R1")] + [(o, "NonZero", r) for o, r in first_rule.items()]
    lines = [
        f"f_S{k:+d}  {status}" + (f"  [{rule}]" if rule else "")
        for k, status, rule in ledger_window(facts, lo, hi)
    ]
    lines.append(f"inverse limit: {'NotAllZero' if nonzero else 'Unknown'}")
    return lines
