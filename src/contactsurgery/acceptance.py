"""Acceptance checks A1 - A10.

Each check returns (ok, detail) and is independent of the code path it
verifies wherever an oracle is called for: brute-force enumerations,
hand-frozen matrices, closed-form homology orders, and symbolic
expansion of the lantern action.  tests/test_acceptance.py asserts each
check; the CLI verb `selftest` prints one line per criterion.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .catalog import Catalog, UNKNOT, cable_of_trefoil, connected_sum
from .errors import Contradiction
from .expansion import (
    all_negative_presentation,
    evaluate_continued_fraction,
    expand,
    negative_continued_fraction,
    presentation_for_framing,
)
from .homology import d3_invariant, linking_matrix, spin_c_evaluation
from .ledger import (
    LedgerState,
    LedgerSubject,
    LedgerVerdict,
    RULE_MAX_SELF_LINKING,
    assert_fact,
    apply_rules,
    inverse_limit_status,
    tight_surgery_ranges,
)
from .legendrian import LegendrianKnot, TransverseKnot, stabilize
from .legendrian import InvariantStatus as Status
from .linalg import signature_exact
from .openbook import (
    LanternConfiguration,
    SurfaceModel,
    attach_surgery_twists,
    cyclic_words_equal,
    free_reduce,
    giroux_destabilize,
    homology_action,
    lantern_rewrite,
)


def check_a1() -> tuple[bool, str]:
    """Continued fractions: closed form for (2n-1)/(n-1), full round trip."""
    details: list[str] = []
    for n in range(2, 11):
        expected = (3,) + (2,) * (n - 2)
        got = negative_continued_fraction(Fraction(2 * n - 1, n - 1))
        if got != expected:
            details.append(f"(2n-1)/(n-1) with n={n}: got {got}")
    seen = set()
    for q in range(1, 21):
        for p in range(q + 1, 20 * q + 1):
            x = Fraction(p, q)
            if x <= 1 or x > 20 or x in seen:
                continue
            seen.add(x)
            terms = negative_continued_fraction(x)
            if any(a < 2 for a in terms):
                details.append(f"{x}: term below 2 in {terms}")
            if evaluate_continued_fraction(terms) != x:
                details.append(f"{x}: round trip failed for {terms}")
    return not details, f"{len(seen)} round trips" if not details else "; ".join(details[:4])


def _brute_force_profiles(base: LegendrianKnot, terms) -> set[tuple]:
    """All chain (tb, rot) profiles from full sign-sequence enumeration."""
    counts = [a - 2 for a in terms]
    profiles = set()
    for signs_per_comp in itertools.product(
        *(itertools.product("-+", repeat=k) for k in counts)
    ):
        current = base
        profile = []
        for signs in signs_per_comp:
            tb, rot = current.tb, current.rot
            for s in signs:
                tb -= 1
                rot += 1 if s == "+" else -1
            current = LegendrianKnot(tb, rot)
            profile.append((tb, rot))
        profiles.add(tuple(profile))
    return profiles


def check_a2() -> tuple[bool, str]:
    """Expansion shape for integer coefficients and r < 0 counts."""
    details: list[str] = []
    knot = LegendrianKnot(-1, 0)
    for n in range(2, 9):
        presentations = expand(knot, n)
        if len(presentations) != 2:
            details.append(f"n={n}: expected 2 presentations, got {len(presentations)}")
            continue
        first = presentations[0]
        if first.components[0].coefficient != 1:
            details.append(f"n={n}: first component is not the +1 surgery")
        chain = first.components[1:]
        if len(chain) != n - 1 or any(
            (c.legendrian.tb, c.legendrian.rot) != (-2, -1) for c in chain
        ):
            details.append(f"n={n}: all-negative chain is not n-1 copies of the "
                           f"once-negatively-stabilized pushoff")
        if chain and chain[0].stab_signs != ("-",):
            details.append(f"n={n}: the first chain link must carry one negative "
                           f"stabilization")
        if first != all_negative_presentation(knot, n):
            details.append(f"n={n}: all-negative member differs from the direct "
                           f"construction")
    checked = 0
    seen = set()
    for q in range(1, 7):
        for p in range(1, 13):
            r = Fraction(-p, q)
            if r in seen:
                continue
            seen.add(r)
            terms = negative_continued_fraction(1 - r)
            expected = 1
            for a in terms:
                expected *= a - 1
            if expected > 64:
                continue
            presentations = expand(knot, r)
            if len(presentations) != expected:
                details.append(f"r={r}: count {len(presentations)} != {expected}")
            got = {pres.tb_rot_profile() for pres in presentations}
            if got != _brute_force_profiles(knot, terms):
                details.append(f"r={r}: profiles differ from brute force")
            checked += 1
    return not details, (
        f"{checked} negative coefficients cross-checked"
        if not details
        else "; ".join(details[:4])
    )


def check_a3() -> tuple[bool, str]:
    """d3 is blind to extra negative stabilizations; tb+2 family is -1/2."""
    details: list[str] = []
    base = LegendrianKnot(-1, 0)
    for offset in (1, 2, 3):  # f - tb in {2, 3, 4}
        values = set()
        for extra in range(5):
            knot = base
            for _ in range(extra):
                knot = stabilize(knot, "-")
            values.add(d3_invariant(presentation_for_framing(knot, offset)))
        if len(values) != 1:
            details.append(f"framing f_S{offset:+d}: values {sorted(values)}")
        elif offset == 1 and values != {Fraction(-1, 2)}:
            details.append(f"f = tb+2 family gave {values}, expected -1/2")
    two = linking_matrix(all_negative_presentation(base, 2))
    if two.entries != ((0, -1), (-1, -3)):
        details.append(f"hand-checked 2x2 matrix differs: {two.entries}")
    pre = all_negative_presentation(LegendrianKnot(-2, -1), 3)
    three = linking_matrix(pre).entries
    if three != ((-1, -2, -2), (-2, -4, -3), (-2, -3, -4)):
        details.append(f"hand-checked 3x3 matrix differs: {three}")
    if signature_exact(three) != -1:
        details.append("3x3 signature is not -1")
    if spin_c_evaluation(pre).c_squared != -1:
        details.append("3x3 c^2 is not -1")
    if d3_invariant(pre) != Fraction(-1, 2):
        details.append("pre-stabilized 3x3 d3 is not -1/2")
    return not details, "stabilization invariance holds" if not details else "; ".join(details)


def check_a4() -> tuple[bool, str]:
    """|H1| of the surgered manifold equals |tb + n| on the unknot family."""
    details: list[str] = []
    for t in range(-1, -6, -1):
        knot = LegendrianKnot(t, t + 1)
        for n in range(1, 9):
            det = linking_matrix(all_negative_presentation(knot, n)).determinant()
            if t + n == 0:
                if det != 0:
                    details.append(f"t={t}, n={n}: det {det}, expected 0")
            elif abs(det) != abs(t + n):
                details.append(f"t={t}, n={n}: |det| {abs(det)} != |t+n| {abs(t + n)}")
    return not details, "40 surgeries match the homology oracle" if not details else "; ".join(details[:4])


def cap_class_evaluations(n: int, c1_beta: int, c1_x) -> tuple[list[int], int]:
    """Evaluate c1 on the basis-change classes e_i and on the capped class.

    Works in the rank-n lattice with basis (beta, x_1, ..., x_{n-1});
    e_1 = beta - x_1 and e_{i+1} = e_i + x_i - x_{i+1}.  Returns the list
    of values on the e_i together with the value on beta + sum(e_i), both
    from explicit coordinate vectors, not from the closed form rot + n - 1.
    """
    beta, *xs = ([int(i == j) for j in range(n)] for i in range(n))
    # With x_0 = 0, each e_i is e_{i-1} + x_{i-1} - x_i starting from e_0 = beta.
    e_classes, e = [], beta
    for previous, x in zip([[0] * n] + xs, xs):
        e = [a + b - c for a, b, c in zip(e, previous, x)]
        e_classes.append(e)
    capped = [sum(column) for column in zip(beta, *e_classes)]
    values = [c1_beta, *c1_x]

    def evaluate(vec):
        return sum(v * c for v, c in zip(vec, values))

    return [evaluate(e) for e in e_classes], evaluate(capped)


def basis_change_check(n: int, rot: int) -> bool:
    """c1 is 1 on every e_i and rot + n - 1 on the capped class, from the
    standard values rot on beta and rot - 1 on each x_i."""
    e_values, capped = cap_class_evaluations(n, rot, [rot - 1] * (n - 1))
    return e_values == [1] * (n - 1) and capped == rot + n - 1


def adjunction_congruence(genus: int, cap_value: int) -> tuple[int, int, bool]:
    """Congruence constraint mod 4*genus forced by the capped class.

    The Chern numbers on the zero-surgery generator lie in the residue
    class of cap_value + 2*genus mod 4*genus.  Returns that residue, the
    least absolute value of a representative, and whether it is at least
    2*genus, in which case the adjunction bound kills the group and the
    comparison map is an isomorphism.
    """
    modulus = 4 * genus
    residue = (cap_value + 2 * genus) % modulus
    min_abs = min(residue, modulus - residue)
    return residue, min_abs, min_abs >= 2 * genus


def check_a5() -> tuple[bool, str]:
    """Chern evaluations through the basis change, and the genus-4 bound."""
    details: list[str] = []
    for n in range(2, 13):
        for rot in range(-10, 11):
            if not basis_change_check(n, rot):
                details.append(f"basis change fails at n={n}, rot={rot}")
    report = adjunction_congruence(4, 0)
    if report != (8, 8, True):
        details.append(f"adjunction report {report} differs from (8, 8, True)")
    return not details, "231 lattice checks pass" if not details else "; ".join(details[:4])


def check_a6() -> tuple[bool, str]:
    """Tightness classifier anchors and the growing sl - tb gap."""
    details: list[str] = []
    cable = cable_of_trefoil(2, 3)
    report = tight_surgery_ranges(cable)
    if report.anchor() != 8:
        details.append(f"cable anchor {report.anchor()} != 8")
    sl_rules = [rng.rule for rng in report.ranges if rng.anchor == 8]
    if RULE_MAX_SELF_LINKING not in sl_rules:
        details.append("anchor 8 is not certified by the self-linking rule")
    if any(rng.rule != RULE_MAX_SELF_LINKING for rng in report.ranges):
        details.append("unexpected extra route for the cable")
    summand = cable
    for copies in range(2, 5):
        summand = connected_sum(summand, cable)
        gap = tight_surgery_ranges(summand).sl_tb_gap
        if gap != copies:
            details.append(f"{copies}-fold sum: gap {gap} != {copies}")
    for p, q in ((1, 2), (2, 3), (3, 4)):
        anchor = tight_surgery_ranges(cable_of_trefoil(p, q)).anchor()
        if anchor != p * q + q - p + 1:
            details.append(f"cable ({p},{q}): anchor {anchor}")
    trefoil = Catalog.builtin().lookup("T(2,3)")
    trefoil_report = tight_surgery_ranges(trefoil)
    if sorted(rng.anchor for rng in trefoil_report.ranges) != [2, 2]:
        details.append(f"trefoil anchors {trefoil_report.ranges}")
    if tight_surgery_ranges(UNKNOT).ranges != ():
        details.append("unknot should certify no range")
    return not details, "classifier anchors verified" if not details else "; ".join(details)


def lantern_ambient_model() -> tuple[SurfaceModel, LanternConfiguration]:
    """Genus-2, four-boundary model (rank 7) hosting a lantern.

    Basis: boundary classes b1, b2, b3 (indices 0-2), probe classes
    p1, p2, p3 dual to them (indices 3-5), and one spare direction.  The
    probes make the boundary transvections act nontrivially, so the
    action comparison is not vacuous.
    """
    rank = 7
    pairing = [[0] * rank for _ in range(rank)]
    for i in range(3):
        pairing[3 + i][i] = 1
        pairing[i][3 + i] = -1

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(rank))

    def add(*vecs):
        return tuple(sum(parts) for parts in zip(*vecs))

    b = [unit(0), unit(1), unit(2)]
    curves = {
        "b1": b[0],
        "b2": b[1],
        "b3": b[2],
        "b4": tuple(-x for x in add(*b)),
        "c12": add(b[0], b[1]),
        "c13": add(b[0], b[2]),
        "c23": add(b[1], b[2]),
        "p1": unit(3),
        "p2": unit(4),
        "p3": unit(5),
        "spare": unit(6),
    }
    surface = SurfaceModel(
        genus=2,
        boundary_count=4,
        pairing=tuple(tuple(row) for row in pairing),
        curves=tuple(curves.items()),
        boundary_classes=(curves["b1"], curves["b2"], curves["b3"], curves["b4"]),
    )
    config = LanternConfiguration(
        one="b1",
        two="b2",
        three="b3",
        four="b4",
        one_two="c12",
        one_three="c13",
        two_three="c23",
    )
    return surface, config


def _closed_form_lantern_action(surface: SurfaceModel):
    """Oracle: x -> x - <x,b1> b2 - <x,b2> b1 + <x,b3> b3, columnwise."""
    rank = surface.h1_rank
    b1, b2, b3 = (surface.curve_class(n) for n in ("b1", "b2", "b3"))

    def pair(x, y):
        return sum(
            x[i] * surface.pairing[i][j] * y[j] for i in range(rank) for j in range(rank)
        )

    columns = []
    for k in range(rank):
        x = tuple(1 if j == k else 0 for j in range(rank))
        image = list(x)
        for coeff, direction in (
            (-pair(x, b1), b2),
            (-pair(x, b2), b1),
            (pair(x, b3), b3),
        ):
            image = [v + coeff * d for v, d in zip(image, direction)]
        columns.append(image)
    return tuple(tuple(columns[k][i] for k in range(rank)) for i in range(rank))


def check_a7() -> tuple[bool, str]:
    """Lantern action identity and rewrite preservation on random words."""
    details: list[str] = []
    surface, config = lantern_ambient_model()
    config.validate(surface)
    left = (("c12", "-"), ("b1", "+"), ("b2", "+"), ("b3", "+"))
    right = (("c13", "+"), ("c23", "+"), ("b4", "-"))
    lhs = homology_action(left, surface)
    rhs = homology_action(right, surface)
    oracle = _closed_form_lantern_action(surface)
    if lhs != rhs:
        details.append("lantern sides act differently")
    if lhs != oracle:
        details.append("action differs from the symbolic closed form")
    rng = random.Random(20240)
    names = [name for name, _ in surface.curves]
    for trial in range(100):
        prefix = tuple(
            (rng.choice(names), rng.choice("+-")) for _ in range(rng.randrange(4))
        )
        suffix = tuple(
            (rng.choice(names), rng.choice("+-")) for _ in range(rng.randrange(4))
        )
        word = prefix + left + suffix
        rewritten = lantern_rewrite(word, config, len(prefix), "LtoR", surface)
        if homology_action(word, surface) != homology_action(rewritten, surface):
            details.append(f"trial {trial}: action not preserved")
            break
    return not details, "action identity and 100 rewrites check" if not details else "; ".join(details)


def _zero_pairing(rank: int):
    return tuple(tuple(0 for _ in range(rank)) for _ in range(rank))


def chain_reduction_fixture(n: int):
    """Model data for the chain-reduction pipeline at parameter n.

    Each fixture is a planar four-holed-sphere page (rank 3, zero
    pairing) carrying the surgery curve ("kappa_minus"), its stabilized
    pushoff ("pushoff"), the target curve ("kappa"), and the lantern
    pair curves.  The role assignment and the base monodromy word vary
    with n because the lantern consumes one pushoff copy together with
    the base twists adjacent to it in the cyclic word:

      n = 1: roles (1,2,3) = pushoff, sigma1, sigma2; base [s1+, s2+].
      n = 2: roles (1,2,3) = pushoff, pushoff, sigma1 (a parallel copy
             fills two roles); base [s1+, s2+] with [sigma1] = [pushoff].
      n = 3: roles (1,2,3) = pushoff three times; the base word carries a
             positive kappa_minus twist, [kappa_minus+, sigma2+].

    Returns (surface, config, base_word, rewrite_position,
    destabilize_curve, drop_index, drop_boundary, target_base_word).
    """
    if n == 1:
        curves = {
            "kappa": (1, 0, 0),
            "sigma1": (0, 1, 0),
            "sigma2": (0, 0, 1),
            "pushoff": (-1, -1, -1),
            "kappa_minus": (-1, 0, -1),
            "u": (-1, -1, 0),
            "v": (0, 1, 1),
        }
        surface = SurfaceModel(
            genus=0,
            boundary_count=4,
            pairing=_zero_pairing(3),
            curves=tuple(curves.items()),
            boundary_classes=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
        )
        config = LanternConfiguration(
            one="pushoff",
            two="sigma1",
            three="sigma2",
            four="kappa",
            one_two="kappa_minus",
            one_three="u",
            two_three="v",
        )
        return (
            surface,
            config,
            (("sigma1", "+"), ("sigma2", "+")),
            2,
            "v",
            2,
            2,
            (("u", "+"),),
        )
    if n in (2, 3):
        curves = {
            "pushoff": (1, 0, 0),
            "sigma1": (1, 0, 0),
            "sigma2": (0, 1, 0),
            "kappa_minus": (2, 0, 0),
            "v": (2, 0, 0),
            "kappa": (-3, 0, 0),
        }
        surface = SurfaceModel(
            genus=0,
            boundary_count=4,
            pairing=_zero_pairing(3),
            curves=tuple(curves.items()),
            boundary_classes=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
        )
        config = LanternConfiguration(
            one="pushoff",
            two="pushoff",
            three="sigma1" if n == 2 else "pushoff",
            four="kappa",
            one_two="kappa_minus",
            one_three="kappa_minus",
            two_three="v",
        )
        base = (
            (("sigma1", "+"), ("sigma2", "+"))
            if n == 2
            else (("kappa_minus", "+"), ("sigma2", "+"))
        )
        return (surface, config, base, 2, "sigma2", 1, 1, (("v", "+"),))
    raise ValueError(f"no fixture for n={n}")


def run_chain_reduction(n: int):
    """Execute the pipeline: build the word for surgery parameter n + 1 on
    the stabilized knot, rewrite once, destabilize once, and return the
    reduced result next to the reduced direct word for parameter n."""
    (
        surface,
        config,
        base,
        position,
        destab_curve,
        drop_index,
        drop_boundary,
        target_base,
    ) = chain_reduction_fixture(n)
    start = attach_surgery_twists(surface, base, "kappa_minus", "pushoff", n + 1)
    rewritten = lantern_rewrite(start, config, position, "LtoR", surface)
    if homology_action(start, surface) != homology_action(rewritten, surface):
        raise AssertionError("rewrite changed the homology action")
    reduced_surface, finished = giroux_destabilize(
        surface,
        rewritten,
        destab_curve,
        drop_index=drop_index,
        drop_boundary=drop_boundary,
    )
    target = attach_surgery_twists(
        reduced_surface, target_base, "kappa", "kappa_minus", n
    )
    return free_reduce(finished), free_reduce(target)


def check_a8() -> tuple[bool, str]:
    """Chain reduction: one lantern rewrite plus one destabilization turns
    the (n+1)-surgery word on the stabilized knot into the n-surgery word.

    Monodromy words present open books up to conjugation, so the words
    are compared cyclically after free cancellation.
    """
    details: list[str] = []
    for n in (1, 2, 3):
        finished, target = run_chain_reduction(n)
        if not cyclic_words_equal(finished, target):
            details.append(f"n={n}: {finished} does not reduce to {target}")
    return not details, "pipeline reduces for n = 1, 2, 3" if not details else "; ".join(details)


def check_a9() -> tuple[bool, str]:
    """Ledger closure properties and the built-in rule instances."""
    details: list[str] = []
    rng = random.Random(77)
    for trial in range(40):
        facts = [
            (rng.randrange(-6, 7), rng.choice((Status.ZERO, Status.NONZERO)))
            for _ in range(rng.randrange(1, 6))
        ]
        outcomes = []
        for perm in itertools.islice(itertools.permutations(facts), 12):
            state = LedgerState()
            try:
                for offset, status in perm:
                    state = assert_fact(state, offset, status, "t")
                outcomes.append(tuple(state.status_at(k) for k in range(-8, 9)))
            except Contradiction:
                outcomes.append("contradiction")
        if len(set(outcomes)) != 1:
            details.append(f"trial {trial}: order dependence {set(outcomes)}")
            break
    state = assert_fact(LedgerState(), 3, Status.NONZERO, "t")
    if state.status_at(8) is not Status.NONZERO:
        details.append("upward propagation failed")
    state = assert_fact(LedgerState(), 3, Status.ZERO, "t")
    if state.status_at(0) is not Status.ZERO:
        details.append("downward propagation failed")
    twice = assert_fact(assert_fact(LedgerState(), 2, Status.ZERO, "t"), 2, Status.ZERO, "t")
    if [twice.status_at(k) for k in range(-3, 4)] != [
        assert_fact(LedgerState(), 2, Status.ZERO, "t").status_at(k) for k in range(-3, 4)
    ]:
        details.append("closure is not idempotent")
    for first, second in (
        ((4, Status.NONZERO, "a"), (5, Status.ZERO, "b")),
        ((5, Status.ZERO, "b"), (4, Status.NONZERO, "a")),
    ):
        try:
            assert_fact(assert_fact(LedgerState(), *first), *second)
            details.append(f"contradiction not raised for {first} then {second}")
        except Contradiction:
            pass

    cable = cable_of_trefoil(2, 3)
    subject = LedgerSubject(
        legendrian=LegendrianKnot(6, -1),
        transverse=TransverseKnot(7),
        knot_type=cable,
        binding=True,
    )
    ledger = apply_rules(subject)
    for k in range(-2, 7):
        if ledger.status_at(k) is not Status.ZERO:
            details.append(f"cable: expected Zero at f_S{k:+d}")
    if ledger.status_at(7) is not Status.UNKNOWN:
        details.append("cable: framing f_S+7 should stay Unknown")
    for k in range(8, 15):
        if ledger.status_at(k) is not Status.NONZERO:
            details.append(f"cable: expected NonZero at f_S{k:+d}")
    if inverse_limit_status(ledger) is not LedgerVerdict.NOT_ALL_ZERO:
        details.append("cable: inverse limit should be NotAllZero")

    stabilized = apply_rules(
        LedgerSubject(legendrian=LegendrianKnot(-3, 2), positively_stabilized=True)
    )
    if any(stabilized.status_at(k) is not Status.ZERO for k in range(-10, 11)):
        details.append("positive stabilization: expected Zero everywhere")
    if inverse_limit_status(stabilized) is not LedgerVerdict.ZERO:
        details.append("positive stabilization: limit verdict should be Zero")
    return not details, "closure and rule instances verified" if not details else "; ".join(details[:4])


def _twist(num: int, den: int, h: int) -> tuple[int, int]:
    # Slope change under h meridional twists of the solid torus, reduced,
    # with a non-negative denominator.
    den += num * h
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g


def normalize_slope(n: int) -> tuple[int, int]:
    """Twist the integer slope n into (-infinity, -1]: -n/(n-1) as
    (numerator, denominator), and -infinity, encoded as (-1, 0), for n = 1."""
    for h in range(0, -4, -1):
        num, den = _twist(n, 1, h)
        if den == 0:
            return -1, 0
        if Fraction(num, den) <= -1:
            return num, den
    raise AssertionError("slope normalization did not terminate")


def gluing_pullback(n: int) -> tuple[int, int]:
    """Pull the meridional direction (0, 1) back through the surgery gluing
    ((n, -1), (1, 0)): the dividing-set direction on the solid torus."""
    (a, b), (c, d) = (n, -1), (1, 0)
    inverse = ((d, -b), (-c, a))  # the gluing has determinant 1
    return inverse[0][1], inverse[1][1]  # the image of (0, 1)


def check_a10() -> tuple[bool, str]:
    """Convex torus slope normalization and the gluing pullback."""
    details: list[str] = []
    for n in range(2, 11):
        if normalize_slope(n) != (-n, n - 1):
            details.append(f"n={n}: slope {normalize_slope(n)}")
        if gluing_pullback(n) != (1, n):
            details.append(f"n={n}: pullback {gluing_pullback(n)}")
    if normalize_slope(1) != (-1, 0):
        details.append("n=1 should normalize to the infinite slope")
    return not details, "slopes match -n/(n-1)" if not details else "; ".join(details)


CRITERIA = (
    ("A1", "negative continued fractions", check_a1),
    ("A2", "expansion shape and counts", check_a2),
    ("A3", "d3 stabilization invariance", check_a3),
    ("A4", "homology order oracle", check_a4),
    ("A5", "Chern class evaluations", check_a5),
    ("A6", "tightness classifier", check_a6),
    ("A7", "lantern action identity", check_a7),
    ("A8", "chain reduction pipeline", check_a8),
    ("A9", "ledger logic", check_a9),
    ("A10", "slope arithmetic", check_a10),
)


def run_all(writer=print) -> bool:
    """Run every criterion; one PASS/FAIL line each; True when all pass."""
    all_ok = True
    for code, title, check in CRITERIA:
        ok, detail = check()
        all_ok = all_ok and ok
        writer(f"{code} {'PASS' if ok else 'FAIL'}  {title}: {detail}")
    return all_ok
