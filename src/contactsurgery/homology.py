"""Homological invariants of contact surgery presentations.

From a presentation we build the linking matrix of the underlying smooth
surgery diagram, read off |H1|, signature and Euler characteristic of
the associated 4-manifold, evaluate the first Chern class through the
rotation numbers, and assemble the d3 invariant

    d3 = (c^2 - 3*signature - 2*euler) / 4 + (number of +1 coefficients),

normalized so the empty diagram yields -1/2.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import IncompleteData, NotRationalHomologySphere
from .expansion import ContactSurgeryPresentation
from .legendrian import LegendrianKnot
from .linalg import PushoffChain, det_int, pushoff_chain, signature_exact, solve_exact


@dataclass(frozen=True)
class LinkingMatrix:
    """Symmetric linking matrix with smooth framings on the diagonal."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def determinant(self) -> int:
        return det_int(self.entries)

    @cached_property
    def chain(self) -> PushoffChain | None:
        """The O(n) pushoff-chain kernel's factorization, computed once;
        None sends callers to the generic kernels."""
        return pushoff_chain(self.entries)


def linking_matrix(presentation: ContactSurgeryPresentation) -> LinkingMatrix:
    """Linking matrix of the presentation's smooth surgery diagram.

    Component j is a pushoff of component j-1, so it links its
    predecessor in the predecessor's contact framing (its tb) and copies
    the predecessor's linking with every earlier component: row i is
    (tb_0, ..., tb_{i-1}, tb_i + coefficient_i, tb_i, ..., tb_i).
    """
    comps = presentation.components
    tbs = tuple(c.legendrian.tb for c in comps)
    n = len(tbs)
    return LinkingMatrix(tuple(
        tbs[:i] + (tb + comp.coefficient,) + (tb,) * (n - i - 1)
        for i, (tb, comp) in enumerate(zip(tbs, comps))
    ))


@dataclass(frozen=True)
class HomologyData:
    determinant: int
    order_h1: int | None  # None marks infinite first homology
    signature: int
    euler_characteristic: int


def homology_data(matrix: LinkingMatrix) -> HomologyData:
    """|H1| (None when infinite), signature, and euler = 1 + size."""
    chain = matrix.chain
    if chain is None:
        det, signature = det_int(matrix.entries), signature_exact(matrix.entries)
    else:
        det, signature = chain.determinant, chain.signature
    return HomologyData(
        determinant=det,
        order_h1=abs(det) if det != 0 else None,
        signature=signature,
        euler_characteristic=1 + matrix.size,
    )


@dataclass(frozen=True)
class SpinCEvaluation:
    """Chern-class data of a presentation: rotation vector, the exact
    solution of M x = rot, and c^2 = x . rot."""

    rot_vector: tuple[int, ...]
    solution: tuple[Fraction, ...]
    c_squared: Fraction

    def __post_init__(self) -> None:
        check = sum(x * r for x, r in zip(self.solution, self.rot_vector))
        if check != self.c_squared:
            raise ValueError("c_squared does not match solution . rot")


def spin_c_evaluation(
    presentation: ContactSurgeryPresentation, matrix: LinkingMatrix | None = None
) -> SpinCEvaluation:
    if matrix is None:
        matrix = linking_matrix(presentation)
    rot = tuple(c.legendrian.rot for c in presentation.components)
    if not rot:
        return SpinCEvaluation((), (), Fraction(0))
    chain = matrix.chain
    det = det_int(matrix.entries) if chain is None else chain.determinant
    if det == 0:
        raise NotRationalHomologySphere("linking matrix is singular")
    if chain is not None:
        return SpinCEvaluation(rot, *chain.solve(rot))
    solution = solve_exact(matrix.entries, rot)
    c_sq = sum((x * r for x, r in zip(solution, rot)), Fraction(0))
    return SpinCEvaluation(rot, solution, c_sq)


def d3_invariant(presentation: ContactSurgeryPresentation) -> Fraction:
    """The d3 invariant of the contact structure the presentation defines.

    Defined when the surgered manifold is a rational homology sphere
    (nonzero determinant); the empty presentation gives -1/2.
    """
    matrix = linking_matrix(presentation)
    data = homology_data(matrix)
    if data.order_h1 is None:
        raise NotRationalHomologySphere(
            "d3 is undefined: the surgered manifold has infinite H1"
        )
    spin = spin_c_evaluation(presentation, matrix)
    q = sum(1 for c in presentation.components if c.coefficient == 1)
    return (
        Fraction(spin.c_squared - 3 * data.signature - 2 * data.euler_characteristic, 4)
        + q
    )


def cap_class_evaluation(rot: int, n: int) -> int:
    """Chern-class value on the capped surface class: rot + n - 1."""
    if n < 1:
        raise ValueError(f"surgery parameter n must be >= 1, got {n}")
    return rot + n - 1


def cap_class_evaluations(
    n: int, c1_beta: int, c1_x
) -> tuple[list[int], int]:
    """Evaluate c1 on the basis-change classes e_i and on the capped class.

    Works in the rank-n lattice with basis (beta, x_1, ..., x_{n-1});
    e_1 = beta - x_1 and e_{i+1} = e_i + x_i - x_{i+1}.  Returns the list
    of values on the e_i together with the value on beta + sum(e_i).
    Evaluations are computed from explicit coordinate vectors, not from
    the closed form.
    """
    if n < 2:
        raise ValueError("the basis change needs n >= 2")
    c1_x = list(c1_x)
    if len(c1_x) != n - 1:
        raise ValueError(f"expected {n - 1} values on the x classes")

    def basis_vector(i):
        vec = [0] * n
        vec[i] = 1
        return vec

    beta = basis_vector(0)
    xs = [basis_vector(i) for i in range(1, n)]
    e_classes = [[b - x for b, x in zip(beta, xs[0])]]
    for i in range(1, n - 1):
        step = [xi - xj for xi, xj in zip(xs[i - 1], xs[i])]
        e_classes.append([e + s for e, s in zip(e_classes[-1], step)])
    values = [c1_beta] + c1_x

    def evaluate(vec):
        return sum(v * c for v, c in zip(vec, values))

    capped = list(beta)
    for e in e_classes:
        capped = [a + b for a, b in zip(capped, e)]
    return [evaluate(e) for e in e_classes], evaluate(capped)


def basis_change_check(n: int, rot: int) -> bool:
    """Check that c1 evaluates to 1 on every e_i and to rot + n - 1 on the
    capped class, with the standard values rot on beta and rot - 1 on x_i."""
    e_values, total = cap_class_evaluations(n, rot, [rot - 1] * (n - 1))
    return all(v == 1 for v in e_values) and total == cap_class_evaluation(rot, n)


class AdjunctionReport(NamedTuple):
    residue: int
    min_abs: int
    vanishes: bool


def adjunction_congruence(genus: int, cap_value: int) -> AdjunctionReport:
    """Congruence constraint mod 4*genus forced by the capped class.

    The Chern numbers on the zero-surgery generator lie in the residue
    class of cap_value + 2*genus mod 4*genus; when every representative
    has absolute value >= 2*genus the adjunction bound kills the group
    and the comparison map is an isomorphism (vanishes = True).
    """
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    modulus = 4 * genus
    residue = (cap_value + 2 * genus) % modulus
    min_abs = min(abs(residue), abs(residue - modulus))
    return AdjunctionReport(residue, min_abs, min_abs >= 2 * genus)


def nonvanishing_criterion(
    knot: LegendrianKnot, n: int, binding: bool = True
) -> bool:
    """Sufficient condition for the surgered contact invariant to be nonzero.

    Requires the knot type's genus g >= 1, the surgery to land on framing
    2g (tb + n = 2g), the transverse pushoff to maximize self-linking
    (sl = 2g - 1), and the caller to assert that the transverse
    representative is an open book binding.
    """
    if knot.knot_type is None:
        raise IncompleteData("nonvanishing criterion needs the knot type")
    g = knot.knot_type.genus
    if g < 1:
        return False
    if not binding:
        return False
    # Pushoff self-linking computed directly; an even tb - rot simply
    # fails the sl = 2g - 1 test rather than being rejected as malformed.
    return knot.tb + n == 2 * g and knot.tb - knot.rot == 2 * g - 1
