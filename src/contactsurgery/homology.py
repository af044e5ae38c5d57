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

from . import linalg
from .errors import NotRationalHomologySphere
from .expansion import ContactSurgeryPresentation


@dataclass(frozen=True)
class LinkingMatrix:
    """Symmetric linking matrix with smooth framings on the diagonal.

    Each component is a pushoff of the one before it, so
    M[i][j] = linking[min(i, j)] off the diagonal: the matrix is stored in
    O(n), and the n x n `entries` are built only on request.
    """

    diagonal: tuple[int, ...]
    linking: tuple[int, ...]  # one shorter than diagonal

    def __post_init__(self) -> None:
        if len(self.linking) != max(len(self.diagonal) - 1, 0):
            raise ValueError("linking needs one entry fewer than diagonal")

    @property
    def size(self) -> int:
        return len(self.diagonal)

    @cached_property
    def entries(self) -> linalg.IntMatrix:
        return linalg.chain_entries(self.diagonal, self.linking)

    def determinant(self) -> int:
        return linalg.chain_determinant(self.diagonal, self.linking)

    @cached_property
    def factorization(self) -> linalg.PushoffChain:
        """The O(n) chain kernel for this matrix, run once."""
        return linalg.pushoff_chain(self.diagonal, self.linking)


def linking_matrix(presentation: ContactSurgeryPresentation) -> LinkingMatrix:
    """Linking matrix of the presentation's smooth surgery diagram.

    Component j is a pushoff of component j-1, so it links its
    predecessor in the predecessor's contact framing (its tb) and copies
    the predecessor's linking with every earlier component: row i is
    (tb_0, ..., tb_{i-1}, tb_i + coefficient_i, tb_i, ..., tb_i).
    """
    comps = presentation.components
    tbs = [c.legendrian.tb for c in comps]
    return LinkingMatrix(
        tuple([tb + c.coefficient for tb, c in zip(tbs, comps)]), tuple(tbs[:-1])
    )


@dataclass(frozen=True)
class HomologyData:
    determinant: int
    order_h1: int | None  # None marks infinite first homology
    signature: int
    euler_characteristic: int


def homology_data(matrix: LinkingMatrix) -> HomologyData:
    """|H1| (None when infinite), signature, and euler = 1 + size."""
    kernel = matrix.factorization
    det = kernel.determinant
    return HomologyData(
        determinant=det,
        order_h1=abs(det) if det != 0 else None,
        signature=kernel.signature,
        euler_characteristic=1 + matrix.size,
    )


@dataclass(frozen=True)
class SpinCEvaluation:
    """Chern-class data of a presentation: rotation vector, the exact
    solution of M x = rot, and c^2 = x . rot."""

    rot_vector: tuple[int, ...]
    solution: tuple[Fraction, ...]
    c_squared: Fraction


def spin_c_evaluation(
    presentation: ContactSurgeryPresentation, matrix: LinkingMatrix | None = None
) -> SpinCEvaluation:
    if matrix is None:
        matrix = linking_matrix(presentation)
    rot = tuple(c.legendrian.rot for c in presentation.components)
    kernel = matrix.factorization
    if kernel.determinant == 0:
        raise NotRationalHomologySphere("linking matrix is singular")
    return SpinCEvaluation(rot, *kernel.solve(rot))


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
