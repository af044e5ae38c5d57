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
