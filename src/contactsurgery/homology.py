"""Homological invariants of contact surgery presentations.

From a presentation we build the linking matrix of the underlying smooth
surgery diagram, read off |H1|, signature and Euler characteristic of
the associated 4-manifold, evaluate the first Chern class through the
rotation numbers, and assemble the d3 invariant

    d3 = (c^2 - 3*signature - 2*euler) / 4 + (number of +1 coefficients),

normalized so the empty diagram yields -1/2.  All arithmetic is exact.

A `LinkingMatrix` is factored when it is built, by `pushoff_chain`'s
forward pass; the functions here read its (a, b, det, signature) as data.
Every link of a presentation's chain is a unit, b_k = -coefficient_k,
so the tridiagonal form never splits and H1 = coker M is cyclic: of
order |det|, or Z where det = 0.  `d3_invariant` takes det * c^2 as one
integer from a second forward pass (`LinkingMatrix.adjugate_form`), each
pass O(n) steps by small multipliers, and divides once, by 4 * det.
`spin_c_evaluation` takes one integer vector instead, adj(M) rot
(`LinkingMatrix.adjugate_vector`), reads det * c^2 off it as a dot
product with rot, and only then turns each entry into its `Fraction`
of the solution.  Each presentation's matrix is built, so factored,
once: an expansion's presentations share one, and any other keeps its
own.
`linking_matrix` builds both kinds with the `LinkingMatrix` constructor,
in its one loop over the components, and keeps the result in a plain
`_matrix` attribute that starts at None, on the `Expansion` or on the
presentation, so a first use enters no `functools` or importlib frame.
`SpinCEvaluation` is a record.  `HomologyData` is a frozen dataclass, since
the benchmark's tests call `dataclasses.replace` on it, but it becomes one
only when its first record is built; `d3` builds none, and the `homology`
verb renders `homology_fields`, so neither loads `dataclasses`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotRationalHomologySphere
from .linalg import LinkingMatrix
from .presentation import ContactSurgeryPresentation
from .record import Record, set_field


def linking_matrix(presentation: ContactSurgeryPresentation) -> LinkingMatrix:
    """Linking matrix of the presentation's smooth surgery diagram.

    Component j is a pushoff of component j-1, so it links its
    predecessor in the predecessor's contact framing (its tb) and copies
    the predecessor's linking with every earlier component: row i is
    (tb_0, ..., tb_{i-1}, tb_i + coefficient_i, tb_i, ..., tb_i).

    A presentation taken from an `Expansion` returns the one matrix that
    all of that expansion's presentations share, which the expansion
    keeps; any other presentation keeps its own.  Either is built on first
    use, so it is factored once.
    """
    owner = presentation._expansion
    if owner is None:
        owner = presentation
    matrix = owner._matrix
    if matrix is None:
        # Every presentation of an expansion has the same tbs and coefficients.
        # A loop reads them faster than `map` over an `attrgetter` when the
        # caches are cold, as in a one-shot call.
        tbs, diagonal = [], []
        for c in presentation.components:
            tb = c.legendrian.tb
            tbs.append(tb)
            diagonal.append(tb + c.coefficient)
        matrix = LinkingMatrix(tuple(diagonal), tuple(tbs[:-1]))
        set_field(owner, "_matrix", matrix)
    return matrix


class HomologyData:
    """|H1| (None when infinite), signature, euler characteristic and the
    determinant of a linking matrix, as a frozen dataclass."""

    determinant: int
    order_h1: int | None  # None marks infinite first homology
    signature: int
    euler_characteristic: int

    # The first record built, or unpickled, makes this class a frozen
    # dataclass in place, so every module keeps the one class object; these
    # two methods then give way to the dataclass's.  Two threads building
    # the first record at once could race; the package starts none.  A
    # module `__getattr__` would also defer `dataclasses`, but would slow
    # every attribute read of this module (see tests/test_package.py).
    def __init__(self, *args, **kwargs):
        _make_dataclass()
        self.__init__(*args, **kwargs)

    def __setstate__(self, state):
        _make_dataclass()
        self.__dict__.update(state)


def _make_dataclass() -> None:
    from dataclasses import dataclass

    del HomologyData.__init__, HomologyData.__setstate__
    dataclass(frozen=True)(HomologyData)


def homology_data(matrix: LinkingMatrix) -> HomologyData:
    """|H1| (None when infinite), signature, and euler = 1 + size."""
    _, _, det, signature = matrix._chain
    return HomologyData(det, abs(det) if det else None, signature, 1 + len(matrix.diagonal))


def homology_fields(matrix: LinkingMatrix) -> dict:
    """`homology_data`'s four values by field name, without a record."""
    _, _, det, signature = matrix._chain
    return {"determinant": det, "order_h1": abs(det) if det else None,
            "signature": signature, "euler_characteristic": 1 + len(matrix.diagonal)}


class SpinCEvaluation(Record):
    """Chern-class data of a presentation: rotation vector, the exact
    solution of M x = rot, and c^2 = x . rot."""

    _fields = ("rot_vector", "solution", "c_squared")


def spin_c_evaluation(presentation: ContactSurgeryPresentation) -> SpinCEvaluation:
    """The rot vector, the solution x of M x = rot and c^2 = x . rot, from
    one integer vector, adj(M) rot = det * x: det * c^2 is its dot product
    with rot, and each of its integers is then replaced by its `Fraction`
    in place, so the integers and the solution are not all held at once."""
    rot = tuple(c.legendrian.rot for c in presentation.components)
    matrix = linking_matrix(presentation)
    _, _, det, _ = matrix._chain
    if det == 0:
        raise NotRationalHomologySphere("linking matrix is singular")
    x = matrix.adjugate_vector(rot)
    form = sum(v * r for v, r in zip(x, rot))
    for k, v in enumerate(x):
        x[k] = Fraction(v, det)
    return SpinCEvaluation(rot, tuple(x), Fraction(form, det))


def d3_invariant(presentation: ContactSurgeryPresentation) -> Fraction:
    """The d3 invariant of the contact structure the presentation defines.

    Defined when the surgered manifold is a rational homology sphere
    (nonzero determinant); the empty presentation gives -1/2.  With
    det * c^2 = N, the integer `adjugate_form` of the rot vector,
    d3 = (N - det * (3 * signature + 2 * euler - 4 * q)) / (4 * det), where
    q is 1 just when the first component is the (only) +1.
    """
    matrix = linking_matrix(presentation)
    _, _, det, signature = matrix._chain
    if det == 0:
        raise NotRationalHomologySphere(
            "d3 is undefined: the surgered manifold has infinite H1"
        )
    comps = presentation.components
    # A comprehension enters one more frame than `map` over an `attrgetter`,
    # but on cold caches it runs faster.
    form = matrix.adjugate_form([c.legendrian.rot for c in comps])
    q = 1 if comps and comps[0].coefficient == 1 else 0
    return Fraction(form - det * (3 * signature + 2 * (1 + len(comps)) - 4 * q), 4 * det)
