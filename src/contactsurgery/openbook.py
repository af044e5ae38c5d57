"""Symbolic open books: surfaces, signed Dehn-twist words, and rewrites.

Curves are names tagged with first-homology classes; isotopy data is
deliberately absent.  A monodromy word is a sequence of (curve, sign)
letters, the rightmost letter acting first, and its checkable shadow is
the induced transvection action on H1.  Monodromy words present open
books, so they are compared as cyclic words after free cancellation.

The lantern rewrite trades the subword c12^-1 c1 c2 c3 for
c13 c23 c4^-1 (and back) inside a declared seven-curve configuration;
windows may wrap around the end of the word.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    CannotCapLastBoundary,
    DiagramFormatError,
    InvalidStabilization,
    PatternMismatch,
    UnknownCurve,
    quote,
)
# The status lives in legendrian; bench/workloads.py still reads it here.
from .legendrian import InvariantStatus  # noqa: F401

Letter = tuple[str, str]
PLUS = "+"
MINUS = "-"


@dataclass(frozen=True)
class SurfaceModel:
    """A surface with boundary, its H1 pairing, and a named curve alphabet.

    h1 rank is 2*genus + boundary_count - 1; every curve class and every
    boundary class is an integer vector of that length.  The pairing is
    skew-symmetric and declared boundary classes pair to zero with each
    other.
    """

    genus: int
    boundary_count: int
    pairing: tuple[tuple[int, ...], ...]
    curves: tuple[tuple[str, tuple[int, ...]], ...] = ()
    boundary_classes: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        rank = self.h1_rank
        if self.genus < 0 or self.boundary_count < 1:
            raise ValueError("need genus >= 0 and at least one boundary")
        if len(self.pairing) != rank or any(len(r) != rank for r in self.pairing):
            raise ValueError(f"pairing must be {rank} x {rank}")
        for i in range(rank):
            for j in range(rank):
                if self.pairing[i][j] != -self.pairing[j][i]:
                    raise ValueError("pairing must be skew-symmetric")
        # Not a field: equality and hash stay over the alphabet itself.
        classes = dict(self.curves)
        if len(classes) != len(self.curves):
            raise ValueError("duplicate curve names in the alphabet")
        object.__setattr__(self, "_classes", classes)
        for name, cls in self.curves:
            if len(cls) != rank:
                raise ValueError(f"curve {quote(name)!r} class has wrong length")
        for cls in self.boundary_classes:
            if len(cls) != rank:
                raise ValueError("boundary class has wrong length")
        for i, b1 in enumerate(self.boundary_classes):
            for b2 in self.boundary_classes[i:]:
                if self._pair(b1, b2) != 0:
                    raise ValueError("boundary classes must pairwise pair to zero")

    @property
    def h1_rank(self) -> int:
        return 2 * self.genus + self.boundary_count - 1

    def _pair(self, x, y) -> int:
        return sum(
            x[i] * self.pairing[i][j] * y[j]
            for i in range(len(x))
            for j in range(len(y))
        )

    def curve_class(self, name: str) -> tuple[int, ...]:
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownCurve(f"curve {name!r} is not in the alphabet") from None

    def has_curve(self, name: str) -> bool:
        return name in self._classes


def word(*letters) -> tuple[Letter, ...]:
    """Convenience constructor: word(("a", "+"), ("b", "-"))."""
    out = []
    for name, sign in letters:
        if sign not in (PLUS, MINUS):
            raise ValueError(f"twist sign must be '+' or '-', got {quote(sign)!r}")
        out.append((name, sign))
    return tuple(out)


def free_reduce(letters) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[Letter] = []
    for letter in letters:
        if out and out[-1][0] == letter[0] and out[-1][1] != letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _cyclically_reduce(letters) -> tuple[Letter, ...]:
    """Free reduction, then cancel inverse pairs across the word's ends."""
    w = free_reduce(letters)
    i, j = 0, len(w)
    while j - i >= 2 and w[i][0] == w[j - 1][0] and w[i][1] != w[j - 1][1]:
        i, j = i + 1, j - 1
    return w[i:j]


def cyclic_words_equal(first, second) -> bool:
    """Equality of monodromy words up to conjugation: cyclic reduction,
    then up to rotation."""
    a, b = _cyclically_reduce(first), _cyclically_reduce(second)
    if len(a) != len(b):
        return False
    # One character per distinct letter; b is a rotation of a exactly when
    # its string occurs in a + a, which a substring search finds in linear time.
    codes = {letter: chr(i) for i, letter in enumerate(set(a) | set(b))}
    text = "".join(codes[letter] for letter in a)
    return "".join(codes[letter] for letter in b) in text + text


def _row_update(surface: SurfaceModel, name: str, sign: str):
    """The letter's transvection T = I + s c (Omega c)^T as a rank-one
    update: the row ((Omega c),) and the pairs (i, s c_i) with c_i != 0,
    or None when T is the identity (Omega c = 0, as for c = 0)."""
    cls = surface.curve_class(name)
    image = tuple(sum(p * x for p, x in zip(row, cls)) for row in surface.pairing)
    if not any(image):
        return None
    s = 1 if sign == PLUS else -1
    return (image,), tuple((i, s * x) for i, x in enumerate(cls) if x)


def homology_action(letters, surface: SurfaceModel):
    """Matrix of the word acting on H1, rightmost letter acting first.

    The action is a monoid homomorphism for concatenation in this order:
    action(w1 + w2) = action(w1) . action(w2).  It is composed in acting
    order, result = T . result from the rightmost letter on.  A
    transvection T = I + s c (Omega c)^T gives T . R = R + s c (x) v with
    the row v = (Omega c)^T R, so a letter computes v by mat_mul_int and
    rewrites only the rows i with c_i != 0: it costs
    (nnz(Omega c) + nnz(c)) r, and every other row is kept as it is.
    Each distinct letter's update is built once; identity letters are
    skipped.
    """
    from .linalg import identity_int, mat_mul_int

    letters = tuple(letters)
    distinct = word(*dict.fromkeys(letters))  # checks each distinct letter's sign
    updates = {letter: _row_update(surface, *letter) for letter in distinct}
    result = list(identity_int(surface.h1_rank))
    for letter in reversed(letters):
        update = updates[letter]
        if update is None:
            continue
        image, column = update
        v = mat_mul_int(image, result)[0]
        for i, x in column:
            result[i] = tuple(r + x * y for r, y in zip(result[i], v))
    return tuple(result)


@dataclass(frozen=True)
class LanternConfiguration:
    """Seven named curves asserted to form a lantern in the surface.

    Roles 1, 2, 3, 4 are the boundary curves and roles 12, 13, 23 the
    pair-encircling curves.  Validation checks the
    homology relations [c12] = [c1] + [c2], [c13] = [c1] + [c3],
    [c23] = [c2] + [c3], [c4] = -[c1] - [c2] - [c3], and that the classes
    of roles 1, 2, 3 pairwise pair to zero (so the rewrite preserves the
    homology action).  Distinct roles may name the same curve: parallel
    copies fill several roles.
    """

    one: str
    two: str
    three: str
    four: str
    one_two: str
    one_three: str
    two_three: str

    def validate(self, surface: SurfaceModel) -> None:
        c1 = surface.curve_class(self.one)
        c2 = surface.curve_class(self.two)
        c3 = surface.curve_class(self.three)
        c4 = surface.curve_class(self.four)
        c12 = surface.curve_class(self.one_two)
        c13 = surface.curve_class(self.one_three)
        c23 = surface.curve_class(self.two_three)

        def add(*vecs):
            return tuple(sum(parts) for parts in zip(*vecs))

        def neg(vec):
            return tuple(-x for x in vec)

        relations = [
            (c12, add(c1, c2), "12 = 1 + 2"),
            (c13, add(c1, c3), "13 = 1 + 3"),
            (c23, add(c2, c3), "23 = 2 + 3"),
            (c4, neg(add(c1, c2, c3)), "4 = -(1 + 2 + 3)"),
        ]
        for got, expected, label in relations:
            if got != expected:
                raise ValueError(f"lantern homology relation {label} fails")
        for x in (c1, c2, c3):
            for y in (c1, c2, c3):
                if surface._pair(x, y) != 0:
                    raise ValueError("lantern boundary roles must pair to zero")

    def source(self, direction: str) -> tuple[Letter, ...]:
        left = (
            (self.one_two, MINUS),
            (self.one, PLUS),
            (self.two, PLUS),
            (self.three, PLUS),
        )
        right = (
            (self.one_three, PLUS),
            (self.two_three, PLUS),
            (self.four, MINUS),
        )
        if direction == "LtoR":
            return left
        if direction == "RtoL":
            return right
        raise ValueError(f"direction must be 'LtoR' or 'RtoL', got {direction!r}")

    def target(self, direction: str) -> tuple[Letter, ...]:
        return self.source("RtoL" if direction == "LtoR" else "LtoR")


@functools.cache
def _validated(config: LanternConfiguration, surface: SurfaceModel) -> None:
    """config.validate(surface), once per equal (configuration, surface)
    pair: both are frozen, and a failing check raises, so it is not cached."""
    config.validate(surface)


def lantern_rewrite(
    letters,
    config: LanternConfiguration,
    at: int,
    direction: str,
    surface: SurfaceModel,
):
    """Replace one side of the lantern relation by the other at a position.

    The source pattern must match the word letterwise starting at index
    `at`; since monodromy words are cyclic, the window may wrap past the
    end, in which case the result is anchored at the window start.  The
    configuration is validated against the surface, so the rewrite
    preserves the homology action.
    """
    letters = tuple(letters)
    _validated(config, surface)
    pattern = config.source(direction)
    n = len(letters)
    if not 0 <= at < n or len(pattern) > n:
        raise PatternMismatch(f"no room for the pattern at position {at}")
    window = [(at + k) % n for k in range(len(pattern))]
    for idx, expected in zip(window, pattern):
        if letters[idx] != expected:
            raise PatternMismatch(
                f"letter {letters[idx]!r} at position {idx} does not match "
                f"{expected!r}"
            )
    target = config.target(direction)
    if window[-1] >= at:
        return letters[:at] + target + letters[at + len(pattern):]
    # Wrapped window: write the replacement at the window start and then
    # the surviving letters in cyclic order.
    survivors = tuple(
        letters[i] for i in range((window[-1] + 1) % n, at)
    )
    return target + survivors


def giroux_stabilize(surface: SurfaceModel, letters, new_curve: str, new_class):
    """Plumb a positive Hopf band: the page keeps its genus and gains a
    boundary component, H1 gains a direction, and the word gains a positive
    twist along the new curve, appended at the end.

    The new direction pairs to zero with every class and the new boundary
    class is zero.  The new curve class lives in the extended lattice and
    must cross the new handle once (last coordinate +1 or -1); its name
    must be new to the alphabet.
    """
    if surface.has_curve(new_curve):
        raise InvalidStabilization(f"curve {new_curve!r} is already in the alphabet")
    rank = surface.h1_rank + 1
    new_class = tuple(new_class)
    if len(new_class) != rank:
        raise InvalidStabilization(f"new curve class must have length {rank}")
    if abs(new_class[-1]) != 1:
        raise InvalidStabilization(
            "the stabilizing curve must cross the new handle exactly once"
        )
    zero = (0,) * rank
    stabilized = SurfaceModel(
        genus=surface.genus,
        boundary_count=surface.boundary_count + 1,
        pairing=tuple(tuple(row) + (0,) for row in surface.pairing) + (zero,),
        curves=tuple((name, tuple(cls) + (0,)) for name, cls in surface.curves)
        + ((new_curve, new_class),),
        boundary_classes=tuple(tuple(b) + (0,) for b in surface.boundary_classes)
        + (zero,),
    )
    return stabilized, tuple(letters) + ((new_curve, PLUS),)


def _last_unit(vec) -> int | None:
    """The last index at which vec has an entry of +1 or -1, if any."""
    return next((i for i in range(len(vec) - 1, -1, -1) if abs(vec[i]) == 1), None)


def _quotient(surface: SurfaceModel, cls, drop: int, curves, boundary: int):
    """The page with boundary component `boundary` gone and H1 reduced
    modulo cls, which has an entry of +1 or -1 at index `drop`.

    Each of the given curves and each remaining boundary class is reduced
    along cls, which zeroes coordinate `drop`, and then loses it.
    """

    def reduce(vec):
        factor = vec[drop] * cls[drop]
        return tuple(v - factor * c for i, (v, c) in enumerate(zip(vec, cls)) if i != drop)

    keep = [i for i in range(len(cls)) if i != drop]
    return SurfaceModel(
        genus=surface.genus,
        boundary_count=surface.boundary_count - 1,
        pairing=tuple(tuple(surface.pairing[i][j] for j in keep) for i in keep),
        curves=tuple((name, reduce(vec)) for name, vec in curves),
        boundary_classes=tuple(
            reduce(b) for i, b in enumerate(surface.boundary_classes) if i != boundary
        ),
    )


def giroux_destabilize(
    surface: SurfaceModel,
    letters,
    curve: str,
    *,
    drop_index: int | None = None,
    drop_boundary: int | None = None,
):
    """Undo a stabilization: remove the unique positive twist on the curve,
    drop one lattice direction, and reduce every class modulo the curve.

    The destabilized curve must carry exactly one letter, positive, and
    its class must be unimodular in the dropped direction so that the
    reduction lands in the smaller lattice.  The curve itself bounds in
    the destabilized surface and leaves the alphabet.
    """
    letters = tuple(letters)
    cls = surface.curve_class(curve)
    hits = [i for i, (name, _) in enumerate(letters) if name == curve]
    if len(hits) != 1 or letters[hits[0]][1] != PLUS:
        raise InvalidStabilization(
            f"destabilization needs exactly one positive twist on {curve!r}"
        )
    if surface.boundary_count < 2:
        raise InvalidStabilization("cannot destabilize past one boundary component")
    if drop_index is None:
        drop_index = _last_unit(cls)
        if drop_index is None:
            raise InvalidStabilization(
                f"class of {curve!r} has no unimodular coordinate to drop"
            )
    if not 0 <= drop_index < len(cls) or abs(cls[drop_index]) != 1:
        raise InvalidStabilization(
            f"class of {curve!r} is not unimodular at index {drop_index}"
        )
    if drop_boundary is None:
        drop_boundary = len(surface.boundary_classes) - 1
    if not 0 <= drop_boundary < len(surface.boundary_classes):
        raise InvalidStabilization("no such boundary component")
    curves = tuple((name, vec) for name, vec in surface.curves if name != curve)
    destabilized = _quotient(surface, cls, drop_index, curves, drop_boundary)
    return destabilized, letters[: hits[0]] + letters[hits[0] + 1:]


def cap_off(surface: SurfaceModel, letters, boundary_index: int):
    """Fill a boundary component with a disk.

    Twists along curves whose class is the capped boundary class (either
    orientation) cancel and are deleted; the remaining classes are
    reduced modulo the capped class.  The capped class must be in the
    radical of the pairing, which holds for honest boundary classes.
    """
    letters = tuple(letters)
    if surface.boundary_count <= 1:
        raise CannotCapLastBoundary("boundary: a page needs at least one binding component")
    field = f"boundary_classes[{quote(boundary_index)}]"
    if not 0 <= boundary_index < len(surface.boundary_classes):
        raise DiagramFormatError(f"{field}: no such boundary class")
    capped = surface.boundary_classes[boundary_index]
    rank = surface.h1_rank
    for j in range(rank):
        if sum(capped[i] * surface.pairing[i][j] for i in range(rank)) != 0:
            raise DiagramFormatError(f"{field}: a capped class must pair to zero with H1")

    def matches(vec):
        return vec == capped or vec == tuple(-x for x in capped)

    survivors = tuple(
        letter for letter in letters if not matches(surface.curve_class(letter[0]))
    )
    drop = _last_unit(capped)
    if drop is None:
        # A null-homologous boundary is not modeled: the lattice would not
        # shrink, but the surface would lose the component.
        raise DiagramFormatError(f"{field}: a capped class must have an entry of +1 or -1")
    curves = tuple((name, vec) for name, vec in surface.curves if not matches(vec))
    return _quotient(surface, capped, drop, curves, boundary_index), survivors


def attach_surgery_twists(
    surface: SurfaceModel,
    letters,
    knot_curve: str,
    pushoff_curve: str,
    n: int,
):
    """Monodromy of integer contact n-surgery with the all-negative choice:
    append one negative twist along the surgery curve and n - 1 positive
    twists along its stabilized pushoff."""
    if n < 1:
        raise ValueError(f"surgery parameter n must be >= 1, got {n}")
    for name in (knot_curve, pushoff_curve):
        if not surface.has_curve(name):
            raise UnknownCurve(f"curve {name!r} is not in the alphabet")
    return tuple(letters) + ((knot_curve, MINUS),) + ((pushoff_curve, PLUS),) * (n - 1)
