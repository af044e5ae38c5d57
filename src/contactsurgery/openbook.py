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

from operator import itemgetter, mul

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
from .record import Record, set_field

Letter = tuple[str, str]
PLUS = "+"
MINUS = "-"


class SurfaceModel(Record):
    """A surface with boundary, its H1 pairing, and a named curve alphabet.

    h1 rank is 2*genus + boundary_count - 1; every curve class and every
    boundary class is an integer vector of that length.  The pairing is
    skew-symmetric and declared boundary classes pair to zero with each
    other.
    """

    _fields = ("genus", "boundary_count", "pairing", "curves", "boundary_classes")
    _defaults = {"curves": (), "boundary_classes": ()}

    def _check(self) -> None:
        rank = self.h1_rank
        if self.genus < 0 or self.boundary_count < 1:
            raise ValueError("need genus >= 0 and at least one boundary")
        if len(self.pairing) != rank or any(len(r) != rank for r in self.pairing):
            raise ValueError(f"pairing must be {quote(rank)} x {quote(rank)}")
        for i in range(rank):
            for j in range(rank):
                if self.pairing[i][j] != -self.pairing[j][i]:
                    raise ValueError("pairing must be skew-symmetric")
        # Not a field: equality and hash stay over the alphabet itself.
        classes = dict(self.curves)
        if len(classes) != len(self.curves):
            raise ValueError("duplicate curve names in the alphabet")
        set_field(self, "_classes", classes)
        # Not a field either: _row_update fills it, one entry per curve.
        set_field(self, "_updates", {})
        for name, cls in self.curves:
            if len(cls) != rank:
                raise ValueError(f"curve {quote(name)!r} class has wrong length")
        for cls in self.boundary_classes:
            if len(cls) != rank:
                raise ValueError("boundary class has wrong length")
        # One image per class; a class pairs to zero with itself (skew).
        for i, b in enumerate(self.boundary_classes):
            image = self._image(b)
            if any(sum(map(mul, b2, image)) for b2 in self.boundary_classes[:i]):
                raise ValueError("boundary classes must pairwise pair to zero")

    @property
    def h1_rank(self) -> int:
        return 2 * self.genus + self.boundary_count - 1

    def _image(self, c) -> tuple[int, ...]:
        """Omega c, the one place the pairing is evaluated."""
        return tuple(sum(map(mul, row, c)) for row in self.pairing)

    def _pair(self, x, y) -> int:
        """<x, y> = x . Omega y."""
        return sum(map(mul, x, self._image(y)))

    def curve_class(self, name: str) -> tuple[int, ...]:
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownCurve(f"curve {quote(name)!r} is not in the alphabet") from None

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
    """Cancel adjacent inverse pairs until none remain.  A sign other than
    '+' or '-' raises ValueError, as in `word`."""
    letters = tuple(letters)
    if not {PLUS, MINUS}.issuperset(map(itemgetter(1), letters)):
        word(*letters)  # names the first bad sign
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
    text = "".join(map(codes.__getitem__, a))
    return "".join(map(codes.__getitem__, b)) in text + text


def _row_update(surface: SurfaceModel, name: str, sign: str):
    """The letter's transvection T = I + s c (Omega c)^T as a rank-one
    update: the bits ceil(log2 g) = bitlen(g - 1) of its growth bound
    g = 1 + max|c_i| |Omega c|_1, the pairs (k, (Omega c)_k) and the pairs
    (i, s c_i) with nonzero entries, or None when T is the identity
    (Omega c = 0, as for c = 0).  Omega c is computed once per curve and
    surface: the updates for both signs are kept on the surface."""
    try:
        updates = surface._updates[name]
    except KeyError:
        cls = surface.curve_class(name)
        image = surface._image(cls)
        updates = None, None
        if any(image):
            growth = (max(map(abs, cls)) * sum(map(abs, image))).bit_length()
            image = tuple((k, y) for k, y in enumerate(image) if y)
            updates = tuple((growth, image, tuple((i, s * x) for i, x in enumerate(cls) if x))
                            for s in (1, -1))
        surface._updates[name] = updates
    return updates[sign == MINUS]


def _unpack(rows, width: int):
    """The chunk whose row i holds the signed slots of rows[i], slot j
    being bits [width j, width (j + 1)) in balanced base 2^width; adding
    2^(width-1) to every slot makes each one a plain bit field."""
    shifts = range(0, width * len(rows), width)
    half, mask = 1 << (width - 1), (1 << width) - 1
    offset = sum(half << shift for shift in shifts)
    return tuple(
        tuple(((packed >> shift) & mask) - half for shift in shifts)
        for packed in (row + offset for row in rows)
    )


def _compose(chunk, product):
    """The chunk composed after the product so far (None before the first
    chunk)."""
    if product is None:
        return chunk
    from .linalg import mat_mul_int

    return mat_mul_int(chunk, product)


def homology_action(letters, surface: SurfaceModel):
    """Matrix of the word acting on H1, rightmost letter acting first.

    The action is a monoid homomorphism for concatenation in this order:
    action(w1 + w2) = action(w1) . action(w2).  It is composed in acting
    order, result = T . result from the rightmost letter on.  A
    transvection T = I + s c (Omega c)^T gives T . R = R + s c (x) v with
    the row v = (Omega c)^T R.  Each row of R is packed into one integer,
    its r entries as signed slots of B bits, so v is the sum of
    (Omega c)_k row_k over the nonzero (Omega c)_k, and row_i += s c_i v
    for each nonzero c_i: a letter costs nnz(Omega c) + nnz(c) integer
    operations on (r B)-bit integers.  A multiplier of +1 or -1 is an
    addition or a subtraction, with no product.

    A letter multiplies the largest entry by at most
    g = 1 + max|c_i| |Omega c|_1, so adding ceil(log2 g) = bitlen(g - 1)
    (the letter's `growth`) to a running bound `bits` keeps the
    invariant: after each letter every entry of the chunk is below
    2^bits in absolute value, and bits < B, so each entry fits its
    signed slot.  When a letter would bring `bits` to B, the chunk is
    unpacked and measured: m is the bit length of its largest entry.  If
    2m < B, the rows stay packed and `bits` restarts at m + growth, below
    B since B >= 2 growth + 2.  Otherwise the chunk is composed after the
    product so far by mat_mul_int and the next chunk starts from the
    identity.  Asking 2m < B, not only m + growth < B, leaves more than
    B/2 - growth bits of headroom after a measurement, so a kept chunk is
    not unpacked at every letter.  Random words grow far slower than the
    bound, so most triggers cost one unpack of r^2 slots and no product.
    B is max(256, 2 max growth + 2) over the word's letters.  Each
    distinct letter's update is looked up once, and identity letters are
    skipped.
    """
    letters = tuple(letters)
    distinct = word(*dict.fromkeys(letters))  # checks each distinct letter's sign
    updates = {letter: _row_update(surface, *letter) for letter in distinct}
    width = max([256] + [2 * u[0] + 2 for u in updates.values() if u])
    identity = [1 << shift for shift in range(0, width * surface.h1_rank, width)]
    rows, bits, product = identity[:], 0, None
    for letter in reversed(letters):
        update = updates[letter]
        if update is None:
            continue
        growth, image, column = update
        bits += growth
        if bits >= width:
            chunk = _unpack(rows, width)
            m = max(abs(x) for row in chunk for x in row).bit_length()
            if 2 * m < width:
                bits = m + growth
            else:
                product = _compose(chunk, product)
                rows, bits = identity[:], growth
        v = 0
        for k, y in image:
            if y == 1:
                v += rows[k]
            elif y == -1:
                v -= rows[k]
            else:
                v += y * rows[k]
        for i, x in column:
            if x == 1:
                rows[i] += v
            elif x == -1:
                rows[i] -= v
            else:
                rows[i] += x * v
    return _compose(_unpack(rows, width), product)


class LanternConfiguration(Record):
    """Seven named curves asserted to form a lantern in the surface.

    Roles 1, 2, 3, 4 are the boundary curves and roles 12, 13, 23 the
    pair-encircling curves.  Validation checks the
    homology relations [c12] = [c1] + [c2], [c13] = [c1] + [c3],
    [c23] = [c2] + [c3], [c4] = -[c1] - [c2] - [c3], and that the classes
    of roles 1, 2, 3 pairwise pair to zero (so the rewrite preserves the
    homology action).  Distinct roles may name the same curve: parallel
    copies fill several roles.
    """

    _fields = ("one", "two", "three", "four", "one_two", "one_three", "two_three")

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
        # On a skew form <x, x> = 0 and <y, x> = -<x, y>: three pairs suffice.
        if surface._pair(c1, c2) or surface._pair(c1, c3) or surface._pair(c2, c3):
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
        raise ValueError(f"direction must be 'LtoR' or 'RtoL', got {quote(direction)!r}")

    def target(self, direction: str) -> tuple[Letter, ...]:
        return self.source("RtoL" if direction == "LtoR" else "LtoR")


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
    config.validate(surface)
    pattern = config.source(direction)
    n = len(letters)
    if not 0 <= at < n or len(pattern) > n:
        raise PatternMismatch(f"no room for the pattern at position {quote(at)}")
    window = [(at + k) % n for k in range(len(pattern))]
    for idx, expected in zip(window, pattern):
        if letters[idx] != expected:
            raise PatternMismatch(
                f"letter {quote(letters[idx])} at position {idx} does not match "
                f"{quote(expected)}"
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
        raise InvalidStabilization(f"curve {quote(new_curve)!r} is already in the alphabet")
    rank = surface.h1_rank + 1
    new_class = tuple(new_class)
    if len(new_class) != rank:
        raise InvalidStabilization(f"new curve class must have length {quote(rank)}")
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
    drop_boundary: int | None = None,
):
    """Undo a stabilization: remove the unique positive twist on the curve,
    drop one lattice direction, and reduce every class modulo the curve.

    The destabilized curve must carry exactly one letter, positive, and
    its class must have an entry of +1 or -1; the last one is the dropped
    direction, so the reduction lands in the smaller lattice.  The curve
    bounds in the destabilized surface and leaves the alphabet, and the
    boundary `drop_boundary` goes, by default the last.
    """
    letters = tuple(letters)
    cls = surface.curve_class(curve)
    hits = [i for i, (name, _) in enumerate(letters) if name == curve]
    if len(hits) != 1 or letters[hits[0]][1] != PLUS:
        raise InvalidStabilization(
            f"destabilization needs exactly one positive twist on {quote(curve)!r}"
        )
    if surface.boundary_count < 2:
        raise InvalidStabilization("cannot destabilize past one boundary component")
    drop = _last_unit(cls)
    if drop is None:
        raise InvalidStabilization(
            f"class of {quote(curve)!r} has no unimodular coordinate to drop"
        )
    if drop_boundary is None:
        drop_boundary = len(surface.boundary_classes) - 1
    if not 0 <= drop_boundary < len(surface.boundary_classes):
        raise InvalidStabilization("no such boundary component")
    curves = tuple((name, vec) for name, vec in surface.curves if name != curve)
    destabilized = _quotient(surface, cls, drop, curves, drop_boundary)
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
    if any(surface._image(capped)):
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
        raise ValueError(f"surgery parameter n must be >= 1, got {quote(n)}")
    # Each raises UnknownCurve for a curve that is not in the alphabet.
    surface.curve_class(knot_curve)
    surface.curve_class(pushoff_curve)
    return tuple(letters) + ((knot_curve, MINUS),) + ((pushoff_curve, PLUS),) * (n - 1)
