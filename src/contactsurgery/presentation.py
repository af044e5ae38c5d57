"""The records of a contact surgery presentation: its components and the
presentation itself.

They live apart from `expansion`, which builds them and re-exports all four
names, so a diagram reader and the homology of a diagram load only these
records, not the expansion walk.
"""

from __future__ import annotations

from .legendrian import NEGATIVE, POSITIVE
from .record import Record

ROLE_PLUS_ONE = "originalPlusOne"
ROLE_CHAIN = "chainLink"


class Component(Record):
    """One link component of a surgery presentation.

    Stabilizations commute, so a component stores how many of each sign it
    carries.  Its role follows from the coefficient: the one +1 is on the
    original knot, and every -1 is a chain link.
    """

    _fields = ("legendrian", "coefficient", "negative_stabs", "positive_stabs")
    _defaults = {"negative_stabs": 0, "positive_stabs": 0}

    def _check(self) -> None:
        if self.coefficient not in (1, -1):
            raise ValueError("contact coefficient must be +1 or -1")
        if self.negative_stabs < 0 or self.positive_stabs < 0:
            raise ValueError("stabilization counts must be non-negative")

    @property
    def role(self) -> str:
        """ROLE_PLUS_ONE for the +1 coefficient, ROLE_CHAIN for -1."""
        return ROLE_PLUS_ONE if self.coefficient == 1 else ROLE_CHAIN

    @property
    def stab_signs(self) -> tuple[str, ...]:
        """The stabilization signs, negatives first."""
        return (NEGATIVE,) * self.negative_stabs + (POSITIVE,) * self.positive_stabs


class ContactSurgeryPresentation(Record):
    """An ordered chain of components presenting a contact surgery.

    At most one component carries the +1 coefficient; it precedes the
    chain, and every chain link is a pushoff of its predecessor.
    """

    _fields = ("components", "overtwisted")
    _defaults = {"components": (), "overtwisted": False}

    # The `Expansion` that built this presentation, whose linking matrix
    # it shares, and the linking matrix `homology.linking_matrix` built for
    # a presentation that has none.  Not fields: equality, hash and repr
    # ignore them, and a presentation built from the same fields has neither.
    _expansion = None
    _matrix = None

    def _check(self) -> None:
        # One pass: a second +1 is reported before a misplaced one.
        components = self.components
        seen, misplaced = bool(components) and components[0].coefficient == 1, False
        for c in components[1:]:
            if c.coefficient == 1:
                if seen:
                    raise ValueError("at most one +1 component is allowed")
                seen = misplaced = True
        if misplaced:
            raise ValueError("the +1 component must precede the chain")

    def tb_rot_profile(self) -> tuple[tuple[int, int], ...]:
        return tuple((c.legendrian.tb, c.legendrian.rot) for c in self.components)
