"""Exception types shared across the package.

Every domain failure raises a subclass of ContactSurgeryError.  Its
exit_code tells input problems (2) and ledger contradictions (3) from
computational failures (1); the CLI exits with it.  A message that
echoes input passes it through `quote`, so its length stays bounded.
"""

from __future__ import annotations

# How many characters of an echoed input a message quotes.
QUOTE_CAP = 40


def quote(value) -> str:
    """The start of an input's text, str(value), for a message."""
    try:
        text = str(value)
    except ValueError:  # an integer past Python's int-to-str limit
        return "<an integer too long to print>"
    return text if len(text) <= QUOTE_CAP else text[:QUOTE_CAP] + "..."


class ContactSurgeryError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 1


class NotInCatalog(ContactSurgeryError):
    """Requested knot name is not present in the loaded catalog."""

    exit_code = 2


class InvalidCableParameters(ContactSurgeryError):
    """Cable parameters must satisfy q > p >= 1 with gcd(p, q) = 1."""

    exit_code = 2


class IncompleteData(ContactSurgeryError):
    """An operation needs a knot invariant that is recorded as unknown."""


class NotRealizable(ContactSurgeryError):
    """Requested classical invariants (tb + rot even, or tb beyond the
    Bennequin bound) belong to no Legendrian knot in the 3-sphere."""

    exit_code = 2


class OutOfRange(ContactSurgeryError):
    """Argument outside its domain: the continued fraction expansion's, or
    a ledger window that is reversed or wider than the CLI's cap."""

    exit_code = 2


class UnsupportedCoefficient(ContactSurgeryError):
    """Surgery coefficients in the open interval (0, 1) are rejected."""

    exit_code = 2


class InvalidCoefficient(ContactSurgeryError):
    """Surgery coefficient zero (or unparseable) is not a valid input."""

    exit_code = 2


class NotRationalHomologySphere(ContactSurgeryError):
    """The linking matrix is singular, so the d3 invariant is undefined."""


class UnknownCurve(ContactSurgeryError):
    """A monodromy word letter refers to a curve not in the alphabet."""


class PatternMismatch(ContactSurgeryError):
    """The word does not match the rewrite pattern at the given position."""


class InvalidStabilization(ContactSurgeryError):
    """Stabilization or destabilization data is inconsistent."""


class DiagramFormatError(ContactSurgeryError):
    """A diagram, open book or catalog file failed syntactic or semantic
    validation; the message carries the offending field path."""

    exit_code = 2


class CannotCapLastBoundary(DiagramFormatError):
    """A surface must keep at least one boundary component."""


class Contradiction(ContactSurgeryError):
    """Ledger closure produced both Zero and NonZero at some framing."""

    exit_code = 3

    def __init__(self, offset, zero_rule: str, nonzero_rule: str):
        self.offset = offset
        self.zero_rule = zero_rule
        self.nonzero_rule = nonzero_rule
        where = "all framings" if offset is None else f"f_S{offset:+d}"
        super().__init__(
            f"status clash at {where}: Zero by {zero_rule}, NonZero by {nonzero_rule}"
        )
