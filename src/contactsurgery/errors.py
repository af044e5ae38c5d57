"""Exception types shared across the package.

Every domain failure raises a subclass of ContactSurgeryError.  Its
exit_code tells input problems (2, every InputError) and ledger
contradictions (3) from computational failures (1); the CLI exits with it
and prefixes the message on stderr with the kind's label.  A message that
echoes input passes it through `quote`, so its length stays bounded.
`read_json`, the one JSON file reader of every input format, maps each
way a file can fail to a `DiagramFormatError` naming the path, and
`read_field`, the one field reader of the diagram, open book, catalog and
facts formats, does the same for each field of a record.
"""

from __future__ import annotations

import json

# How many characters of an echoed input a message quotes.
QUOTE_CAP = 40
# The largest input file read_json reads, in bytes.
READ_CAP = 64 * 2**20


def quote(value) -> str:
    """The start of an input's text, str(value), for a message, with each
    character that is not printable (a NUL, a newline) escaped."""
    try:
        text = str(value)
    except ValueError:  # an integer past Python's int-to-str limit
        return "<an integer too long to print>"
    text = text if len(text) <= QUOTE_CAP else text[:QUOTE_CAP] + "..."
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


class ContactSurgeryError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code, label = 1, "error"


class InputError(ContactSurgeryError):
    """Base class of the errors an input causes: a flag, a file, a name."""

    exit_code, label = 2, "input error"


class NotInCatalog(InputError):
    """Requested knot name is not present in the loaded catalog."""


class InvalidCableParameters(InputError):
    """Cable parameters must satisfy q > p >= 1 with gcd(p, q) = 1."""


class IncompleteData(ContactSurgeryError):
    """An operation needs a knot invariant that is recorded as unknown."""


class NotRealizable(InputError):
    """Requested classical invariants (tb + rot or sl even, or tb, rot or sl
    past a bound of the knot type) belong to no knot in the 3-sphere."""


class OutOfRange(InputError):
    """Argument outside its domain: the continued fraction expansion's, or
    a ledger window that is reversed or wider than the CLI's cap."""


class UnsupportedCoefficient(InputError):
    """Surgery coefficients in the open interval (0, 1) are rejected."""


class InvalidCoefficient(InputError):
    """Surgery coefficient zero (or unparseable) is not a valid input."""


class NotRationalHomologySphere(ContactSurgeryError):
    """The linking matrix is singular, so the d3 invariant is undefined."""


class UnknownCurve(ContactSurgeryError):
    """A monodromy word letter refers to a curve not in the alphabet."""


class PatternMismatch(ContactSurgeryError):
    """The word does not match the rewrite pattern at the given position."""


class InvalidStabilization(ContactSurgeryError):
    """Stabilization or destabilization data is inconsistent."""


class DiagramFormatError(InputError):
    """A diagram, open book or catalog file failed syntactic or semantic
    validation; the message carries the offending field path."""


class CannotCapLastBoundary(DiagramFormatError):
    """A surface must keep at least one boundary component."""


class Contradiction(ContactSurgeryError):
    """Ledger closure produced both Zero and NonZero at some framing."""

    exit_code, label = 3, "contradiction"

    def __init__(self, offset, zero_rule: str, nonzero_rule: str):
        self.offset = offset
        self.zero_rule = zero_rule
        self.nonzero_rule = nonzero_rule
        where = "all framings"
        if offset is not None:  # f_S+k: the sign stays when quote cannot print k
            where = f"f_S{'+' if offset >= 0 else '-'}{quote(abs(offset))}"
        super().__init__(f"status clash at {where}: Zero by {quote(zero_rule)}, "
                         f"NonZero by {quote(nonzero_rule)}")


def read_json(path: str):
    """The JSON value in a UTF-8 file.  An unreadable file, a file larger than
    READ_CAP, malformed JSON, an integer past Python's int-to-str digit limit
    and nesting past the recursion limit are format errors naming the path,
    quoted once."""
    where = quote(path)
    try:
        data = bytearray()
        with open(path, "rb") as fh:
            # In blocks: a single read(READ_CAP + 1) allocates all of it at once.
            while len(data) <= READ_CAP and (block := fh.read(2**16)):
                data += block
    except OSError as exc:
        # str(exc) would name the path a second time, unquoted.
        raise DiagramFormatError(f"{where}: cannot read the file: {exc.strerror}") from exc
    except ValueError as exc:  # a NUL in the path
        raise DiagramFormatError(f"{where}: cannot read the file: {exc}") from exc
    if len(data) > READ_CAP:
        raise DiagramFormatError(f"{where}: the file is larger than {READ_CAP >> 20} MiB")
    try:
        return json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise DiagramFormatError(
            f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise DiagramFormatError(f"{where}: cannot read the file: {exc}") from exc
    except ValueError as exc:
        raise DiagramFormatError(f"{where}: an integer has too many digits") from exc
    except RecursionError as exc:
        raise DiagramFormatError(f"{where}: the JSON nests too deeply") from exc


# The default of a field that read_field requires.
_REQUIRED = object()

_KIND_NAMES = {int: "an integer", str: "a string", bool: "a boolean",
               list: "a list", dict: "an object"}


def read_field(record, key: str, kind: type, path: str, default=_REQUIRED):
    """record[key], which must be of `kind`: int, str, bool, list or dict.

    A boolean is only a bool, never an int.  An absent key gives `default`
    and is a format error when there is none; a field whose default is None
    also takes null.  Every refusal is a `DiagramFormatError` naming
    `path` or `path.key`.
    """
    if not isinstance(record, dict):
        raise DiagramFormatError(f"{path}: expected an object")
    if key not in record:
        if default is _REQUIRED:
            raise DiagramFormatError(f"{path}: missing field {key!r}")
        return default
    value = record[key]
    if value is None and default is None:
        return None
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    null = " or null" if default is None else ""
    raise DiagramFormatError(f"{path}.{key}: must be {_KIND_NAMES[kind]}{null}")
