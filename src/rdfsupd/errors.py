"""Exception types shared across the package."""


class RdfsUpdError(Exception):
    """Base class for all errors raised by this package."""


class NonStandardUse(RdfsUpdError):
    """RDFS/OWL vocabulary used outside its sanctioned position.

    The stored fragment never contains reserved vocabulary as a subject,
    object, class, or role name; it only appears as the predicate that
    encodes an assertion kind.
    """


class VarInPredicate(RdfsUpdError):
    """Variable in a predicate/class position, or a terminological pattern,
    outside general mode."""


class UnsupportedFeature(RdfsUpdError):
    """Input uses syntax or a capability outside the supported fragment."""


class ParseError(RdfsUpdError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class UnknownSemantics(RdfsUpdError, ValueError):
    """Update strategy name that names none of the strategies."""


class ModeError(RdfsUpdError):
    """Store mode incompatible with the requested operation."""


class SizeLimit(RdfsUpdError):
    """Instance too large for a brute-force oracle."""
