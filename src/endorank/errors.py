"""Shared exception types.

Every error raised by this package derives from EndoRankError, so callers can
catch one type at the boundary.  ResourceLimit errors (DegreeCapExceeded,
CoefficientGrowthExceeded, BudgetExceeded) and SearchExhausted are
deliberately distinct from negative mathematical answers: hitting a cap never
means "no".  A message that quotes input quotes it through quote(), so a huge
value in a file or certificate cannot make a huge message.
"""

from __future__ import annotations


def quote(value) -> str:
    """repr(value) for a message that quotes input: when it is longer than
    60 characters, its first 60 characters and its full length."""
    text = repr(value)
    if len(text) <= 60:
        return text
    return f"{text[:60]}... ({len(text)} characters)"


class EndoRankError(Exception):
    """Base class for all package errors."""


class FieldConstructionError(EndoRankError):
    """Invalid field parameters: composite p, reducible modulus, cap overflow."""


class SpecMismatch(EndoRankError):
    """Operands belong to different ground fields."""


class ArityMismatch(EndoRankError):
    """Operands disagree on the number of variables (or an index is out of range)."""


class DivisionByZero(EndoRankError):
    """Field inversion of zero."""


class InfiniteField(EndoRankError):
    """Element enumeration requested over the rationals."""


class ResourceLimit(EndoRankError):
    """A computation stopped at a configured limit.  A failed search
    (SearchExhausted) is not one: it is also a selftest verdict."""


class DegreeCapExceeded(ResourceLimit):
    """A product, power or reduction step would pass the degree cap."""


class CoefficientGrowthExceeded(ResourceLimit):
    """A power over Q whose coefficients would outgrow the kernel's bound."""


class BudgetExceeded(ResourceLimit):
    """A basis computation ran out of reduction steps before finishing."""


class InvalidIndex(EndoRankError):
    """A matrix-position label lies outside 1..n."""


class JacobianUnavailable(EndoRankError):
    """The Jacobian probe was requested over a finite field, where vanishing
    derivatives (e.g. of p-th powers) make it meaningless."""


class NotABase(EndoRankError):
    """A polynomial tuple expected to generate the full algebra does not."""


class SearchExhausted(EndoRankError):
    """A substitution search ran out of candidates.

    Carries the full attempt log: a list of (record, outcome) pairs, one per
    candidate tried, so a caller can inspect why each candidate was rejected.
    When raised by a chain search, `chain` is the partial chain built so far.
    """

    def __init__(self, message: str, attempts: list | None = None):
        super().__init__(message)
        self.attempts = attempts if attempts is not None else []
        self.chain = None


class MalformedCertificate(EndoRankError):
    """A certificate record that cannot be replayed as written: an unknown
    kind, or an index or exponent out of range."""


class RelationViolation(EndoRankError):
    """A composition table does not satisfy the required delta relations."""


class NonAffineImage(EndoRankError):
    """A generator image that must be affine in a single generator is not."""


class ZeroScale(EndoRankError):
    """An affine generator image has zero leading scale (not invertible)."""


class GeneratorNotFound(EndoRankError):
    """No single-generator description of a rank-one image was found.

    This marks heuristic incompleteness, never a proof of non-existence.
    """


class PolySyntaxError(EndoRankError):
    """Malformed polynomial or file text.  Carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)
        self.line = line
        self.col = col


class UnknownVariable(PolySyntaxError):
    """A variable token outside the declared variables of the input."""


class CoefficientParseError(PolySyntaxError):
    """A coefficient literal that is invalid for the declared field."""
