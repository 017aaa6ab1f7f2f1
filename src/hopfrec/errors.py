"""Exceptions shared across the package.

Axiom violations in well-formed data are never exceptions; they come back
as failure records inside a report.  Exceptions are reserved for data that
is structurally unusable (bad shapes, singular structure maps, files that
do not parse).
"""

from __future__ import annotations


class HopfrecError(Exception):
    """Base class for all package errors."""


class ShapeError(HopfrecError):
    """A tensor, matrix, or coefficient sequence has the wrong shape."""


class DivisionByZero(HopfrecError, ZeroDivisionError):
    """Division by the zero scalar."""


class ParseError(HopfrecError):
    """Input text is not a well-formed document.

    Carries optional line/column information when the underlying JSON
    parser provides it.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SchemaError(HopfrecError):
    """Parsed JSON does not match the documented schema for its kind."""


class NonInvertibleJ(HopfrecError):
    """A tensorator block J_{a,b} is singular."""


class NonRigid(HopfrecError):
    """The evaluation pairing of some simple is degenerate, so no duality
    (and hence no antipode) can be extracted."""


class NotACocycle(HopfrecError):
    """A pointed-category associator fails the cocycle identity.

    ``witness`` is the first failing index tuple found by the scan.
    """

    def __init__(self, message: str, witness: tuple):
        self.witness = witness
        super().__init__(f"{message} at {witness}")


class ReconstructionAxiomFailure(HopfrecError):
    """The reconstructed presentation failed its own axiom suite.  Carries
    the offending reports; seeing this means the input verifiers and the
    reconstruction disagree, which is a bug, not a data problem."""

    def __init__(self, message: str, reports):
        self.reports = reports
        super().__init__(message)


class DecompositionGap(HopfrecError):
    """Multiplicities against the given simples do not exhaust a module."""


class SkeletalizationFailure(HopfrecError):
    """Skeletal data extracted from a module category failed verification."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class RoundTripFailure(HopfrecError):
    """The comparison map of a round trip cannot even be formed."""
