"""Exception types shared across the package.

Validation failures raised while building a complex or a surface pattern
all derive from :class:`ValidationError`, so file loaders can re-raise or
pass them through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    """A single invariant violation found by a checker.

    kind is a stable machine-readable tag (e.g. "NonConformingFace");
    data carries the offending entities (face cycles, hex indices, ...).
    """

    kind: str
    message: str
    data: tuple = field(default=())

    def __str__(self):
        return f"{self.kind}: {self.message}"


class HexpackError(Exception):
    """Base class for all package errors."""


class ValidationError(HexpackError):
    """A mesh or pattern failed an invariant check.

    Carries the full list of violations found by the checker that raised.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class IndexOutOfRange(ValidationError):
    pass


class DegenerateHex(ValidationError):
    pass


class DuplicateHex(ValidationError):
    pass


class NonConformingFace(ValidationError):
    pass


class SharedFaceCountExceeded(ValidationError):
    pass


class NonManifoldBoundary(ValidationError):
    """The boundary is not a closed orientable surface; the subclasses
    below name the way it fails."""


class NonConformingInput(ValidationError):
    pass


class NonManifoldEdge(NonManifoldBoundary):
    pass


class InconsistentOrientation(NonManifoldBoundary):
    pass


class Disconnected(NonManifoldBoundary):
    pass


class PinchedVertex(NonManifoldBoundary):
    pass


# The error each Violation kind raises; other kinds raise ValidationError.
_KIND_TO_ERROR = {
    "IndexOutOfRange": IndexOutOfRange,
    "DegenerateHex": DegenerateHex,
    "DuplicateHex": DuplicateHex,
    "NonConformingFace": NonConformingFace,
    "SharedFaceCountExceeded": SharedFaceCountExceeded,
    "NonManifoldEdge": NonManifoldEdge,
    "InconsistentOrientation": InconsistentOrientation,
    "Disconnected": Disconnected,
    "PinchedVertex": PinchedVertex,
    "DegenerateQuad": NonManifoldBoundary,
}


def raise_violations(violations):
    """Raise the error of the first violation's kind, carrying them all."""
    first = violations[0]
    raise _KIND_TO_ERROR.get(first.kind, ValidationError)(str(first), violations)


class InvalidPlacement(HexpackError):
    """A placement does not decode against the packing it is applied to."""


class CheckpointError(HexpackError):
    pass


class CheckpointCorrupt(CheckpointError):
    pass


class VersionMismatch(CheckpointError):
    pass


class ParseError(HexpackError):
    """A text document failed to parse; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MissingCoordinates(HexpackError):
    pass


class DegenerateEdge(HexpackError):
    pass
