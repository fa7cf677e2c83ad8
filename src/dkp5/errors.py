"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: quantitative failures
(tolerance violations, mass-shell violations) exit 1, structural and
domain errors exit 2.
"""


class DkpError(Exception):
    """Base class for all package errors."""


class ModeError(DkpError):
    """Scalar-mode mismatch between objects that must agree."""


class ParameterError(DkpError):
    """Physics parameter out of range (e.g. e = 0 or m <= 0)."""


class WordIndexError(DkpError):
    """Generator index outside 0..3 in a word."""


class RepresentationDefectError(DkpError):
    """Basis rank below 25; the representation does not span the algebra."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class GridFormatError(DkpError):
    """Malformed grid file; carries the byte offset of the defect."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class StencilError(DkpError):
    """Axis extent too small for the requested difference stencil."""


class ShapeError(DkpError):
    """Incompatible grid shapes or payload kinds."""


class MassShellError(DkpError):
    """Wave vector violates k.k = m^2; carries the violation magnitude."""

    def __init__(self, message, violation=None):
        super().__init__(message)
        self.violation = violation


class SingularZError(DkpError):
    """Operation requires |Z| above the singularity threshold."""


class CurrentOverflowError(DkpError):
    """The currents of a finite grid overflow double precision."""


class EmptyDomainError(SingularZError):
    """Every grid point is masked as singular; nothing to invert."""
