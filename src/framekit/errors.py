"""Exception types shared across the library."""


class FramekitError(Exception):
    """Base class for every error raised by framekit."""


class DimensionMismatch(FramekitError):
    """Operand shapes are incompatible."""


class NotHermitian(FramekitError):
    """Matrix fails the Hermiticity check."""


class NoConvergence(FramekitError):
    """Iterative eigensolver exceeded its sweep budget."""


class NotPsd(FramekitError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class EmptyFrame(FramekitError):
    """A frame needs at least one vector."""


class SpaceMismatch(FramekitError):
    """Values live over different measure spaces."""


class NotAFrame(FramekitError):
    """Operator family is not bounded below: frame operator not positive definite."""


class InvalidBounds(FramekitError):
    """Frame-bound pair violates 0 < lower <= upper."""


class UnknownAtom(FramekitError):
    """Event references an atom label outside the measure space."""


class NotUnitVector(FramekitError):
    """State vector is not normalized."""


class SequenceDoesNotSpan(FramekitError):
    """Dyadic reference sequence does not span the Hilbert space."""


class InvalidPovm(FramekitError):
    """POVM failed validation and cannot be decomposed."""


class AtomMismatch(FramekitError):
    """Atom label sets are disjoint; nothing to compare."""


class NotFramed(FramekitError):
    """Total operator M(Omega) is not positive definite."""


class LimitExceeded(FramekitError):
    """Requested size exceeds the generator limits."""


class ParseError(FramekitError):
    """Input file is malformed."""


class CommandError(FramekitError):
    """CLI invocation is malformed (wrong arity, unknown option value)."""
