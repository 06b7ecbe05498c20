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
    """POVM cannot be decomposed: it fails an axiom, a density's PSD test or domination."""


class AtomMismatch(FramekitError):
    """Atom label sets are disjoint; nothing to compare."""


class NotFramed(FramekitError):
    """Total operator M(Omega) is not positive definite."""


class LimitExceeded(FramekitError):
    """Requested size exceeds the generator limits, or a value exceeds what a check
    can compare: an operand whose norm bound does not square to a finite double,
    or a non-finite number bound for a JSON file."""


class ParseError(FramekitError):
    """Input file is malformed."""


class CommandError(FramekitError):
    """CLI invocation is malformed (wrong arity, unknown option value)."""
