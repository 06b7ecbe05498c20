"""Operator-valued frames over finite atomic measure spaces, the POVMs
they give rise to, and the decomposition going the other way.

The usual entry points:

    from framekit import VectorFrame, from_vector_frame, frame_bounds
    from framekit import frame_algorithm, ovf_to_povm, decompose

plus the ``framekit`` command line for file-based pipelines.
"""

from .correspondence import (
    Decomposition,
    ReferenceMeasureRule,
    TRACE_RULE,
    UniquenessReport,
    decompose,
    decomposition_to_ovf,
    ovf_to_povm,
    reference_measure,
    reintegration_residuals,
    verify_ovf_equivalence,
    verify_uniqueness,
)
from .errors import (
    AtomMismatch,
    CommandError,
    DimensionMismatch,
    EmptyFrame,
    FramekitError,
    InvalidBounds,
    InvalidPovm,
    LimitExceeded,
    NoConvergence,
    NotAFrame,
    NotFramed,
    NotHermitian,
    NotPsd,
    NotUnitVector,
    ParseError,
    SequenceDoesNotSpan,
    SpaceMismatch,
    UnknownAtom,
)
from .frames import (
    AtomicMeasureSpace,
    CoefficientField,
    FrameBounds,
    OperatorValuedFrame,
    VectorFrame,
    analysis,
    discretize_continuous,
    frame_bounds,
    frame_operator,
    from_vector_frame,
    synthesis,
)
from .linalg import (
    EigenDecomposition,
    adjoint,
    hermitian_eigen,
    hermitize,
    inner,
    psd_sqrt,
)
from .povm import (
    FramedReport,
    Povm,
    ValidationReport,
    is_framed,
    measure_probabilities,
    validate,
)
from .reconstruction import (
    IterationTrace,
    ReconstructionConfig,
    frame_algorithm,
    reconstruct_direct,
    trace_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasureSpace",
    "AtomMismatch",
    "CoefficientField",
    "CommandError",
    "Decomposition",
    "DimensionMismatch",
    "EigenDecomposition",
    "EmptyFrame",
    "FrameBounds",
    "FramedReport",
    "FramekitError",
    "InvalidBounds",
    "InvalidPovm",
    "IterationTrace",
    "LimitExceeded",
    "NoConvergence",
    "NotAFrame",
    "NotFramed",
    "NotHermitian",
    "NotPsd",
    "NotUnitVector",
    "OperatorValuedFrame",
    "ParseError",
    "Povm",
    "ReconstructionConfig",
    "ReferenceMeasureRule",
    "SequenceDoesNotSpan",
    "SpaceMismatch",
    "TRACE_RULE",
    "UniquenessReport",
    "UnknownAtom",
    "ValidationReport",
    "VectorFrame",
    "adjoint",
    "analysis",
    "decompose",
    "decomposition_to_ovf",
    "discretize_continuous",
    "frame_algorithm",
    "frame_bounds",
    "frame_operator",
    "from_vector_frame",
    "hermitian_eigen",
    "hermitize",
    "inner",
    "is_framed",
    "measure_probabilities",
    "ovf_to_povm",
    "psd_sqrt",
    "reconstruct_direct",
    "reference_measure",
    "reintegration_residuals",
    "synthesis",
    "trace_to_csv",
    "validate",
    "verify_ovf_equivalence",
    "verify_uniqueness",
    "__version__",
]
