"""Frames over finite atomic measure spaces.

An operator-valued frame stores one block T(t) per atom, mapping C^n into
C^{k_t}, together with the atom weights mu({t}).  Vector frames, g-frames,
and quadrature-discretized continuous frames are all represented this way:
a vector frame contributes 1 x n blocks with unit weights.

Atom order is canonical: every per-atom list (blocks, weights, coefficient
segments) lines up with ``space.atoms`` and is never reordered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    EmptyFrame,
    InvalidBounds,
    NotAFrame,
    ParseError,
    SpaceMismatch,
    UnknownAtom,
)

# Below this fraction of lambda_max(S), the family is reported as not a frame.
TOL_FRAME_REL = 1e-10


@dataclass(frozen=True, eq=False)
class AtomicMeasureSpace:
    """Finite set of labeled atoms with strictly positive weights.

    The sigma-algebra is the full power set; mu(E) is the sum of the member
    atoms' weights.
    """

    atoms: tuple[str, ...]
    weights: np.ndarray  # float64, one strictly positive weight per atom

    def __init__(self, atoms: Sequence[str], weights):
        object.__setattr__(self, "atoms", tuple(str(a) for a in atoms))
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != len(self.atoms):
            raise DimensionMismatch(
                f"{len(self.atoms)} atoms but {w.shape} weights"
            )
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom labels must be unique")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AtomicMeasureSpace)
            and self.atoms == other.atoms
            and np.array_equal(self.weights, other.weights)
        )

    def __len__(self) -> int:
        return len(self.atoms)

    def index(self, label: str) -> int:
        try:
            return self.atoms.index(label)
        except ValueError:
            raise UnknownAtom(f"no atom labeled {label!r}") from None

    def weight(self, label: str) -> float:
        return float(self.weights[self.index(label)])

    def mu(self, labels: Sequence[str]) -> float:
        """Measure of an event given by its member atom labels."""
        return float(sum(self.weight(a) for a in set(labels)))


@dataclass(frozen=True, eq=False)
class FrameBounds:
    """Optimal constants of the two-sided frame inequality."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper) or not np.isfinite(self.upper):
            raise InvalidBounds(f"need 0 < lower <= upper, got ({self.lower}, {self.upper})")

    @property
    def is_tight(self) -> bool:
        """True when the bounds agree to near machine precision.

        Computed spectra never collide bitwise, so tightness is a relative
        gap below 1e-12.
        """
        return self.upper - self.lower <= 1e-12 * self.upper


@dataclass(frozen=True, eq=False)
class OperatorValuedFrame:
    """Measure space plus one block T(t): C^n -> C^{k_t} per atom.

    Construction checks the frame property: the frame operator
    S = sum_t mu({t}) T(t)* T(t) must be positive definite, otherwise
    NotAFrame is raised.
    """

    space: AtomicMeasureSpace
    dim_h: int
    blocks: tuple[np.ndarray, ...]
    _operator: np.ndarray = field(repr=False, compare=False)
    _eigen: linalg.EigenDecomposition = field(repr=False, compare=False)
    _bounds: FrameBounds = field(repr=False, compare=False)

    def __init__(self, space: AtomicMeasureSpace, dim_h: int, blocks):
        if dim_h <= 0:
            raise DimensionMismatch(f"dim_h must be positive, got {dim_h}")
        blocks = tuple(linalg.as_matrix(b) for b in blocks)
        if len(blocks) != len(space):
            raise DimensionMismatch(
                f"{len(space)} atoms but {len(blocks)} blocks"
            )
        for label, b in zip(space.atoms, blocks):
            if b.shape[1] != dim_h:
                raise DimensionMismatch(
                    f"block at atom {label!r} has {b.shape[1]} columns, expected {dim_h}"
                )
        for b in blocks:
            b.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "dim_h", int(dim_h))
        object.__setattr__(self, "blocks", blocks)

        s = np.zeros((dim_h, dim_h), dtype=np.complex128)
        for w, b in zip(space.weights, blocks):
            s += w * (linalg.adjoint(b) @ b)
        s = linalg.hermitize(s)
        s.flags.writeable = False
        eig = linalg.hermitian_eigen(s)
        object.__setattr__(self, "_operator", s)
        object.__setattr__(self, "_eigen", eig)
        object.__setattr__(self, "_bounds", _bounds_of(eig.eigenvalues))

    def block(self, label: str) -> np.ndarray:
        return self.blocks[self.space.index(label)]


@dataclass(frozen=True, eq=False)
class VectorFrame:
    """Plain frame: a finite family of vectors in C^n."""

    dim_h: int
    vectors: tuple[np.ndarray, ...]

    def __init__(self, dim_h: int, vectors):
        if dim_h <= 0:
            raise DimensionMismatch(f"dim_h must be positive, got {dim_h}")
        vectors = tuple(linalg.as_vector(v) for v in vectors)
        for i, v in enumerate(vectors):
            if v.shape[0] != dim_h:
                raise DimensionMismatch(f"vector {i} has dim {v.shape[0]}, expected {dim_h}")
            v.flags.writeable = False
        object.__setattr__(self, "dim_h", int(dim_h))
        object.__setattr__(self, "vectors", vectors)


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Per-atom coefficient segments, one vector of length k_t per atom."""

    space: AtomicMeasureSpace
    segments: tuple[np.ndarray, ...]

    def __init__(self, space: AtomicMeasureSpace, segments):
        segments = tuple(linalg.as_vector(c) for c in segments)
        if len(segments) != len(space):
            raise DimensionMismatch(f"{len(space)} atoms but {len(segments)} segments")
        for c in segments:
            c.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "segments", segments)

    def weighted_norm_sq(self) -> float:
        """sum_t mu({t}) ||c_t||^2."""
        return float(
            sum(
                w * float(np.sum(np.abs(c) ** 2))
                for w, c in zip(self.space.weights, self.segments)
            )
        )


def _positive_definite(lo: float, hi: float) -> bool:
    """Whether extreme eigenvalues lo <= hi pass the frame test lo > TOL_FRAME_REL * hi > 0."""
    return lo > TOL_FRAME_REL * hi and hi > 0.0


def _bounds_of(vals: np.ndarray) -> FrameBounds:
    """Frame bounds from the ascending eigenvalues of S; NotAFrame unless S > 0."""
    lo, hi = float(vals[0]), float(vals[-1])
    if not _positive_definite(lo, hi):
        raise NotAFrame(
            f"frame operator is not positive definite: lambda_min={lo:.3e}, lambda_max={hi:.3e}"
        )
    return FrameBounds(lower=lo, upper=hi)


def from_vector_frame(f: VectorFrame) -> OperatorValuedFrame:
    """Express a vector frame as an operator-valued frame.

    Vector x_i becomes the 1 x n block row conj(x_i) (the functional
    <., x_i>), with unit weight on every atom.
    """
    if len(f.vectors) == 0:
        raise EmptyFrame("vector frame has no vectors")
    return discretize_continuous(f.vectors, np.ones(len(f.vectors)))


def discretize_continuous(samples, weights) -> OperatorValuedFrame:
    """Operator-valued frame from a quadrature grid of a continuous frame.

    Each sample x_t contributes the 1 x n block conj(x_t) with weight
    mu({t}) equal to the supplied quadrature weight.
    """
    samples = [linalg.as_vector(x) for x in samples]
    if len(samples) == 0:
        raise EmptyFrame("no quadrature samples")
    if len(weights) != len(samples):
        raise DimensionMismatch(f"{len(samples)} samples but {len(weights)} weights")
    dim = samples[0].shape[0]
    for i, x in enumerate(samples):
        if x.shape[0] != dim:
            raise DimensionMismatch(f"sample {i} has dim {x.shape[0]}, expected {dim}")
    space = AtomicMeasureSpace(atoms=[str(i) for i in range(len(samples))], weights=weights)
    blocks = [np.conj(x).reshape(1, dim) for x in samples]
    return OperatorValuedFrame(space=space, dim_h=dim, blocks=blocks)


def analysis(ovf: OperatorValuedFrame, x) -> CoefficientField:
    """Apply every block: segment t = T(t) x."""
    v = linalg.as_vector(x)
    if v.shape[0] != ovf.dim_h:
        raise DimensionMismatch(f"vector has dim {v.shape[0]}, frame expects {ovf.dim_h}")
    return CoefficientField(space=ovf.space, segments=[b @ v for b in ovf.blocks])


def synthesis(ovf: OperatorValuedFrame, c: CoefficientField) -> np.ndarray:
    """Weighted adjoint sum: sum_t mu({t}) T(t)* c_t."""
    if c.space != ovf.space:
        raise SpaceMismatch("coefficient field lives over a different measure space")
    out = np.zeros(ovf.dim_h, dtype=np.complex128)
    for w, b, seg in zip(ovf.space.weights, ovf.blocks, c.segments):
        if seg.shape[0] != b.shape[0]:
            raise DimensionMismatch(
                f"segment length {seg.shape[0]} does not match block rows {b.shape[0]}"
            )
        out += w * (linalg.adjoint(b) @ seg)
    return out


def frame_operator(ovf: OperatorValuedFrame) -> np.ndarray:
    """S = sum_t mu({t}) T(t)* T(t); Hermitian positive definite."""
    return ovf._operator


def frame_bounds(ovf: OperatorValuedFrame) -> FrameBounds:
    """Extreme eigenvalues of the frame operator."""
    return ovf._bounds


# --- JSON encoding -----------------------------------------------------------
#
# OVF:         {"atoms": [...], "weights": [...], "dim_h": n, "blocks": [matrix, ...]}
# VectorFrame: {"dim_h": n, "vectors": [[[re, im], ...], ...]}
# Coefficients:{"atoms": [...], "weights": [...], "segments": [[[re, im], ...], ...]}


def _require(obj: dict, key: str, kind: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{kind} JSON is missing field {key!r}")
    return obj[key]


def ovf_to_json(ovf: OperatorValuedFrame) -> dict:
    return {
        "atoms": list(ovf.space.atoms),
        "weights": [float(w) for w in ovf.space.weights],
        "dim_h": ovf.dim_h,
        "blocks": [linalg.matrix_to_json(b) for b in ovf.blocks],
    }


def ovf_from_json(obj) -> OperatorValuedFrame:
    atoms = _require(obj, "atoms", "OVF")
    weights = _require(obj, "weights", "OVF")
    dim_h = _require(obj, "dim_h", "OVF")
    blocks = _require(obj, "blocks", "OVF")
    if not isinstance(blocks, list):
        raise ParseError("OVF blocks must be a list of matrix objects")
    try:
        space = AtomicMeasureSpace(atoms=atoms, weights=weights)
    except (ValueError, DimensionMismatch, TypeError, OverflowError) as exc:
        raise ParseError(f"bad OVF measure space: {exc}") from exc
    mats = [linalg.matrix_from_json(b) for b in blocks]
    try:
        return OperatorValuedFrame(space=space, dim_h=int(dim_h), blocks=mats)
    except (TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise ParseError(f"bad OVF dim_h or blocks: {exc}") from exc


def vector_frame_to_json(f: VectorFrame) -> dict:
    return {
        "dim_h": f.dim_h,
        "vectors": [linalg._pairs(v) for v in f.vectors],
    }


def vector_frame_from_json(obj) -> VectorFrame:
    dim_h = _require(obj, "dim_h", "vector frame")
    vectors = _require(obj, "vectors", "vector frame")
    if not isinstance(vectors, list):
        raise ParseError("vector frame vectors must be a list")
    vecs = [linalg._from_pairs(v, "vector frame vector") for v in vectors]
    try:
        return VectorFrame(dim_h=int(dim_h), vectors=vecs)
    except (TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise ParseError(f"bad vector frame: {exc}") from exc


def coefficients_to_json(c: CoefficientField) -> dict:
    return {
        "atoms": list(c.space.atoms),
        "weights": [float(w) for w in c.space.weights],
        "segments": [linalg._pairs(seg) for seg in c.segments],
    }


def coefficients_from_json(obj) -> CoefficientField:
    atoms = _require(obj, "atoms", "coefficient field")
    weights = _require(obj, "weights", "coefficient field")
    segments = _require(obj, "segments", "coefficient field")
    if not isinstance(segments, list):
        raise ParseError("coefficient segments must be a list")
    segs = [linalg._from_pairs(s, "coefficient segment") for s in segments]
    try:
        space = AtomicMeasureSpace(atoms=atoms, weights=weights)
        return CoefficientField(space=space, segments=segs)
    except (TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise ParseError(f"bad coefficient field: {exc}") from exc
