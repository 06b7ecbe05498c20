"""The two-way correspondence between operator-valued frames and framed POVMs.

Forward: an OVF gives rise to the POVM with per-atom elements
mu({t}) T(t)* T(t).  Backward: a framed POVM decomposes into a reference
measure mu and a density map t -> Q(t) with M(E) = sum_{t in E} mu({t}) Q(t),
and the operator-valued frame with blocks T(t) = Q(t)^{1/2} over mu gives
rise to the original POVM again.

Two reference-measure rules are available: the trace of each element
(dominating because a PSD matrix with zero trace is zero), and a dyadic
series sum_j 2^{-j} <M({t}) x_j, x_j> over a user-supplied finite sequence
of unit-ball vectors that spans the space.  Any two decompositions of one
POVM agree in the sense of the weighted identity

    Q1(t) w1/(w1+w2) == Q2(t) w2/(w1+w2)   per atom,

which verify_uniqueness checks residually.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from . import linalg
from .errors import (
    AtomMismatch,
    DimensionMismatch,
    InvalidPovm,
    NotAFrame,
    NotFramed,
    NotHermitian,
    NotPsd,
    ParseError,
    SequenceDoesNotSpan,
)
from .frames import AtomicMeasureSpace, OperatorValuedFrame, frame_operator
from .povm import Povm, validate

TOL_DECOMP_REL = 1e-10  # scaled by 1 + ||M(Omega)||_F

# Exhaustive event verification is capped here; larger spaces get seeded
# random events instead.
EXHAUSTIVE_EVENT_ATOMS = 16
RANDOM_EVENT_SAMPLES = 1_000


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Reference measure mu plus one Hermitian PSD density Q(t) per atom.

    The PSD check diagonalizes each density once; the eigendecompositions
    are kept (``_eigen``, read-only) for the roots in decomposition_to_ovf.
    """

    measure: AtomicMeasureSpace
    densities: tuple[np.ndarray, ...]
    dim_h: int
    _eigen: tuple[linalg.EigenDecomposition, ...] = field(repr=False, compare=False)

    def __init__(self, measure: AtomicMeasureSpace, densities, dim_h: Optional[int] = None):
        densities = tuple(linalg.as_matrix(q) for q in densities)
        if len(densities) != len(measure):
            raise DimensionMismatch(f"{len(measure)} atoms but {len(densities)} densities")
        if dim_h is None:
            if not densities:
                raise DimensionMismatch("empty decomposition needs an explicit dim_h")
            dim_h = densities[0].shape[0]
        eigen = []
        for label, q in zip(measure.atoms, densities):
            if q.shape != (dim_h, dim_h):
                raise DimensionMismatch(
                    f"density at atom {label!r} has shape {q.shape}, expected ({dim_h}, {dim_h})"
                )
            if linalg.hermitian_residual(q) > linalg.TOL_HERM:
                raise NotHermitian(f"density at atom {label!r} is not Hermitian")
            eig = linalg.hermitian_eigen(linalg.hermitize(q))
            if float(eig.eigenvalues[0]) < -linalg._psd_tolerance(q):
                raise NotPsd(f"density at atom {label!r} is not PSD")
            q.flags.writeable = False
            eigen.append(eig)
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "densities", densities)
        object.__setattr__(self, "dim_h", int(dim_h))
        object.__setattr__(self, "_eigen", tuple(eigen))

    def density(self, label: str) -> np.ndarray:
        return self.densities[self.measure.index(label)]

    def reintegrate(self, event: Optional[Iterable[str]] = None) -> np.ndarray:
        """sum over the event's atoms of mu({t}) Q(t); whole space by default."""
        members = set(self.measure.atoms if event is None else event)
        out = np.zeros((self.dim_h, self.dim_h), dtype=np.complex128)
        for label, w, q in zip(self.measure.atoms, self.measure.weights, self.densities):
            if label in members:
                out += w * q
        return out


@dataclass(frozen=True, eq=False)
class ReferenceMeasureRule:
    """How to build the dominating measure: per-atom trace, or a dyadic
    series over a finite sequence of unit-ball vectors."""

    kind: str  # "trace" | "dyadic-sequence"
    sequence: Optional[tuple[np.ndarray, ...]] = None

    def __init__(self, kind: str, sequence=None):
        if kind not in ("trace", "dyadic-sequence"):
            raise ValueError(f"unknown reference measure rule {kind!r}")
        if kind == "dyadic-sequence":
            if not sequence:
                raise ValueError("dyadic-sequence rule needs a vector sequence")
            sequence = tuple(linalg.as_vector(v) for v in sequence)
            for i, v in enumerate(sequence):
                if float(np.linalg.norm(v)) > 1.0 + 1e-12:
                    raise ValueError(f"sequence vector {i} has norm > 1")
                v.flags.writeable = False
        else:
            sequence = None
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sequence", sequence)


TRACE_RULE = ReferenceMeasureRule(kind="trace")


@dataclass(frozen=True, eq=False)
class UniquenessReport:
    """Per-atom residuals of the weighted density identity."""

    atoms: tuple[str, ...]
    per_atom_residuals: tuple[float, ...]
    max_residual: float
    radon_nikodym_ratios: tuple[tuple[float, float], ...]  # (w1, w2)/(w1+w2) per atom
    tolerance: float

    @property
    def within_tolerance(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_json(self) -> dict:
        return {
            "atoms": list(self.atoms),
            "per_atom_residuals": list(self.per_atom_residuals),
            "max_residual": self.max_residual,
            "radon_nikodym_ratios": [list(r) for r in self.radon_nikodym_ratios],
            "tolerance": self.tolerance,
            "within_tolerance": self.within_tolerance,
        }


def ovf_to_povm(ovf: OperatorValuedFrame) -> Povm:
    """POVM the frame gives rise to: element t = mu({t}) T(t)* T(t).

    Its total M(Omega) equals the frame operator, so the result is always
    framed.
    """
    elements = [
        linalg.hermitize(w * (linalg.adjoint(b) @ b))
        for w, b in zip(ovf.space.weights, ovf.blocks)
    ]
    return Povm(atoms=ovf.space.atoms, dim_h=ovf.dim_h, elements=elements)


def reference_measure(m: Povm, rule: ReferenceMeasureRule = TRACE_RULE) -> np.ndarray:
    """Per-atom weights of the dominating measure, in canonical atom order.

    trace rule: mu({t}) = tr M({t}).  dyadic rule: mu({t}) =
    sum_j 2^{-j} <M({t}) x_j, x_j>, requiring at least dim_h vectors that
    span the space (otherwise domination can fail and
    SequenceDoesNotSpan is raised).
    """
    if rule.kind == "trace":
        return np.array([float(np.trace(e).real) for e in m.elements])
    seq = rule.sequence
    if len(seq) < m.dim_h:
        raise SequenceDoesNotSpan(
            f"dyadic sequence has {len(seq)} vectors, need at least {m.dim_h}"
        )
    for i, v in enumerate(seq):
        if v.shape[0] != m.dim_h:
            raise DimensionMismatch(f"sequence vector {i} has dim {v.shape[0]}, POVM expects {m.dim_h}")
    basis = np.stack(seq, axis=1)  # n x J
    gram = linalg.hermitize(linalg.adjoint(basis) @ basis)
    gvals = linalg.hermitian_eigen(gram).eigenvalues
    # rank(X) == n iff the Gram spectrum has n strictly positive values
    positive = int(np.sum(gvals > 1e-12 * max(float(gvals[-1]), 1.0)))
    if basis.shape[0] > basis.shape[1] or positive < m.dim_h:
        raise SequenceDoesNotSpan("dyadic sequence does not span the space")
    weights = []
    for e in m.elements:
        total = 0.0
        for j, v in enumerate(seq, start=1):
            total += (2.0 ** -j) * linalg.inner(e @ v, v).real
        weights.append(total)
    return np.array(weights)


def decompose(m: Povm, rule: ReferenceMeasureRule = TRACE_RULE) -> Decomposition:
    """Split a valid POVM into (mu, Q) with Q(t) = M({t}) / mu({t}).

    Atoms of reference weight zero carry a zero element (domination) and
    are dropped from the decomposition's measure space.
    """
    report = validate(m)
    if not report.passed:
        raise InvalidPovm(f"POVM failed validation: {', '.join(report.failures)}")
    weights = reference_measure(m, rule)
    kept_atoms, kept_weights, densities = [], [], []
    for label, w, elem in zip(m.atoms, weights, m.elements):
        if w <= 0.0:
            if linalg.frobenius(elem) > linalg._psd_tolerance(elem):
                raise InvalidPovm(
                    f"atom {label!r} has zero reference weight but a nonzero element"
                )
            continue
        kept_atoms.append(label)
        kept_weights.append(float(w))
        densities.append(linalg.hermitize(elem / w))
    measure = AtomicMeasureSpace(atoms=kept_atoms, weights=kept_weights)
    return Decomposition(measure=measure, densities=densities, dim_h=m.dim_h)


def decomposition_to_ovf(d: Decomposition) -> OperatorValuedFrame:
    """Operator-valued frame with blocks T(t) = Q(t)^{1/2} over the
    decomposition's measure.

    The roots come from the kept eigendecompositions, equal to psd_sqrt(Q(t))
    bit for bit.  The frame operator is the reintegrated M(Omega); the
    frame's construction tests it, and its NotAFrame is raised as NotFramed.
    """
    blocks = [eig.sqrt() for eig in d._eigen]
    try:
        return OperatorValuedFrame(space=d.measure, dim_h=d.dim_h, blocks=blocks)
    except NotAFrame as exc:
        raise NotFramed(f"decomposition does not reintegrate to a framed POVM: {exc}") from exc


def _aligned_atoms(
    atoms1: Sequence[str], atoms2: Sequence[str]
) -> tuple[str, ...]:
    """Union of the label sets: first list's order, then second-only labels."""
    seen = set(atoms1)
    extra = [a for a in atoms2 if a not in seen]
    return tuple(atoms1) + tuple(extra)


def _per_atom(space: AtomicMeasureSpace, densities) -> dict:
    """{label: (weight, density)}, the lookup table of one side of a uniqueness check."""
    return {a: (float(w), q) for a, w, q in zip(space.atoms, space.weights, densities)}


def _uniqueness_over(
    atoms: tuple[str, ...],
    table1: dict,
    table2: dict,
    dim_h: int,
    scale: float,
) -> UniquenessReport:
    residuals = []
    ratios = []
    absent = (0.0, np.zeros((dim_h, dim_h), dtype=np.complex128))  # atom missing on one side
    for label in atoms:
        w1, q1 = table1.get(label, absent)
        w2, q2 = table2.get(label, absent)
        total = w1 + w2
        r1 = w1 / total if total > 0.0 else 0.0
        r2 = w2 / total if total > 0.0 else 0.0
        residuals.append(linalg.frobenius(r1 * q1 - r2 * q2))
        ratios.append((r1, r2))
    return UniquenessReport(
        atoms=atoms,
        per_atom_residuals=tuple(residuals),
        max_residual=max(residuals) if residuals else 0.0,
        radon_nikodym_ratios=tuple(ratios),
        tolerance=TOL_DECOMP_REL * (1.0 + scale),
    )


def verify_uniqueness(d1: Decomposition, d2: Decomposition) -> UniquenessReport:
    """Residuals of Q1 w1/(w1+w2) - Q2 w2/(w1+w2) per atom.

    Atoms present in only one decomposition count as weight 0 in the other.
    The residuals all vanish (up to rounding) exactly when the two
    decompositions reintegrate to the same POVM.
    """
    if d1.dim_h != d2.dim_h:
        raise DimensionMismatch(f"dim_h {d1.dim_h} vs {d2.dim_h}")
    if not set(d1.measure.atoms) & set(d2.measure.atoms):
        raise AtomMismatch("decompositions share no atom labels")
    atoms = _aligned_atoms(d1.measure.atoms, d2.measure.atoms)
    scale = max(linalg.frobenius(d1.reintegrate()), linalg.frobenius(d2.reintegrate()))
    t1, t2 = _per_atom(d1.measure, d1.densities), _per_atom(d2.measure, d2.densities)
    return _uniqueness_over(atoms, t1, t2, d1.dim_h, scale)


def verify_ovf_equivalence(
    f1: OperatorValuedFrame, f2: OperatorValuedFrame
) -> UniquenessReport:
    """verify_uniqueness applied to the densities Q_i(t) = T_i(t)* T_i(t)."""
    if f1.dim_h != f2.dim_h:
        raise DimensionMismatch(f"dim_h {f1.dim_h} vs {f2.dim_h}")
    if not set(f1.space.atoms) & set(f2.space.atoms):
        raise AtomMismatch("frames share no atom labels")
    atoms = _aligned_atoms(f1.space.atoms, f2.space.atoms)
    tables = [
        _per_atom(f.space, [linalg.hermitize(linalg.adjoint(b) @ b) for b in f.blocks])
        for f in (f1, f2)
    ]
    scale = max(
        linalg.frobenius(frame_operator(f1)), linalg.frobenius(frame_operator(f2))
    )
    return _uniqueness_over(atoms, *tables, f1.dim_h, scale)


def all_events(atoms: Sequence[str]) -> list[tuple[str, ...]]:
    """Every subset of the atom set, empty set first, by size then order."""
    out = []
    for k in range(len(atoms) + 1):
        out.extend(combinations(atoms, k))
    return out


def sample_events(
    atoms: Sequence[str], count: int, seed: int = 0
) -> list[tuple[str, ...]]:
    """Seeded random events (repeats possible), for spaces too large to enumerate."""
    rng = np.random.Generator(np.random.PCG64(seed))
    events = []
    for _ in range(count):
        mask = rng.integers(0, 2, size=len(atoms)).astype(bool)
        events.append(tuple(a for a, keep in zip(atoms, mask) if keep))
    return events


def reintegration_residuals(
    m: Povm, d: Decomposition, events: Optional[Sequence[Sequence[str]]] = None, seed: int = 0
) -> tuple[float, float]:
    """(max, mean) Frobenius residual of M(E) against the reintegrated sum.

    With no explicit events: all 2^|atoms| subsets when |atoms| <=
    EXHAUSTIVE_EVENT_ATOMS, else RANDOM_EVENT_SAMPLES seeded random events.
    """
    if events is None:
        if len(m.atoms) <= EXHAUSTIVE_EVENT_ATOMS:
            events = all_events(m.atoms)
        else:
            events = sample_events(m.atoms, RANDOM_EVENT_SAMPLES, seed=seed)
    dropped = set(m.atoms) - set(d.measure.atoms)
    residuals = []
    for event in events:
        kept = [a for a in event if a not in dropped]
        residuals.append(linalg.frobenius(m.evaluate(event) - d.reintegrate(kept)))
    return (max(residuals) if residuals else 0.0, float(np.mean(residuals)) if residuals else 0.0)


# --- JSON encoding -----------------------------------------------------------
#
# Decomposition: {"atoms": [...], "weights": [...], "dim_h": n, "densities": [matrix, ...]}


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "atoms": list(d.measure.atoms),
        "weights": [float(w) for w in d.measure.weights],
        "dim_h": d.dim_h,
        "densities": [linalg.matrix_to_json(q) for q in d.densities],
    }


def decomposition_from_json(obj) -> Decomposition:
    if not isinstance(obj, dict):
        raise ParseError("decomposition JSON must be an object")
    for key in ("atoms", "weights", "dim_h", "densities"):
        if key not in obj:
            raise ParseError(f"decomposition JSON is missing field {key!r}")
    if not isinstance(obj["densities"], list):
        raise ParseError("decomposition densities must be a list of matrix objects")
    mats = [linalg.matrix_from_json(q) for q in obj["densities"]]
    try:
        measure = AtomicMeasureSpace(atoms=obj["atoms"], weights=obj["weights"])
        return Decomposition(measure=measure, densities=mats, dim_h=int(obj["dim_h"]))
    except (ValueError, TypeError, OverflowError, DimensionMismatch, NotHermitian, NotPsd) as exc:
        raise ParseError(f"bad decomposition: {exc}") from exc
