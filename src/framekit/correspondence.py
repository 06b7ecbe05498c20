"""The two-way correspondence between operator-valued frames and framed POVMs.

Forward: an OVF gives rise to the POVM with per-atom elements
mu({t}) T(t)* T(t).  Backward: a framed POVM decomposes into a reference
measure mu and a density map t -> Q(t) with M(E) = sum_{t in E} mu({t}) Q(t),
and any operator-valued frame with blocks T(t)* T(t) = Q(t) over mu gives
rise to the original POVM again; decomposition_to_ovf builds the smallest,
the rank(Q(t)) rows of a pivoted Cholesky factor.

Two reference-measure rules are available: the trace of each element
(dominating because a PSD matrix with zero trace is zero), and a dyadic
series sum_j 2^{-j} <M({t}) x_j, x_j> over a user-supplied finite sequence
of unit-ball vectors that spans the space.  Any two decompositions of one
POVM agree in the sense of the weighted identity

    Q1(t) w1/(w1+w2) == Q2(t) w2/(w1+w2)   per atom,

which verify_uniqueness checks residually.

Reintegration, M(E) == sum_{t in E} mu({t}) Q(t) for every event E, is
certified by reintegration_bound in O(N) over the N atoms: the residual is
linear in the per-atom differences, so their norms bound it on all 2^N
events at once, with a summation rounding term on top.
reintegration_residuals computes the residuals event by event, as an
oracle for explicit events or for every event of a small space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress
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
from .frames import (
    AtomicMeasureSpace,
    OperatorValuedFrame,
    _event_mask,
    _position,
    _space_from_json,
    frame_operator,
)
from .povm import Povm, validate

# reintegration_residuals enumerates every event only up to this many atoms.
EXHAUSTIVE_EVENT_ATOMS = 16


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Reference measure mu plus one Hermitian PSD density Q(t) per atom.

    Construction checks every density's Hermiticity residual and takes all
    the PSD verdicts from one stacked Cholesky factorization of
    Q(t) + tol_psd(Q(t)) I.  A decomposition does no eigen work: its one cache,
    ``_minimal_rows``, holds the pivoted Cholesky rows that decomposition_to_ovf
    and cut_bound read, from one stacked call on first read.
    """

    measure: AtomicMeasureSpace
    densities: np.ndarray  # complex128, shape (len(measure), dim_h, dim_h)
    dim_h: int

    def __init__(self, measure: AtomicMeasureSpace, densities, dim_h: Optional[int] = None):
        if dim_h is None:  # an empty decomposition needs an explicit one
            dim_h = len(densities[0]) if len(densities) else 0
        self._fill(measure, densities, dim_h, copy=True)

    def _fill(self, measure: AtomicMeasureSpace, densities, dim_h: int, copy: bool) -> None:
        """Check and set the fields, keeping a copy of ``densities`` unless ``copy`` is
        false: ``decomposition_from_json`` builds through this with the decoded
        read-only stack, which nothing else holds, and keeps it as it is."""
        if dim_h <= 0:
            raise DimensionMismatch(f"dim_h must be positive, got {dim_h}")
        densities = linalg._as_stack(densities, (len(measure), dim_h, dim_h), "densities", copy)
        linalg._check_magnitude(densities, "densities", measure.weights)
        herm_ok = linalg.hermitian_residual(densities) <= linalg.TOL_HERM
        psd_ok = linalg._shifted_positive_definite(densities, linalg._psd_tolerance(densities))
        bad = ~(herm_ok & psd_ok)
        if bad.any():  # the first failing atom; its Hermiticity is checked first
            t = int(np.argmax(bad))
            if not herm_ok[t]:
                raise NotHermitian(f"density at atom {measure.atoms[t]!r} is not Hermitian")
            raise NotPsd(f"density at atom {measure.atoms[t]!r} is not PSD")
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "densities", densities)
        object.__setattr__(self, "dim_h", int(dim_h))

    @cached_property
    def _minimal_rows(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """(rows T(t) with T(t)* T(t) = Q(t), Frobenius norms of the Schur complements
        they drop), from one stacked pivoted Cholesky on first read; no eigen work."""
        return linalg._pivoted_cholesky_rows(self.densities)

    def density(self, label: str) -> np.ndarray:
        return self.densities[self.measure.index(label)]

    def reintegrate(self, event: Optional[Iterable[str]] = None) -> np.ndarray:
        """sum over the event's atoms of mu({t}) Q(t), in canonical atom order; whole
        space by default.  UnknownAtom if the event names a label outside the measure."""
        weighted = self.measure.weights[:, None, None] * self.densities
        if event is not None:
            weighted = weighted[_event_mask(self.measure._index, event)]
        return linalg._running_sum(weighted)


@dataclass(frozen=True, eq=False)
class ReferenceMeasureRule:
    """How to build the dominating measure: per-atom trace, or a dyadic
    series over a finite sequence of unit-ball vectors."""

    kind: str  # "trace" | "dyadic-sequence"
    sequence: Optional[np.ndarray] = None  # complex128, read-only, one vector x_j per row

    def __init__(self, kind: str, sequence=None):
        if kind not in ("trace", "dyadic-sequence"):
            raise ValueError(f"unknown reference measure rule {kind!r}")
        if kind == "dyadic-sequence":
            if sequence is None or len(sequence) == 0:
                raise ValueError("dyadic-sequence rule needs a vector sequence")
            sequence = linalg.as_matrix(sequence)
            too_long = np.linalg.norm(sequence, axis=1) > 1.0 + linalg.TOL_UNIT_BALL
            if too_long.any():
                raise ValueError(f"sequence vector {int(np.argmax(too_long))} has norm > 1")
            sequence.flags.writeable = False
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
    tolerance: float  # linalg.TOL_DECOMP_REL scaled by 1 + the larger side's norm

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


def _grams(ovf: OperatorValuedFrame) -> np.ndarray:
    """Stack of T(t)* T(t); the blocks are ragged, so one product each."""
    return np.array([linalg.adjoint(b) @ b for b in ovf.blocks])


def ovf_to_povm(ovf: OperatorValuedFrame) -> Povm:
    """POVM the frame gives rise to: element t = mu({t}) T(t)* T(t).

    Its total M(Omega) equals the frame operator, so the result is always
    framed.
    """
    elements = linalg.hermitize(ovf.space.weights[:, None, None] * _grams(ovf))
    return Povm(atoms=ovf.space.atoms, dim_h=ovf.dim_h, elements=elements)


def reference_measure(m: Povm, rule: ReferenceMeasureRule = TRACE_RULE) -> np.ndarray:
    """Per-atom weights of the dominating measure, in canonical atom order.

    trace rule: mu({t}) = tr M({t}).  dyadic rule: mu({t}) =
    sum_j 2^{-j} <M({t}) x_j, x_j>, requiring at least dim_h vectors that
    span the space (otherwise domination can fail and
    SequenceDoesNotSpan is raised).
    """
    if rule.kind == "trace":
        return np.trace(m.elements, axis1=1, axis2=2).real
    seq = rule.sequence  # J x n
    if len(seq) < m.dim_h:
        raise SequenceDoesNotSpan(
            f"dyadic sequence has {len(seq)} vectors, need at least {m.dim_h}"
        )
    if seq.shape[1] != m.dim_h:
        raise DimensionMismatch(f"sequence vectors have dim {seq.shape[1]}, POVM expects {m.dim_h}")
    gram = linalg.hermitize(np.conj(seq) @ seq.T)
    gvals = linalg.hermitian_eigen(gram).eigenvalues
    # rank(X) == n iff the Gram spectrum has n strictly positive values
    positive = int(np.sum(gvals > linalg.TOL_SPAN_REL * max(float(gvals[-1]), 1.0)))
    if positive < m.dim_h:
        raise SequenceDoesNotSpan("dyadic sequence does not span the space")
    # <M({t}) x_j, x_j> for every j (rows) and atom t (columns), summed over j in order
    probs = np.einsum("tkj,jk->jt", m.elements @ seq.T, np.conj(seq))
    scales = 2.0 ** -np.arange(1, len(seq) + 1)
    return linalg._running_sum(scales[:, None] * probs).real


def decompose(m: Povm, rule: ReferenceMeasureRule = TRACE_RULE) -> Decomposition:
    """Split a valid POVM into (mu, Q) with Q(t) = M({t}) / mu({t}).

    The POVM must pass ``validate`` (Hermiticity, positivity and additivity),
    then atoms of reference weight zero must carry a zero element (domination;
    they are dropped), then the densities must pass Decomposition's checks; any
    failure raises InvalidPovm, naming the first failing atom.
    """
    report = validate(m)
    if not report.passed:
        ok = [h and p for h, p in zip(report.hermitian, report.psd)]
        where = "" if all(ok) else f" at atom {m.atoms[ok.index(False)]!r}"
        raise InvalidPovm(f"POVM failed validation: {report.failures[0]}{where}")
    weights = reference_measure(m, rule)
    keep = weights > 0.0
    nonzero = np.linalg.norm(m.elements, axis=(1, 2)) > linalg._psd_tolerance(m.elements)
    if (nonzero & ~keep).any():
        label = m.atoms[int(np.argmax(nonzero & ~keep))]
        raise InvalidPovm(f"atom {label!r} has zero reference weight but a nonzero element")
    measure = AtomicMeasureSpace(atoms=list(compress(m.atoms, keep)), weights=weights[keep])
    densities = linalg.hermitize(m.elements[keep] / weights[keep][:, None, None])
    try:
        return Decomposition(measure=measure, densities=densities, dim_h=m.dim_h)
    except NotPsd as exc:
        raise InvalidPovm(f"POVM failed validation: {exc}") from exc


def decomposition_to_ovf(d: Decomposition) -> OperatorValuedFrame:
    """Operator-valued frame with one block T(t), T(t)* T(t) = Q(t), per atom of
    the decomposition's measure: the pivoted Cholesky rows (P L)* of Q(t), with
    no eigen work.  There are rank(Q(t)) of them, none for a zero density, the
    fewest any such block can have (Kaftal, Larson & Zhang, Operator-valued
    frames, Trans. AMS 361, 2009), and they drop no more than cut_bound(d).  The
    roots Q(t)^{1/2} are psd_sqrt(Q(t)).  The frame operator is the reintegrated
    M(Omega); the frame's construction tests it, and NotAFrame is raised as NotFramed.
    """
    try:
        return OperatorValuedFrame(space=d.measure, dim_h=d.dim_h, blocks=d._minimal_rows[0])
    except NotAFrame as exc:
        raise NotFramed(f"decomposition does not reintegrate to a framed POVM: {exc}") from exc


def cut_bound(d: Decomposition) -> float:
    """Upper bound on sum_t mu({t}) ||Q(t) - T(t)* T(t)||_F for the blocks of
    decomposition_to_ovf(d), so on the Frobenius distance between any event's
    reintegrated sum and the recovered frame's.

    Q(t) - T(t)* T(t) is three parts.  Q - H, with H = hermitize(Q): a density
    is admitted Hermitian only to within TOL_HERM.  The Schur complement S the
    pivoted Cholesky drops: its computed Frobenius norm, which holds for the
    indefinite complements a density admitted at lambda_min >= -tol_psd can
    leave.  The rounding dH, with |dH| <= gamma_{n+1} |T*| |T| entrywise,
    gamma_k = k u / (1 - k u) and u = eps / 2 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., ch. 10); || |T*| |T| ||_F <= ||T||_F^2,
    about tr T* T = tr H - tr S <= sqrt(n) (||Q||_F + ||S||_F), so
    ||dH||_F <= n gamma_{n+1} (||Q||_F + ||S||_F) with room for the complex
    arithmetic.  So the bound is
    sum_t mu({t}) (||Q - H||_F + ||S||_F + n gamma_{n+1} (||Q||_F + ||S||_F)).
    """
    _, dropped = d._minimal_rows
    n = d.dim_h
    skew = linalg._norms(d.densities - linalg.hermitize(d.densities))
    rounding = n * linalg._gamma(n + 1) * (linalg._norms(d.densities) + dropped)
    return float(d.measure.weights @ (skew + dropped + rounding))


def _uniqueness_over(
    sides: tuple[tuple[AtomicMeasureSpace, np.ndarray], ...], scale: float
) -> UniquenessReport:
    """The report for two (measure, densities) sides over the union of their atoms
    (first side's order, then the second's own); a side lacking an atom has
    weight 0 and a zero density there, so every atom has a positive weight."""
    (space1, q1), (space2, q2) = sides
    if q1.shape[1:] != q2.shape[1:]:
        raise DimensionMismatch(f"dim_h {q1.shape[-1]} vs {q2.shape[-1]}")
    if not set(space1.atoms) & set(space2.atoms):
        raise AtomMismatch("the two sides share no atom labels")
    index = {a: i for i, a in enumerate(dict.fromkeys(space1.atoms + space2.atoms))}
    w = np.zeros((2, len(index)))
    q = np.zeros((2, len(index)) + q1.shape[1:], dtype=np.complex128)
    for s, (space, densities) in enumerate(sides):
        at = [index[a] for a in space.atoms]
        w[s, at] = space.weights
        q[s, at] = densities
    r = w / (w[0] + w[1])
    residuals = np.linalg.norm(r[0, :, None, None] * q[0] - r[1, :, None, None] * q[1], axis=(1, 2))
    return UniquenessReport(
        atoms=tuple(index),
        per_atom_residuals=tuple(residuals.tolist()),
        max_residual=float(residuals.max()),
        radon_nikodym_ratios=tuple(zip(r[0].tolist(), r[1].tolist())),
        tolerance=linalg._scaled_tolerance(linalg.TOL_DECOMP_REL, scale),
    )


def verify_uniqueness(d1: Decomposition, d2: Decomposition) -> UniquenessReport:
    """Residuals of Q1 w1/(w1+w2) - Q2 w2/(w1+w2) per atom.

    Atoms present in only one decomposition count as weight 0 in the other.
    The residuals all vanish (up to rounding) exactly when the two
    decompositions reintegrate to the same POVM.
    """
    scale = max(linalg.frobenius(d1.reintegrate()), linalg.frobenius(d2.reintegrate()))
    return _uniqueness_over(((d1.measure, d1.densities), (d2.measure, d2.densities)), scale)


def verify_ovf_equivalence(
    f1: OperatorValuedFrame, f2: OperatorValuedFrame
) -> UniquenessReport:
    """verify_uniqueness applied to the densities Q_i(t) = T_i(t)* T_i(t)."""
    sides = tuple((f.space, linalg.hermitize(_grams(f))) for f in (f1, f2))
    scale = max(
        linalg.frobenius(frame_operator(f1)), linalg.frobenius(frame_operator(f2))
    )
    return _uniqueness_over(sides, scale)


def all_events(atoms: Sequence[str]) -> list[tuple[str, ...]]:
    """Every subset of the atom set, empty set first, by size then order."""
    out = []
    for k in range(len(atoms) + 1):
        out.extend(combinations(atoms, k))
    return out


def sample_events(
    atoms: Sequence[str], count: int, seed: int = 0
) -> list[tuple[str, ...]]:
    """Seeded random events (repeats possible)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    events = []
    for _ in range(count):
        mask = rng.integers(0, 2, size=len(atoms)).astype(bool)
        events.append(tuple(a for a, keep in zip(atoms, mask) if keep))
    return events


def _reintegration_tolerance(total: np.ndarray) -> float:
    """Default bound on reintegration residuals and on cut_bound, from M(Omega)
    (Povm.total or Decomposition.reintegrate): linalg.TOL_DECOMP_REL * (1 + ||M(Omega)||_F)."""
    return linalg._scaled_tolerance(linalg.TOL_DECOMP_REL, linalg.frobenius(total))


def _aligned_products(m: Povm, d: Decomposition) -> np.ndarray:
    """mu({t}) Q(t) over the POVM's atoms in canonical order, zero at the atoms the
    decomposition dropped; UnknownAtom if the decomposition has an atom the POVM lacks."""
    products = np.zeros_like(m.elements)
    at = [_position(m._index, a) for a in d.measure.atoms]
    products[at] = d.measure.weights[:, None, None] * d.densities
    return products


def reintegration_bound(m: Povm, d: Decomposition) -> float:
    """Upper bound on the Frobenius residual ||M(E) - sum_{t in E} mu({t}) Q(t)||
    over every event E, as reintegration_residuals computes it, at O(N) cost.

    With P_t = mu({t}) Q(t) aligned to the POVM's N atoms (zero where the
    decomposition dropped one) and D_t = M({t}) - P_t, the exact residual
    of an event is ||sum_{t in E} D_t||, at most sum_t ||D_t|| by the
    triangle inequality, for every E.

    The enumeration adds M({t}) and P_t over E in two running sums of at
    most N terms.  Recursive summation errs by at most gamma_{N-1} times
    the sum of the terms' magnitudes, entry by entry, for the real and
    imaginary parts alike; in Frobenius norm that is at most gamma_{N-1}
    sum_t ||M({t})|| and gamma_{N-1} sum_t ||P_t|| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 4), with gamma_k =
    k u / (1 - k u) and u = eps / 2.  The final subtraction and the norm
    of n x n matrices scale the result by at most (1 + u) and about
    (1 + gamma_{n^2 + 1}), and evaluating this bound loses a like share
    of sum_t ||D_t||.  Taking k = N + 2 in place of N - 1 leaves 3u of
    gamma on the magnitudes to absorb those factors, which it does while
    sum_t ||D_t|| is below about 3 / (2 n^2 + N) of the magnitudes.  A
    passing check has sum_t ||D_t|| <= 1e-10 (1 + ||M(Omega)||_F) (TOL_DECOMP_REL),
    well inside that for any n <= 128 and ||M(Omega)||_F >= 1e-5.  So

        max_E residual <= sum_t ||D_t|| + gamma_{N+2} (sum_t ||M({t})|| + sum_t ||P_t||).

    It takes three stacked norms over the (N, n, n) arrays and no events.
    UnknownAtom if the decomposition has an atom the POVM lacks.
    """
    products = _aligned_products(m, d)
    magnitudes = linalg._norms(m.elements).sum() + linalg._norms(products).sum()
    return float(linalg._norms(m.elements - products).sum()
                 + linalg._gamma(len(m.atoms) + 2) * magnitudes)


def reintegration_residuals(
    m: Povm, d: Decomposition, events: Optional[Sequence[Sequence[str]]] = None
) -> tuple[float, float]:
    """(max, mean) Frobenius residual of M(E) against the reintegrated sum.

    With no explicit events: every one of the 2^|atoms| subsets, and
    ValueError above EXHAUSTIVE_EVENT_ATOMS atoms (reintegration_bound
    covers every event at any size).  Both sums of an event are taken
    together, in canonical atom order over the POVM's atoms: M({t}) beside
    mu({t}) Q(t), the latter zero at the atoms the decomposition dropped,
    so the residuals have the bits of per-atom loops over M(E) and
    d.reintegrate on the event's kept atoms.
    """
    if events is None:
        if len(m.atoms) > EXHAUSTIVE_EVENT_ATOMS:
            raise ValueError(
                f"{len(m.atoms)} atoms is too many to enumerate every event "
                f"(at most {EXHAUSTIVE_EVENT_ATOMS}); pass explicit events"
            )
        events = all_events(m.atoms)
    pairs = np.stack([m.elements, _aligned_products(m, d)], axis=1)
    residuals = []
    for event in events:
        sums = linalg._running_sum(pairs[_event_mask(m._index, event)])
        residuals.append(linalg.frobenius(sums[0] - sums[1]))
    return (max(residuals) if residuals else 0.0, float(np.mean(residuals)) if residuals else 0.0)


# --- JSON encoding -----------------------------------------------------------
#
# Decomposition: {"atoms": [...], "weights": [...], "dim_h": n, "densities": stack}
# The stack is all N n x n densities; linalg's JSON section describes its layouts.


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "atoms": list(d.measure.atoms),
        "weights": [float(w) for w in d.measure.weights],
        "dim_h": d.dim_h,
        "densities": linalg._encode_array(d.densities),
    }


def decomposition_from_json(obj) -> Decomposition:
    measure = _space_from_json(obj, "decomposition")
    dim_h = linalg._require(obj, "dim_h", "decomposition")
    densities = linalg._require(obj, "densities", "decomposition")
    n = len(measure)
    if not n:
        raise ParseError("decomposition has no atoms, so no density to check dim_h against")
    rows, _ = linalg._decode_family(densities, "decomposition densities", dim_h, n, [dim_h] * n)
    d = object.__new__(Decomposition)
    try:
        d._fill(measure, rows.reshape(n, dim_h, dim_h), dim_h, copy=False)
    except (ValueError, TypeError, OverflowError, DimensionMismatch, NotHermitian, NotPsd) as exc:
        raise ParseError(f"bad decomposition: {exc}") from exc
    return d
