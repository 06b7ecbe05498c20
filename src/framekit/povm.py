"""Positive operator-valued measures on finite atomic measurable spaces.

A Povm stores one n x n element M({t}) per atom, all in one (N, n, n) array;
events are subsets of the atom labels and evaluate to the sum of their
members' elements, so finite additivity holds by construction and the
validator asserts it numerically on random partitions.  Construction checks
only structure (shapes, counts, finite entries and norms): Hermiticity and
positivity are the validator's job, so that deliberately corrupted measures
can be built and classified.  ``decompose`` calls the same validator.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import compress
from typing import Collection, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotPsd, NotUnitVector, ParseError
from .frames import _event_mask, _label_index, _position, _positive_definite

# Event = any collection of atom labels.
Event = Collection[str]

ADDITIVITY_SAMPLES = 50

FAIL_NOT_HERMITIAN = "NotHermitian"
FAIL_NOT_PSD = "NotPsd"
FAIL_NOT_ADDITIVE = "NotAdditive"


@dataclass(frozen=True, eq=False)
class Povm:
    """Per-atom PSD elements M({t}) on C^n, read-only; M(E) = sum over E's atoms."""

    atoms: tuple[str, ...]
    dim_h: int
    elements: np.ndarray  # complex128, shape (len(atoms), dim_h, dim_h)
    _index: dict = field(repr=False, compare=False)  # label -> position

    def __init__(self, atoms: Sequence[str], dim_h: int, elements):
        atoms = tuple(str(a) for a in atoms)
        index = _label_index(atoms)
        if dim_h <= 0:
            raise DimensionMismatch(f"dim_h must be positive, got {dim_h}")
        elements = linalg._as_stack(elements, (len(atoms), dim_h, dim_h), "elements")
        linalg._check_magnitude(elements, "elements")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "dim_h", int(dim_h))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_index", index)

    def element(self, label: str) -> np.ndarray:
        return self.elements[_position(self._index, label)]

    def evaluate(self, event: Event) -> np.ndarray:
        """M(E): sum of member elements in canonical atom order; M({}) = 0."""
        return linalg._running_sum(self.elements[_event_mask(self._index, event)])

    def total(self) -> np.ndarray:
        """M(Omega)."""
        return self.evaluate(self.atoms)


def evaluate(m: Povm, event: Event) -> np.ndarray:
    return m.evaluate(event)


@dataclass(frozen=True, eq=False)
class ElementReport:
    """``psd`` is the Cholesky verdict: ``min_eigenvalue >= -tol_psd`` up to its stated margin."""

    atom: str
    hermiticity_residual: float  # ||M - M*||_F / (1 + ||M||_F)
    min_eigenvalue: float        # of the Hermitian part
    hermitian: bool
    psd: bool


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """validate's verdicts; the per-element ones are in atom order."""

    povm: Povm = field(repr=False)
    hermiticity_residuals: tuple[float, ...]
    hermitian: tuple[bool, ...]  # residual <= linalg.TOL_HERM
    psd: tuple[bool, ...]        # the Cholesky verdicts
    additivity_residuals: tuple[float, ...]
    max_additivity_residual: float
    additivity_tolerance: float
    seed: int
    failures: tuple[str, ...]  # classification names, empty iff passed

    @property
    def passed(self) -> bool:
        return not self.failures

    @cached_property
    def element_reports(self) -> tuple[ElementReport, ...]:
        """Per-atom reports, from one stacked hermitian_eigen call on first read."""
        a = self.povm.elements
        eigen = linalg.hermitian_eigen(a if all(self.hermitian) else linalg.hermitize(a))
        return tuple(map(ElementReport, self.povm.atoms, self.hermiticity_residuals,
                         eigen.eigenvalues[:, 0].tolist(), self.hermitian, self.psd))

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "failures": list(self.failures),
            "seed": self.seed,
            "elements": [asdict(r) for r in self.element_reports],
            "max_additivity_residual": self.max_additivity_residual,
            "additivity_tolerance": self.additivity_tolerance,
        }


def _additivity(m: Povm, seed: int) -> tuple[list[float], float]:
    """||M(E) + M(F) - M(E u F)||_F over ADDITIVITY_SAMPLES random disjoint pairs
    drawn from ``seed``, and their tolerance, linalg.TOL_ADDITIVITY_REL scaled
    by 1 + ||M(Omega)||_F.

    One draw assigns every atom of every sample to E (0), F (1) or neither (2),
    the same PCG64 stream as one draw per sample; both empty is fine.  The
    3 x 50 values M(E), M(F), M(E u F) are ``m.evaluate`` of each event; for
    Povm's own ``evaluate`` they come from one masked reduction over the element
    stack (``linalg._masked_running_sums``), bit for bit the same, and a
    subclass that evaluates events its own way is asked event by event."""
    rng = np.random.Generator(np.random.PCG64(seed))
    sides = rng.integers(0, 3, size=(ADDITIVITY_SAMPLES, len(m.atoms)))
    masks = np.stack((sides == 0, sides == 1, sides < 2), axis=1).reshape(-1, len(m.atoms))
    if type(m).evaluate is Povm.evaluate:
        sums = linalg._masked_running_sums(m.elements, masks)
    else:
        sums = np.array([m.evaluate(list(compress(m.atoms, mask))) for mask in masks])
    sums = sums.reshape(ADDITIVITY_SAMPLES, 3, m.dim_h, m.dim_h)
    residuals = [linalg.frobenius(e + f - union) for e, f, union in sums]
    return residuals, linalg._scaled_tolerance(linalg.TOL_ADDITIVITY_REL,
                                               linalg.frobenius(m.total()))


def validate(m: Povm, seed: int = 0) -> ValidationReport:
    """Check the POVM axioms numerically; the report carries any failures.

    Per element: Hermiticity residual against linalg.TOL_HERM, and a PSD verdict
    from one stacked Cholesky factorization of H + tol_psd I (H the Hermitian
    part, tol_psd = linalg._psd_tolerance(H)).
    Additivity: ||M(E) + M(F) - M(E u F)||_F over 50 random disjoint pairs drawn
    from the seed (recorded in the report), against linalg.TOL_ADDITIVITY_REL
    scaled by 1 + ||M(Omega)||_F.
    """
    herm_res = linalg.hermitian_residual(m.elements)
    hermitian = herm_res <= linalg.TOL_HERM
    psd = linalg._shifted_positive_definite(m.elements, linalg._psd_tolerance(m.elements))
    failing = {FAIL_NOT_HERMITIAN: ~hermitian, FAIL_NOT_PSD: ~psd}
    first = {f: int(np.argmax(bad)) for f, bad in failing.items() if bad.any()}
    failures = sorted(first, key=first.get)  # Hermiticity first when one atom fails both

    residuals, tol_add = _additivity(m, seed)
    max_add = max(residuals)
    if max_add > tol_add:
        failures.append(FAIL_NOT_ADDITIVE)

    return ValidationReport(
        povm=m,
        hermiticity_residuals=tuple(herm_res.tolist()),
        hermitian=tuple(hermitian.tolist()),
        psd=tuple(psd.tolist()),
        additivity_residuals=tuple(residuals),
        max_additivity_residual=max_add,
        additivity_tolerance=tol_add,
        seed=seed,
        failures=tuple(failures),
    )


@dataclass(frozen=True, eq=False)
class FramedReport:
    """Invertibility of M(Omega) with its extreme eigenvalues."""

    framed: bool
    lower: float  # lambda_min of M(Omega)
    upper: float  # lambda_max of M(Omega)


def is_framed(m: Povm) -> FramedReport:
    """True iff M(Omega) is positive definite beyond the frame tolerance."""
    total = linalg.hermitize(m.total())
    vals = linalg.hermitian_eigen(total).eigenvalues
    lo, hi = float(vals[0]), float(vals[-1])
    return FramedReport(framed=_positive_definite(lo, hi), lower=lo, upper=hi)


def measure_probabilities(m: Povm, x) -> list[float]:
    """Outcome probabilities Re<M({t})x, x> of a unit state, clamped at zero.

    Values in [-tol_psd, 0) are rounded up to 0; anything lower means the
    element is not PSD and raises NotPsd.  The clamped values sum to
    <M(Omega)x, x>, which is 1 exactly when M(Omega) = I.
    """
    v = linalg.as_vector(x)
    if v.shape[0] != m.dim_h:
        raise DimensionMismatch(f"state has dim {v.shape[0]}, POVM expects {m.dim_h}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > linalg.TOL_UNIT_NORM:
        raise NotUnitVector(f"state norm {norm!r} is not 1 within {linalg.TOL_UNIT_NORM}")
    probs = ((m.elements @ v) @ np.conj(v)).real
    low = probs < -linalg._psd_tolerance(m.elements)
    if low.any():
        t = int(np.argmax(low))
        raise NotPsd(f"element at atom {m.atoms[t]!r} gives probability {probs[t]:.3e}")
    return np.maximum(probs, 0.0).tolist()


# --- JSON encoding -----------------------------------------------------------
#
# POVM: {"atoms": [...], "dim_h": n, "elements": [matrix, ...]}
# A matrix is linalg's, its data the base64 string of little-endian complex128.


def povm_to_json(m: Povm) -> dict:
    return {
        "atoms": list(m.atoms),
        "dim_h": m.dim_h,
        "elements": [linalg.matrix_to_json(e) for e in m.elements],
    }


def povm_from_json(obj) -> Povm:
    atoms = linalg._require(obj, "atoms", "POVM")
    dim_h = linalg._require(obj, "dim_h", "POVM")
    elements = linalg._require(obj, "elements", "POVM")
    if not isinstance(elements, list):
        raise ParseError("POVM elements must be a list of matrix objects")
    if not elements:
        raise ParseError("POVM has no atoms, so no element to check dim_h against")
    mats = [linalg.matrix_from_json(e) for e in elements]
    try:
        return Povm(atoms=atoms, dim_h=dim_h, elements=mats)
    except (ValueError, TypeError, OverflowError, DimensionMismatch) as exc:
        raise ParseError(f"bad POVM: {exc}") from exc
