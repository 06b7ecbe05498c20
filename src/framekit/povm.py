"""Positive operator-valued measures on finite atomic measurable spaces.

A Povm stores one n x n element M({t}) per atom; events are subsets of the
atom labels and evaluate to the sum of their members' elements, so finite
additivity holds by construction and the validator asserts it numerically
on random partitions.  Construction checks only structure (shapes, counts,
finiteness): Hermiticity and positivity are the validator's job, so that
deliberately corrupted measures can be built and classified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotPsd, NotUnitVector, ParseError, UnknownAtom
from .frames import _positive_definite

# Event = any collection of atom labels.
Event = Collection[str]

ADDITIVITY_TOL_REL = 1e-12   # scaled by 1 + ||M(Omega)||_F
ADDITIVITY_SAMPLES = 50
UNIT_NORM_TOL = 1e-10

FAIL_NOT_HERMITIAN = "NotHermitian"
FAIL_NOT_PSD = "NotPsd"
FAIL_NOT_ADDITIVE = "NotAdditive"


@dataclass(frozen=True, eq=False)
class Povm:
    """Per-atom PSD elements M({t}) on C^n; M(E) = sum over E's atoms."""

    atoms: tuple[str, ...]
    dim_h: int
    elements: tuple[np.ndarray, ...]

    def __init__(self, atoms: Sequence[str], dim_h: int, elements):
        atoms = tuple(str(a) for a in atoms)
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom labels must be unique")
        if dim_h <= 0:
            raise DimensionMismatch(f"dim_h must be positive, got {dim_h}")
        elements = tuple(linalg.as_matrix(m) for m in elements)
        if len(elements) != len(atoms):
            raise DimensionMismatch(f"{len(atoms)} atoms but {len(elements)} elements")
        for label, m in zip(atoms, elements):
            if m.shape != (dim_h, dim_h):
                raise DimensionMismatch(
                    f"element at atom {label!r} has shape {m.shape}, expected ({dim_h}, {dim_h})"
                )
            m.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "dim_h", int(dim_h))
        object.__setattr__(self, "elements", elements)

    def element(self, label: str) -> np.ndarray:
        try:
            return self.elements[self.atoms.index(label)]
        except ValueError:
            raise UnknownAtom(f"no atom labeled {label!r}") from None

    def evaluate(self, event: Event) -> np.ndarray:
        """M(E): sum of member elements in canonical atom order; M({}) = 0."""
        members = set(event)
        unknown = members.difference(self.atoms)
        if unknown:
            raise UnknownAtom(f"event references unknown atoms: {sorted(unknown)}")
        out = np.zeros((self.dim_h, self.dim_h), dtype=np.complex128)
        for label, m in zip(self.atoms, self.elements):
            if label in members:
                out += m
        return out

    def total(self) -> np.ndarray:
        """M(Omega)."""
        return self.evaluate(self.atoms)


def evaluate(m: Povm, event: Event) -> np.ndarray:
    return m.evaluate(event)


@dataclass(frozen=True, eq=False)
class ElementReport:
    atom: str
    hermiticity_residual: float  # ||M - M*||_F / (1 + ||M||_F)
    min_eigenvalue: float        # of the Hermitian part
    hermitian: bool
    psd: bool


@dataclass(frozen=True, eq=False)
class ValidationReport:
    element_reports: tuple[ElementReport, ...]
    additivity_residuals: tuple[float, ...]
    max_additivity_residual: float
    additivity_tolerance: float
    seed: int
    failures: tuple[str, ...]  # classification names, empty iff passed

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "failures": list(self.failures),
            "seed": self.seed,
            "elements": [
                {
                    "atom": r.atom,
                    "hermiticity_residual": r.hermiticity_residual,
                    "min_eigenvalue": r.min_eigenvalue,
                    "hermitian": r.hermitian,
                    "psd": r.psd,
                }
                for r in self.element_reports
            ],
            "max_additivity_residual": self.max_additivity_residual,
            "additivity_tolerance": self.additivity_tolerance,
        }


def _random_disjoint_pair(rng: np.random.Generator, atoms: tuple[str, ...]) -> tuple[list, list]:
    # Assign each atom to E, F, or neither; degenerate (both empty) is fine.
    sides = rng.integers(0, 3, size=len(atoms))
    e = [a for a, s in zip(atoms, sides) if s == 0]
    f = [a for a, s in zip(atoms, sides) if s == 1]
    return e, f


def validate(m: Povm, seed: int = 0) -> ValidationReport:
    """Check the POVM axioms numerically; the report carries any failures.

    Per element: Hermiticity residual against tol_herm and the minimum
    eigenvalue of the Hermitian part against -tol_psd.  Additivity:
    ||M(E) + M(F) - M(E u F)||_F over 50 random disjoint pairs drawn from
    the given seed (recorded in the report), against a tolerance scaled by
    ||M(Omega)||_F.
    """
    failures = []
    reports = []
    for label, elem in zip(m.atoms, m.elements):
        herm_res = linalg.hermitian_residual(elem)
        herm_ok = herm_res <= linalg.TOL_HERM
        min_eig = float(linalg.hermitian_eigen(linalg.hermitize(elem)).eigenvalues[0])
        psd_ok = min_eig >= -linalg._psd_tolerance(elem)
        if not herm_ok and FAIL_NOT_HERMITIAN not in failures:
            failures.append(FAIL_NOT_HERMITIAN)
        if not psd_ok and FAIL_NOT_PSD not in failures:
            failures.append(FAIL_NOT_PSD)
        reports.append(
            ElementReport(
                atom=label,
                hermiticity_residual=herm_res,
                min_eigenvalue=min_eig,
                hermitian=herm_ok,
                psd=psd_ok,
            )
        )

    tol_add = ADDITIVITY_TOL_REL * (1.0 + linalg.frobenius(m.total()))
    rng = np.random.Generator(np.random.PCG64(seed))
    residuals = []
    for _ in range(ADDITIVITY_SAMPLES):
        e, f = _random_disjoint_pair(rng, m.atoms)
        res = linalg.frobenius(m.evaluate(e) + m.evaluate(f) - m.evaluate(list(e) + list(f)))
        residuals.append(res)
    max_add = max(residuals) if residuals else 0.0
    if max_add > tol_add:
        failures.append(FAIL_NOT_ADDITIVE)

    return ValidationReport(
        element_reports=tuple(reports),
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
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise NotUnitVector(f"state norm {norm!r} is not 1 within {UNIT_NORM_TOL}")
    probs = []
    for label, elem in zip(m.atoms, m.elements):
        p = linalg.inner(elem @ v, v).real
        if p < -linalg._psd_tolerance(elem):
            raise NotPsd(f"element at atom {label!r} gives probability {p:.3e}")
        probs.append(max(p, 0.0))
    return probs


# --- JSON encoding -----------------------------------------------------------
#
# POVM: {"atoms": [...], "dim_h": n, "elements": [matrix, ...]}


def povm_to_json(m: Povm) -> dict:
    return {
        "atoms": list(m.atoms),
        "dim_h": m.dim_h,
        "elements": [linalg.matrix_to_json(e) for e in m.elements],
    }


def povm_from_json(obj) -> Povm:
    if not isinstance(obj, dict):
        raise ParseError("POVM JSON must be an object")
    for key in ("atoms", "dim_h", "elements"):
        if key not in obj:
            raise ParseError(f"POVM JSON is missing field {key!r}")
    elements = obj["elements"]
    if not isinstance(elements, list):
        raise ParseError("POVM elements must be a list of matrix objects")
    mats = [linalg.matrix_from_json(e) for e in elements]
    try:
        return Povm(atoms=obj["atoms"], dim_h=int(obj["dim_h"]), elements=mats)
    except (ValueError, TypeError, OverflowError, DimensionMismatch) as exc:
        raise ParseError(f"bad POVM: {exc}") from exc
