"""Positive operator-valued measures on finite atomic measurable spaces.

A Povm stores one n x n element M({t}) per atom, all in one (N, n, n) array;
events are subsets of the atom labels and evaluate to the sum of their
members' elements, so finite additivity holds by construction, up to the
rounding of those sums, which the validator bounds over every pair of
disjoint events at once.  Construction checks only structure (shapes, counts,
finite entries and norms): Hermiticity and positivity are the validator's
job, so that deliberately corrupted measures can be built and classified.
``decompose`` calls the same validator.

``validate`` takes its Hermiticity and PSD verdicts from the package's one
admission rule, ``linalg._admission``, as ``correspondence.Decomposition``
does.  A PSD verdict needs no factorization where a bound known from how the
stack was formed already settles it.  A Povm may carry a certified slack per
element, sigma_t >= max(0, -lambda_min(H_t)) with H_t the element's Hermitian
part (``Povm._psd_slack``); only ``correspondence.ovf_to_povm`` sets one, from
the rounding of the Gram products it forms.  The rule passes every element
whose sigma_t is at most its tol_psd with no factorization, factors the rest
in one stacked Cholesky call at a strict shift, and gives a certified slack
for each PASS (``ValidationReport._psd_slack``), which ``decompose`` carries
over to the densities.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import compress
from typing import Collection, Optional, Sequence

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
    """Per-atom PSD elements M({t}) on C^n, read-only; M(E) = sum over E's atoms.

    ``_psd_slack``, None unless ``correspondence.ovf_to_povm`` set it, is a
    read-only per-atom array sigma_t >= max(0, -lambda_min) of each element's
    Hermitian part, proven from how the elements were formed; ``validate``
    takes it as a PASS with no factorization wherever it is at most tol_psd.
    """

    atoms: tuple[str, ...]
    dim_h: int
    elements: np.ndarray  # complex128, shape (len(atoms), dim_h, dim_h)
    _index: dict = field(repr=False, compare=False)  # label -> position
    _psd_slack: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __init__(self, atoms: Sequence[str], dim_h: int, elements):
        self._fill(atoms, dim_h, elements, copy=True)

    def _fill(self, atoms: Sequence[str], dim_h: int, elements, copy: bool,
              slack: Optional[np.ndarray] = None) -> None:
        """Check and set the fields, keeping a copy of ``elements`` unless ``copy`` is
        false: ``povm_from_json`` and ``correspondence.ovf_to_povm`` build through
        this with a stack that nothing else holds, and keep it as it is.
        ``slack``, which only ``ovf_to_povm`` passes, is the certified per-atom
        ``_psd_slack``."""
        atoms = tuple(str(a) for a in atoms)
        index = _label_index(atoms)
        if dim_h <= 0:
            raise DimensionMismatch(f"dim_h must be positive, got {dim_h}")
        elements = linalg._as_stack(elements, (len(atoms), dim_h, dim_h), "elements", copy)
        linalg._check_magnitude(elements, "elements")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "dim_h", int(dim_h))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_psd_slack", slack)

    def element(self, label: str) -> np.ndarray:
        return self.elements[_position(self._index, label)]

    def evaluate(self, event: Event) -> np.ndarray:
        """M(E): sum of member elements in canonical atom order; M({}) = 0."""
        return linalg._running_sum(self.elements[_event_mask(self._index, event)])

    def total(self) -> np.ndarray:
        """M(Omega): every element summed in atom order, bit for bit Povm.evaluate(atoms)."""
        return linalg._running_sum(self.elements)


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
    """validate's verdicts; the per-element ones are in atom order.

    ``_psd_slack``, kept out of ``to_json``, is a read-only per-atom array: a
    certified sigma_t >= max(0, -lambda_min) of the element's Hermitian part
    for each PASS that came with one (from the Povm's own slack or from a
    PASS at the strict shift, see ``validate``), inf elsewhere.
    """

    povm: Povm = field(repr=False)
    hermiticity_residuals: tuple[float, ...]
    hermitian: tuple[bool, ...]  # residual <= linalg.TOL_HERM
    psd: tuple[bool, ...]        # the Cholesky verdicts
    # what the additivity check compares with its tolerance: the rounding bound
    # over every disjoint pair, or the largest sampled residual (see validate)
    max_additivity_residual: float
    additivity_tolerance: float
    failures: tuple[str, ...]  # classification names, empty iff passed
    _psd_slack: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    @cached_property
    def element_reports(self) -> tuple[ElementReport, ...]:
        """Per-atom reports, from one stacked hermitian_eigen call on first read."""
        eigen = linalg.hermitian_eigen(linalg.hermitize(self.povm.elements))
        return tuple(map(ElementReport, self.povm.atoms, self.hermiticity_residuals,
                         eigen.eigenvalues[:, 0].tolist(), self.hermitian, self.psd))

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "failures": list(self.failures),
            "elements": [asdict(r) for r in self.element_reports],
            "max_additivity_residual": self.max_additivity_residual,
            "additivity_tolerance": self.additivity_tolerance,
        }


def _additivity_bound(m: Povm) -> float:
    """Upper bound on the computed ||M(E) + M(F) - M(E u F)||_F, each event summed
    by Povm.evaluate, over every pair of disjoint events (E, F) at once, in O(N):

        2 gamma_{N+2} sum_t ||M({t})||_F,

    with gamma_k = k u / (1 - k u) and u = eps / 2 (linalg._gamma).

    The exact residual is zero.  Each of the three sums runs in atom order from
    an exact 0 over at most N elements, so at most N - 1 rounded additions.
    Recursive summation errs by at most gamma_{N-1} times the sum of the terms'
    magnitudes (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 4), for the real and imaginary parts apart, so by at most gamma_{N-1}
    sum_{t in X} ||M({t})||_F in Frobenius norm for an event X.  E and F are
    disjoint, so the three errors add up to at most gamma_{N-1} twice the sum
    over E u F, at most 2 gamma_{N-1} S with S = sum_t ||M({t})||_F.  Forming
    M(E) + M(F) adds at most u (1 + gamma_{N-1}) S; the subtraction and the norm
    scale the result by at most (1 + u) and about (1 + gamma_{n^2+2}), and
    evaluating this bound loses a relative gamma_{2n^2+N+4} or so.  Taking
    k = N + 2 in place of N - 1 leaves 2 gamma_{N+2} - 2 gamma_{N-1} >= 6u: u
    pays for M(E) + M(F) and 5u S absorbs the products of rounding terms, about
    6 N (n^2 + N) u^2 S, which stays below it for N (n^2 + N) < 6e15, past any
    stack that fits in memory.
    """
    return 2.0 * linalg._gamma(len(m.atoms) + 2) * float(linalg._norms(m.elements, 2).sum())


def _sampled_residuals(m: Povm) -> list[float]:
    """||M(E) + M(F) - M(E u F)||_F over ADDITIVITY_SAMPLES disjoint pairs, each
    event through ``m.evaluate``.  One draw of a fixed PCG64 stream (seed 0)
    assigns every atom of every pair to E (0), F (1) or neither (2), the same
    stream as one draw per pair; both empty is fine."""
    sides = np.random.Generator(np.random.PCG64(0)).integers(
        0, 3, size=(ADDITIVITY_SAMPLES, len(m.atoms)))
    residuals = []
    for row in sides:
        e, f, union = (m.evaluate(list(compress(m.atoms, mask)))
                       for mask in (row == 0, row == 1, row < 2))
        residuals.append(linalg.frobenius(e + f - union))
    return residuals


def validate(m: Povm) -> ValidationReport:
    """Check the POVM axioms numerically; the report carries any failures.

    Per element: Hermiticity residual against linalg.TOL_HERM, and a PSD verdict
    "lambda_min(H) >= -tol_psd" (H the Hermitian part, tol_psd =
    linalg._psd_tolerance(H)), both from the package's one admission rule,
    ``linalg._admission``, given the slack the Povm carries: each element is
    factored at most once unless it fails at the strict shift.
    Additivity: ||M(E) + M(F) - M(E u F)||_F for disjoint events against
    linalg.TOL_ADDITIVITY_REL scaled by 1 + ||M(Omega)||_F, every pair at once
    through _additivity_bound.  Where that bound exceeds the tolerance (element
    norms far above ||M(Omega)||_F), or a subclass evaluates events its own way,
    the largest of the _sampled_residuals is compared instead.
    """
    herm_res, psd, slack = linalg._admission(m.elements, m._psd_slack)
    hermitian = herm_res <= linalg.TOL_HERM
    failing = {FAIL_NOT_HERMITIAN: ~hermitian, FAIL_NOT_PSD: ~psd}
    first = {f: int(np.argmax(bad)) for f, bad in failing.items() if bad.any()}
    failures = sorted(first, key=first.get)  # Hermiticity first when one atom fails both

    tol_add = linalg._scaled_tolerance(linalg.TOL_ADDITIVITY_REL, linalg.frobenius(m.total()))
    value = _additivity_bound(m) if type(m).evaluate is Povm.evaluate else np.inf
    if value > tol_add:
        value = max(_sampled_residuals(m))
        if value > tol_add:
            failures.append(FAIL_NOT_ADDITIVE)

    return ValidationReport(
        povm=m,
        hermiticity_residuals=tuple(herm_res.tolist()),
        hermitian=tuple(hermitian.tolist()),
        psd=tuple(psd.tolist()),
        max_additivity_residual=value,
        additivity_tolerance=tol_add,
        failures=tuple(failures),
        _psd_slack=slack,
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
    norm = float(linalg._norms(v, 1))
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
# POVM: {"atoms": [...], "dim_h": n, "elements": stack}
# The stack is all N n x n elements; linalg's JSON section describes its layouts.


def povm_to_json(m: Povm) -> dict:
    return {
        "atoms": list(m.atoms),
        "dim_h": m.dim_h,
        "elements": linalg._encode_array(m.elements),
    }


def povm_from_json(obj) -> Povm:
    atoms = linalg._require(obj, "atoms", "POVM")
    dim_h = linalg._require(obj, "dim_h", "POVM")
    elements = linalg._require(obj, "elements", "POVM")
    if not atoms:
        raise ParseError("POVM has no atoms, so no element to check dim_h against")
    rows, _ = linalg._decode_family(elements, "POVM elements", dim_h, len(atoms),
                                    [dim_h] * len(atoms))
    m = object.__new__(Povm)
    try:
        m._fill(atoms, dim_h, rows.reshape(len(atoms), dim_h, dim_h), copy=False)
    except (ValueError, TypeError, OverflowError, DimensionMismatch) as exc:
        raise ParseError(f"bad POVM: {exc}") from exc
    return m
