"""Recover a vector from its analysis coefficients.

Two routes: direct inversion of the frame operator, S^{-1} T* c with S^{-1}
applied through the eigendecomposition of S that the frame kept when it
was built, and the relaxation iteration

    x(n) = x(n-1) + 2/(A+B) * (T*c - S x(n-1)),   x(0) = 0,

which converges geometrically with rate (B-A)/(B+A).  The iteration sees
only the frame and the coefficients; the unknown vector enters solely
through the identity S x = T*(T x) = T*c.

The trace certifies the error a priori with the computable proxy
||T*c|| / A >= ||x||, so certified_bounds[n] = rate^n * proxy is a rigorous
upper bound on ||x - x(n)||.  When the caller supplies the true vector for
verification, the a posteriori errors are recorded alongside, labeled
``actual_errors``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidBounds
from .frames import CoefficientField, FrameBounds, OperatorValuedFrame, frame_bounds, frame_operator, synthesis

DEFAULT_MAX_ITERS = 10_000
DEFAULT_TARGET_ERROR = 1e-9

# Margin for flagging a bounds override as uncertified: the certificate is
# only valid when lower <= lambda_min(S) and upper >= lambda_max(S).
_OVERRIDE_SLACK = 1e-12


@dataclass(frozen=True)
class ReconstructionConfig:
    max_iters: int = DEFAULT_MAX_ITERS
    target_error: float = DEFAULT_TARGET_ERROR
    bounds_override: Optional[FrameBounds] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidBounds(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.target_error > 0.0):
            raise InvalidBounds(f"target_error must be positive, got {self.target_error}")


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Iterates with their certified error bounds.

    certified_bounds[n] = rate^n * proxy where proxy = ||T*c|| / A bounds
    the unknown ||x|| from above (a priori certificate).  actual_errors is
    present only when the true vector was supplied for verification
    (a posteriori record).  ``certified`` is False when a bounds override
    narrower than the actual spectrum was accepted, which voids the
    certificate.
    """

    iterates: tuple[np.ndarray, ...]
    certified_bounds: tuple[float, ...]
    actual_errors: Optional[tuple[float, ...]]
    elapsed_ns: tuple[int, ...]
    bounds: FrameBounds
    rate: float
    certified: bool
    stopped_by: str  # "target_error" | "max_iters"

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1


def reconstruct_direct(ovf: OperatorValuedFrame, c: CoefficientField) -> np.ndarray:
    """S^{-1} T* c through the eigendecomposition S = U diag(lambda) U* the frame kept.

    x0 = U ((U* T*c) / lambda) is followed by one step of iterative
    refinement, x0 + U ((U* (T*c - S x0)) / lambda).  The eigensolver stops
    on an absolute off-diagonal threshold, so the small eigenpairs of an
    ill-conditioned S carry errors near eps ||S||, and x0 alone can be far
    less accurate than a backward-stable solve; the refinement step brings
    it back to that accuracy.  Frame construction already checked
    lambda > 0, so no singularity test is needed here.
    """
    eig = ovf._eigen
    u, lam = eig.eigenvectors, eig.eigenvalues
    uh = linalg.adjoint(u)
    b = synthesis(ovf, c)
    x = u @ ((uh @ b) / lam)
    return x + u @ ((uh @ (b - frame_operator(ovf) @ x)) / lam)


def frame_algorithm(
    ovf: OperatorValuedFrame,
    c: CoefficientField,
    cfg: ReconstructionConfig | None = None,
    true_x=None,
) -> IterationTrace:
    """Run the relaxation iteration until the certificate meets the target.

    Stops when the certified bound drops to cfg.target_error or after
    cfg.max_iters iterations, whichever comes first; the trace records
    which one fired.  A bounds override wider than the actual spectrum
    (lower' <= A, upper' >= B) keeps the certificate valid; a narrower one
    is accepted but the trace is flagged uncertified.
    """
    if cfg is None:
        cfg = ReconstructionConfig()
    actual = frame_bounds(ovf)
    if cfg.bounds_override is not None:
        used = cfg.bounds_override
        certified = (
            used.lower <= actual.lower * (1.0 + _OVERRIDE_SLACK)
            and used.upper >= actual.upper * (1.0 - _OVERRIDE_SLACK)
        )
    else:
        used = actual
        certified = True

    if true_x is not None:
        true_x = linalg.as_vector(true_x)
        if true_x.shape[0] != ovf.dim_h:
            raise DimensionMismatch(
                f"true vector has dim {true_x.shape[0]}, frame expects {ovf.dim_h}"
            )

    s = frame_operator(ovf)
    b = synthesis(ovf, c)
    relax = 2.0 / (used.lower + used.upper)
    rate = (used.upper - used.lower) / (used.upper + used.lower)
    proxy = float(np.linalg.norm(b)) / used.lower

    start = time.perf_counter_ns()
    x = np.zeros(ovf.dim_h, dtype=np.complex128)
    iterates = [x]
    bounds_seq = [proxy]
    errors = None if true_x is None else [float(np.linalg.norm(true_x - x))]
    elapsed = [0]

    stopped_by = "max_iters"
    n = 0
    while n < cfg.max_iters:
        n += 1
        x = x + relax * (b - s @ x)
        iterates.append(x)
        bound = (rate**n) * proxy
        bounds_seq.append(bound)
        if errors is not None:
            errors.append(float(np.linalg.norm(true_x - x)))
        elapsed.append(time.perf_counter_ns() - start)
        if bound <= cfg.target_error:
            stopped_by = "target_error"
            break

    for it in iterates:
        it.flags.writeable = False
    return IterationTrace(
        iterates=tuple(iterates),
        certified_bounds=tuple(bounds_seq),
        actual_errors=None if errors is None else tuple(errors),
        elapsed_ns=tuple(elapsed),
        bounds=used,
        rate=rate,
        certified=certified,
        stopped_by=stopped_by,
    )


def trace_to_csv(trace: IterationTrace) -> str:
    """CSV with columns iter, certified_bound, actual_error, elapsed_ns.

    The actual_error column is blank when the true vector was unknown.
    """
    lines = ["iter,certified_bound,actual_error,elapsed_ns"]
    for n, bound in enumerate(trace.certified_bounds):
        err = "" if trace.actual_errors is None else repr(trace.actual_errors[n])
        lines.append(f"{n},{bound!r},{err},{trace.elapsed_ns[n]}")
    return "\n".join(lines) + "\n"
