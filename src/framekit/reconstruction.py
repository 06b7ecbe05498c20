"""Recover a vector from its analysis coefficients.

Two routes: the direct one, S^{-1} T* c as the weighted least-squares
solution of B x = c by the corrected seminormal equations on the triangular
factor R (R* R = S) that the frame kept when it was built, and the
relaxation iteration (the frame algorithm of Duffin & Schaeffer, Trans. AMS
72, 1952)

    x(n) = x(n-1) + 2/(A+B) * (T*c - S x(n-1)),   x(0) = 0,

which converges geometrically with rate (B-A)/(B+A).  The iteration sees
only the frame and the coefficients; the unknown vector enters solely
through the identity S x = T*(T x) = T*c.

The trace certifies the error a priori with the computable proxy
||T*c|| / A >= ||x||, so certified_bounds[n] = rate^n * proxy is a rigorous
upper bound on ||x - x(n)||.  The bounds depend on neither the iterates nor
the vector, so the stopping index is known before the first iterate.  The
iterates are then evaluated in blocks of K steps: the step is the affine map
x(n) = M x(n-1) + r with M = I - relax S, r = relax T*c, so
x(jK + i) = M^i y_j + (I + M + ... + M^{i-1}) r from the block's start
y_j = x(jK).  A short chain of one small step per block gives the starts,
y_{j+1} = M^K y_j + (I + ... + M^{K-1}) r, and one matrix product of all the
starts with the K stacked powers then gives every iterate.  When the caller
supplies the true vector for verification, the a posteriori errors are
recorded alongside, labeled ``actual_errors``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidBounds, LimitExceeded
from .frames import (
    CoefficientField,
    FrameBounds,
    OperatorValuedFrame,
    _normal_solve,
    _weighted_adjoint,
    frame_bounds,
    frame_operator,
    synthesis,
)

DEFAULT_MAX_ITERS = 10_000
DEFAULT_TARGET_ERROR = 1e-9

# The stacked powers of one block take at most this many bytes, which sets the
# block length K = 256 at dim 8, 64 at 16, 4 at 64 and 1 from 128 on.
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class ReconstructionConfig:
    max_iters: int = DEFAULT_MAX_ITERS
    target_error: float = DEFAULT_TARGET_ERROR
    bounds_override: Optional[FrameBounds] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidBounds(f"max_iters must be >= 1, got {self.max_iters}")
        if not (0.0 < self.target_error < np.inf):
            raise InvalidBounds(f"target_error must be positive and finite, got {self.target_error}")


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Iterates with their certified error bounds.

    ``iterates`` is one read-only (n+1, dim_h) array whose row k is x(k).
    certified_bounds[n] = rate^n * proxy where proxy = ||T*c|| / A bounds
    the unknown ||x|| from above (a priori certificate).  actual_errors is
    present only when the true vector was supplied for verification
    (a posteriori record).  elapsed_ns[k] is the time from the start of the
    iteration until x(k) was available: 0 for x(0), and for every other row
    the time the one product that gives all iterates finished (the chain's
    time too at K = 1, where the chain is the run).  ``certified`` is False when a bounds
    override narrower than the actual spectrum was accepted, which voids the
    certificate.
    """

    iterates: np.ndarray  # complex128, shape (iterations + 1, dim_h), read-only
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
    """S^{-1} T* c as the weighted least-squares solution of B x = c, by the
    corrected seminormal equations on the frame's kept factor R (R* R = S).

    x0 = R^-1 R^-* (T*c) is followed by one correction,
    x = x0 + R^-1 R^-* (B* W (c - B x0)), whose residual is taken on the rows B
    and weights W, not against the formed S.  With that one step the error is
    of order cond(G) eps for the weighted rows G, not cond(S) eps = cond(G)^2 eps
    (Bjorck, Linear Algebra Appl. 88/89, 1987): on a cond(S) = 3.2e8 frame it
    is about 1e-13, where a solve through S loses about 1e-8.  No eigenpairs
    are used.  Frame construction already checked S > 0, so R^-1 is finite.
    LimitExceeded if T*c overflows, or the solution does: either leaves x non-finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        x = _normal_solve(ovf, synthesis(ovf, c))
        x = x + _normal_solve(ovf, _weighted_adjoint(ovf, c._values - ovf._rows @ x))
    if not np.isfinite(x).all():
        raise LimitExceeded("S^-1 T*c is not finite: the coefficients are too large")
    return x


def _powers(m: np.ndarray, r: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """P = [M; M^2; ...; M^k] stacked as a (k d, d) array, and R[i-1] = (I + M + ...
    + M^{i-1}) r for i = 1..k, by doubling: from the first h of each,
    P_{h+i} = P_i P_h and R_{h+i} = P_i R_h + R_i, one 2-D product per array and
    ceil(log2 k) of each."""
    d = m.shape[0]
    p = np.empty((k * d, d), dtype=np.complex128)
    rs = np.empty((k, d), dtype=np.complex128)
    p[:d], rs[0] = m, r
    h = 1
    while h < k:
        w = min(h, k - h)
        p[h * d:(h + w) * d] = p[:w * d] @ p[(h - 1) * d:h * d]
        rs[h:h + w] = (p[:w * d] @ rs[h - 1]).reshape(w, d) + rs[:w]
        h += w
    return p, rs


def frame_algorithm(
    ovf: OperatorValuedFrame,
    c: CoefficientField,
    cfg: ReconstructionConfig | None = None,
    true_x=None,
) -> IterationTrace:
    """Run the relaxation iteration until the certificate meets the target.

    LimitExceeded, before any iterate, if T*c or the proxy ||T*c|| / A is not
    finite.  Stops when the certified bound drops to cfg.target_error or after
    cfg.max_iters iterations, whichever comes first; the trace records
    which one fired.  A bounds override wider than the actual spectrum
    (lower' <= A, upper' >= B, each up to linalg.TOL_OVERRIDE_SLACK relative)
    keeps the certificate valid; a narrower one is accepted but the trace is
    flagged uncertified.

    The certified bounds, and with them the stopping index n, come first.
    The iterates follow in ceil(n / K) blocks of K = min(n, max(1,
    _BLOCK_BYTES // (16 dim_h^2))) steps: with M = I - relax S, r = relax T*c
    and the K powers P_i = M^i, R_i = (I + ... + M^{i-1}) r made once
    (``_powers``), block j is x(jK + i) = P_i y_j + R_i from its start
    y_j = x(jK).  The starts come first, from y_0 = 0 by the chain
    y_{j+1} = P_K y_j + R_K, one (dim_h, dim_h) matrix-vector product a
    block.  Then one product of the (ceil(n / K), dim_h) starts with the
    stacked P_i gives every P_i y_j, written in place into the iterates'
    array, and one in-place addition of the R_i completes them; the last
    block is run whole, and its rows past x(n) are cut off.  At K = 1 every
    iterate starts a block, so the chain is the plain step x = M x + r over
    the whole run and there is no product.

    Rounding.  With certified bounds ||M||_2 <= rate < 1, so ||P_i|| <= 1 and
    ||R_i|| <= ||r|| / (1 - rate), which is about ||x||.  Each P_i and R_i
    comes out of at most ceil(log2 K) products, each adding about dim_h eps
    times its operands, so a block gives x(jK + i) an error of about
    dim_h eps log2(K) ||x||, where a plain step adds about dim_h eps ||x||
    per step.  An earlier block's error reaches later iterates only through
    the P_i, which contract it, so the errors of all blocks sum to at most
    (per-block error) / (1 - rate^K), against (per-step error) / (1 - rate)
    for the plain step: the same order, within a factor log2 K.  Against the
    plain recurrence the iterates agree to about 1e-14 relative (8.3e-15 at
    worst on the benchmark's cond(S) = 300 frames).  The chain's y_{j+1} and
    the product's x((j+1)K) are one formula taken by two kernels, so they may
    differ in their last bits, each within that order.
    """
    if cfg is None:
        cfg = ReconstructionConfig()
    actual = frame_bounds(ovf)
    if cfg.bounds_override is not None:
        used = cfg.bounds_override
        certified = (
            used.lower <= actual.lower * (1.0 + linalg.TOL_OVERRIDE_SLACK)
            and used.upper >= actual.upper * (1.0 - linalg.TOL_OVERRIDE_SLACK)
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
    relax = 2.0 / (used.lower + used.upper)
    rate = (used.upper - used.lower) / (used.upper + used.lower)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite T*c or proxy is refused below
        b = synthesis(ovf, c)
        proxy = float(np.linalg.norm(b)) / used.lower
    if not np.isfinite(proxy):
        raise LimitExceeded("the proxy ||T*c|| / A is not finite: the coefficients are too large")

    start = time.perf_counter_ns()
    bounds_seq, stopped_by = [proxy], "max_iters"
    for n in range(1, cfg.max_iters + 1):
        bounds_seq.append((rate**n) * proxy)
        if bounds_seq[-1] <= cfg.target_error:
            stopped_by = "target_error"
            break
    iterations = len(bounds_seq) - 1

    d = ovf.dim_h
    k = min(iterations, max(1, _BLOCK_BYTES // (16 * d * d)))
    p, r = _powers(np.eye(d) - relax * s, relax * b, k)
    nb = -(-iterations // k)
    x = np.empty((nb * k + 1, d), dtype=np.complex128)
    x[0] = 0.0
    # the block starts y_j = x(jK) by the chain y_{j+1} = P_K y_j + R_K; at K = 1
    # every iterate starts a block, so the chain is the whole run, written in place
    y = x if k == 1 else np.zeros((nb, d), dtype=np.complex128)
    pk, rk = p[-d:], r[-1]
    for j in range(1, len(y)):
        y[j] = pk @ y[j - 1] + rk
    if k > 1:
        blocks = x[1:].reshape(nb, k, d)
        np.matmul(y, p.T, out=blocks.reshape(nb, k * d))
        blocks += r
    elapsed = (0,) + (time.perf_counter_ns() - start,) * iterations

    x.flags.writeable = False
    x = x[:iterations + 1]
    errors = None
    if true_x is not None:
        errors = tuple(np.linalg.norm(x - true_x, axis=1).tolist())
    return IterationTrace(
        iterates=x,
        certified_bounds=tuple(bounds_seq),
        actual_errors=errors,
        elapsed_ns=elapsed,
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
