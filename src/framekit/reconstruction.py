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
the vector, so they are one array expression, proxy * np.power(rate,
np.arange(n + 1)), and the stopping index is one search of it, known before
the first iterate.  The step is affine, x(k) = M x(k-1) + r with
M = I - relax S and r = relax T*c, so x(0) = 0, x(1) = r and
x(h + i) = M^h x(i) + x(h): the recursion of a prefix scan (Kogge & Stone,
IEEE Trans. Computers C-22(8), 1973), with the matrices M^h at h = 1, 2,
4, ..., each the square of the one before.  Its sums are linear in r:
x(2^k) = Sigma_k r with Sigma_k = sum_{i < 2^k} M^i, and
Sigma_{k+1} = M^(2^k) Sigma_k + Sigma_k.  ``frame_algorithm`` forms x(n)
alone from them: every x(2^k) at once, as one batched product of r with the
prefix sums, and then each set bit h of n above the lowest folded in as
x(h + b) = M^h x(b) + x(h), so n steps take popcount(n) - 1 folds.  The
table of all n + 1 iterates is formed only when it is read, by the doubling
scan that writes rows h+1 .. 2h from rows 1 .. h at each level
(``_iterate_table``).  A fold or a level is one complex product and one add:
the iterates are rows, so M^h x(i) + x(h) is x(i) @ (M^h)^T + x(h), with
(M^h)^T the level matrix, and x(2^k) is r @ Sigma_k^T.

The level matrices and the prefix sums, one pair of stacks filled in one
loop, and the powers of the rate depend on the frame alone, so they are
computed once per frame, on the run that first needs them, and kept in the
frame's plan (``OperatorValuedFrame._plan``); a later run reads them, and only
a longer one builds them again, longer.  The plan holds 2 n.bit_length()
complex dim_h x dim_h matrices and max_iters + 1 powers, less than the
iterates of that run.  When the caller supplies the true vector for
verification, the a posteriori errors are formed from the table on their first
read, labeled ``actual_errors``.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidBounds, LimitExceeded
from .frames import (
    CoefficientField,
    FrameBounds,
    OperatorValuedFrame,
    _IterationPlan,
    _normal_solve,
    _weighted_adjoint,
    frame_bounds,
    synthesis,
)

DEFAULT_MAX_ITERS = 10_000
DEFAULT_TARGET_ERROR = 1e-9


@dataclass(frozen=True)
class ReconstructionConfig:
    """When ``frame_algorithm`` stops: after at most ``max_iters`` iterations, at
    the first whose certified bound is at most ``target_error``.  The iteration
    always takes the frame's own bounds (``frame_bounds``).  ``max_iters`` is an
    integer (a numpy integer too, a bool not), and ``target_error`` a real number
    (a numpy float too, a bool or a string not)."""

    max_iters: int = DEFAULT_MAX_ITERS
    target_error: float = DEFAULT_TARGET_ERROR

    def __post_init__(self):
        n = self.max_iters
        if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1):
            raise InvalidBounds(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        t = self.target_error
        if not (isinstance(t, numbers.Real) and not isinstance(t, bool) and 0.0 < t < np.inf):
            raise InvalidBounds(f"target_error must be a positive finite real number, got {t!r}")


_DEFAULT_CONFIG = ReconstructionConfig()  # frozen, so one serves every call that passes none


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """The last iterate with its certified error bounds; the other iterates on
    first read.

    ``final`` is x(n), read-only, from the prefix sums and the folds
    (``frame_algorithm``).
    ``iterates`` is the scan's own read-only (n+1, dim_h) array, row k x(k),
    formed on its first read by the doubling scan (``_iterate_table``) and kept;
    no writable array is reachable through it.  Its last row is set to
    ``final``, so the two agree bit for bit; rows 0 .. n-1 are the scan's.
    ``certified_bounds`` is one read-only float64 array of length n+1,
    proxy * np.power(rate, np.arange(n + 1)), where proxy = ||T*c|| / A bounds
    the unknown ||x|| from above (a priori certificate); see
    ``_certified_bounds`` for its rounding.  ``actual_errors``, the read-only
    float64 array of ||x - x(k)||, is formed from ``iterates`` on its first
    read, and only when the true vector was supplied for verification (a
    posteriori record); it is None otherwise.  ``elapsed_ns``, one read-only
    int64 array of length n+1, comes from the path to x(n), so reading it forms
    no table: 0 for x(0), the time x(1) = r was written for x(1), the time of
    the batched product that formed every x(2^k) for rows 2 .. 2^(K-1),
    K = n.bit_length(), and the time x(n) was formed for the rows past 2^(K-1),
    so it is constant over the rows each level of the scan writes and never
    decreases.  ``bounds`` are the frame's own A and B (``frame_bounds``), and
    ``certified`` is True.  The certified bounds carry no rounding term, so
    where rate^n proxy falls below the rounding of the iterates, about
    dim_h eps ||x|| / (1 - rate), it may understate the error all the same.

    The package builds a trace as it builds ``CoefficientField`` and
    ``OperatorValuedFrame``: ``frame_algorithm`` takes ``object.__new__`` and
    sets the fields through ``_fill``, which skips the generated constructor's
    keyword handling.  The constructor stays public, and a trace from either
    has the same fields; both are frozen alike.
    """

    final: np.ndarray  # complex128, shape (dim_h,), read-only
    certified_bounds: np.ndarray  # float64, shape (iterations + 1,), read-only
    elapsed_ns: np.ndarray  # int64, shape (iterations + 1,), read-only
    bounds: FrameBounds
    rate: float
    certified: bool
    stopped_by: str  # "target_error" | "max_iters"
    _plan: _IterationPlan = field(repr=False)  # the frame's plan, for the table's levels
    _first: np.ndarray = field(repr=False)  # x(1) = relax T*c, read-only
    _true_x: Optional[np.ndarray] = field(default=None, repr=False)

    def _fill(self, final, certified_bounds, elapsed_ns, bounds, rate, stopped_by,
              plan, first, true_x) -> None:
        """Set every field, ``certified`` True, straight into the instance's
        ``__dict__``, where the frozen constructor's object.__setattr__ puts them."""
        vars(self).update(final=final, certified_bounds=certified_bounds,
                          elapsed_ns=elapsed_ns, bounds=bounds, rate=rate, certified=True,
                          stopped_by=stopped_by, _plan=plan, _first=first, _true_x=true_x)

    @property
    def iterations(self) -> int:
        return len(self.certified_bounds) - 1

    @cached_property
    def iterates(self) -> np.ndarray:
        """complex128, shape (iterations + 1, dim_h), read-only, formed on first
        read."""
        return _iterate_table(self._plan, self._first, self.final, self.iterations)

    @cached_property
    def actual_errors(self) -> Optional[np.ndarray]:
        """float64, shape (iterations + 1,), read-only, formed on first read;
        None without the true vector."""
        if self._true_x is None:
            return None
        errors = linalg._norms(self.iterates - self._true_x, 1)
        errors.flags.writeable = False
        return errors


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


def _certified_bounds(plan: _IterationPlan, proxy: float, target: float,
                      max_iters: int) -> tuple[np.ndarray, str]:
    """The certified bounds proxy * np.power(rate, np.arange(n + 1)) up to the
    stopping index n, read-only, and what stopped them: n is the first index in
    1..max_iters whose bound is <= target ("target_error"), else max_iters
    ("max_iters").  The rate and its powers are the plan's (``plan.powers``).

    One search finds n, over bounds up to ceil(log(target / proxy) / log(rate))
    + 1 (at least 1), clamped to max_iters: the index where rate^n proxy
    reaches the target, plus one for rounding.  Only should the estimate fall
    short of max_iters and no bound up to it reach the target does the search
    run once more, over all max_iters + 1 bounds.  A tight frame (rate 0), or a
    proxy already at the target, stops at n = 1 and takes no logarithm.  Each
    bound has the same bits in either array, and from a plan's powers however
    long they have grown, as np.power works entry by entry.

    Rounding.  This expression is the definition of the bound.  numpy's
    vectorized pow (SIMD where the CPU has it) may differ in the last bit from
    libm's ``rate**n``: at rate 0.99336 and proxy 3.7, 204 of the 3976 bounds
    do.  Against 50-digit mpmath, over 26 rates and n up to 10^4 on an AVX-512
    Xeon, np.power is within 0.67 ULP of rate^n where rate^n is a normal
    number (libm within 0.50), and the bound within 1.54 ULP of the exact
    rate^n proxy.  Where rate^n is subnormal, the power loses relative
    accuracy in either form.
    """
    rate = plan.rate
    if rate == 0.0 or proxy <= target:
        estimate = 1
    elif rate < 1.0:
        estimate = math.ceil((math.log(target) - math.log(proxy)) / math.log(rate)) + 1
    else:  # a rate that rounds to 1 never meets the target
        estimate = max_iters
    size = min(estimate, max_iters)
    bounds = proxy * plan.powers(size + 1)
    below = bounds[1:] <= target
    n = int(below.argmax()) + 1  # the first bound at the target, if there is one
    if not below[n - 1] and size < max_iters:  # the estimate fell short
        bounds = proxy * plan.powers(max_iters + 1)
        below = bounds[1:] <= target
        n = int(below.argmax()) + 1
    bounds.flags.writeable = False
    if below[n - 1]:
        return bounds[:n + 1], "target_error"
    return bounds, "max_iters"


def frame_algorithm(
    ovf: OperatorValuedFrame,
    c: CoefficientField,
    cfg: ReconstructionConfig | None = None,
    true_x=None,
) -> IterationTrace:
    """Run the relaxation iteration until the certificate meets the target.

    The bounds A and B are the frame's own (``frame_bounds``), so the relaxation
    2 / (A + B) and the rate (B - A) / (B + A) are the optimal ones.
    LimitExceeded, before any iterate, if T*c or the proxy ||T*c|| / A is not
    finite, and after them if x(n) is not (and, when the table of iterates is
    read, if any iterate is not).  Stops when the certified bound drops to
    cfg.target_error or after cfg.max_iters iterations, whichever comes first;
    the trace records which one fired.

    The certified bounds come first, as one expression with no loop over the
    iterations, proxy * np.power(rate, np.arange(n + 1)), and one search of it
    gives the stopping index n (``_certified_bounds``; np.power is within
    0.67 ULP of rate^n where that is a normal number).  x(n) alone follows
    from the plan's prefix sums: with M = I - relax S and r = relax T*c,
    x(2^k) = r @ Sigma_k, Sigma_k = sum_{i < 2^k} (M^i)^T, so one batched
    product r @ Sigma_k over k = 1 .. K - 1, K = n.bit_length(), gives every
    x(2^k) at once; x(1) is r itself.  Each set bit h = 2^k of n above the
    lowest is then folded in as x(h + b) = M^h x(b) + x(h), b the sum of the
    set bits below h, starting from x(b) at the lowest set bit b.  So the loop
    runs popcount(n) - 1 times, one product each, and forms no row of the
    table of iterates; that is left to its first read
    (``IterationTrace.iterates``, ``_iterate_table``).

    A fold is one complex (1 x dim_h) @ (dim_h x dim_h) product and one add:
    x(h + b) = x(b) @ L + x(h), the iterates as rows and L = (M^h)^T the plan's
    level matrix.

    The frame's plan (``OperatorValuedFrame._plan``) supplies relax, the rate,
    one pair of tables, ``plan.tables(K)``: the K level matrices L, each the
    square of the one before, and the K prefix sums, Sigma_0 = I and
    Sigma_{k+1} = Sigma_k @ L_k + Sigma_k, both filled in one loop; and the
    powers of the rate.  The first run on a frame computes them, a run longer
    than any before it builds the pair again from k = 0, and every other run
    reads them, so a run gives the same bits on a fresh frame and on a reused
    one.  The run keeps the K - 1 rows x(2^k) and one running sum; the plan
    keeps 2 K complex dim_h x dim_h matrices and at most max_iters + 1 powers
    for the frame's longest run.

    Rounding.  Let E_k be the error of the computed Sigma_k and F_k that of
    the computed level L_k.  Squaring doubles the relative error of a level
    plus dim_h eps, so ||F_k|| is about h rate^h dim_h eps at h = 2^k, below
    dim_h eps / (1 - rate) at every h.  A sum step gives
    E_{k+1} = E_k L_k + Sigma_k F_k + Delta_k, Delta_k the rounding of the
    product and the add.  What x(2^k) reads of E_k is r @ E_k, and
    r @ Sigma_k = x(2^k), of norm at most about 2 ||x||, so
    r @ E_{k+1} = (r @ E_k) L_k + x(2^k) F_k + r @ Delta_k: each step adds at
    most about dim_h eps ||x|| / (1 - rate), and ||L_k|| <= rate^h < 1 carries
    the earlier ones unamplified, so r @ Sigma_k errs by about
    k dim_h eps ||x|| / (1 - rate), the order of the doubling chain it
    replaces.  The batched product rounds by dim_h eps ||r|| ||Sigma_k||,
    below 2 dim_h eps ||x|| / (1 - rate).  A fold gives
    e(h + b) = M^h e(b) + e(h) + delta, delta the rounding of the product and
    the add, about dim_h eps ||x||, plus the error of L times x(b), so the
    popcount(n) - 1 folds keep that order too.  The scan follows the recursion
    of the levels alone, with the same order.  Measured at 1 OpenBLAS thread
    on an AVX-512 Xeon, as the largest entry error over the largest entry of
    the reference's iterates: on 180 default runs of the benchmark's frames
    (seeds 1, 11, 101, 202, 303), so at cond(S) <= 300, x(n) is within
    2.0e-14 of the plain recurrence x = x + relax (T*c - S x), and the scan's
    rows before it within 1.0e-14.  At cond(S) = 1e4 (rate 0.9998), 10000
    steps at dim_h = 8 are within 1.7e-13 of that recurrence carried in
    extended precision, and x(n) within 2.5e-13; at dim_h = 16 within 8.0e-14,
    and x(n) within 2.4e-13; under the order dim_h eps / (1 - rate) = 8.9e-12
    and 1.8e-11.
    """
    if cfg is None:
        cfg = _DEFAULT_CONFIG
    bounds = frame_bounds(ovf)

    if true_x is not None:
        true_x = linalg.as_vector(true_x)
        if true_x.shape[0] != ovf.dim_h:
            raise DimensionMismatch(
                f"true vector has dim {true_x.shape[0]}, frame expects {ovf.dim_h}"
            )

    plan = ovf._plan
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite T*c, proxy or x(n) is refused
        b = synthesis(ovf, c)
        proxy = float(linalg._norms(b, 1)) / bounds.lower
        if not math.isfinite(proxy):
            raise LimitExceeded("the proxy ||T*c|| / A is not finite: "
                                "the coefficients are too large")

        start = time.perf_counter_ns()
        certified_bounds, stopped_by = _certified_bounds(plan, proxy, cfg.target_error,
                                                         cfg.max_iters)
        iterations = len(certified_bounds) - 1

        first = plan.relax * b
        first.flags.writeable = False
        count = iterations.bit_length()
        levels, sums = plan.tables(count)  # (M^h)^T and Sigma at h = 1, 2, 4, ...
        elapsed = np.empty(iterations + 1, dtype=np.int64)
        elapsed[0], elapsed[1] = 0, time.perf_counter_ns() - start
        doubled = first @ sums[1:]  # row k - 1 is x(2^k), k = 1 .. count - 1
        doubled.flags.writeable = False  # x(n) may be one of its rows
        top = 1 << (count - 1)
        elapsed[2:top + 1] = time.perf_counter_ns() - start
        rest = iterations & (iterations - 1)  # n less its lowest set bit
        k = (iterations ^ rest).bit_length() - 1
        total = doubled[k - 1] if k else first  # x(b), b the lowest set bit of n
        while rest:  # fold in the next set bit h = 2^k: x(h + b) = M^h x(b) + x(h)
            k = (rest & -rest).bit_length() - 1
            total = total @ levels[k] + doubled[k - 1]
            rest &= rest - 1
    elapsed[top + 1:] = time.perf_counter_ns() - start  # the rows past the last power of two
    if not np.isfinite(total).all():
        raise LimitExceeded("x(n) is not finite: the coefficients are too large")

    total.flags.writeable = False
    elapsed.flags.writeable = False
    trace = object.__new__(IterationTrace)
    trace._fill(total, certified_bounds, elapsed, bounds, plan.rate, stopped_by, plan, first,
                true_x)
    return trace


def _iterate_table(plan: _IterationPlan, first: np.ndarray, final: np.ndarray,
                   iterations: int) -> np.ndarray:
    """The iterates x(0) .. x(n), n = ``iterations``, by the doubling scan, as
    one read-only (n+1, dim_h) array, with x(n) set to ``final``.

    From x(0) = 0 and x(1) = ``first``, the level at h = 1, 2, 4, ... writes rows
    h+1 .. h+w, w = min(h, n - h), as x(h + i) = M^h x(i) + x(h), so the loop
    runs ceil(log2 n) times.  The iterates are the rows of one (n+1, dim_h)
    complex array: rows 1 .. w times the plan's level (M^h)^T are written
    straight into rows h+1 .. h+w, and x(h) is added to them, one complex
    matrix product and one add a level.  The scan's own last row is replaced by
    ``final``, so the table ends in the x(n) the trace reports.
    LimitExceeded if an iterate is not finite.
    """
    x = np.empty((iterations + 1, len(first)), dtype=np.complex128)
    x[0], x[1] = 0.0, first
    levels, _ = plan.tables(iterations.bit_length())  # (M^h)^T at h = 1, 2, 4, ...
    h = 1
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite iterates are refused below
        while h < iterations:
            w = min(h, iterations - h)
            rows = np.matmul(x[1:w + 1], levels[h.bit_length() - 1], out=x[h + 1:h + 1 + w])
            rows += x[h]
            h += w
    if not np.isfinite(x).all():
        raise LimitExceeded("the iterates are not finite: the coefficients are too large")
    x[iterations] = final
    x.flags.writeable = False
    return x


def trace_to_csv(trace: IterationTrace) -> str:
    """CSV with columns iter, certified_bound, actual_error, elapsed_ns.

    The actual_error column is blank when the true vector was unknown.
    """
    # both columns as Python floats, whose repr is the shortest round-trip text
    errors = None if trace.actual_errors is None else trace.actual_errors.tolist()
    elapsed = trace.elapsed_ns.tolist()
    lines = ["iter,certified_bound,actual_error,elapsed_ns"]
    for n, bound in enumerate(trace.certified_bounds.tolist()):
        err = "" if errors is None else repr(errors[n])
        lines.append(f"{n},{bound!r},{err},{elapsed[n]}")
    return "\n".join(lines) + "\n"
