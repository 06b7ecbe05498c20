"""Deterministic dense complex linear algebra kernels.

Everything operates on numpy complex128 arrays and is written so that
repeated calls on identical inputs return bit-identical outputs: the
eigensolver is a cyclic Jacobi iteration whose rotation order is a fixed
function of the matrix size (row-major single rotations for small n,
round-robin steps of disjoint rotations from n = 16 on).  There is no
general inverse; the frame operator is inverted through its kept
eigendecomposition (see ``reconstruction.reconstruct_direct``).  All
functions are pure; no hidden state.

Inner products follow the convention of being conjugate-linear in the
second argument: ``inner(x, y) == sum(x * conj(y))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPsd, ParseError

# Tolerances (relative unless stated otherwise).
TOL_HERM = 1e-10
TOL_PSD_REL = 1e-10     # scaled by (1 + ||A||_F)

JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_THRESHOLD = 1e-14  # off-diagonal Frobenius threshold, scaled by ||A||_F
# From this size on a sweep is made of vectorized round-robin steps.  Each
# step pays a fixed numpy overhead, so single rotations are as fast or faster
# up to n = 8, and the batched steps gain under 2x below n = 16.
JACOBI_ROUND_ROBIN_MIN_N = 16


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.array(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D complex128 array, rejecting non-finite entries."""
    v = np.array(x, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise ValueError("vector contains NaN or Inf entries")
    return v


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a)).T.copy()


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product, conjugate-linear in the second argument."""
    return complex(np.vdot(np.asarray(y), np.asarray(x)))


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def hermitian_residual(a: np.ndarray) -> float:
    """Frobenius distance to the adjoint, scaled by 1 + ||A||_F."""
    a = np.asarray(a)
    return frobenius(a - adjoint(a)) / (1.0 + frobenius(a))


def is_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> bool:
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and hermitian_residual(a) <= tol


def hermitize(a: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (A + A*)/2."""
    a = np.asarray(a)
    return (a + adjoint(a)) / 2.0


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues ascending plus the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray   # float64, ascending
    eigenvectors: np.ndarray  # complex128, column k pairs with eigenvalues[k]

    def reconstruct(self) -> np.ndarray:
        """U diag(lambda) U*."""
        u = self.eigenvectors
        return (u * self.eigenvalues) @ adjoint(u)

    def sqrt(self) -> np.ndarray:
        """U diag(sqrt(lambda)) U*, hermitized, with negative eigenvalues (rounding
        noise of a matrix already accepted as PSD) taken as zero."""
        vals = np.where(self.eigenvalues < 0.0, 0.0, self.eigenvalues)
        u = self.eigenvectors
        return hermitize((u * np.sqrt(vals)) @ adjoint(u))


def _round_robin_schedule(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The steps of a round-robin sweep, each a set of disjoint pairs (p < q).

    Circle method: index 0 stays put while the others rotate one place per
    step, so every pair meets exactly once in n-1 steps.  Odd n gets a
    dummy index n, which makes n steps; the pair holding the dummy is the
    idle slot and is dropped.
    """
    m = n + (n % 2)
    ring = np.arange(1, m)
    steps = []
    for r in range(m - 1):
        order = np.concatenate(([0], np.roll(ring, -r)))
        top, bot = order[: m // 2], order[m - 1 : m // 2 - 1 : -1]
        keep = (top < n) & (bot < n)
        p, q = np.minimum(top, bot)[keep], np.maximum(top, bot)[keep]
        steps.append((p, q))
    return steps


def _row_major_sweep(a: np.ndarray, v: np.ndarray, skip: float) -> None:
    """One sweep of single rotations in row-major order (p < q), in place."""
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            absa = abs(apq)
            if absa <= skip:
                continue
            phase = apq / absa
            tau = (a[q, q].real - a[p, p].real) / (2.0 * absa)
            if tau >= 0.0:
                t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            cp = c * phase
            sp = s * phase
            colp = a[:, p].copy()
            colq = a[:, q].copy()
            a[:, p] = colp * cp - colq * s
            a[:, q] = colp * sp + colq * c
            rowp = a[p, :].copy()
            rowq = a[q, :].copy()
            a[p, :] = rowp * np.conj(cp) - rowq * s
            a[q, :] = rowp * np.conj(sp) + rowq * c
            a[p, q] = 0.0
            a[q, p] = 0.0
            a[p, p] = a[p, p].real
            a[q, q] = a[q, q].real
            vp = v[:, p].copy()
            vq = v[:, q].copy()
            v[:, p] = vp * cp - vq * s
            v[:, q] = vp * sp + vq * c


def _round_robin_sweep(a: np.ndarray, v: np.ndarray, skip: float, schedule) -> None:
    """One sweep in round-robin order, in place.

    The rotations of one step touch disjoint rows and columns, so each is
    computed from the step's starting matrix and all of them are applied
    together: columns, then rows, then eigenvector columns.  Pairs at or
    below ``skip`` are dropped before any division.  Integer-array indexing
    copies, so ``colp`` and the like are snapshots taken before the writes.
    """
    for p, q in schedule:
        apq = a[p, q]
        absa = np.abs(apq)
        live = absa > skip
        if not live.any():
            continue
        if not live.all():
            p, q, apq, absa = p[live], q[live], apq[live], absa[live]
        phase = apq / absa
        tau = (a[q, q].real - a[p, p].real) / (2.0 * absa)
        t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        cp = c * phase
        sp = s * phase
        colp = a[:, p]
        colq = a[:, q]
        a[:, p] = colp * cp - colq * s
        a[:, q] = colp * sp + colq * c
        rowp = a[p, :]
        rowq = a[q, :]
        a[p, :] = rowp * np.conj(cp)[:, None] - rowq * s[:, None]
        a[q, :] = rowp * np.conj(sp)[:, None] + rowq * c[:, None]
        a[p, q] = 0.0
        a[q, p] = 0.0
        a[p, p] = a[p, p].real
        a[q, q] = a[q, q].real
        vp = v[:, p]
        vq = v[:, q]
        v[:, p] = vp * cp - vq * s
        v[:, q] = vp * sp + vq * c


def _jacobi_sweeps(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize an exactly Hermitian matrix by cyclic Jacobi rotations.

    Each rotation first twists the pivot phase so the 2x2 subproblem is
    real symmetric, then applies the classic symmetric Schur rotation with
    |t| <= 1, which guarantees convergence of the cyclic sweep.  Below
    n = JACOBI_ROUND_ROBIN_MIN_N a sweep applies single rotations in fixed
    row-major order (p < q).  From that size on it uses the round-robin
    ordering of Brent & Luk (1985): n-1 steps of n/2 disjoint rotations,
    applied as vectorized updates; odd n takes n steps with one idle slot
    each.  Both orderings are fixed functions of n, so identical
    inputs give bit-identical outputs.
    """
    n = h.shape[0]
    a = h.copy()
    v = np.eye(n, dtype=np.complex128)
    norm_f = frobenius(h)
    if n == 1 or norm_f == 0.0:
        return np.diag(a).real.copy(), v

    stop = JACOBI_OFF_THRESHOLD * norm_f
    skip = stop / (2.0 * n)  # elements below this cannot push off(A) past stop
    schedule = _round_robin_schedule(n) if n >= JACOBI_ROUND_ROBIN_MIN_N else None

    for _ in range(JACOBI_MAX_SWEEPS):
        off = frobenius(a - np.diag(np.diag(a)))
        if off <= stop:
            return np.diag(a).real.copy(), v
        if schedule is None:
            _row_major_sweep(a, v, skip)
        else:
            _round_robin_sweep(a, v, skip, schedule)

    off = frobenius(a - np.diag(np.diag(a)))
    if off <= stop:
        return np.diag(a).real.copy(), v
    raise NoConvergence(
        f"Jacobi did not reach off-diagonal norm {stop:.3e} in {JACOBI_MAX_SWEEPS} sweeps"
    )


def hermitian_eigen(a) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Eigenvalues come back sorted ascending, eigenvector columns permuted in
    lockstep; ties keep the Jacobi output order, so identical inputs give
    bit-identical results.  Both arrays are read-only, so objects may keep them.

    Raises NotHermitian if the input fails the Hermiticity check and
    NoConvergence if the sweep budget is exhausted.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NotHermitian(f"matrix is not square: {m.shape[0]}x{m.shape[1]}")
    if hermitian_residual(m) > TOL_HERM:
        raise NotHermitian(f"Hermiticity residual {hermitian_residual(m):.3e} exceeds {TOL_HERM}")
    vals, vecs = _jacobi_sweeps(hermitize(m))
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order].copy(), vecs[:, order].copy()
    for arr in (vals, vecs):
        arr.flags.writeable = False
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def psd_sqrt(a) -> np.ndarray:
    """Unique positive semidefinite square root of a Hermitian PSD matrix.

    Eigenvalues in [-tol_psd, 0) are clamped to zero before the root, where
    tol_psd = 1e-10 * (1 + ||A||_F); anything below -tol_psd raises NotPsd.
    Callers that already hold the eigendecomposition call its ``sqrt`` instead.
    """
    m = as_matrix(a)
    eig = hermitian_eigen(m)
    tol_psd = _psd_tolerance(m)
    lo = float(eig.eigenvalues[0]) if eig.eigenvalues.size else 0.0
    if lo < -tol_psd:
        raise NotPsd(f"minimum eigenvalue {lo:.3e} is below -{tol_psd:.3e}")
    return eig.sqrt()


def _psd_tolerance(a: np.ndarray) -> float:
    """How far below zero an eigenvalue or probability of a PSD A may round."""
    return TOL_PSD_REL * (1.0 + frobenius(a))


# --- JSON encoding -----------------------------------------------------------
#
# Matrix: {"rows": n, "cols": m, "data": [[re, im], ...]} with data row-major.
# Vector: {"dim": n, "entries": [[re, im], ...]}.


def _pairs(a: np.ndarray) -> list:
    """Entries of a complex array in row-major order as [re, im] float pairs."""
    return np.ascontiguousarray(a).view(np.float64).reshape(-1, 2).tolist()


def _from_pairs(pairs, what: str) -> np.ndarray:
    """1-D complex128 array from a JSON list of [re, im] pairs of finite doubles;
    ParseError for anything else, a number too large for a double included."""
    if not isinstance(pairs, list):
        raise ParseError(f"{what} must be a list of [re, im] pairs")
    try:
        v = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} entries must be [re, im] pairs of numbers: {exc}") from exc
    if not np.all(np.isfinite(v.view(np.float64))):
        raise ParseError(f"{what} hold NaN or Inf")
    return v


def matrix_to_json(a: np.ndarray) -> dict:
    m = as_matrix(a)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": _pairs(m)}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError("matrix JSON must be an object")
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"matrix JSON missing or malformed field: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise ParseError(f"matrix dimensions must be positive, got {rows}x{cols}")
    flat = _from_pairs(data, "matrix data")
    if flat.shape[0] != rows * cols:
        raise ParseError(f"matrix data length {flat.shape[0]} does not match {rows}x{cols}")
    return flat.reshape(rows, cols)


def vector_to_json(x: np.ndarray) -> dict:
    v = as_vector(x)
    return {"dim": int(v.shape[0]), "entries": _pairs(v)}


def vector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError("vector JSON must be an object")
    try:
        dim, entries = int(obj["dim"]), obj["entries"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"vector JSON missing or malformed field: {exc}") from exc
    v = _from_pairs(entries, "vector entries")
    if v.shape[0] != dim:
        raise ParseError("vector entries length does not match dim")
    return v
