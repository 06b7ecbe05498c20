"""Deterministic dense complex linear algebra kernels.

Everything operates on numpy complex128 arrays and is written so that
repeated calls on identical inputs return bit-identical outputs.  There is
one Jacobi kernel: one-sided (Hestenes) Jacobi on the rows of a stack of
matrices (``_orthogonalize_rows``), every matrix with its own stopping test,
rotating in one order, a fixed function of the size n: the round-robin steps
of disjoint pairs of ``_round_robin_schedule``.  A lone matrix is a stack of
one, so each matrix's result is bit-identical alone and anywhere in any stack
by construction.  It serves two entry points.

* ``hermitian_eigen`` diagonalizes a Hermitian matrix, or a stack of
  equal-sized ones, from the shifted matrix H + 2 ||H||_F I, to absolute
  accuracy (about eps ||A||_F).  It serves code that reads a spectrum of a
  matrix that comes with no factor: the POVM elements' reports, M(Omega) in
  the framedness test, the dyadic rule's Gram matrix and ``psd_sqrt``.
* ``_one_sided_jacobi`` gives the eigenvalues of G* G, and no eigenvectors,
  from the triangular factor R of G alone (``_scaled_r``, a Householder QR),
  on R*.  It never forms G* G, so the small eigenvalues keep their relative
  accuracy; a frame's operator S = B* diag(w) B takes its bounds from it,
  with G = diag(sqrt(w)) B, on their first read.

Every Hermiticity and PSD verdict on a stack of operators (POVM elements,
densities) comes from one admission rule, ``_admission``: a certified slack
where the stack comes with one, else a stacked Cholesky factorization of the
shifted matrices (``_shifted_positive_definite``), a fraction of the cost of
the sweeps; eigenpairs are computed only where a spectrum is read, and the minimal
factors T* T = Q of PSD densities come from a stacked pivoted Cholesky
(``_pivoted_cholesky_rows``), with no eigen work.  The Householder QR of
``_scaled_r`` takes one of two paths, chosen by the row count of its work
array alone: flat and blocked in panels (``_reflect_panels``, LAPACK's
zgeqrf) up to _FLAT_QR_ROWS rows, so a small frame pays for few
Python-level steps, and recursive (``_reflect_columns``) above, where large
matrix products carry the work; both take every reflector from
``_reflector``.  There is no general inverse: a frame
inverts its triangular R (``_triangular_inverse``, column by column), which
both certifies the frame without eigenvalues and solves S x = b as the
least-squares problem on G (see ``reconstruction.reconstruct_direct``).
All functions are pure; the one state kept is ``_pair_gathers``'s read-only
schedule per size n.  The tolerance table (TOL_HERM to PIVOT_FLOOR_N) holds
every tolerance the package tests against.

Every norm and sum of squares of the package is one reduction, ``_squares``
(``_norms`` and ``frobenius`` take its square root): ``np.add.reduce`` on the
float64 view, in an order fixed by the shape and never through BLAS, so its
bits do not depend on the BLAS thread count.  Only the factorization kernels
keep their own column products (``_reflector``, the Jacobi sweeps).  Inner
products are conjugate-linear in the second argument and summed the same
way: ``inner(x, y) == np.add.reduce(x * conj(y))``.
"""

from __future__ import annotations

import base64
import binascii
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    LimitExceeded,
    NoConvergence,
    NotHermitian,
    NotPsd,
    ParseError,
)

# The tolerance table, the only binding of each name; other modules read it
# qualified (linalg.TOL_FRAME_REL).  Relative unless stated otherwise;
# "scaled by 1 + ||X||_F" is _scaled_tolerance(rel, ||X||_F).
TOL_HERM = 1e-10            # Hermiticity residual ||A - A*||_F / (1 + ||A||_F)
TOL_PSD_REL = 1e-10         # PSD shift and eigenvalue clamp, scaled by 1 + ||A||_F
TOL_FRAME_REL = 1e-10       # not a frame below this fraction of lambda_max(S)
# A family is accepted as a frame without its eigenvalues when its condition
# bound ||R||_F^2 ||R^-1||_F^2 times this factor stays below 1 / TOL_FRAME_REL.
# The factor covers the rounding of R^-1 and of the eigenvalues the sweeps
# would compute from the same R: each is about n eps cond(R) relative, and
# cond(R) < 1e5 on any family the test accepts, so 3e-9 at n = 128.
_CERTIFICATE_MARGIN = 2.0
# analyze's energy identity sum_t mu_t ||c_t||^2 = ||R x||^2 holds to this
# fraction of ||R||_F^2 ||x||^2; its rounding is about (rows + n) eps.
TOL_ENERGY_REL = 1e-10
TOL_TIGHT_REL = 1e-12       # frame bounds are tight when upper - lower is at most this * upper
TOL_ADDITIVITY_REL = 1e-12  # POVM additivity residuals, scaled by 1 + ||M(Omega)||_F
TOL_UNIT_NORM = 1e-10       # absolute: how far a state's norm may be from 1
TOL_DECOMP_REL = 1e-10      # reintegration and uniqueness, scaled by 1 + ||M(Omega)||_F
TOL_UNIT_BALL = 1e-12       # absolute: how far past norm 1 a dyadic-rule vector may round
TOL_SPAN_REL = 1e-12        # dyadic Gram eigenvalues above this * max(lambda_max, 1) span
TOL_BOUNDS_REL = 1e-9       # roundtrip: drift of the frame operator and of the bounds
# Pivoted Cholesky (_pivoted_cholesky_rows) stops a matrix once its largest
# remaining diagonal is at most TOL_PIVOT_REL max(n, PIVOT_FLOOR_N) max_i Q_ii.
# n eps max_i Q_ii is LAPACK xPSTRF's default, n u max_i Q_ii, at twice its size
# (LAPACK's "epsilon" is u = eps / 2).  The floor covers the rounding a density
# brings from the products that formed it: up to 4 eps max_i Q_ii is left after
# the last true pivot of rank-k densities at n = 2..16, which n eps alone does
# not clear below n = 5.
TOL_PIVOT_REL = float(np.finfo(np.float64).eps)
PIVOT_FLOOR_N = 8

JACOBI_MAX_SWEEPS = 100
# a pair of rows counts as orthogonal once |y_p* y_q| <= this * ||y_p|| ||y_q||
JACOBI_ORTHOGONALITY_TOL = 1e-15
# hermitian_eigen, _shifted_positive_definite, hermitian_residual and _squares
# work through a stack in slices of at most this many bytes (64 matrices at
# n = 16, one at n = 128), so their working copies stay a small part of a large
# stack; stacks of small matrices still go through in one slice.
_EIGEN_CHUNK_BYTES = 1 << 18
# _scaled_r factors a QR work array (max(m, n) x n) of at most this many rows
# flat, in panels of _QR_PANEL columns, and a taller one recursively.  At 1 BLAS
# thread the flat path is the faster up to about 256 rows for n >= 32, and a
# little further for narrower arrays; past that the recursion's larger products win.
_FLAT_QR_ROWS = 256
_QR_PANEL = 16


def _as_finite(a, ndims: tuple[int, ...], expected: str, what: str,
               copy: bool = True) -> np.ndarray:
    """A C-ordered complex128 array whose ndim is one of ``ndims``, rejecting
    non-finite entries; a copy unless ``copy`` is false and ``a`` already is a
    C-contiguous complex128 array.  Any input layout (transposed, F-ordered) gives
    the same array, so the same bits downstream."""
    m = np.array(a, dtype=np.complex128, copy=copy or None, order="C")
    if m.ndim not in ndims:
        raise DimensionMismatch(f"expected {expected}, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} contains NaN or Inf entries")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    return _as_finite(a, (2,), "a 2-D matrix", "matrix")


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D complex128 array, rejecting non-finite entries."""
    return _as_finite(x, (1,), "a 1-D vector", "vector")


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of every matrix in a stack: last two axes), C-ordered."""
    return np.conjugate(np.asarray(a).swapaxes(-1, -2), order="C")


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product, conjugate-linear in the second argument, summed in a fixed order."""
    return complex(np.add.reduce(np.asarray(x) * np.conj(y)))


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm of a whole array (``_norms``)."""
    return float(_norms(a, np.ndim(a)))


# _LAST_AXES[k] is the tuple of the last k axes, (-k, ..., -1), for every k up
# to numpy's largest ndim: the axes _squares reduces over.
_LAST_AXES = tuple(tuple(range(-k, 0)) for k in range(65))


def _chunks(count: int, n: int):
    """Slices of a stack of ``count`` n x n matrices, each at most _EIGEN_CHUNK_BYTES
    of complex128 (at least one matrix)."""
    size = max(1, _EIGEN_CHUNK_BYTES // (16 * n * n)) if n else max(count, 1)
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _squares(a: np.ndarray, axes: int):
    """Sum of |entry|^2 over the last ``axes`` axes of a complex array: 2 for a
    matrix or a stack of them, 1 for a vector or for each row.

    The one reduction behind every norm of the package, ``np.add.reduce`` on
    the float64 view, in an order fixed by the shape: the same bits at any
    BLAS thread count, and for one item alone and anywhere in a stack, which
    keeps the Jacobi stopping tests alike.  A stack of matrices larger than
    one slice (see ``_chunks``) is squared a slice at a time.  The axes tuple
    comes from ``_LAST_AXES``, so a call builds no tuple and defines no
    function.
    """
    f = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    axis = _LAST_AXES[axes]
    if (f.ndim, axes) != (3, 2) or f.nbytes <= _EIGEN_CHUNK_BYTES:
        return np.add.reduce(f * f, axis=axis)
    return np.concatenate([np.add.reduce(f[part] * f[part], axis=axis)
                           for part in _chunks(f.shape[0], f.shape[1])])


def _norms(a: np.ndarray, axes: int):
    """The square root of ``_squares``: the Frobenius norm of a matrix or of
    each in a stack (axes 2), the norm of a vector or of each row (axes 1)."""
    return np.sqrt(_squares(a, axes))


def hermitian_residual(a: np.ndarray):
    """Frobenius distance to the adjoint, scaled by 1 + ||A||_F (of each matrix in
    a stack, a slice at a time, see ``_chunks``)."""
    a = np.asarray(a)
    stack = a if a.ndim == 3 else a[None]
    out = np.empty(len(stack))
    for part in _chunks(len(stack), stack.shape[-1]):
        d = adjoint(stack[part])
        d -= stack[part]  # A* - A in place: the same norm as A - A*, with one temporary
        out[part] = _norms(d, 2) / (1.0 + _norms(stack[part], 2))
    return out if a.ndim == 3 else out[0]


def hermitize(a: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (A + A*)/2, of a matrix or of every matrix in a stack."""
    a = np.asarray(a)
    return (a + adjoint(a)) / 2.0


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues ascending plus the matching orthonormal eigenvector columns;
    a stack of them has a leading axis on both arrays."""

    eigenvalues: np.ndarray   # float64, ascending
    eigenvectors: np.ndarray  # complex128, column k pairs with eigenvalues[k]

    def reconstruct(self) -> np.ndarray:
        """U diag(lambda) U*."""
        u = self.eigenvectors
        return (u * self.eigenvalues[..., None, :]) @ adjoint(u)


def _round_robin_schedule(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The steps of a round-robin sweep, each a set of disjoint pairs (p < q).

    Circle method: index 0 stays put while the others rotate one place per
    step, so every pair meets exactly once in n-1 steps.  Odd n gets a
    dummy index n, which makes n steps; the pair holding the dummy is the
    idle slot and is dropped.  n = 0 has no steps.
    """
    if n == 0:
        return []
    m = n + (n % 2)
    shift = np.arange(m - 1)
    order = np.zeros((m - 1, m), dtype=np.int64)  # row r: 0, then 1..m-1 rotated left by r
    order[:, 1:] = 1 + (shift[None, :] + shift[:, None]) % (m - 1)
    top, bot = order[:, : m // 2], order[:, m - 1 : m // 2 - 1 : -1]
    p, q = np.minimum(top, bot), np.maximum(top, bot)
    return [(ps[keep], qs[keep]) for ps, qs, keep in zip(p, q, q < n)]


def _scale_exponent(f: np.ndarray):
    """The e that puts the largest |entry| of a float64 matrix (of each in a stack:
    last two axes) in [1/2, 1) once scaled by 2^-e, exactly; 0 for a zero matrix."""
    peak = np.maximum(f.max(axis=(-2, -1), initial=0.0), -f.min(axis=(-2, -1), initial=0.0))
    return np.frexp(peak)[1]


def hermitian_eigen(a) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, or of each matrix in a
    stack (N, n, n), by one-sided Jacobi on a shifted copy.

    Each matrix is hermitized, H = (A + A*)/2, and scaled exactly by 2^-e so
    that its largest real or imaginary part lies in [1/2, 1).  The sweeps
    (``_orthogonalize_rows``) run on the rows of conj(B), B = H + c I with
    c = 2 ||H||_F (1 for a zero matrix), which hold the columns y_j of B* = B.
    Rotated until orthogonal, they are eigenvectors of B B* = B^2, whose
    eigenvalues (lambda + c)^2 are as distinct as H's lambda: B is positive
    definite with cond(B) <= 3, so no pair +-lambda of H can mix.  Then
    u_j = y_j / ||y_j|| and lambda_j = Re(u_j* H u_j) 2^e; a diagonal input
    comes back exactly.  The accuracy is absolute: eigenvalues to about
    eps ||A||_F, so the small eigenvalues of a PSD matrix carry no relative
    accuracy (a frame takes its bounds from its factor, ``_one_sided_jacobi``).

    Eigenvalues come back sorted ascending, eigenvector columns permuted in
    lockstep; ties keep the Jacobi output order, so identical inputs give
    bit-identical results.  A stack gives eigenvalues (N, n) and eigenvectors
    (N, n, n), each matrix's bit-identical to a lone call on it; an empty
    stack gives empty arrays.  Both arrays are read-only, so objects may keep them.
    A stack is checked and diagonalized in slices of at most _EIGEN_CHUNK_BYTES,
    so the working copies stay small next to the input and the result.

    Raises LimitExceeded if a matrix's squared Frobenius norm is not a finite
    double (the limit every operand meets, see ``_check_magnitude``),
    NotHermitian if the input (for a stack: the first failing matrix, named by
    its index) fails the Hermiticity check and NoConvergence if the sweep
    budget is exhausted.
    """
    m = _as_finite(a, (2, 3), "a matrix or a stack of matrices", "matrix", copy=False)
    lone = m.ndim == 2
    if lone:
        m = m[None]
    count, n = m.shape[0], m.shape[-1]
    if m.shape[1] != n:
        raise NotHermitian(f"matrix is not square: {m.shape[1]}x{n}")
    chunks = _chunks(count, n)
    for part in chunks:
        with np.errstate(over="ignore"):  # an overflow here is what the check looks for
            big = ~np.isfinite(_norms(m[part], 2))
        if big.any():
            where = "" if lone else f" of matrix {part.start + int(np.argmax(big))} in the stack"
            raise LimitExceeded(f"the Frobenius norm{where} does not square to a finite double")
        residuals = hermitian_residual(m[part])
        bad = residuals > TOL_HERM
        if bad.any():
            k = int(np.argmax(bad))
            where = "" if lone else f" of matrix {part.start + k} in the stack"
            raise NotHermitian(f"Hermiticity residual{where} {residuals[k]:.3e} exceeds {TOL_HERM}")
    vals = np.empty((count, n))
    vecs = np.empty((count, n, n), dtype=np.complex128)
    diag = np.arange(n)
    for part in chunks:
        h = hermitize(m[part])
        f = h.view(np.float64)
        e = _scale_exponent(f)
        np.ldexp(f, -e[:, None, None], out=f)
        norm = _norms(h, 2)
        b = np.conj(h)
        b[:, diag, diag] += np.where(norm > 0.0, 2.0 * norm, 1.0)[:, None]
        u = _orthogonalize_rows(b, part.start, count)
        uf = u.view(np.float64)
        uf /= np.sqrt(np.vecdot(u, u).real)[..., None]
        # row j of u conj(H) is H u_j, as H^T = conj(H)
        lam = np.ldexp(np.vecdot(u, u @ np.conj(h)).real, e[:, None])
        order = np.argsort(lam, axis=-1, kind="stable")
        vals[part] = np.take_along_axis(lam, order, axis=-1)
        vecs[part] = np.swapaxes(np.take_along_axis(u, order[..., None], axis=1), 1, 2)
    if lone:
        vals, vecs = vals[0], vecs[0]
    for arr in (vals, vecs):
        arr.flags.writeable = False
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def _reflector(x: np.ndarray) -> tuple[complex, float]:
    """The Householder reflector H = I - tau v v* of the column x, in place:
    (beta, tau) with H x = beta e_0, v written over x.  The caller moves R's
    rows above x out of its work array, and puts beta on R's diagonal.

    The reflector is LAPACK's zlarfg, with the phase of x_0 in place of the
    sign of its real part: beta = -phase(x_0) ||x||,
    v = (x - beta e_0) / (x_0 - beta) (so v_0 = 1) and
    tau = (||x|| + |x_0|) / ||x||, with no cancellation.  A zero column takes
    H = I: (x_0, 0.0), and v = 0.  Both QR paths take every reflector from
    here, so they share its rounding.
    """
    norm = math.sqrt(np.vdot(x, x).real)
    if norm == 0.0:
        beta = x[0]
        x[:] = 0.0
        return beta, 0.0
    head = abs(x[0])
    phase = x[0] / head if head > 0.0 else 1.0
    x /= phase * (head + norm)
    x[0] = 1.0
    return -phase * norm, (head + norm) / norm


def _reflect_columns(a: np.ndarray, r: np.ndarray, ts: np.ndarray, lo: int, hi: int) -> None:
    """Householder QR of the block a[lo:, lo:hi], in place, recursively.

    A leaf (one column) takes its reflector from ``_reflector``.  A node
    factors its left half, applies that half's Q* = I - V T* V* to its right
    half, factors the right half and joins the two compact-WY factors with
    T12 = -T1 (V1* V2) T2 (Elmroth & Gustavson, IBM J. Res. Dev. 44(4), 2000),
    so all but the leaves are matrix products.

    The leaf of column j moves R's rows 0..j-1 of that column, final by then,
    into the n x n ``r`` and clears them in ``a``, then reflects a[j:, j]: beta
    goes to r[j, j] and v over the column, so column j of ``a`` holds zero
    above row j, v_0 on it and the rest below.  So each V of a node is a view
    of ``a``, the one tall array of the QR; ``ts`` (n, n) receives the
    upper-triangular T.  ``_scaled_r`` takes this path for a work array of more
    than _FLAT_QR_ROWS rows.
    """
    if hi - lo == 1:
        r[:lo, lo] = a[:lo, lo]
        a[:lo, lo] = 0.0
        r[lo, lo], ts[lo, lo] = _reflector(a[lo:, lo])
        return
    mid = (lo + hi) // 2
    _reflect_columns(a, r, ts, lo, mid)
    v1, t1 = a[lo:, lo:mid], ts[lo:mid, lo:mid]
    v1h = adjoint(v1)
    right = a[lo:, mid:hi]
    right -= v1 @ (adjoint(t1) @ (v1h @ right))
    _reflect_columns(a, r, ts, mid, hi)
    ts[lo:mid, mid:hi] = -(t1 @ ((v1h[:, mid - lo:] @ a[mid:, mid:hi]) @ ts[mid:hi, mid:hi]))


# The strict upper triangle of a panel's diagonal block: R's rows that
# _reflect_panels moves out of the work array once the panel is reflected.
_PANEL_UPPER = np.triu(np.ones((_QR_PANEL, _QR_PANEL), dtype=bool), 1)
_PANEL_UPPER.flags.writeable = False


def _reflect_panels(a: np.ndarray, r: np.ndarray) -> None:
    """Householder QR of the whole work array a, in place, flat and blocked
    (LAPACK's zgeqrf): panels of _QR_PANEL columns, left to right.

    Each column of a panel takes its reflector from ``_reflector``, and
    applies it at once to the panel's columns right of it, as one vector-matrix
    product, y = tau x* C, and one rank-1 update, C -= x y (zgeqr2).  R's rows
    above the panel, final since the last trailing update, move into ``r``
    before it, and those inside it, the strict upper triangle of its diagonal
    block, after it, each in one step, and are cleared in ``a``: a reflector
    touches only rows at or below its own, so they are final by then.
    So the panel's reflectors are V = a[lo:, lo:hi], which give the T of
    Q = I - V T V* from V* V, one small matrix-vector product per column
    (zlarft), and the columns right of the panel take Q* = I - V T* V* as one
    compact-WY product, C -= V (T* (V* C)) (zlarfb; Schreiber & Van Loan, SIAM
    J. Sci. Stat. Comput. 10(1), 1989).  The last panel needs no T.
    """
    n = a.shape[1]
    for lo in range(0, n, _QR_PANEL):
        hi = min(lo + _QR_PANEL, n)
        r[:lo, lo:hi] = a[:lo, lo:hi]
        taus = []
        for j in range(lo, hi):
            x = a[j:, j]
            r[j, j], tau = _reflector(x)
            taus.append(tau)
            if tau != 0.0 and j + 1 < hi:
                c = a[j:, j + 1:hi]
                y = np.conj(x) @ c
                y *= tau
                c -= np.multiply(x[:, None], y, order="F")
        upper, block = _PANEL_UPPER[:hi - lo, :hi - lo], a[lo:hi, lo:hi]
        np.copyto(r[lo:hi, lo:hi], block, where=upper)
        np.copyto(block, 0.0, where=upper)
        if hi == n:
            return
        v = a[lo:, lo:hi]
        w = adjoint(v) @ a[lo:, lo:]  # [V* V | V* C]
        t = np.zeros((hi - lo, hi - lo), dtype=np.complex128)
        for i, tau in enumerate(taus):
            t[i, i] = tau
        for i in range(1, hi - lo):
            np.multiply(t[:i, :i] @ w[:i, i], -taus[i], out=t[:i, i])
        c = a[lo:, hi:]
        c -= v @ (adjoint(t) @ w[:, hi - lo:])


def _scaled_r(g, row_scale: np.ndarray) -> tuple[np.ndarray, int]:
    """(R / 2^e, e) for the n x n upper-triangular R of a Householder QR of the
    (m, n) matrix G = diag(row_scale) g, so R* R = G* G; fewer rows than columns
    are padded with zero rows.  Any layout of g gives the same bits.

    2^e puts G's largest real or imaginary part in [1/2, 1): exact, every square
    and ratio of the sweeps stays in range, and each step of the QR and of the
    sweeps commutes with the scaling.  G is written once, into the F-ordered work
    array of the QR, and scaled there in place; the reflectors then overwrite
    it, so nothing else as tall is held but one node's (or panel's) V* and
    product.  A work array of at most _FLAT_QR_ROWS rows is factored flat in
    panels (``_reflect_panels``), where a recursion would pay about 2n
    Python-level nodes for products too small to gain from them; a taller one
    recursively (``_reflect_columns``), whose large products a flat panel's
    column steps cannot match.  The path depends only on the input's shape,
    and both take every column's reflector from ``_reflector``, so both have
    the same rounding bound (Higham, Theorem 19.4; see
    ``frames._swept_condition``).  ``_reflector`` acts on the column below the
    diagonal alone; each path moves R's rows above it into ``r`` once they
    are final, and puts the reflector's beta on R's diagonal.
    """
    m, n = g.shape
    a = np.zeros((max(m, n), n), dtype=np.complex128, order="F")
    np.multiply(row_scale[:, None], g, out=a[:m])
    f = a.T.view(np.float64)  # a.T is C-ordered
    e = int(_scale_exponent(f))
    np.ldexp(f, -e, out=f)
    r = np.zeros((n, n), dtype=np.complex128)
    if len(a) <= _FLAT_QR_ROWS:
        _reflect_panels(a, r)
    else:
        _reflect_columns(a, r, np.zeros((n, n), dtype=np.complex128), 0, n)
    r.flags.writeable = False
    return r, e


def _triangular_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular n x n R, read-only: the reciprocals of the
    diagonal taken together, then the columns left to right, each one
    matrix-vector product, X[:j, j] = -X[:j, :j] R[:j, j] X[j, j] (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 14.2,
    method 1).  A singular or nearly singular R gives inf or NaN entries, with
    no RuntimeWarning; callers test the result for finiteness."""
    n = r.shape[0]
    inv = np.zeros_like(r)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        recip = 1.0 / r.diagonal()
        np.fill_diagonal(inv, recip)
        neg = (-recip).tolist()
        for j in range(1, n):
            np.multiply(inv[:j, :j] @ r[:j, j], neg[j], out=inv[:j, j])
    inv.flags.writeable = False
    return inv


@functools.lru_cache(maxsize=64)
def _pair_gathers(n: int) -> tuple[np.ndarray, ...]:
    """Row gathers that put the pairs of each round-robin step side by side,
    built once per n and kept read-only (for the 64 sizes last used, so a
    process that meets many sizes holds a bounded amount).

    Before step k the rows sit in the order p_0, q_0, p_1, q_1, ... of step
    k - 1 (the idle row of odd n last), and gather k moves them into that
    order for step k.  The rows start out labeled as if the last step had just
    run, so every sweep takes the same gathers and ends with each row back in
    its place; the labels only fix which rows meet, and every pair of labels
    meets once a sweep."""
    steps = _round_robin_schedule(n)
    orders = np.empty((len(steps), n), dtype=np.intp)
    for order, (p, q) in zip(orders, steps):
        h = len(p)
        order[0:2 * h:2], order[1:2 * h:2] = p, q
        order[2 * h:] = n * (n - 1) // 2 - p.sum() - q.sum()  # the idle row of odd n
    places = np.argsort(orders, axis=1)  # places[k][label]: the label's row in step k
    gathers = np.take_along_axis(np.roll(places, 1, axis=0), orders, axis=1)
    gathers.flags.writeable = False
    return tuple(gathers)


def _one_sided_sweep(z: np.ndarray, gathers, floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One round-robin sweep of one-sided Jacobi over the rows of each matrix of
    a stack z (N, n, n): the rows, back in their places, and per matrix whether
    any of its pairs was rotated.

    A pair of rows y_p, y_q with |y_p* y_q| > JACOBI_ORTHOGONALITY_TOL ||y_p|| ||y_q||,
    both of norm above their matrix's ``floor``, is rotated so that its 2x2
    Gram matrix becomes diagonal: y_p takes the phase of y_p* y_q, which makes
    that Gram matrix real symmetric, then the classic Schur rotation with
    |t| <= 1, which guarantees convergence of the cyclic sweep,
    [y_p; y_q] <- [[c, -s], [s, c]] [y_p; y_q], one real 2x2 product per pair
    on the float64 view.  The other pairs of a matrix take the identity
    (phase 1, c = 1, s = 0), which keeps their values.  A matrix with no live
    pair in a step is left alone, since the identity would turn its -0.0
    entries into +0.0, so its rows get the same bits whatever else is in the
    stack.  The rotations of a step are written into one array that every step
    of the sweep reuses.
    """
    count, n = z.shape[0], z.shape[-1]
    h = n // 2
    rotated = np.zeros(count, dtype=bool)
    rot = np.empty((count, h, 2, 2))
    floor = floor[:, None]
    for gather in gathers:
        z = z[:, gather]
        pairs = z[:, :2 * h].reshape(count, h, 2, n)
        zp, zq = pairs[:, :, 0], pairs[:, :, 1]
        sq = np.vecdot(pairs, pairs).real
        norms = np.sqrt(sq)
        apq = np.vecdot(zp, zq)
        absa = np.abs(apq)
        n0, n1 = norms[..., 0], norms[..., 1]
        live = (absa > JACOBI_ORTHOGONALITY_TOL * (n0 * n1)) & (np.minimum(n0, n1) > floor)
        hit = live.any(axis=1)
        hits = np.count_nonzero(hit)
        if not hits:
            continue
        rotated |= hit
        absa = np.where(live, absa, np.inf)  # tau = 0 and phase 0 off the live pairs
        tau = (sq[..., 1] - sq[..., 0]) / (2.0 * absa)
        t = np.where(live, np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau)), 0.0)
        c = np.divide(1.0, np.hypot(1.0, t), out=rot[..., 0, 0])
        s = np.multiply(t, c, out=rot[..., 1, 0])
        np.negative(s, out=rot[..., 0, 1])
        rot[..., 1, 1] = c
        phase = np.where(live, apq / absa, 1.0)[..., None]
        f = pairs.view(np.float64)
        if hits == count:
            zp *= phase
            f[...] = rot @ f
        else:
            np.multiply(zp, phase, out=zp, where=hit[:, None, None])
            f[hit] = rot[hit] @ f[hit]
    return z, rotated


def _orthogonalize_rows(z: np.ndarray, first: int, total: int) -> np.ndarray:
    """One-sided Jacobi on the rows of each matrix of a stack z (N, n, n): sweeps
    until a whole sweep rotates no pair of a matrix, which then leaves the
    active set.  Returns z with each row rotated in its place; a matrix whose
    rows are orthogonal from the start comes back unchanged.

    Each matrix has its own floor, JACOBI_ORTHOGONALITY_TOL ||z_k||_F, and
    meets the same steps with the same arithmetic alone and anywhere in any
    stack, so its rows are bit-identical either way.  The stack is matrices
    ``first`` to ``first + N`` of ``total``, which only names the matrix in
    NoConvergence, raised if it still rotates after JACOBI_MAX_SWEEPS sweeps.
    """
    gathers = _pair_gathers(z.shape[-1])
    floor = JACOBI_ORTHOGONALITY_TOL * _norms(z, 2)
    active = np.arange(z.shape[0])
    for _ in range(JACOBI_MAX_SWEEPS + 1):
        z[active], rotated = _one_sided_sweep(z[active], gathers, floor[active])
        active = active[rotated]
        if active.size == 0:
            return z
    raise NoConvergence(f"one-sided Jacobi still rotated after {JACOBI_MAX_SWEEPS} sweeps"
                        f" on matrix {first + int(active[0])} of {total}")


def _one_sided_jacobi(r: np.ndarray, e: int) -> np.ndarray:
    """Ascending eigenvalues of G* G from the scaled factor (R / 2^e, e) of
    ``_scaled_r``, without forming G* G.

    One-sided (Hestenes) Jacobi (``_orthogonalize_rows``, on a stack of one)
    orthogonalizes the columns y_j of Y = R*, held as the rows of
    conj(R), until a whole sweep rotates no pair: every pair then has
    |y_p* y_q| <= tol ||y_p|| ||y_q||, tol = JACOBI_ORTHOGONALITY_TOL, unless
    one of the two has norm at most tol ||R||_F.  Such a y_j is zero to working
    precision (the QR's own rounding is larger) and is never rotated: pairing
    it with a parallel y_q would only shrink it by eps a sweep, never below
    the relative test.  Since Y = U Sigma W*,
    G* G = Y Y* = U Sigma^2 U*, so lambda_j = ||y_j||^2 with no rotation
    accumulated.  The test is relative to each pair, so small
    eigenvalues come out to relative accuracy set by G, not by cond(G* G)
    (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992); the QR first
    makes the sweeps act on n x n, and R* converges in fewer sweeps than G
    (Drmac & Veselic, SIAM J. Matrix Anal. Appl. 29(4), 2008).

    The eigenvalues come back ascending and read-only, float64 of shape (n,).
    G of rank below n leaves y_j that are zero or at most tol ||G||_F, so
    lambda_j at most tol^2 ||G||_F^2.  NoConvergence if a sweep still rotates
    after JACOBI_MAX_SWEEPS sweeps.
    """
    z = _orthogonalize_rows(np.conj(r)[None], 0, 1)[0]
    vals = np.ldexp(np.sort(np.vecdot(z, z).real), 2 * e)
    vals.flags.writeable = False
    return vals


def psd_sqrt(a) -> np.ndarray:
    """Unique positive semidefinite square root of a Hermitian PSD matrix,
    U diag(sqrt(lambda)) U*, hermitized.

    Eigenvalues in [-tol_psd, 0) are clamped to zero before the root, where
    tol_psd = TOL_PSD_REL * (1 + ||A||_F); anything below -tol_psd raises NotPsd.
    """
    m = as_matrix(a)
    eig = hermitian_eigen(m)
    tol_psd = _psd_tolerance(m)
    lo = float(eig.eigenvalues[0]) if eig.eigenvalues.size else 0.0
    if lo < -tol_psd:
        raise NotPsd(f"minimum eigenvalue {lo:.3e} is below -{tol_psd:.3e}")
    vals, u = eig.eigenvalues, eig.eigenvectors
    return hermitize((u * np.sqrt(np.where(vals < 0.0, 0.0, vals))) @ adjoint(u))


def _scaled_tolerance(rel, norm):
    """A tolerance relative to a norm, rel * (1 + norm): absolute near zero."""
    return rel * (1.0 + norm)


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = eps / 2 the unit roundoff: the
    relative error bound of k roundings (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1); a float for an integer k, an array of
    them for an integer array."""
    u = np.finfo(np.float64).eps / 2.0
    gamma = k * u / (1.0 - k * u)
    return float(gamma) if np.ndim(gamma) == 0 else gamma


def _psd_tolerance(a: np.ndarray):
    """How far below zero an eigenvalue or probability of a PSD A (of each in a stack) may round."""
    return _scaled_tolerance(TOL_PSD_REL, _norms(a, 2))


def _shifted_positive_definite(a: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per-matrix verdicts "the Hermitian part of a[k] plus shift[k] I is positive
    definite" for a stack (N, n, n), from a stacked Cholesky factorization.

    Step j takes the pivot d_j of every matrix's Schur complement and, where it
    is positive, its column l = h[j+1:, j] / sqrt(d_j) and the rank-1 update
    h[j+1:, j+1:] -= l l*, vectorized over the stack.  A matrix fails at its
    first pivot that is not positive, or as soon as some |l_k|^2 would exceed
    h_kk, which drives the pivot at k negative; a failed matrix's columns are
    zeroed from then on.  So every l kept is bounded by its sqrt(h_kk), every
    update by the diagonal, and no step divides by zero or overflows: inputs
    whose Frobenius norms have finite squares raise no RuntimeWarning.

    A PASS holds in floating point.  Cholesky run to completion on a Hermitian
    A gives R with R* R = A + dA, |dA| <= gamma_{n+1} |R*| |R| entrywise, and
    || |R*| |R| ||_2 <= n ||A||_2, so ||dA||_2 <= n gamma_{n+1} ||A||_2, with
    gamma_k = k u / (1 - k u), u = eps / 2 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 10, Thm 10.3; complex arithmetic raises
    the constant by a small factor).  Positive pivots make R* R positive
    definite, so the Hermitian part H of a[k] lies within n gamma_{n+1}
    (||H||_2 + shift) of a matrix with lambda_min > -shift; forming H and
    adding the shift cost one rounding each.  With the PSD tolerance
    shift = 1e-10 (1 + ||H||_F), n gamma_{n+1} <= 1.9e-12 makes that margin at
    most 2% of the shift for n <= 128 and 0.03% for n <= 16, and the bound is
    a worst case that grows like n^2 u where typical errors grow like
    sqrt(n) u.  So a PASS means lambda_min(H) >= -shift up to that margin, the
    reading of a Jacobi eigenvalue test; a FAIL likewise means
    lambda_min(H) <= -shift up to it.

    The stack is factored a slice at a time (``_chunks``), so the Hermitian
    copy and the rank-1 update are slice-sized, not stack-sized.  Each verdict
    is taken on its own matrix alone, so the slicing changes none.
    """
    count, n = a.shape[0], a.shape[-1]
    diag = np.arange(n)
    ok = np.ones(count, dtype=bool)
    for part in _chunks(count, n):
        h = hermitize(a[part])
        h[:, diag, diag] += shift[part, None]
        good = ok[part]  # a view: this slice's verdicts
        for j in range(n):
            pivot = h[:, j, j].real
            good &= pivot > 0.0
            root = np.sqrt(np.where(good, pivot, 1.0))
            col = h[:, j + 1:, j]
            rest = h[:, diag[j + 1:], diag[j + 1:]].real
            good &= (np.abs(col) <= root[:, None] * np.sqrt(np.maximum(rest, 0.0))).all(axis=1)
            col = np.where(good[:, None], col, 0.0) / root[:, None]
            h[:, j + 1:, j + 1:] -= col[:, :, None] * np.conj(col[:, None, :])
    return ok


def _positive_definite_where(a: np.ndarray, shift: np.ndarray, todo: np.ndarray) -> np.ndarray:
    """``_shifted_positive_definite``'s verdicts on the matrices of the stack ``a``
    where ``todo`` is true, False elsewhere: one call on those matrices, none if
    there are none, and the whole stack with no copy if all are.  Each verdict
    is taken on its own matrix alone, so it is the one a call on all would give."""
    verdicts = np.zeros(len(todo), dtype=bool)
    if todo.any():
        some = slice(None) if todo.all() else todo
        verdicts[some] = _shifted_positive_definite(a[some], shift[some])
    return verdicts


def _admission(a: np.ndarray, slack: np.ndarray | None = None, hermitized: bool = False
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one admission rule of a stack (N, n, n) of operators that must be
    Hermitian PSD (POVM elements, densities): their Hermiticity residuals
    (``hermitian_residual``), their PSD verdicts and the certified slack of
    each PASS, a read-only array that is inf elsewhere.

    A stack ``hermitized`` by its maker (``hermitize``'s output, kept as it
    is) has residuals 0.0 with no pass over it: entry (j, i) of (A + A*) / 2
    is (a_ji + conj(a_ij)) / 2 and entry (i, j) is (a_ij + conj(a_ji)) / 2, so
    one is the conjugate of the other bit for bit (conjugation commutes exactly
    with a sum and with halving), and the pass would compute 0.0.

    The verdict is "lambda_min(H_t) >= -tol_psd,t", H_t the Hermitian part of
    a[t] and tol_psd,t = TOL_PSD_REL (1 + ||a_t||_F), read as
    ``_shifted_positive_definite`` reads it: up to its margin.  A matrix whose
    ``slack`` sigma_t >= max(0, -lambda_min(H_t)), proven from how the stack
    was formed, is at most tol_psd,t passes with no factorization and keeps
    that slack.  The rest go to one stacked call at the strict shift
    s_t = TOL_PSD_REL ||a_t||_F, tol_psd,t without its absolute term.
    s_t < tol_psd,t, so a PASS there is a PASS at tol_psd,t, and it certifies

        sigma_t = s_t + n gamma_{2n+12} (||a_t||_F + s_t),

    the kernel's margin with its complex arithmetic spelled out.  Cholesky on
    the computed K = hermitize(a_t) + s_t I runs at most n complex
    multiply-subtracts, a division by a real and a root per entry; a complex
    product errs by at most sqrt(2) gamma_2 <= gamma_3 relative, a complex sum
    or a division by a real by u.  So positive pivots give R with
    R* R = K + dK, R* R positive definite and |dK| <= gamma_{n+4} |R*| |R|
    entrywise (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 10.3, whose proof these factors carry over to).  Then
    ||dK||_2 <= gamma_{n+4} ||R||_F^2 and ||R||_F^2 = tr(R* R) <=
    tr(K) / (1 - gamma_{n+4}) <= n (||H_t||_F + s_t) (1 + u) / (1 - gamma_{n+4}).
    Forming K costs one rounding per entry, at most u (||a_t||_F + sqrt(n) s_t)
    in 2-norm, and ||H_t||_F <= ||a_t||_F.  Those terms sum to less than
    n gamma_{2n+11} (||a_t||_F + s_t), and gamma_{2n+12} covers the rounding
    of the computed ||a_t||_F and of sigma_t itself.
    A matrix that fails at s_t is factored again at tol_psd,t, so its
    verdict is the one a single call at tol_psd,t gives.  A stack with no
    slack thus costs one factorization unless some matrix fails at s_t.
    """
    norms = _norms(a, 2)
    tol = _scaled_tolerance(TOL_PSD_REL, norms)
    own = np.full(len(norms), np.inf) if slack is None else slack
    certified = own <= tol
    strict = TOL_PSD_REL * norms
    strict_pass = _positive_definite_where(a, strict, ~certified)
    n = a.shape[-1]
    margin = strict + n * _gamma(2 * n + 12) * (norms + strict)
    kept = np.where(certified, own, np.where(strict_pass, margin, np.inf))
    kept.flags.writeable = False
    passed = certified | strict_pass
    psd = passed | _positive_definite_where(a, tol, ~passed)
    residuals = np.zeros(len(a)) if hermitized else hermitian_residual(a)
    return residuals, psd, kept


def _pivoted_cholesky_rows(a) -> tuple[np.ndarray, list, np.ndarray]:
    """Minimal factors of a stack (N, n, n) of Hermitian PSD matrices Q: the rows
    T (k_t, n) of every matrix, T* T = Q up to the dropped Schur complement, as
    one read-only (sum k_t, n) array, matrix t's k_t rows after those of the
    matrices before it; the heights k_t, a list; and each dropped complement's
    Frobenius norm, read-only.  No eigen work.

    Outer-product Cholesky with diagonal pivoting (LAPACK xPSTRF; Higham,
    "Analysis of the Cholesky decomposition of a semi-definite matrix", 1990),
    vectorized over the stack as ``_shifted_positive_definite`` is.  Step j takes
    the largest remaining diagonal entry d_p of each matrix's Schur complement
    S (S = H, the Hermitian part of Q, at the start), its column
    v = S[:, p] / sqrt(d_p) as row j of T, conj(v), and the update S -= v v*,
    after which row and column p of S are set to zero, as they are in exact
    arithmetic.  So T = (P L)* for the pivoted factor P^T Q P = L L*.  A matrix
    stops at its first step whose largest remaining diagonal is at most
    TOL_PIVOT_REL max(n, PIVOT_FLOOR_N) max_i H_ii, and keeps k, its numerical
    rank, rows; a zero matrix keeps none.  The norm returned is that of the
    computed complement left then, which needs no PSD argument: a density
    admitted at lambda_min >= -tol_psd may leave an indefinite complement with
    small diagonal.  Each matrix has the same bits alone and anywhere in a
    stack.
    """
    h = hermitize(a)
    count, n = h.shape[0], h.shape[-1]
    diag = np.arange(n)
    d = h[:, diag, diag].real
    stop = TOL_PIVOT_REL * max(n, PIVOT_FLOOR_N) * np.max(d, axis=1, initial=0.0)
    rows = np.zeros((count, n, n), dtype=np.complex128)
    ranks = np.full(count, n)
    dropped = np.zeros(count)
    live = np.arange(count)  # the matrices still factoring, h holds theirs
    for j in range(n):
        p, top = np.argmax(d, axis=1), np.max(d, axis=1)
        going = top > stop[live]
        if not going.all():
            done = live[~going]
            ranks[done], dropped[done] = j, _norms(h[~going], 2)
            live, h, p, top = live[going], h[going], p[going], top[going]
            if live.size == 0:
                break
        at = np.arange(len(live))
        v = h[at, :, p] / np.sqrt(top)[:, None]
        rows[live, j] = np.conj(v)
        h -= v[:, :, None] * np.conj(v[:, None, :])
        h[at, p, :] = 0.0
        h[at, :, p] = 0.0
        d = h[:, diag, diag].real
    kept = rows[diag < ranks[:, None]]
    kept.flags.writeable = dropped.flags.writeable = False
    return kept, ranks.tolist(), dropped


def _check_magnitude(a: np.ndarray, what: str, weights=None) -> None:
    """LimitExceeded unless a bound on the Frobenius norm of every matrix the
    operand forms squares to a finite double: the eigen and PSD tests square
    such norms, and past sqrt(max double) they would pass on inf.

    For a stack (N, n, n) the bound is sum_t ||a[t]||_F, over every sum of its
    matrices, and with ``weights`` mu also sum_t mu_t ||a[t]||_F, over every
    weighted sum (a decomposition's reintegration); for a frame's rows B (R, n)
    with ``weights`` w it is sum_r w_r ||B[r]||^2, over S = B* diag(w) B.  One
    stacked reduction each.
    """
    with np.errstate(over="ignore"):  # an overflow here is what the check looks for
        if a.ndim == 3:
            norms = _norms(a, 2)
            bound = float(norms.sum())
            if weights is not None:
                bound = max(bound, float(np.add.reduce(weights * norms)))
        else:
            bound = float(np.add.reduce(weights * _squares(a, 1)))
    if not np.isfinite(bound * bound):
        raise LimitExceeded(f"{what} are too large: their Frobenius norm bound {bound:.3e} "
                            f"does not square to a finite double")


def _as_stack(items, shape: tuple[int, ...], what: str, copy: bool = True) -> np.ndarray:
    """Read-only complex128 array of exactly ``shape`` from a sequence of equal-shaped
    entries; a copy unless ``copy`` is false and ``items`` already is a C-contiguous
    complex128 array, which is then made read-only in place.  DimensionMismatch for
    any other shape (numpy's ValueError for ragged entries), ValueError for NaN or Inf."""
    a = np.array(items, dtype=np.complex128, order="C", copy=copy or None)
    if a.size == 0 and shape[0] == 0:
        a = a.reshape(shape)
    if a.shape != shape:
        raise DimensionMismatch(f"{what} have shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contain NaN or Inf entries")
    a.flags.writeable = False
    return a


def _running_sum(a: np.ndarray) -> np.ndarray:
    """Sum of a complex stack over its first axis, bit for bit ``out = 0; for x in a:
    out += x``.  numpy sums in order unless every other axis has length 1, when
    it pairs terms up; the float64 view (re, im side by side) never has that."""
    parts = np.ascontiguousarray(a).view(np.float64)
    return np.add.reduce(parts, axis=0, initial=0.0).view(a.dtype)


# --- JSON encoding -----------------------------------------------------------
#
# An array is one JSON string: the RFC 4648 base64 (standard alphabet, padded,
# no line breaks) of its row-major entries as little-endian IEEE-754 float64,
# real part then imaginary part, i.e. the bytes of np.ascontiguousarray(a,
# dtype="<c16").  The byte order is fixed, so a seed gives the same file on any
# platform.  Readers also take an array as a list of [re, im] pairs of JSON
# numbers, the layout of hand-written inputs.
# Matrix: {"rows": n, "cols": m, "data": array} with data row-major;
# n may be 0 (a frame block of a zero density has no rows), m may not.
# Vector: {"dim": n, "entries": array}.
#
# A per-atom family (POVM elements, densities, frame blocks, coefficient
# segments, the vectors of a vector frame) is a stack of rows of one width,
# atom t's heights[t] of them (n rows of n per element or density, k_t rows of
# n per block, k_t rows of 1 per segment, one row of n per vector), written as
# one array of the whole stack.  Readers also take the per-atom list of older
# files, one matrix or array of whole rows per atom.  ``_decode_family`` reads
# both to the same rows and heights and is the one reader of a family's JSON
# type, so each loader has one construction path.


class _Base64(str):
    """The base64 text of an array, from ``_encode_array``: JSON writes it as it
    is, between quotes, as no character of it needs escaping."""

    __slots__ = ()


def _encode_array(a: np.ndarray) -> _Base64:
    """Base64 of a complex array's row-major entries as little-endian complex128;
    LimitExceeded for a NaN or an infinity, which no JSON data file holds."""
    le = np.ascontiguousarray(a, dtype="<c16")
    if not np.isfinite(le).all():
        raise LimitExceeded("a NaN or Inf entry cannot be written to a data file")
    return _Base64(base64.b64encode(le), "ascii")


def _decode_array(value, what: str) -> np.ndarray:
    """1-D complex128 array of finite entries from a base64 string (see above) or
    a list of [re, im] pairs of numbers; ParseError for anything else, a number
    too large for a double included."""
    if isinstance(value, str):
        try:
            raw = binascii.a2b_base64(value, strict_mode=True)  # reads the str in place
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise ParseError(f"{what} is not padded standard base64: {exc}") from exc
        if len(raw) % 16:
            raise ParseError(f"{what} hold {len(raw)} bytes, not a whole number of "
                             "16-byte complex entries")
        # a read-only view of the decoded bytes where the host is little-endian
        v = np.frombuffer(raw, dtype="<c16").astype(np.complex128, copy=False)
    elif isinstance(value, list):
        try:
            v = np.array([complex(re, im) for re, im in value], dtype=np.complex128)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{what} entries must be [re, im] pairs of numbers: {exc}") from exc
    else:
        raise ParseError(f"{what} must be a base64 string or a list of [re, im] pairs")
    if not np.isfinite(v).all():
        raise ParseError(f"{what} hold NaN or Inf")
    return v


def _shaped(flat: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``flat`` as an array of a non-negative ``shape``; its entry count is checked
    against the shape before the reshape, so nothing is allocated at a size the
    file merely claims."""
    if flat.shape[0] != math.prod(shape):
        raise ParseError(f"{what} hold {flat.shape[0]} entries, not the "
                         f"{' x '.join(map(str, shape))} their fields give")
    try:
        return flat.reshape(shape)
    except ValueError as exc:  # an empty array with an extent numpy cannot index
        raise ParseError(f"{what} cannot have the shape {shape}: {exc}") from exc


def _whole_rows(flat: np.ndarray, cols: int, what: str) -> int:
    """How many rows of ``cols`` entries ``flat`` holds; ParseError unless whole."""
    if flat.shape[0] % cols:
        raise ParseError(f"{what} hold {flat.shape[0]} entries, not whole rows of {cols}")
    return flat.shape[0] // cols


def _item_rows(item, cols: int, what: str) -> np.ndarray:
    """The rows of one atom of a per-atom list: a matrix of ``cols`` columns, or an
    array of whole rows of ``cols`` entries."""
    if isinstance(item, dict):
        m = matrix_from_json(item)
        if m.shape[1] != cols:
            raise ParseError(f"{what} hold a matrix of {m.shape[1]} columns, not {cols}")
        return m
    flat = _decode_array(item, what)
    return flat.reshape(_whole_rows(flat, cols, what), cols)


def _decode_family(value, what: str, cols: int, atoms: int | None = None,
                   heights: list | None = None) -> tuple[np.ndarray, list]:
    """(rows, heights) of a per-atom family in either layout (see above): its rows
    as one (sum heights) x cols array, and each atom's count of them.

    ``heights`` are those the file gives or its other fields imply (dim_h for
    each element of a POVM), if any; with ``atoms`` None, each atom is one row,
    as many as the data holds (the vectors of a vector frame).  A string is
    decoded in one _decode_array call with no per-atom work, and needs heights
    unless each atom is a row.  A list's items give their own heights, which
    must be any given.
    """
    if cols <= 0:
        raise ParseError(f"{what} cannot have rows of {cols} entries")
    if isinstance(value, str):
        flat = _decode_array(value, what)
        if atoms is None:
            heights = [1] * _whole_rows(flat, cols, what)
    elif isinstance(value, list):
        items = [_item_rows(item, cols, what) for item in value]
        found = [len(m) for m in items]
        if heights is None:
            heights = found if atoms is not None else [1] * len(found)
        if found != heights:
            raise ParseError(f"{what} hold {found} rows per atom, not the heights {heights}")
        flat = (np.concatenate([m.reshape(-1) for m in items]) if items
                else np.zeros(0, np.complex128))
    else:
        raise ParseError(f"{what} must be a base64 string or a list")
    if heights is None:
        raise ParseError(f"{what} in one string need the file's heights")
    if atoms is not None and len(heights) != atoms:
        raise ParseError(f"{what}: {atoms} atoms but {len(heights)} heights")
    return _shaped(flat, (sum(heights), cols), what), heights


# Fields whose JSON value must be an integer; bool is a subclass of int, so not isinstance.
_INTEGER_FIELDS = ("dim_h", "rows", "cols", "dim")


def _require(obj: dict, key: str, kind: str):
    """Field ``key`` of a ``kind`` JSON object; every loader reads its fields through
    here.  atoms must be a list of strings, weights a list of JSON numbers,
    heights a list of non-negative integers, and dim_h, rows, cols and dim
    integers: none is coerced, and a bool or a string is no number."""
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{kind} JSON is missing field {key!r}")
    value = obj[key]
    if key == "atoms" and not (isinstance(value, list) and all(isinstance(a, str) for a in value)):
        raise ParseError(f"{kind} atoms must be a list of strings")
    if key == "weights" and not (isinstance(value, list)
                                 and all(type(w) in (int, float) for w in value)):
        raise ParseError(f"{kind} weights must be a list of numbers")
    if key == "heights" and not (isinstance(value, list)
                                 and all(type(k) is int and k >= 0 for k in value)):
        raise ParseError(f"{kind} heights must be a list of non-negative integers")
    if key in _INTEGER_FIELDS and type(value) is not int:
        raise ParseError(f"{kind} {key} must be an integer, got {value!r}")
    return value


def matrix_from_json(obj) -> np.ndarray:
    rows, cols, data = (_require(obj, key, "matrix") for key in ("rows", "cols", "data"))
    if rows < 0 or cols <= 0:
        raise ParseError(f"matrix needs rows >= 0 and cols > 0, got {rows}x{cols}")
    return _shaped(_decode_array(data, "matrix data"), (rows, cols), "matrix data")


def vector_to_json(x: np.ndarray) -> dict:
    v = as_vector(x)
    return {"dim": int(v.shape[0]), "entries": _encode_array(v)}


def vector_from_json(obj) -> np.ndarray:
    dim, entries = _require(obj, "dim", "vector"), _require(obj, "entries", "vector")
    return _shaped(_decode_array(entries, "vector entries"), (dim,), "vector entries")
