"""Frames over finite atomic measure spaces.

An operator-valued frame stores one block T(t) per atom, mapping C^n into
C^{k_t}, together with the atom weights mu({t}).  Vector frames, g-frames,
and quadrature-discretized continuous frames are all represented this way:
a vector frame contributes 1 x n blocks with unit weights.

Atom order is canonical: every per-atom family (blocks, weights, coefficient
segments) is one array lined up with ``space.atoms``, never reordered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    EmptyFrame,
    InvalidBounds,
    LimitExceeded,
    NotAFrame,
    ParseError,
    SpaceMismatch,
    UnknownAtom,
)


@dataclass(frozen=True, eq=False)
class AtomicMeasureSpace:
    """Finite set of labeled atoms with strictly positive weights.

    The sigma-algebra is the full power set; mu(E) is the sum of the member
    atoms' weights.
    """

    atoms: tuple[str, ...]
    weights: np.ndarray  # float64, one strictly positive weight per atom
    _index: dict = field(repr=False, compare=False)  # label -> position

    def __init__(self, atoms: Sequence[str], weights):
        object.__setattr__(self, "atoms", tuple(str(a) for a in atoms))
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != len(self.atoms):
            raise DimensionMismatch(
                f"{len(self.atoms)} atoms but {w.shape} weights"
            )
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "_index", _label_index(self.atoms))
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AtomicMeasureSpace)
            and self.atoms == other.atoms
            and np.array_equal(self.weights, other.weights)
        )

    def __len__(self) -> int:
        return len(self.atoms)

    def index(self, label: str) -> int:
        return _position(self._index, label)

    def weight(self, label: str) -> float:
        return float(self.weights[self.index(label)])

    def mu(self, labels: Sequence[str]) -> float:
        """Measure of an event given by its member atom labels."""
        return float(np.sum(self.weights[_event_mask(self._index, labels)]))


def _label_index(atoms: tuple[str, ...]) -> dict:
    """{label: position}; ValueError on a repeated label."""
    index = {a: t for t, a in enumerate(atoms)}
    if len(index) != len(atoms):
        raise ValueError("atom labels must be unique")
    return index


def _position(index: dict, label: str) -> int:
    try:
        return index[label]
    except KeyError:
        raise UnknownAtom(f"no atom labeled {label!r}") from None


def _event_mask(index: dict, event) -> np.ndarray:
    """Boolean mask over the atoms, in canonical order, of the labels an event
    names (repeats collapse); UnknownAtom if it names a label outside ``index``."""
    members = set(event)
    mask = np.zeros(len(index), dtype=bool)
    try:
        mask[[index[a] for a in members]] = True
    except KeyError:
        unknown = sorted(members.difference(index))
        raise UnknownAtom(f"event references unknown atoms: {unknown}") from None
    return mask


def _views(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """The views flat[offsets[t]:offsets[t + 1]] of a read-only ``flat``, one per atom."""
    return tuple(flat[lo:hi] for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()))


@dataclass(frozen=True, eq=False)
class FrameBounds:
    """Optimal constants of the two-sided frame inequality."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper) or not np.isfinite(self.upper):
            raise InvalidBounds(f"need 0 < lower <= upper, got ({self.lower}, {self.upper})")

    @property
    def is_tight(self) -> bool:
        """True when the bounds agree to near machine precision.

        Computed spectra never collide bitwise, so tightness is a relative
        gap of at most linalg.TOL_TIGHT_REL.
        """
        return self.upper - self.lower <= linalg.TOL_TIGHT_REL * self.upper


@dataclass(frozen=True, eq=False)
class OperatorValuedFrame:
    """Measure space plus one block T(t): C^n -> C^{k_t} per atom.

    The rows of all blocks form one read-only array B (``_rows``, atom t's from
    ``_offsets[t]``, row weights ``_row_weights``); ``blocks``, the per-atom views
    into B, are cut on first read and cached; construction cuts none.
    Construction keeps the n x n upper-triangular R of a Householder QR of the
    weighted rows G = diag(sqrt(w)) B, so R* R = S = sum_t mu({t}) T(t)* T(t),
    scaled by 2^-e (``_factor``, with ``_factor_exponent`` e; see
    ``linalg._scaled_r``), and its inverse (``_factor_inverse``).  S = B* diag(w) B
    itself is formed only for its products, on first read (``_operator``).

    It checks the frame property, S positive definite beyond linalg.TOL_FRAME_REL,
    from the factor: lambda_max / lambda_min = cond(R)^2 <= ||R||_F^2 ||R^-1||_F^2,
    a scale-invariant bound taken on the scaled R.  When it clears
    1 / TOL_FRAME_REL by linalg._CERTIFICATE_MARGIN the family is a frame and nothing
    is diagonalized.  Otherwise (a singular R and a non-finite R^-1 included)
    the eigenvalues decide at once, and NotAFrame is raised unless they pass.
    A family with fewer rows than dim_h has an S of rank below n, and is refused
    before any factor.  ``_condition`` keeps a bound on lambda_max / lambda_min:
    _CERTIFICATE_MARGIN ||R||_F^2 ||R^-1||_F^2 when the certificate cleared, else
    upper / lower times the sweeps' derived allowance (``_swept_condition``).  So
    TOL_FRAME_REL * _condition < 1 unless the eigenvalues accepted the family
    within that allowance of the threshold.
    The eigenpairs (``_eigen``) and the bounds A and B (``_bounds``) are cached:
    one-sided Jacobi on the kept R (``linalg._one_sided_jacobi``) runs on their
    first read and never again, for several frames at once in ``_diagonalize``.
    They never form G* G, so A keeps its relative accuracy when cond(S) is large.
    """

    space: AtomicMeasureSpace
    dim_h: int
    _rows: np.ndarray = field(repr=False, compare=False)
    _row_weights: np.ndarray = field(repr=False, compare=False)
    _offsets: np.ndarray = field(repr=False, compare=False)
    _factor: np.ndarray = field(repr=False, compare=False)
    _factor_exponent: int = field(repr=False, compare=False)
    _factor_inverse: np.ndarray = field(repr=False, compare=False)
    _condition: float = field(repr=False, compare=False)

    def __init__(self, space: AtomicMeasureSpace, dim_h: int, blocks):
        heights = [len(b) for b in blocks]
        rows = np.concatenate(blocks) if heights else np.zeros((0, max(dim_h, 0)))
        self._fill(space, dim_h, rows, heights)

    def _fill(self, space: AtomicMeasureSpace, dim_h: int, rows, heights: list) -> None:
        """Set the fields from the stacked rows of all blocks, atom t's ``heights[t]``
        of them, then factor and certify; ``ovf_from_json`` builds a frame through
        this directly, from the one array a file holds."""
        if dim_h <= 0:
            raise DimensionMismatch(f"dim_h must be positive, got {dim_h}")
        if len(heights) != len(space):
            raise DimensionMismatch(f"{len(space)} atoms but {len(heights)} blocks")
        rows = linalg._as_finite(rows, (2,), "a 2-D matrix", "matrix", copy=False)
        if rows.shape[1] != dim_h:
            raise DimensionMismatch(f"blocks have {rows.shape[1]} columns, expected {dim_h}")
        if rows.shape[0] < dim_h:
            raise NotAFrame(f"{rows.shape[0]} block rows cannot span C^{dim_h}")
        offsets = np.cumsum([0] + heights)
        row_weights = np.repeat(space.weights, heights)
        linalg._check_magnitude(rows, "frame blocks", row_weights)
        rows.flags.writeable = False
        row_weights.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "dim_h", int(dim_h))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_row_weights", row_weights)
        object.__setattr__(self, "_offsets", offsets)

        r, e = linalg._scaled_r(rows, np.sqrt(row_weights))
        r_inv = linalg._triangular_inverse(r)
        object.__setattr__(self, "_factor", r)
        object.__setattr__(self, "_factor_exponent", e)
        object.__setattr__(self, "_factor_inverse", r_inv)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bound fails the test
            bound = float(linalg._norms(r)) ** 2 * float(linalg._norms(r_inv)) ** 2
            condition = bound * linalg._CERTIFICATE_MARGIN
        if not condition < 1.0 / linalg.TOL_FRAME_REL:
            b = frame_bounds(self)  # the eigenvalues decide: NotAFrame unless S > 0
            condition = _swept_condition(b, len(rows), dim_h)
        object.__setattr__(self, "_condition", condition)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The blocks T(t) in atom order, read-only views into B cut on first read."""
        return _views(self._rows, self._offsets)

    @cached_property
    def _operator(self) -> np.ndarray:
        """S = B* diag(w) B, hermitized and read-only, formed on first read."""
        s = linalg.hermitize(linalg.adjoint(self._rows) @ (self._row_weights[:, None] * self._rows))
        s.flags.writeable = False
        return s

    @property
    def _eigen(self) -> linalg.EigenDecomposition:
        """Eigenpairs of S, from one-sided Jacobi on the kept R on first read (``_diagonalize``)."""
        return _diagonalize(self)[0]

    @cached_property
    def _bounds(self) -> FrameBounds:
        """Frame bounds from the eigenvalues of S; NotAFrame unless S > 0."""
        return _bounds_of(self._eigen.eigenvalues)

    def block(self, label: str) -> np.ndarray:
        return self.blocks[self.space.index(label)]


@dataclass(frozen=True, eq=False)
class VectorFrame:
    """Plain frame: a finite family of vectors in C^n, one per row of ``vectors``."""

    dim_h: int
    vectors: np.ndarray  # complex128, read-only, shape (count, dim_h)

    def __init__(self, dim_h: int, vectors):
        if dim_h <= 0:
            raise DimensionMismatch(f"dim_h must be positive, got {dim_h}")
        vectors = linalg._as_stack(vectors, (len(vectors), dim_h), "vectors")
        object.__setattr__(self, "dim_h", int(dim_h))
        object.__setattr__(self, "vectors", vectors)


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Per-atom coefficient segments, one vector of length k_t per atom, held as
    one flat read-only vector (``_values``, atom t's from ``_offsets[t]``).
    ``segments``, its per-atom views, are cut on first read and cached: ``analysis``
    and ``coefficients_from_json`` cut none."""

    space: AtomicMeasureSpace
    _values: np.ndarray = field(repr=False, compare=False)
    _offsets: np.ndarray = field(repr=False, compare=False)

    def __init__(self, space: AtomicMeasureSpace, segments):
        lengths = [len(c) for c in segments]
        if len(lengths) != len(space):
            raise DimensionMismatch(f"{len(space)} atoms but {len(lengths)} segments")
        values = linalg.as_vector(np.concatenate(segments) if lengths else [])
        self._fill(space, values, np.cumsum([0] + lengths))

    def _fill(self, space: AtomicMeasureSpace, values: np.ndarray, offsets: np.ndarray) -> None:
        """Set the fields from a checked flat complex128 vector, atom t's from
        ``offsets[t]``, made read-only without a copy; ``analysis`` and
        ``coefficients_from_json`` build a field through this directly."""
        values.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_offsets", offsets)

    @cached_property
    def segments(self) -> tuple[np.ndarray, ...]:
        """The segments c_t in atom order, read-only views into the flat vector cut
        on first read."""
        return _views(self._values, self._offsets)

    def weighted_norm_sq(self) -> float:
        """sum_t mu({t}) ||c_t||^2."""
        row_weights = np.repeat(self.space.weights, np.diff(self._offsets))
        return float(row_weights @ (np.abs(self._values) ** 2))


def _diagonalize(*ovfs: OperatorValuedFrame) -> tuple[linalg.EigenDecomposition, ...]:
    """The eigenpairs of each frame's S, cached on the frame (``_eigen``): the
    frames of one dim_h with none cached yet take them from one
    ``linalg._one_sided_jacobi`` call on the stack of their kept factors, which
    gives each frame the bits of a lone call."""
    todo = [f for f in ovfs if "_eigen" not in vars(f)]
    if todo:
        eig = linalg._one_sided_jacobi(np.array([f._factor for f in todo]),
                                       np.array([f._factor_exponent for f in todo]))
        for f, vals, vecs in zip(todo, eig.eigenvalues, eig.eigenvectors):
            vars(f)["_eigen"] = linalg.EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)
    return tuple(vars(f)["_eigen"] for f in ovfs)


def _swept_condition(b: FrameBounds, m: int, n: int) -> float:
    """A bound on lambda_max / lambda_min of S = B* diag(w) B, exact for a frame's
    double rows and weights, from the bounds b the sweeps gave on the kept R of
    its m x n rows: (upper / lower) (1 + 8 eps) (1 + 3 nu), or inf where eps
    exceeds 1/8.

    The sweeps return the squared row norms of Y', one-sided Jacobi's last iterate
    from Y = R*.  With G = diag(sqrt(w)) B and gamma_k = linalg._gamma(k), three
    normwise perturbations, each up to a unitary factor that moves no singular
    value, take G to Y':
      * forming G: fl(sqrt(w)) and the product, gamma_2 ||G||_F;
      * the Householder QR: gamma_{16 m n} ||G||_F (Higham, Accuracy and
        Stability of Numerical Algorithms, 2nd ed., Theorem 19.4, whose constant
        is taken as 16 for complex arithmetic and the compact-WY products).
        It covers both paths of ``linalg._scaled_r``: each takes every
        reflector from ``linalg._reflector``, and applies it either one
        column at a time, as in the theorem's own algorithm (inside a flat
        panel), or within a compact-WY product (the flat path's trailing
        updates, every join of the recursion), which that constant was taken for;
      * the sweeps: each rotation moves its two rows by a few roundings of their
        norm, and a row meets n - 1 rotations a sweep for at most
        JACOBI_MAX_SWEEPS + 1 sweeps, gamma_{8 (JACOBI_MAX_SWEEPS + 1) n} ||G||_F
        (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992, section 4).
    By Weyl's inequality for singular values each sigma_i moves by at most
    tau ||G||_F, tau their sum, so by at most eps = tau kappa relative to
    sigma_min, with kappa^2 = ||G||_F^2 / lambda_min <= n lambda_max / lambda_min
    <= 2 n upper / lower while eps <= 1/8.  At the end every pair of rows is
    orthogonal to JACOBI_ORTHOGONALITY_TOL relative, so Y' Y'* = D (I + E) D with
    ||E||_2 <= (n - 1) JACOBI_ORTHOGONALITY_TOL, whose eigenvalues lie within that
    relative distance of the squared row norms D^2 (Demmel & Veselic), each summed
    in 2 n + 1 roundings; nu adds those, and the 3 roundings of this product, as
    gamma_{2n+4}.  So lambda_max / lambda_min <= (upper / lower)
    ((1 + eps) / (1 - eps))^2 (1 + nu) / (1 - nu), and for eps <= 1/8 and
    nu <= 1/3 the two factors are at most 1 + 8 eps and 1 + 3 nu."""
    sweeps = linalg.JACOBI_MAX_SWEEPS + 1
    tau = linalg._gamma(2) + linalg._gamma(16 * m * n) + linalg._gamma(8 * sweeps * n)
    ratio = b.upper / b.lower
    eps = tau * (2.0 * n * ratio) ** 0.5
    if not eps <= 0.125:
        return float("inf")
    nu = (n - 1) * linalg.JACOBI_ORTHOGONALITY_TOL + linalg._gamma(2 * n + 4)
    return ratio * (1.0 + 8.0 * eps) * (1.0 + 3.0 * nu)


def _positive_definite(lo: float, hi: float) -> bool:
    """Whether extreme eigenvalues lo <= hi pass the frame test lo > TOL_FRAME_REL * hi > 0."""
    return lo > linalg.TOL_FRAME_REL * hi and hi > 0.0


def _bounds_of(vals: np.ndarray) -> FrameBounds:
    """Frame bounds from the ascending eigenvalues of S; NotAFrame unless S > 0."""
    lo, hi = float(vals[0]), float(vals[-1])
    if not _positive_definite(lo, hi):
        raise NotAFrame(
            f"frame operator is not positive definite: lambda_min={lo:.3e}, lambda_max={hi:.3e}"
        )
    return FrameBounds(lower=lo, upper=hi)


def from_vector_frame(f: VectorFrame) -> OperatorValuedFrame:
    """Express a vector frame as an operator-valued frame.

    Vector x_i becomes the 1 x n block row conj(x_i) (the functional
    <., x_i>), with unit weight on every atom.
    """
    if len(f.vectors) == 0:
        raise EmptyFrame("vector frame has no vectors")
    return discretize_continuous(f.vectors, np.ones(len(f.vectors)))


def discretize_continuous(samples, weights) -> OperatorValuedFrame:
    """Operator-valued frame from a quadrature grid of a continuous frame.

    Each sample x_t contributes the 1 x n block conj(x_t) with weight
    mu({t}) equal to the supplied quadrature weight.
    """
    if len(samples) == 0:
        raise EmptyFrame("no quadrature samples")
    samples = linalg.as_matrix(samples)  # one sample per row
    if len(weights) != len(samples):
        raise DimensionMismatch(f"{len(samples)} samples but {len(weights)} weights")
    count, dim = samples.shape
    space = AtomicMeasureSpace(atoms=[str(i) for i in range(count)], weights=weights)
    return OperatorValuedFrame(space=space, dim_h=dim, blocks=np.conj(samples)[:, None, :])


def analysis(ovf: OperatorValuedFrame, x) -> CoefficientField:
    """Apply every block: segment t = T(t) x, all of them as the one product B x."""
    v = linalg.as_vector(x)
    if v.shape[0] != ovf.dim_h:
        raise DimensionMismatch(f"vector has dim {v.shape[0]}, frame expects {ovf.dim_h}")
    c = object.__new__(CoefficientField)
    c._fill(ovf.space, ovf._rows @ v, ovf._offsets)
    return c


def synthesis(ovf: OperatorValuedFrame, c: CoefficientField) -> np.ndarray:
    """Weighted adjoint sum: sum_t mu({t}) T(t)* c_t = B* (w c)."""
    if c.space != ovf.space:
        raise SpaceMismatch("coefficient field lives over a different measure space")
    if not np.array_equal(c._offsets, ovf._offsets):
        raise DimensionMismatch("segment lengths do not match the block rows")
    return _weighted_adjoint(ovf, c._values)


def _weighted_adjoint(ovf: OperatorValuedFrame, values: np.ndarray) -> np.ndarray:
    """B* (w y) for a flat coefficient vector y lined up with the rows."""
    # B* y as conj(B^T conj(y)): no conjugated copy of B
    return np.conj(ovf._rows.T @ np.conj(ovf._row_weights * values))


def _normal_solve(ovf: OperatorValuedFrame, b: np.ndarray) -> np.ndarray:
    """S^-1 b = R^-1 R^-* b through the kept inverse factor; the two powers 2^-e
    of the scaling are applied one after each product, so the intermediate keeps
    the scale of R^-* b."""
    inv, e = ovf._factor_inverse, ovf._factor_exponent

    def scaled(v):
        return np.ldexp(v.view(np.float64), -e).view(np.complex128)

    return scaled(inv @ scaled(np.conj(inv.T @ np.conj(b))))


def _energy_residual(ovf: OperatorValuedFrame, x: np.ndarray, c: CoefficientField) -> float:
    """|sum_t mu_t ||c_t||^2 - ||R x||^2| / (||R||_F^2 ||x||^2) for coefficients c
    claimed to be the analysis of x: the energy identity ||G x||^2 = ||R x||^2,
    read on the kept factor, so with no eigenpairs.  Both sides and the scale
    are taken on R / 2^e; 0 when the two sides agree exactly (x = 0 included).
    The CLI's analyze check holds it to linalg.TOL_ENERGY_REL; LimitExceeded
    if a side or the scale is not a finite double."""
    r, e = ovf._factor, ovf._factor_exponent
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        energy = float(np.ldexp(c.weighted_norm_sq(), -2 * e))
        rx = r @ x
        diff = abs(energy - float(np.vdot(rx, rx).real))
        scale = float(linalg._norms(r)) ** 2 * float(np.vdot(x, x).real)
    if not (np.isfinite(diff) and np.isfinite(scale)):
        raise LimitExceeded("the energy identity's sides do not square to finite doubles")
    return diff / scale if diff else 0.0


def frame_operator(ovf: OperatorValuedFrame) -> np.ndarray:
    """S = sum_t mu({t}) T(t)* T(t); Hermitian positive definite, formed on the first read."""
    return ovf._operator


def frame_bounds(ovf: OperatorValuedFrame) -> FrameBounds:
    """Extreme eigenvalues of the frame operator, diagonalized on the first read."""
    return ovf._bounds


# --- JSON encoding -----------------------------------------------------------
#
# OVF:         {"atoms": [...], "weights": [...], "dim_h": n, "blocks": stack,
#               "heights": [k_t, ...]}
# VectorFrame: {"dim_h": n, "vectors": stack}
# Coefficients:{"atoms": [...], "weights": [...], "segments": stack, "heights": [k_t, ...]}
# A stack is the rows of all blocks ((sum k_t) x n), the count x n vectors, or
# all segments end to end; linalg's JSON section describes its layouts, and
# linalg._decode_family reads them all.


def _space_from_json(obj, kind: str) -> AtomicMeasureSpace:
    """The measure space of a file's atoms and weights; ParseError unless they make one."""
    atoms, weights = linalg._require(obj, "atoms", kind), linalg._require(obj, "weights", kind)
    try:
        return AtomicMeasureSpace(atoms=atoms, weights=weights)
    except (ValueError, DimensionMismatch, TypeError, OverflowError) as exc:
        raise ParseError(f"bad {kind} measure space: {exc}") from exc


def _given_heights(obj, kind: str):
    """The heights a file gives; None where it gives none, as a per-atom list need not."""
    return linalg._require(obj, "heights", kind) if "heights" in obj else None


def ovf_to_json(ovf: OperatorValuedFrame) -> dict:
    return {
        "atoms": list(ovf.space.atoms),
        "weights": [float(w) for w in ovf.space.weights],
        "dim_h": ovf.dim_h,
        "blocks": linalg._encode_array(ovf._rows),
        "heights": np.diff(ovf._offsets).tolist(),
    }


def ovf_from_json(obj) -> OperatorValuedFrame:
    space = _space_from_json(obj, "OVF")
    dim_h = linalg._require(obj, "dim_h", "OVF")
    rows, heights = linalg._decode_family(linalg._require(obj, "blocks", "OVF"), "OVF blocks",
                                          dim_h, len(space), _given_heights(obj, "OVF"))
    ovf = object.__new__(OperatorValuedFrame)
    ovf._fill(space, dim_h, rows, heights)  # they fit, so it raises NotAFrame or LimitExceeded only
    return ovf


def vector_frame_to_json(f: VectorFrame) -> dict:
    return {
        "dim_h": f.dim_h,
        "vectors": linalg._encode_array(f.vectors),
    }


def vector_frame_from_json(obj) -> VectorFrame:
    dim_h = linalg._require(obj, "dim_h", "vector frame")
    vectors, _ = linalg._decode_family(linalg._require(obj, "vectors", "vector frame"),
                                       "vector frame vectors", dim_h)
    return VectorFrame(dim_h=dim_h, vectors=vectors)


def coefficients_to_json(c: CoefficientField) -> dict:
    return {
        "atoms": list(c.space.atoms),
        "weights": [float(w) for w in c.space.weights],
        "segments": linalg._encode_array(c._values),
        "heights": np.diff(c._offsets).tolist(),
    }


def coefficients_from_json(obj) -> CoefficientField:
    space = _space_from_json(obj, "coefficient field")
    values, heights = linalg._decode_family(
        linalg._require(obj, "segments", "coefficient field"), "coefficient segments", 1,
        len(space), _given_heights(obj, "coefficient field"))
    c = object.__new__(CoefficientField)
    c._fill(space, values.reshape(-1), np.cumsum([0] + heights))
    return c
