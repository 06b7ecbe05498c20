"""Dense kernel tests.

numpy.linalg appears here as an independent cross-check only; the
library itself never calls it.
"""

import base64
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framekit import linalg
from framekit.correspondence import decomposition_from_json
from framekit.errors import (
    DimensionMismatch,
    LimitExceeded,
    NoConvergence,
    NotHermitian,
    NotPsd,
    ParseError,
)
from framekit.frames import (
    AtomicMeasureSpace,
    CoefficientField,
    VectorFrame,
    coefficients_from_json,
    coefficients_to_json,
    ovf_from_json,
    vector_frame_from_json,
    vector_frame_to_json,
)
from framekit.povm import povm_from_json

from conftest import (
    complex_box,
    count_calls,
    matrix_json,
    outputs_at_blas_threads,
    random_hermitian,
    random_psd,
    rng_for,
)


def test_adjoint_conjugate_transposes():
    a = np.array([[1 + 2j, 3], [0, -1j]])
    assert np.array_equal(linalg.adjoint(a), np.array([[1 - 2j, 0], [3, 1j]]))
    # a stack: every matrix on its own, as a C-ordered array
    stack = complex_box(rng_for(4), (3, 2, 5))
    adj = linalg.adjoint(stack)
    assert adj.shape == (3, 5, 2) and adj.flags.c_contiguous
    assert all(np.array_equal(adj[t], linalg.adjoint(stack[t])) for t in range(3))


def test_inner_is_conjugate_linear_in_second_argument():
    x = np.array([1 + 1j, 2j])
    y = np.array([3, 1 - 1j])
    # <ax, y> = a <x, y> and <x, ay> = conj(a) <x, y>
    a = 0.5 - 2j
    base = linalg.inner(x, y)
    assert linalg.inner(a * x, y) == pytest.approx(a * base)
    assert linalg.inner(x, a * y) == pytest.approx(np.conj(a) * base)
    assert linalg.inner(x, y) == pytest.approx(np.conj(linalg.inner(y, x)))


def test_inner_of_vector_with_itself_is_norm_squared():
    x = np.array([3 + 4j, 1])
    assert linalg.inner(x, x) == pytest.approx(26.0)


def test_norms_reduce_the_trailing_axes_the_same_alone_and_in_slices():
    """Axes 2 gives each matrix's Frobenius norm, axes 1 each row's, with the bits
    of the item alone, also for a stack past one slice; frobenius takes the whole
    array, and every value agrees with numpy's to rounding."""
    stack = complex_box(rng_for(43), (300, 16, 16))  # 1.2 MiB, five slices
    assert len(linalg._chunks(300, 16)) > 1
    norms = linalg._norms(stack, 2)
    assert np.array_equal(norms, [linalg._norms(a, 2) for a in stack])
    assert np.array_equal(np.sqrt(linalg._squares(stack, 2)), norms)
    assert np.allclose(norms, np.linalg.norm(stack, axis=(1, 2)), rtol=1e-15, atol=0)
    rows = linalg._norms(stack[0], 1)
    assert np.array_equal(rows, [linalg._norms(v, 1) for v in stack[0]])
    assert np.allclose(rows, np.linalg.norm(stack[0], axis=1), rtol=1e-15, atol=0)
    whole = linalg.frobenius(stack)
    assert type(whole) is float and whole == pytest.approx(np.linalg.norm(stack), rel=1e-15)
    assert linalg.frobenius([[3.0, 4.0j]]) == 5.0


def test_hermitian_residual_zero_for_hermitian():
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    assert linalg.hermitian_residual(a) == 0.0


# Prints the bits of a norm, an inner product and three quantities built on
# them, each past the size at which a BLAS reduction splits its sum over two
# threads; the inputs come from the generator and elementwise operations alone.
_NORM_BITS = """
import numpy as np
from framekit import AtomicMeasureSpace, CoefficientField, Povm, linalg
from framekit.correspondence import _reintegration_tolerance
rng = np.random.Generator(np.random.PCG64(31))
def box(shape):
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
x, y = box(32768), box(32768)
space = AtomicMeasureSpace([str(t) for t in range(4096)], rng.uniform(0.5, 2.0, 4096))
field = CoefficientField(space, np.split(box(16384), 4096))
povm = Povm(["a", "b"], 128, [linalg.hermitize(box((128, 128))) for _ in range(2)])
inner = linalg.inner(x, y)
for name, value in (("frobenius", linalg.frobenius(box((128, 128)))),
                    ("norm", float(linalg._norms(x, 1))),
                    ("inner", inner.real), ("inner.imag", inner.imag),
                    ("weighted_norm_sq", field.weighted_norm_sq()),
                    ("reintegration_tolerance", _reintegration_tolerance(povm.total()))):
    print(name, value.hex())
"""


def test_norms_are_bit_identical_at_one_and_two_blas_threads():
    """frobenius at 128 x 128, the norm of a 32768-entry vector, the inner product of
    two, the weighted norm of a 16384-row coefficient field and the reintegration
    tolerance of a dim-128 POVM total have the same bits with OpenBLAS at 1 and
    at 2 threads, each thread count in its own process."""
    outs = outputs_at_blas_threads(_NORM_BITS)
    assert [line.split()[0] for line in outs[0]] == [
        "frobenius", "norm", "inner", "inner.imag", "weighted_norm_sq", "reintegration_tolerance"]
    assert outs[0] == outs[1]


def test_hermitize_is_idempotent_and_projects():
    a = complex_box(rng_for(3), (5, 5))
    h = linalg.hermitize(a)
    assert np.array_equal(linalg.adjoint(h), h)
    assert np.array_equal(linalg.hermitize(h), h)
    stack = complex_box(rng_for(5), (4, 3, 3))
    hs = linalg.hermitize(stack)
    assert all(np.array_equal(hs[t], linalg.hermitize(stack[t])) for t in range(4))


complex_entries = st.complex_numbers(
    min_magnitude=0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


@given(arrays(np.complex128, (4, 4), elements=complex_entries))
def test_adjoint_is_an_involution(a):
    assert np.array_equal(linalg.adjoint(linalg.adjoint(a)), a)


@given(
    arrays(np.complex128, (3, 3), elements=complex_entries),
    arrays(np.complex128, (3, 3), elements=complex_entries),
)
@settings(max_examples=50)
def test_adjoint_reverses_products(a, b):
    lhs = linalg.adjoint(a @ b)
    rhs = linalg.adjoint(b) @ linalg.adjoint(a)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-6)


# -- eigensolver ---------------------------------------------------------


def test_eigen_known_two_by_two():
    # [[2, i], [-i, 2]] has eigenvalues 1 and 3
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    dec = linalg.hermitian_eigen(a)
    assert dec.eigenvalues == pytest.approx([1.0, 3.0], abs=1e-14)


def test_eigen_sorted_ascending_and_unitary():
    a = random_hermitian(6, seed=11)
    dec = linalg.hermitian_eigen(a)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    v = dec.eigenvectors
    assert np.allclose(linalg.adjoint(v) @ v, np.eye(6), atol=1e-13)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 15, 16, 17, 21, 33, 64, 128])
def test_eigen_matches_numpy(dim):
    a = random_hermitian(dim, seed=dim)
    dec = linalg.hermitian_eigen(a)
    expected = np.linalg.eigvalsh(a)
    assert np.allclose(dec.eigenvalues, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 4, 9])
def test_eigen_reconstructs(dim):
    a = random_hermitian(dim, seed=100 + dim)
    dec = linalg.hermitian_eigen(a)
    assert np.allclose(dec.reconstruct(), a, atol=1e-12 * (1 + linalg.frobenius(a)))


def test_eigen_handles_degenerate_spectrum():
    dec = linalg.hermitian_eigen(np.eye(4, dtype=complex) * 2.5)
    assert dec.eigenvalues == pytest.approx([2.5] * 4)
    # A zero matrix (shifted to I, no rotation), a diagonal one (converged
    # before any rotation), one with a single live pair, and a rotated
    # two-level spectrum.
    assert np.array_equal(linalg.hermitian_eigen(np.zeros((16, 16))).eigenvalues, np.zeros(16))
    diag = np.diag(np.arange(17.0)[::-1]).astype(complex)
    assert np.array_equal(linalg.hermitian_eigen(diag).eigenvalues, np.arange(17.0))
    diag[3, 9], diag[9, 3] = 0.5j, -0.5j  # one live pair: every other step is skipped
    dec = linalg.hermitian_eigen(diag)
    assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(diag), rtol=0, atol=1e-13)
    u = np.linalg.qr(complex_box(rng_for(7), (20, 20)))[0]
    levels = np.repeat([-1.0, 3.0], 10)
    dec = linalg.hermitian_eigen(linalg.hermitize((u * levels) @ linalg.adjoint(u)))
    assert np.allclose(dec.eigenvalues, levels, rtol=0, atol=1e-13)
    assert np.allclose(dec.reconstruct(), (u * levels) @ linalg.adjoint(u), rtol=0, atol=1e-13)


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eigen(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_eigen_refuses_a_matrix_whose_norm_squares_to_inf():
    """The eigenvalues of [[1e200, 1e200], [1e200, 1e200]] are 0 and 2e200, but its
    squared norm overflows, past the limit every operand meets; a stack names
    its member."""
    big = np.full((2, 2), 1e200)
    with pytest.raises(LimitExceeded):
        linalg.hermitian_eigen(big)
    with pytest.raises(LimitExceeded, match="matrix 1 in the stack"):
        linalg.hermitian_eigen(np.array([np.eye(2), big]))
    ok = linalg.hermitian_eigen(big * 1e-50)  # inside the limit: the true spectrum
    assert np.allclose(ok.eigenvalues, [0.0, 2e150], rtol=1e-14, atol=1e136)


def test_eigen_is_bit_deterministic():
    for dim in (10, 17, 64):  # round-robin steps at even, odd and large n
        a = random_hermitian(dim, seed=77)
        d1 = linalg.hermitian_eigen(a.copy())
        d2 = linalg.hermitian_eigen(a.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
        stack = np.array([a, random_psd(dim, seed=78), a / 3.0])
        s1 = linalg.hermitian_eigen(stack.copy())
        s2 = linalg.hermitian_eigen(stack.copy())
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


@pytest.mark.parametrize("n", range(1, 18))
def test_round_robin_schedule_meets_every_pair_once(n):
    steps = linalg._round_robin_schedule(n)
    assert len(steps) == (n - 1 if n % 2 == 0 else n)
    met = []
    for p, q in steps:
        assert np.all(p < q)
        step = np.concatenate((p, q)).tolist()
        assert len(set(step)) == len(step)  # the pairs of a step are disjoint
        met += list(zip(p.tolist(), q.tolist()))
    assert sorted(met) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def test_pair_gathers_are_built_once_per_size_and_read_only():
    for n in (1, 2, 3, 8, 17):
        gathers = linalg._pair_gathers(n)
        assert linalg._pair_gathers(n) is gathers
        assert isinstance(gathers, tuple) and len(gathers) == len(linalg._round_robin_schedule(n))
        for gather in gathers:
            assert not gather.flags.writeable
            with pytest.raises(ValueError):
                gather[0] = 0


def householder(n, seed):
    """I - 2 v v* / (v* v): eigenvalues -1 and 1 (n - 1 times), built elementwise."""
    v = complex_box(rng_for(seed), n)
    return np.eye(n) - (2.0 / np.vdot(v, v).real) * np.multiply.outer(v, np.conj(v))


def pinned_factor_cases():
    """(group, factor (n, n), exponent) for _one_sided_jacobi."""
    for n in range(1, 17):
        yield "lone", np.triu(complex_box(rng_for(900 + n), (n, n))), n - 8
    for n in (1, 5, 9):
        for k in sorted({0, n // 2, n - 1}):
            r = np.triu(complex_box(rng_for(1200 + n + k), (n, n)))
            r[k] = 0.0
            yield "zero row", r, 1
    yield "zero row", np.zeros((4, 4), dtype=complex), 0
    for n in (1, 6, 11):
        d = np.arange(n, 0.0, -1.0) * np.exp(1j * np.arange(n))
        yield "diagonal", np.diag(d), 2
    for n, levels in ((4, [1.0, 1.0, 2.0, 2.0]), (6, [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]), (9, [0.5] * 9)):
        yield "repeated", np.array(levels)[:, None] * householder(n, 1300 + n), 0
    yield "repeated", 0.75 * np.eye(5, dtype=complex), -1


def pinned_hermitian_cases():
    """(group, stack of Hermitian matrices (N, n, n)) for hermitian_eigen."""
    def herm(shape, seed):
        g = complex_box(rng_for(seed), shape)
        return (g + np.conj(np.swapaxes(g, -1, -2))) / 2.0

    for n in range(1, 17):
        yield "lone", herm((1, n, n), 2000 + n)
    for n in (1, 2, 3, 5, 8, 12, 16):
        for size in (1, 2, 7):
            yield "stacks", herm((size, n, n), 2100 + 10 * n + size)
    for n in (1, 5, 9):
        for k in sorted({0, n // 2, n - 1}):
            h = herm((1, n, n), 2300 + n + k)
            h[0, k, :] = 0.0
            h[0, :, k] = 0.0
            yield "zero row", h
    yield "zero row", np.zeros((1, 4, 4), dtype=complex)
    for d in ([3.0, -1.0, 2.0, 2.0, 0.0], [1.0], [-2.0, 5.0, 5.0, 5.0, 1e-3, -7.0, 0.0, 4.0]):
        yield "diagonal", np.diag(np.array(d, dtype=complex))[None]
    for n in (2, 5, 8):
        h = householder(n, 2400 + n)
        yield "repeated", h[None]
        yield "repeated", (3.0 * h + 2.0 * np.eye(n))[None]
    yield "repeated", (2.5 * np.eye(6, dtype=complex))[None]


# sha256, in case order, of each matrix's eigenvalue bytes then eigenvector
# bytes for hermitian_eigen, from lone calls of the kernel as it was before the
# sweep took cached gathers and one rotation array per sweep, and of each
# factor's eigenvalue bytes alone for _one_sided_jacobi, which returns no
# eigenvectors (the same values as when it also returned them).  Computed with
# numpy 2.4.6 and its bundled OpenBLAS on an x86-64 AVX-512 Xeon:
# hermitian_eigen's products go through BLAS, so another BLAS or CPU may round
# differently.
PINNED_DIGESTS = {
    ("_one_sided_jacobi", "lone"): "829edbcb8205bdf44f20b149527378c8356e6b8af1b1ad135eb68066e2729799",
    ("_one_sided_jacobi", "zero row"): "7bf2705412d0895c7ade15ccd5818ee2c7bc54ec46c3e8ffdd4e824d154bec70",
    ("_one_sided_jacobi", "diagonal"): "cba422cd3bbcbb37cf5df3263c1a61d77b7773618e001920d51e8239570d4fda",
    ("_one_sided_jacobi", "repeated"): "7db6defde7df65ae38263972d2e8bba9d895d4c16879ab28fb56cca0e0854759",
    ("hermitian_eigen", "lone"): "a46df10ae633d7482ace91b41477e3bcaa8fbd5ca96ba13c7622e48a24e87d2a",
    ("hermitian_eigen", "stacks"): "1de5ac1d91ca7a425dd69fcc1c0f1ffba16c58c65c431f76b840a3e7674d3af9",
    ("hermitian_eigen", "zero row"): "28cf889a787ec64de5c5f4ecd678b4988df7286ec7628339f555f73360fd0bfb",
    ("hermitian_eigen", "diagonal"): "a88ebb64be94505ea075593912b3a32c4acf218d273b6c7bb745f6d873610d0d",
    ("hermitian_eigen", "repeated"): "e387093b84b8157ae6de9cd27f4722edfeb490820a00a2ab4556d531b0003272",
}


def test_jacobi_kernels_keep_their_pinned_bits():
    """Every stack goes through hermitian_eigen in one call and each matrix's
    result is hashed on its own, so a stacked result must also have each
    matrix's lone bits; _one_sided_jacobi takes one factor a call."""
    digests = {}
    for group, r, e in pinned_factor_cases():
        h = digests.setdefault(("_one_sided_jacobi", group), hashlib.sha256())
        h.update(linalg._one_sided_jacobi(r, e).tobytes())
    for group, a in pinned_hermitian_cases():
        h = digests.setdefault(("hermitian_eigen", group), hashlib.sha256())
        dec = linalg.hermitian_eigen(a)
        for vals, vecs in zip(dec.eigenvalues, dec.eigenvectors):
            h.update(vals.tobytes())
            h.update(vecs.tobytes())
    assert {key: h.hexdigest() for key, h in digests.items()} == PINNED_DIGESTS


def mixed_stack(dim, seed):
    """A zero matrix, a diagonal one (converged before any rotation), one with a
    single live pair, a low-rank PSD one, dense ones, then dense ones at scales
    1e-150 and 1e150, in that order."""
    diag = np.diag(np.arange(dim, 0.0, -1.0)).astype(complex)
    one_pair = diag.copy()
    if dim > 1:
        one_pair[0, dim - 1], one_pair[dim - 1, 0] = 0.5j, -0.5j
    g = complex_box(rng_for(seed), (dim, 1))
    dense = [random_hermitian(dim, seed=seed + k) for k in range(3)]
    scaled = [dense[0] * 1e-150, dense[1] * 1e150]
    return np.array([np.zeros((dim, dim)), diag, one_pair, g @ linalg.adjoint(g)] + dense + scaled)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 8, 15, 16, 17])
def test_eigen_stack_matches_lone_calls_bit_for_bit(dim):
    stack = mixed_stack(dim, seed=dim)
    # every position: the stack as built, reversed, and each matrix among dense ones
    orders = [np.arange(len(stack)), np.arange(len(stack))[::-1]]
    orders += [np.array([4, k, 5, 6]) for k in range(4)]
    for order in orders:
        dec = linalg.hermitian_eigen(stack[order])
        for pos, k in enumerate(order):
            lone = linalg.hermitian_eigen(stack[k])
            assert np.array_equal(dec.eigenvalues[pos], lone.eigenvalues)
            assert np.array_equal(dec.eigenvectors[pos], lone.eigenvectors)


@pytest.mark.parametrize("dim", [2, 5, 12, 16, 21])
def test_eigen_stack_matches_numpy(dim):
    stack = np.array([random_hermitian(dim, seed=200 + k) for k in range(4)])
    dec = linalg.hermitian_eigen(stack)
    assert dec.eigenvalues.shape == (4, dim) and dec.eigenvectors.shape == (4, dim, dim)
    assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(stack), rtol=1e-12, atol=1e-12)
    assert np.allclose(dec.reconstruct(), stack, rtol=0, atol=1e-12)


def test_eigen_stack_is_read_only_and_may_be_empty():
    dec = linalg.hermitian_eigen(mixed_stack(4, seed=1))
    for arr in (dec.eigenvalues, dec.eigenvectors):
        assert not arr.flags.writeable
    empty = linalg.hermitian_eigen(np.zeros((0, 3, 3), dtype=complex))
    assert empty.eigenvalues.shape == (0, 3) and empty.eigenvectors.shape == (0, 3, 3)
    assert not empty.eigenvalues.flags.writeable and not empty.eigenvectors.flags.writeable


def test_eigen_stack_names_its_non_hermitian_member():
    stack = mixed_stack(3, seed=2)
    stack[5, 0, 1] += 1.0
    with pytest.raises(NotHermitian, match="matrix 5 "):
        linalg.hermitian_eigen(stack)


def test_eigen_stack_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    for dim in (6, 16):  # a small and a larger round-robin schedule
        stack = mixed_stack(dim, seed=dim)[[1, 4, 5]]  # diagonal, then two dense ones
        with pytest.raises(NoConvergence, match="matrix 1 of 3"):
            linalg.hermitian_eigen(stack)


def test_eigen_stack_in_slices_matches_one_slice(monkeypatch):
    stack = mixed_stack(8, seed=3)
    whole = linalg.hermitian_eigen(stack)
    residuals = linalg.hermitian_residual(stack)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence) as unsliced:
        linalg.hermitian_eigen(stack)
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "_EIGEN_CHUNK_BYTES", 2 * 16 * 8 * 8)  # two matrices a slice
    slices = [(s.start, s.stop) for s in linalg._chunks(len(stack), 8)]
    assert slices == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 9)]
    sliced = linalg.hermitian_eigen(stack)
    assert np.array_equal(sliced.eigenvalues, whole.eigenvalues)
    assert np.array_equal(sliced.eigenvectors, whole.eigenvectors)
    assert np.array_equal(linalg.hermitian_residual(stack), residuals)
    bad = stack.copy()
    bad[5, 0, 1] += 1.0
    with pytest.raises(NotHermitian, match="matrix 5 "):
        linalg.hermitian_eigen(bad)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence) as in_slices:
        linalg.hermitian_eigen(stack)
    assert str(in_slices.value) == str(unsliced.value)


def test_eigen_keeps_plus_minus_pairs_apart():
    """H and -H share |lambda|: the sweeps run on H + 2 ||H||_F I, whose spectrum
    lies in [||H||_F, 3 ||H||_F], so a +-lambda pair cannot mix its eigenvectors."""
    u = np.linalg.qr(complex_box(rng_for(12), (6, 6)))[0]
    levels = np.array([-2.0, -1.0, -1.0, 1.0, 1.0, 2.0])
    for a in (np.array([[0.0, 1.0], [1.0, 0.0]]),
              linalg.hermitize((u * levels[::-1]) @ linalg.adjoint(u))):
        dec = linalg.hermitian_eigen(a)
        v = dec.eigenvectors
        assert np.linalg.norm(dec.reconstruct() - a) <= 1e-14 * linalg.frobenius(a)
        assert np.linalg.norm(linalg.adjoint(v) @ v - np.eye(len(a))) <= 1e-14
    assert np.allclose(dec.eigenvalues, levels, rtol=0, atol=1e-14)


def test_eigen_scales_entries_near_the_limits_exactly():
    """Unscaled, the squared row norms of the shifted matrix overflow at 3x this
    matrix (its own squared norm is still finite) and lose their bits to
    subnormals at 1e-313x."""
    a = np.array([[1e153, 2e153j], [-2e153j, -3e153]])
    for scale in (1.0, 3.0, 1e-313):
        lam = linalg.hermitian_eigen(a * scale).eigenvalues
        expected = np.linalg.eigvalsh(a * scale)
        assert np.all(np.abs(lam - expected) <= 1e-14 * np.abs(expected))


def test_one_sided_jacobi_takes_the_driver_rows_of_its_factor_anywhere_in_a_stack(monkeypatch):
    """A frame's eigenvalues come from the rows the shared driver gives conj(R) in a
    stack of one; the same R anywhere in a stack of other factors gets the same bits."""
    dim = 7
    factors = [linalg._scaled_r(gram_case(rows, dim, seed=rows), np.ones(rows))
               for rows in (7, 12, 30)]
    low_rank = gram_case(9, dim, seed=4)
    low_rank[:, 2] = low_rank[:, 5]  # rank 6: one row shrinks under the floor and stops rotating
    factors.append(linalg._scaled_r(low_rank, np.ones(9)))
    factors.append(linalg._scaled_r(np.diag(np.arange(1.0, dim + 1.0)), np.ones(dim)))
    stack = np.array([r for r, _ in factors])
    lone = [linalg._one_sided_jacobi(r, e) for r, e in factors]
    orders = [np.arange(len(stack)), np.arange(len(stack))[::-1], np.roll(np.arange(len(stack)), 2)]
    for order in orders:
        rows = linalg._orthogonalize_rows(np.conj(stack[order]), 0, len(stack))
        for pos, k in enumerate(order):
            monkeypatch.setattr(linalg, "_orthogonalize_rows",
                                lambda z, first, total, pos=pos: rows[pos][None].copy())
            lam = linalg._one_sided_jacobi(*factors[k])
            monkeypatch.undo()
            assert lam.tobytes() == lone[k].tobytes()


# -- psd sqrt ------------------------------------------------------------


def test_psd_sqrt_squares_back():
    a = random_psd(5, seed=21)
    r = linalg.psd_sqrt(a)
    assert np.allclose(r @ r, a, rtol=0, atol=1e-10 * (1 + linalg.frobenius(a)))
    assert np.array_equal(linalg.adjoint(r), r)


def test_psd_sqrt_of_projector_is_itself():
    p = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(linalg.psd_sqrt(p), p, atol=1e-14)


def test_psd_sqrt_clamps_rounding_noise():
    a = random_psd(4, seed=31)
    # rank-deficient: zero out the smallest eigenvalue direction exactly
    dec = linalg.hermitian_eigen(a)
    v = dec.eigenvectors
    vals = dec.eigenvalues.copy()
    vals[0] = -1e-13 * (1 + linalg.frobenius(a))  # just inside the clamp window
    noisy = linalg.hermitize(v @ np.diag(vals) @ linalg.adjoint(v))
    r = linalg.psd_sqrt(noisy)
    assert np.all(np.isfinite(r)) and np.array_equal(linalg.adjoint(r), r)
    # the clamped direction is in the root's null space; a root of |lambda| would
    # leave about sqrt(1e-13 (1 + ||a||)) there
    assert np.linalg.norm(r @ v[:, 0]) <= 1e-12 * linalg.frobenius(r)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPsd):
        linalg.psd_sqrt(np.diag([1.0, -1e-3]).astype(complex))


# -- coercion and serialization -------------------------------------------


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        linalg.as_matrix([[np.inf, 0], [0, 1]])


def test_as_vector_rejects_matrix_input():
    with pytest.raises(DimensionMismatch):
        linalg.as_vector([[1, 2], [3, 4]])


def test_matrix_json_round_trip_is_exact():
    a = complex_box(rng_for(60), (3, 5))
    blob = json.dumps(matrix_json(a))
    back = linalg.matrix_from_json(json.loads(blob))
    assert np.array_equal(back, a)


def test_vector_json_round_trip_is_exact():
    v = complex_box(rng_for(61), 7)
    blob = json.dumps(linalg.vector_to_json(v))
    assert np.array_equal(linalg.vector_from_json(json.loads(blob)), v)


BIG = 10 ** 400  # a JSON integer too large for a double
INF = float("inf")  # what json.loads makes of 1e400
ONE = {"rows": 1, "cols": 1, "data": [[1, 0]]}
EYE2 = {"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}


@pytest.mark.parametrize(
    "payload",
    [
        (linalg.matrix_from_json, {"rows": 2, "cols": 2}),
        (linalg.matrix_from_json, {"rows": 2, "cols": 2, "data": [[1, 0]]}),
        (linalg.matrix_from_json, {"rows": "2", "cols": 2, "data": []}),
        (linalg.matrix_from_json, [1, 2, 3]),
        (linalg.matrix_from_json, {"rows": 1, "cols": 1, "data": [[BIG, 0]]}),
        (linalg.matrix_from_json, {"rows": 1, "cols": 1, "data": [[0, -BIG]]}),
        (linalg.matrix_from_json, {"rows": INF, "cols": 1, "data": [[1, 0]]}),
        (linalg.matrix_from_json, {"rows": 1, "cols": 1, "data": [["1", 0]]}),
        (linalg.matrix_from_json, {"rows": 1, "cols": 1, "data": [[None, 0]]}),
        (linalg.matrix_from_json, {"rows": 1, "cols": 1, "data": [[1, 0, 0]]}),
        (linalg.vector_from_json, {"dim": 1, "entries": [[BIG, 0]]}),
        (linalg.vector_from_json, {"dim": INF, "entries": [[1, 0]]}),
        (ovf_from_json, {"atoms": ["a"], "weights": [BIG], "dim_h": 1, "blocks": [ONE]}),
        (ovf_from_json, {"atoms": ["a"], "weights": [1], "dim_h": INF, "blocks": [ONE]}),
        (vector_frame_from_json, {"dim_h": 1, "vectors": [[[BIG, 0]]]}),
        (vector_frame_from_json, {"dim_h": INF, "vectors": [[[1, 0]]]}),
        (coefficients_from_json, {"atoms": ["a"], "weights": [BIG], "segments": [[[1, 0]]]}),
        (povm_from_json, {"atoms": ["a"], "dim_h": INF, "elements": [ONE]}),
        (decomposition_from_json, {"atoms": ["a"], "weights": [BIG], "dim_h": 1,
                                   "densities": [ONE]}),
        (decomposition_from_json, {"atoms": ["a"], "weights": [1], "dim_h": INF,
                                   "densities": [ONE]}),
        # atoms must be a list of strings, dim_h an integer (not a bool)
        (povm_from_json, {"atoms": [1.5, None], "dim_h": 1, "elements": [ONE, ONE]}),
        (povm_from_json, {"atoms": "ab", "dim_h": 1, "elements": [ONE, ONE]}),
        (povm_from_json, {"atoms": ["a"], "dim_h": 2.9, "elements": [EYE2]}),
        (povm_from_json, {"atoms": ["a"], "dim_h": "2", "elements": [EYE2]}),
        (povm_from_json, {"atoms": ["a"], "dim_h": True, "elements": [ONE]}),
        (decomposition_from_json, {"atoms": [1], "weights": [1], "dim_h": 1,
                                   "densities": [ONE]}),
        (decomposition_from_json, {"atoms": "a", "weights": [1], "dim_h": 1,
                                   "densities": [ONE]}),
        (decomposition_from_json, {"atoms": ["a"], "weights": [1], "dim_h": 2.9,
                                   "densities": [EYE2]}),
        (ovf_from_json, {"atoms": "ab", "weights": [1, 1], "dim_h": 1, "blocks": [ONE, ONE]}),
        (ovf_from_json, {"atoms": [None], "weights": [1], "dim_h": 1, "blocks": [ONE]}),
        (ovf_from_json, {"atoms": ["a"], "weights": [1], "dim_h": "1", "blocks": [ONE]}),
        (vector_frame_from_json, {"dim_h": 1.5, "vectors": [[[1, 0]]]}),
        (vector_frame_from_json, {"dim_h": "1", "vectors": [[[1, 0]]]}),
        (coefficients_from_json, {"atoms": "a", "weights": [1], "segments": [[[1, 0]]]}),
        (coefficients_from_json, {"atoms": [1], "weights": [1], "segments": [[[1, 0]]]}),
        # a per-atom list whose rows differ from the heights its file gives
        (coefficients_from_json, {"atoms": ["a"], "weights": [1], "segments": [[[1, 0]]],
                                  "heights": [5]}),
        (ovf_from_json, {"atoms": ["a", "b"], "weights": [1, 1], "dim_h": 1,
                         "blocks": [ONE, ONE], "heights": [7, 0]}),
        # no atoms: dim_h has no matrix to be checked against
        (povm_from_json, {"atoms": [], "dim_h": 1e300, "elements": []}),
        (decomposition_from_json, {"atoms": [], "weights": [], "dim_h": 1e300,
                                   "densities": []}),
    ],
)
def test_matrix_from_json_rejects_malformed(payload):
    """matrix_from_json and the loaders that share its entry parsing."""
    parse, obj = payload
    with pytest.raises(ParseError):
        parse(obj)


def b64(*doubles):
    """The binary array layout of the given doubles: base64 of little-endian float64."""
    return base64.b64encode(np.array(doubles, "<f8").tobytes()).decode("ascii")


def b64_bits(*words):
    """The binary array layout of the given IEEE-754 bit patterns."""
    return base64.b64encode(np.array(words, "<u8").tobytes()).decode("ascii")


ONE_B64 = b64(1.0, 0.0)
QNAN, NEG_QNAN, SNAN = 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001
POS_INF, NEG_INF, ZERO = 0x7FF0000000000000, 0xFFF0000000000000, 0


def matrix_b64(data, rows=1, cols=1):
    return {"rows": rows, "cols": cols, "data": data}


@pytest.mark.parametrize(
    "payload",
    [
        # characters outside the standard alphabet: url-safe, punctuation, non-ASCII
        (linalg.matrix_from_json, matrix_b64(ONE_B64.replace("8", "-", 1))),
        (linalg.matrix_from_json, matrix_b64(ONE_B64.replace("8", "_", 1))),
        (linalg.matrix_from_json, matrix_b64(ONE_B64.replace("A", "!", 1))),
        (linalg.matrix_from_json, matrix_b64(ONE_B64.replace("A", "\u00e9", 1))),
        (linalg.vector_from_json, {"dim": 1, "entries": ONE_B64.replace("8", "-", 1)}),
        # embedded whitespace
        (linalg.matrix_from_json, matrix_b64(ONE_B64[:8] + "\n" + ONE_B64[8:])),
        (linalg.matrix_from_json, matrix_b64(ONE_B64 + "\n")),
        (linalg.matrix_from_json, matrix_b64(ONE_B64[:8] + " " + ONE_B64[8:])),
        (vector_frame_from_json, {"dim_h": 1, "vectors": [ONE_B64[:4] + "\r\n" + ONE_B64[4:]]}),
        # bad padding: missing, short, in the middle
        (linalg.matrix_from_json, matrix_b64(ONE_B64.rstrip("="))),
        (linalg.matrix_from_json, matrix_b64(ONE_B64[:-1])),
        (linalg.matrix_from_json, matrix_b64(ONE_B64 + "AA==", cols=2)),
        (coefficients_from_json, {"atoms": ["a"], "weights": [1], "segments": [ONE_B64[:-1]]}),
        # 8 bytes: half a complex128
        (linalg.matrix_from_json, matrix_b64(b64(1.0))),
        (linalg.vector_from_json, {"dim": 1, "entries": b64(1.0)}),
        (vector_frame_from_json, {"dim_h": 1, "vectors": [b64(1.0)]}),
        (coefficients_from_json, {"atoms": ["a"], "weights": [1], "segments": [b64(1.0)]}),
        # decoded length is not rows * cols, dim or dim_h
        (linalg.matrix_from_json, matrix_b64(ONE_B64, rows=2)),
        (linalg.matrix_from_json, matrix_b64(b64(1, 0, 0, 0), rows=1, cols=1)),
        (linalg.matrix_from_json, matrix_b64("", rows=1, cols=1)),
        (linalg.vector_from_json, {"dim": 2, "entries": ONE_B64}),
        (linalg.vector_from_json, {"dim": 1, "entries": b64(1, 0, 0, 0)}),
        (vector_frame_from_json, {"dim_h": 2, "vectors": [ONE_B64]}),
        # NaN, +Inf and -Inf bit patterns, in either part
        *((linalg.matrix_from_json, matrix_b64(b64_bits(word, ZERO)))
          for word in (QNAN, NEG_QNAN, SNAN, POS_INF, NEG_INF)),
        *((linalg.matrix_from_json, matrix_b64(b64_bits(ZERO, word)))
          for word in (QNAN, POS_INF, NEG_INF)),
        *((linalg.vector_from_json, {"dim": 1, "entries": b64_bits(word, ZERO)})
          for word in (QNAN, POS_INF, NEG_INF)),
        *((vector_frame_from_json, {"dim_h": 1, "vectors": [b64_bits(ZERO, word)]})
          for word in (QNAN, POS_INF, NEG_INF)),
        *((coefficients_from_json, {"atoms": ["a"], "weights": [1],
                                    "segments": [b64_bits(word, ZERO)]})
          for word in (QNAN, POS_INF, NEG_INF)),
        # neither a string nor a list
        (linalg.matrix_from_json, matrix_b64(None)),
        (linalg.matrix_from_json, matrix_b64(5)),
        (linalg.matrix_from_json, matrix_b64({"re": 1, "im": 0})),
        (linalg.vector_from_json, {"dim": 1, "entries": True}),
    ],
)
def test_binary_arrays_reject_malformed(payload):
    """The base64 array layout is refused at intake, as a ParseError, unless it is
    padded standard base64 of whole finite complex128 entries of the right count."""
    parse, obj = payload
    with pytest.raises(ParseError):
        parse(obj)


def test_binary_arrays_accept_the_largest_finite_doubles():
    m = linalg.matrix_from_json(matrix_b64(b64(1.7e308, -1.7e308)))
    assert m.tolist() == [[complex(1.7e308, -1.7e308)]]
    assert linalg.vector_from_json({"dim": 1, "entries": b64(-1.7e308, 0.0)}).tolist() == [
        complex(-1.7e308, 0.0)]


def test_a_decoded_array_is_a_read_only_view_of_the_decoded_bytes():
    """An 8 MiB decode peaks at the decoded bytes plus the finite test's mask,
    about 8.5 MiB of traced memory, where a converting copy peaked at 16.5 MiB."""
    entries = complex_box(rng_for(63), 1 << 19)  # 8 MiB of complex128
    text = linalg._encode_array(entries)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        v = linalg._decode_array(text, "entries")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(v, entries)
    assert not v.flags.writeable and v.dtype == np.complex128
    assert peak <= 1.1 * entries.nbytes


def test_arrays_are_written_as_base64_of_little_endian_complex128():
    assert linalg._encode_array([[1 + 2j]]) == "AAAAAAAA8D8AAAAAAAAAQA=="
    big_endian = np.array([[1 + 2j]], dtype=">c16")
    assert linalg._encode_array(big_endian) == "AAAAAAAA8D8AAAAAAAAAQA=="
    assert linalg.vector_to_json(big_endian[0])["entries"] == "AAAAAAAA8D8AAAAAAAAAQA=="
    assert linalg._encode_array(np.zeros((0, 3))) == ""


def test_every_array_round_trips_bit_for_bit():
    """-0.0, the smallest subnormal, +-1.7e308 and random entries come back with
    every bit, through the JSON text, in each kind of array a data file holds."""
    special = (-0.0, 5e-324, 1.7e308, -1.7e308, 0.0)
    entries = np.array([complex(re, im) for re in special for im in special]
                       + list(complex_box(rng_for(62), 5)))  # 30 entries
    assert np.signbit(entries.real).any() and (entries.real == 5e-324).any()

    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    def through_text(blob):
        return json.loads(json.dumps(blob))

    m = entries.reshape(5, 6)
    back = linalg.matrix_from_json(through_text(matrix_json(m)))
    assert np.array_equal(bits(back), bits(m))
    back = linalg.vector_from_json(through_text(linalg.vector_to_json(entries)))
    assert np.array_equal(bits(back), bits(entries))
    f = VectorFrame(dim_h=6, vectors=m)
    back = vector_frame_from_json(through_text(vector_frame_to_json(f)))
    assert np.array_equal(bits(back.vectors), bits(m))
    c = CoefficientField(AtomicMeasureSpace(["a", "b", "c"], [1.0, 2.0, 0.5]),
                         [entries[:7], entries[7:7], entries[7:]])
    back = coefficients_from_json(through_text(coefficients_to_json(c)))
    assert [len(s) for s in back.segments] == [7, 0, 23]
    assert np.array_equal(bits(np.concatenate(back.segments)), bits(entries))


def boundary_hermitian(n, scale, ratio, seed):
    """Hermitian H with lambda_min = ratio * _psd_tolerance(H), the rest in [0.1, 1] * scale."""
    rng = rng_for(seed)
    q, _ = np.linalg.qr(complex_box(rng, (n, n)))
    rest = scale * rng.uniform(0.1, 1.0, n - 1)
    lam = 0.0
    for _ in range(4):  # lam moves the tolerance only through ||H||_F, by far below 1e-4
        h = linalg.hermitize((q * np.concatenate(([lam], rest))) @ linalg.adjoint(q))
        lam = ratio * float(linalg._psd_tolerance(h))
    return linalg.hermitize((q * np.concatenate(([lam], rest))) @ linalg.adjoint(q))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
def test_cholesky_verdict_matches_eigenvalues_at_the_boundary(n):
    """lambda_min at -tol (1 +- delta): the Cholesky verdict, the Jacobi verdict and
    numpy's eigvalsh all read the side of the boundary the matrix was built on."""
    cases = [(scale, delta, sign) for scale in (1e-3, 1.0, 50.0)
             for delta in (1e-2, 1e-3, 1e-4) for sign in (1, -1)]
    stack = np.array([boundary_hermitian(n, scale, -(1 + sign * delta), seed=k)
                      for k, (scale, delta, sign) in enumerate(cases)])
    tol = linalg._psd_tolerance(stack)
    expected = np.array([sign < 0 for _, _, sign in cases])
    cholesky = linalg._shifted_positive_definite(stack, tol)
    jacobi = linalg.hermitian_eigen(stack).eigenvalues[:, 0] >= -tol
    oracle = np.linalg.eigvalsh(stack)[:, 0] >= -tol
    assert np.array_equal(oracle, expected)
    assert np.array_equal(jacobi, expected)
    assert np.array_equal(cholesky, expected)
    # one matrix alone gets the verdict it gets in the stack
    assert [bool(linalg._shifted_positive_definite(h[None], t[None])[0])
            for h, t in zip(stack, tol)] == cholesky.tolist()


def test_cholesky_verdict_on_extreme_entries_raises_no_warning():
    """Tiny or zero pivots beside entries near sqrt(max double), as large as the
    magnitude check at intake lets through: no division by zero, no overflow
    (RuntimeWarnings are errors in this suite)."""
    big = 1e153
    stack = np.array([
        [[1e-300, big], [big, 0.0]],
        [[5e-324, big], [big, -big]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[-big, 0.0], [0.0, big]],
        [[big, big * 1j], [-big * 1j, big]],  # rank one: lambda_min = 0
        [[2.0, 1.0], [1.0, 2.0]],
    ], dtype=complex)
    assert linalg._shifted_positive_definite(stack, np.zeros(6)).tolist() == [
        False, False, False, False, False, True]
    assert linalg._shifted_positive_definite(stack, linalg._psd_tolerance(stack)).tolist() == [
        False, False, True, False, True, True]
    assert linalg._shifted_positive_definite(np.zeros((0, 3, 3), complex), np.zeros(0)).size == 0


def test_cholesky_verdict_reads_the_hermitian_part():
    skew = np.array([[1.0, 5.0], [-5.0, 1.0]], dtype=complex)  # Hermitian part I
    assert linalg._shifted_positive_definite(skew[None], np.zeros(1)).tolist() == [True]


def test_cholesky_verdicts_in_slices_match_one_slice(monkeypatch):
    """A 256-matrix, dim-32 stack (4 MiB) with lambda_min on either side of the PSD
    tolerance: slices of three matrices give the one slice's verdicts, and at the
    default slice size the kernel's traced peak stays under half the stack."""
    stack = np.array([boundary_hermitian(32, 1.0, -(1.0 + (-1) ** k * 1e-2), seed=k)
                      for k in range(256)])
    tol = linalg._psd_tolerance(stack)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sliced = linalg._shifted_positive_definite(stack, tol)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(linalg._chunks(256, 32)) > 1 and peak <= 0.5 * stack.nbytes
    monkeypatch.setattr(linalg, "_EIGEN_CHUNK_BYTES", 256 * stack[0].nbytes)  # one slice
    whole = linalg._shifted_positive_definite(stack, tol)
    monkeypatch.setattr(linalg, "_EIGEN_CHUNK_BYTES", 3 * stack[0].nbytes)
    assert len(linalg._chunks(256, 32)) == 86
    assert np.array_equal(linalg._shifted_positive_definite(stack, tol), whole)
    assert np.array_equal(sliced, whole)
    assert whole.tolist() == [k % 2 == 1 for k in range(256)]


def test_hermitian_residual_works_in_slices():
    """On a 256-matrix, dim-32 stack (4 MiB) the residuals are each matrix's own,
    and the traced peak inside the call stays under a quarter of the stack."""
    stack = complex_box(rng_for(41), (256, 32, 32))
    stack[::2] = linalg.hermitize(stack[::2])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        residuals = linalg.hermitian_residual(stack)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(linalg._chunks(256, 32)) > 1 and peak <= 0.25 * stack.nbytes
    alone = [linalg.hermitian_residual(a) for a in stack]
    assert np.array_equal(residuals, alone)
    assert (residuals[::2] == 0.0).all() and (residuals[1::2] > linalg.TOL_HERM).all()


def low_rank_psd(n, rank, seed):
    """G* G for a rank x n complex G, scaled to unit trace; zero for rank 0."""
    g = complex_box(rng_for(seed), (rank, n))
    q = linalg.hermitize(linalg.adjoint(g) @ g)
    return q / max(np.trace(q).real, 1.0)


def per_matrix(rows, heights):
    """The stacked rows cut into each matrix's own, heights[t] of them for matrix t."""
    return np.split(rows, np.cumsum(heights)[:-1])


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 12, 17])
def test_pivoted_cholesky_rows_factor_each_density_at_its_rank(n, monkeypatch):
    """T* T = Q to rounding with rank(Q) rows, with no eigen work, and each matrix
    gets the same bits alone as anywhere in a stack."""
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen")
    ranks = list(range(n + 1)) * 2
    stack = np.array([low_rank_psd(n, k, seed=10 * n + i) for i, k in enumerate(ranks)])
    rows, heights, dropped = linalg._pivoted_cholesky_rows(stack)
    assert calls == {"hermitian_eigen": 0}
    assert heights == ranks
    assert rows.shape == (sum(ranks), n) and rows.dtype == np.complex128
    assert not rows.flags.writeable and not dropped.flags.writeable
    assert dropped.shape == (len(ranks),)
    assert np.all(np.abs(dropped) <= 1e-15)
    blocks = per_matrix(rows, heights)
    for t, q in zip(blocks, stack):
        assert np.linalg.norm(linalg.adjoint(t) @ t - q) <= 1e-15 * max(np.linalg.norm(q), 1.0)
    for order in (np.arange(len(stack))[::-1], np.arange(len(stack))):
        again, again_heights, again_dropped = linalg._pivoted_cholesky_rows(stack[order])
        again = per_matrix(again, again_heights)
        for pos, k in enumerate(order):
            lone, lone_heights, lone_dropped = linalg._pivoted_cholesky_rows(stack[k][None])
            assert lone_heights == [heights[k]]
            assert np.array_equal(again[pos], lone) and np.array_equal(again[pos], blocks[k])
            assert again_dropped[pos] == lone_dropped[0] == dropped[k]


@pytest.mark.parametrize("n", [2, 5, 8, 17])
def test_pivoted_cholesky_rank_at_the_stopping_boundary(n):
    """A full-rank (n-1) x (n-1) block beside one diagonal entry r * stop, stop =
    TOL_PIVOT_REL max(n, PIVOT_FLOOR_N) max_i Q_ii, placed first so that only
    the pivoting leaves it last: r = 0.95 drops it, r = 1.05 keeps it."""
    block = low_rank_psd(n - 1, n - 1, seed=n) + 0.1 * np.eye(n - 1)
    stop = linalg.TOL_PIVOT_REL * max(n, linalg.PIVOT_FLOOR_N) * np.max(np.diag(block).real)
    table = []
    for ratio in (0.95, 1.05):
        q = np.zeros((n, n), dtype=complex)
        q[0, 0] = ratio * stop
        q[1:, 1:] = block
        t, (height,), dropped = linalg._pivoted_cholesky_rows(q[None])
        assert t.shape == (height, n)
        table.append((ratio, height, float(dropped[0])))
    assert table == [(0.95, n - 1, 0.95 * stop), (1.05, n, 0.0)]


def test_size_zero_inputs_give_empty_results():
    for a, shape in ((np.zeros((0, 0)), (0,)), (np.zeros((3, 0, 0)), (3, 0)),
                     (np.zeros((0, 4, 4)), (0, 4))):
        dec = linalg.hermitian_eigen(a)
        assert dec.eigenvalues.shape == shape and dec.eigenvectors.shape == a.shape
    assert linalg.psd_sqrt(np.zeros((0, 0))).shape == (0, 0)
    rows, heights, dropped = linalg._pivoted_cholesky_rows(np.zeros((0, 4, 4)))
    assert rows.shape == (0, 4) and heights == [] and dropped.shape == (0,)
    rows, heights, dropped = linalg._pivoted_cholesky_rows(np.zeros((3, 0, 0)))
    assert rows.shape == (0, 0) and heights == [0] * 3 and dropped.tolist() == [0.0] * 3


def test_transposed_and_fortran_inputs_give_the_same_bits():
    h = random_hermitian(6, seed=8)
    p = random_psd(5, seed=9)
    for strided, copy in ((h.T, np.ascontiguousarray(h.T)),
                          (np.asfortranarray(h), h.copy())):
        a, b = linalg.hermitian_eigen(strided), linalg.hermitian_eigen(copy)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
    stack = np.array([random_hermitian(4, seed=s) for s in range(3)])
    swapped = np.swapaxes(stack, -1, -2)
    assert np.array_equal(linalg.hermitian_eigen(swapped).eigenvectors,
                          linalg.hermitian_eigen(np.ascontiguousarray(swapped)).eigenvectors)
    assert np.array_equal(linalg.psd_sqrt(np.asfortranarray(p)), linalg.psd_sqrt(p))
    assert np.array_equal(linalg.psd_sqrt(p.T), linalg.psd_sqrt(np.ascontiguousarray(p.T)))
    with pytest.raises(ValueError, match="NaN or Inf"):
        linalg.hermitian_eigen(np.asfortranarray(np.array([[1.0, np.inf], [np.inf, 1.0]])))


ONE_JSON = {"rows": 1, "cols": 1, "data": [[1, 0]]}


@pytest.mark.parametrize(
    "payload",
    [
        (linalg.matrix_from_json, {"rows": 1.5, "cols": 1, "data": [[1, 0]]}),
        (linalg.matrix_from_json, {"rows": 1, "cols": True, "data": [[1, 0]]}),
        (linalg.matrix_from_json, {"rows": "1", "cols": 1, "data": [[1, 0]]}),
        (linalg.vector_from_json, {"dim": "1", "entries": [[1, 0]]}),
        (linalg.vector_from_json, {"dim": 1.0, "entries": [[1, 0]]}),
        (linalg.vector_from_json, {"dim": True, "entries": [[1, 0]]}),
        (ovf_from_json, {"atoms": ["a"], "weights": [True], "dim_h": 1, "blocks": [ONE_JSON]}),
        (ovf_from_json, {"atoms": ["a"], "weights": ["2"], "dim_h": 1, "blocks": [ONE_JSON]}),
        (coefficients_from_json, {"atoms": ["a"], "weights": [True], "segments": [[[1, 0]]]}),
        (coefficients_from_json, {"atoms": ["a"], "weights": ["2"], "segments": [[[1, 0]]]}),
        (decomposition_from_json, {"atoms": ["a"], "weights": [True], "dim_h": 1,
                                   "densities": [ONE_JSON]}),
        (decomposition_from_json, {"atoms": ["a"], "weights": ["2"], "dim_h": 1,
                                   "densities": [ONE_JSON]}),
        (ovf_from_json, {"atoms": ["a"], "weights": [1],
                         "dim_h": 1, "blocks": [{"rows": 1, "cols": True, "data": [[1, 0]]}]}),
    ],
)
def test_loaders_coerce_no_field_type(payload):
    """Sizes are JSON integers and weights JSON numbers: a float, a bool or a
    string in their place is a ParseError, not a number."""
    parse, obj = payload
    with pytest.raises(ParseError):
        parse(obj)


def test_loaders_take_integer_and_float_weights():
    ovf = ovf_from_json({"atoms": ["a", "b"], "weights": [2, 0.5], "dim_h": 1,
                         "blocks": [ONE_JSON, ONE_JSON]})
    assert ovf.space.weights.tolist() == [2.0, 0.5]
    assert linalg.vector_from_json({"dim": 1, "entries": [[1, 0]]}).tolist() == [1 + 0j]


def gram_case(rows, dim, seed):
    return complex_box(rng_for(seed), (rows, dim))


def gram_eigen(g):
    """Eigenvalues of G* G the way a frame takes them: the scaled QR factor, then the sweeps."""
    return linalg._one_sided_jacobi(*linalg._scaled_r(g, np.ones(len(g))))


@pytest.mark.parametrize("rows,dim", [(1, 1), (3, 2), (10, 3), (36, 16), (17, 17), (144, 64)])
def test_gram_eigen_gives_the_ascending_eigenvalues_of_g_star_g(rows, dim):
    g = gram_case(rows, dim, seed=rows + dim)
    lam = gram_eigen(g)
    s = linalg.adjoint(g) @ g
    assert lam.shape == (dim,) and lam.dtype == np.float64
    assert np.all(np.diff(lam) >= 0.0)
    assert np.allclose(lam, np.linalg.eigvalsh(s), rtol=1e-12, atol=0.0)
    assert not lam.flags.writeable


def test_gram_eigen_is_bit_deterministic_in_any_layout():
    g = gram_case(30, 12, seed=5)
    first = gram_eigen(g)
    for again in (g.copy(), np.asfortranarray(g), np.ascontiguousarray(g.T).T):
        assert np.array_equal(gram_eigen(again), first)


def test_gram_eigen_of_a_rank_deficient_g_raises_no_warning():
    # fewer rows than columns, a zero column, no rows: lambda_min is zero to working precision
    g = gram_case(40, 9, seed=6)
    g[:, 4] = 0.0
    for case in (gram_case(5, 9, seed=7), g, np.zeros((0, 9))):
        lam = gram_eigen(case)  # pytest turns RuntimeWarnings into errors
        assert lam[0] <= 1e-28 * max(lam[-1], 1.0)


def test_gram_eigen_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
    assert np.array_equal(gram_eigen(np.diag([3.0, 1.0, 2.0])), [1.0, 4.0, 9.0])
    with pytest.raises(NoConvergence):
        gram_eigen(gram_case(6, 4, seed=8))


def scaled_down(g, e):
    """g / 2^e, exactly."""
    return np.ldexp(np.ascontiguousarray(g).view(np.float64), -e).view(np.complex128)


def assert_matches_lapack_r(r, g):
    """R equals numpy's (LAPACK's) R of g up to a unit diagonal, row by row: the
    triangular factor of a full-rank G is unique up to one."""
    r_np = np.linalg.qr(g, mode="r")
    unit = np.diag(r)[: len(r_np)] / np.diag(r_np)
    assert np.allclose(np.abs(unit), 1.0, rtol=0.0, atol=1e-12)
    eps = np.finfo(float).eps
    tol = 4 * len(g) * eps * np.linalg.norm(g)
    assert np.linalg.norm(r[: len(r_np)] - unit[:, None] * r_np) <= tol
    assert not np.any(r[len(r_np):])


# shapes on both sides of the panel width (15 | 16 | 17, 32 | 33) and of the
# flat path's row limit (_FLAT_QR_ROWS = 256 | 257)
@pytest.mark.parametrize("rows,dim", [(1, 1), (3, 2), (10, 3), (36, 16), (17, 17), (144, 64),
                                      (40, 15), (40, 16), (40, 17), (72, 32), (72, 33),
                                      (256, 16), (257, 16), (256, 65), (257, 65)])
def test_scaled_r_is_the_triangular_factor_of_the_scaled_rows(rows, dim):
    rng = rng_for(rows * dim)
    g = gram_case(rows, dim, seed=rows + dim) * 1e-3
    scale = rng.uniform(0.5, 2.0, rows)
    r, e = linalg._scaled_r(g, scale)
    weighted = scale[:, None] * g
    f = np.ldexp(weighted.view(np.float64), -e)
    assert 0.5 <= np.max(np.abs(f)) < 1.0
    assert np.array_equal(r, np.triu(r)) and not r.flags.writeable
    gram = linalg.adjoint(f.view(np.complex128)) @ f.view(np.complex128)
    eps = np.finfo(float).eps
    assert np.linalg.norm(linalg.adjoint(r) @ r - gram) <= 4 * rows * eps * np.linalg.norm(gram)
    assert_matches_lapack_r(r, f.view(np.complex128))
    again, e_again = linalg._scaled_r(weighted, np.ones(rows))  # the same G, weighted beforehand
    assert np.array_equal(r, again) and e == e_again


def edge_case(kind, rows, dim):
    """A 20-column G whose QR meets one edge of the reflector, in the first panel
    and in the second: a zero column, a column zero below its head (G upper
    triangular in its first 18 columns, so R = -G in those rows), or a head
    x_0 = 0 over a nonzero tail (column 5 or 16 after 5 or 16 such columns)."""
    g = gram_case(rows, dim, seed=rows + dim)
    if kind == "zero column":
        g[:, [3, 17]] = 0.0
    elif kind == "zero tail":
        g[:, :18] = np.triu(g[:, :18])
    else:
        head = int(kind[-2:])
        g[:, :head] = np.triu(g[:, :head])
        g[head, head] = 0.0
    return g


@pytest.mark.parametrize("rows", [40, linalg._FLAT_QR_ROWS + 1])  # the flat path, then the recursion
@pytest.mark.parametrize("kind", ["zero column", "zero tail", "zero head 05", "zero head 16"])
def test_scaled_r_takes_every_edge_of_the_reflector(kind, rows):
    g = edge_case(kind, rows, 20)
    r, e = linalg._scaled_r(g, np.ones(rows))  # pytest turns RuntimeWarnings into errors
    f = scaled_down(g, e)
    assert np.array_equal(r, np.triu(r))
    gram = linalg.adjoint(f) @ f
    eps = np.finfo(float).eps
    assert np.linalg.norm(linalg.adjoint(r) @ r - gram) <= 4 * rows * eps * np.linalg.norm(gram)
    if kind == "zero column":  # H = I there: R's column is zero, above its diagonal too
        assert not np.any(r[:, [3, 17]])
        return
    assert_matches_lapack_r(r, f)
    if kind == "zero tail":  # each reflector is I - 2 e_j e_j*, to rounding: R = -G in those rows
        assert np.all(np.abs(r[:18] + f[:18]) <= 4 * eps * np.abs(f[:18]))
    else:  # the head's phase is taken as 1: beta = -||x||
        head = int(kind[-2:])
        assert r[head, head].imag == 0.0 and r[head, head].real < 0.0


@pytest.mark.parametrize("size,head", [(size, head) for size in (1, 2, 9, 40)
                                       for head in ("random", "zero", "imaginary")
                                       if (size, head) != (1, "zero")])  # that x is zero
def test_reflector_maps_its_column_onto_the_first_axis(size, head):
    """_reflector(x) writes v over x with v_0 = 1 and returns (beta, tau), |beta| =
    ||x||, with H x = beta e_0 for H = I - tau v v* within rounding; a zero head
    takes the phase 1, so beta = -||x||."""
    x = complex_box(rng_for(size), size)
    if head == "zero":
        x[0] = 0.0
    elif head == "imaginary":
        x[0] = 1j * x[0].imag
    v = x.copy()
    beta, tau = linalg._reflector(v)
    eps, norm = np.finfo(float).eps, np.linalg.norm(x)
    assert v[0] == 1.0 and abs(abs(beta) - norm) <= 4 * eps * norm
    hx = x - tau * v * np.vdot(v, x)
    assert np.linalg.norm(hx - beta * np.eye(size)[0]) <= 8 * size * eps * norm
    if head == "zero":
        assert beta == -norm


@pytest.mark.parametrize("size", [1, 5])
def test_reflector_of_a_zero_column_is_the_identity(size):
    """A zero x gives (x_0, 0.0), x_0's sign bits kept, and v = 0."""
    x = np.zeros(size, dtype=complex)
    x[0] = complex(-0.0, -0.0)
    beta, tau = linalg._reflector(x)
    assert tau == 0.0 and not x.any()
    assert np.array(beta).tobytes() == np.array(complex(-0.0, -0.0)).tobytes()


@pytest.mark.parametrize("rows,dim", [(10, 20), (100, 257)])  # the flat path, then the recursion
def test_scaled_r_of_fewer_rows_than_columns_has_zero_rows_below(rows, dim):
    g = gram_case(rows, dim, seed=rows)
    r, e = linalg._scaled_r(g, np.ones(rows))
    assert np.array_equal(r, np.triu(r))
    assert_matches_lapack_r(r, scaled_down(g, e))


def test_only_a_work_array_past_the_row_limit_takes_the_recursion(monkeypatch):
    calls = count_calls(monkeypatch, linalg, "_reflect_columns")
    limit = linalg._FLAT_QR_ROWS
    assert limit == 256  # the measured crossover at n >= 32, 1 BLAS thread
    for rows, dim in ((27, 12), (limit, 8), (limit, 64), (10, limit)):
        linalg._scaled_r(gram_case(rows, dim, seed=rows + dim), np.ones(rows))
    assert calls["_reflect_columns"] == 0
    linalg._scaled_r(gram_case(limit + 1, 16, seed=3), np.ones(limit + 1))
    assert calls["_reflect_columns"] == 2 * 16 - 1  # every node of the recursion
    linalg._scaled_r(gram_case(10, limit + 1, seed=4), np.ones(10))  # padded past the limit
    assert calls["_reflect_columns"] == 2 * 16 - 1 + 2 * (limit + 1) - 1


@pytest.mark.parametrize("dim", [1, 2, 3, 16, 17, 63, 64, 65, 129])
def test_triangular_inverse_inverts_the_factor(dim):
    r, _ = linalg._scaled_r(gram_case(3 * dim, dim, seed=dim), np.ones(3 * dim))
    inv = linalg._triangular_inverse(r)
    eps = np.finfo(float).eps
    assert np.array_equal(inv, np.triu(inv)) and not inv.flags.writeable
    cond = np.linalg.cond(r)
    assert np.linalg.norm(inv @ r - np.eye(dim)) <= 4 * dim * eps * cond
    assert np.linalg.norm(r @ inv - np.eye(dim)) <= 4 * dim * eps * cond


def test_triangular_inverse_of_a_singular_factor_is_not_finite_without_warnings():
    # the last two are wider than any frame the benchmark builds (64 columns)
    wide = np.ones(70)
    wide[[3, 66]] = 0.0
    tiny = np.ones(130)
    tiny[100] = 1e-310
    for diagonal in ([1.0, 0.0, 2.0], [1.0, 1e-310, 1.0], [0.0, 0.0], wide, tiny):
        r = np.triu(np.ones((len(diagonal),) * 2, dtype=np.complex128), 1) + np.diag(diagonal)
        inv = linalg._triangular_inverse(r)  # pytest turns RuntimeWarnings into errors
        assert not np.all(np.isfinite(inv))
