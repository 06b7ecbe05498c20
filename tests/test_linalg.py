"""Dense kernel tests.

numpy.linalg appears here as an independent cross-check only; the
library itself never calls it.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framekit import linalg
from framekit.correspondence import decomposition_from_json
from framekit.errors import (
    DimensionMismatch,
    NotHermitian,
    NotPsd,
    ParseError,
)
from framekit.frames import coefficients_from_json, ovf_from_json, vector_frame_from_json
from framekit.povm import povm_from_json

from conftest import complex_box, random_hermitian, random_psd, rng_for


def test_adjoint_conjugate_transposes():
    a = np.array([[1 + 2j, 3], [0, -1j]])
    assert np.array_equal(linalg.adjoint(a), np.array([[1 - 2j, 0], [3, 1j]]))


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


def test_hermitian_residual_zero_for_hermitian():
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    assert linalg.hermitian_residual(a) == 0.0
    assert linalg.is_hermitian(a)


def test_hermitize_is_idempotent_and_projects():
    a = complex_box(rng_for(3), (5, 5))
    h = linalg.hermitize(a)
    assert np.array_equal(linalg.adjoint(h), h)
    assert np.array_equal(linalg.hermitize(h), h)


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
    # Round-robin path: a zero matrix (norm-zero exit), a diagonal one
    # (converged before any rotation), one with a single live pair, and a
    # rotated two-level spectrum.
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


def test_eigen_is_bit_deterministic():
    for dim in (10, 17, 64):  # row-major path, then round-robin with odd and even n
        a = random_hermitian(dim, seed=77)
        d1 = linalg.hermitian_eigen(a.copy())
        d2 = linalg.hermitian_eigen(a.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


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
    assert float(linalg.hermitian_eigen(r).eigenvalues[0]) >= 0.0


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
    blob = json.dumps(linalg.matrix_to_json(a))
    back = linalg.matrix_from_json(json.loads(blob))
    assert np.array_equal(back, a)


def test_vector_json_round_trip_is_exact():
    v = complex_box(rng_for(61), 7)
    blob = json.dumps(linalg.vector_to_json(v))
    assert np.array_equal(linalg.vector_from_json(json.loads(blob)), v)


BIG = 10 ** 400  # a JSON integer too large for a double
INF = float("inf")  # what json.loads makes of 1e400
ONE = {"rows": 1, "cols": 1, "data": [[1, 0]]}


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
    ],
)
def test_matrix_from_json_rejects_malformed(payload):
    """matrix_from_json and the loaders that share its entry parsing."""
    parse, obj = payload
    with pytest.raises(ParseError):
        parse(obj)
