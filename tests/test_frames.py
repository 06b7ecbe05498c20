import json

import numpy as np
import pytest

from framekit import (
    AtomicMeasureSpace,
    CoefficientField,
    DimensionMismatch,
    EmptyFrame,
    FrameBounds,
    InvalidBounds,
    LimitExceeded,
    NotAFrame,
    OperatorValuedFrame,
    ParseError,
    SpaceMismatch,
    UnknownAtom,
    VectorFrame,
    analysis,
    discretize_continuous,
    frame_bounds,
    frame_operator,
    from_vector_frame,
    inner,
    linalg,
    synthesis,
)
from framekit.frames import (
    coefficients_from_json,
    coefficients_to_json,
    ovf_from_json,
    ovf_to_json,
    vector_frame_from_json,
    vector_frame_to_json,
)

from conftest import complex_box, count_calls, random_ovf, random_vector_frame, rng_for

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def overcomplete_pair_frame():
    return from_vector_frame(VectorFrame(dim_h=2, vectors=[E1, E1, E2]))


# -- measure space ---------------------------------------------------------


def test_measure_space_weights_and_total():
    s = AtomicMeasureSpace(atoms=["a", "b", "c"], weights=[1.0, 0.5, 2.0])
    assert s.weight("b") == 0.5
    assert s.mu(["a", "c"]) == 3.0
    assert s.mu([]) == 0.0
    assert len(s) == 3


def test_measure_space_is_additive_over_disjoint_events():
    s = AtomicMeasureSpace(atoms=list("abcd"), weights=[0.1, 0.2, 0.3, 0.4])
    assert s.mu(["a", "b"]) + s.mu(["c"]) == pytest.approx(s.mu(["a", "b", "c"]))


def test_measure_space_rejects_bad_input():
    with pytest.raises(ValueError):
        AtomicMeasureSpace(atoms=["a", "a"], weights=[1.0, 1.0])
    with pytest.raises(ValueError):
        AtomicMeasureSpace(atoms=["a"], weights=[0.0])
    with pytest.raises(DimensionMismatch):
        AtomicMeasureSpace(atoms=["a"], weights=[1.0, 2.0])
    with pytest.raises(UnknownAtom):
        AtomicMeasureSpace(atoms=["a"], weights=[1.0]).weight("z")


def test_frame_bounds_validation():
    b = FrameBounds(lower=1.0, upper=1.0)
    assert b.is_tight
    with pytest.raises(InvalidBounds):
        FrameBounds(lower=2.0, upper=1.0)
    with pytest.raises(InvalidBounds):
        FrameBounds(lower=0.0, upper=1.0)


# -- construction and bounds -------------------------------------------------


def test_orthonormal_basis_is_tight_with_bound_one():
    f = from_vector_frame(VectorFrame(dim_h=2, vectors=[E1, E2]))
    b = frame_bounds(f)
    assert b.lower == pytest.approx(1.0, abs=1e-14)
    assert b.upper == pytest.approx(1.0, abs=1e-14)
    assert b.is_tight


def test_overcomplete_pair_has_bounds_one_and_two():
    b = frame_bounds(overcomplete_pair_frame())
    assert b.lower == pytest.approx(1.0, abs=1e-13)
    assert b.upper == pytest.approx(2.0, abs=1e-13)


def test_equiangular_triple_is_tight():
    """Three unit vectors at 120 degrees: a tight frame with bound 3/2."""
    vecs = [
        [1.0, 0.0],
        [-0.5, np.sqrt(3) / 2],
        [-0.5, -np.sqrt(3) / 2],
    ]
    b = frame_bounds(from_vector_frame(VectorFrame(dim_h=2, vectors=vecs)))
    assert b.lower == pytest.approx(1.5, abs=1e-13)
    assert b.upper == pytest.approx(1.5, abs=1e-13)


def test_deficient_family_is_not_a_frame():
    with pytest.raises(NotAFrame):
        from_vector_frame(VectorFrame(dim_h=2, vectors=[E1, E1]))


@pytest.mark.parametrize("blocks", [
    [complex_box(rng_for(1), (2, 3))],  # fewer rows than dim_h
    [np.array([[1.0, 0.0, 2.0]]), np.array([[3.0, 0.0, 1j]]), np.array([[1.0, 0.0, 1.0]])],
    [],  # no atoms
], ids=["few-rows", "zero-column", "no-atoms"])
def test_rank_deficient_families_are_not_frames_without_warnings(blocks):
    space = AtomicMeasureSpace(atoms=[str(t) for t in range(len(blocks))], weights=np.ones(len(blocks)))
    with pytest.raises(NotAFrame):  # pytest turns RuntimeWarnings into errors
        OperatorValuedFrame(space=space, dim_h=3, blocks=blocks)


def test_each_frame_takes_its_eigenpairs_from_one_gram_eigen_call(monkeypatch):
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen", "_gram_eigen")
    for seed in range(3):
        random_ovf(dim=4, atoms=5, seed=seed)
        assert calls == {"hermitian_eigen": 0, "_gram_eigen": seed + 1}
    f = random_ovf(dim=4, atoms=5, seed=0)
    w = np.sqrt(f._row_weights)[:, None] * f._rows
    again = linalg._gram_eigen(w)
    assert np.array_equal(f._eigen.eigenvalues, again.eigenvalues)
    assert np.array_equal(f._eigen.eigenvectors, again.eigenvectors)


def test_bounds_of_an_ill_conditioned_frame_match_a_50_digit_svd():
    """A 16-dim vector frame of 48 rows with singular values graded over 4.25
    decades, between random unitaries: cond(S) = 3.2e8.  The bounds are the
    squared extreme singular values of the stored rows, which mpmath computes
    to 50 digits; forming S and diagonalizing it loses about cond(S) * eps."""
    mpmath = pytest.importorskip("mpmath")
    rng = rng_for(3)

    def unitary(rows, cols):
        q, r = np.linalg.qr(complex_box(rng, (rows, cols)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    vectors = (unitary(48, 16) * np.logspace(0.0, -4.25, 16)) @ unitary(16, 16).conj().T
    b = frame_bounds(from_vector_frame(VectorFrame(dim_h=16, vectors=vectors)))
    with mpmath.workdps(50):
        sv = sorted(mpmath.svd_c(mpmath.matrix(vectors.tolist()), compute_uv=False))
        lower, upper = sv[0] ** 2, sv[-1] ** 2
        assert float(upper / lower) == pytest.approx(3.16e8, rel=1e-2)
        assert float(abs(b.lower - lower) / lower) <= 1e-12
        assert float(abs(b.upper - upper) / upper) <= 1e-12


def test_empty_vector_frame_rejected():
    with pytest.raises(EmptyFrame):
        from_vector_frame(VectorFrame(dim_h=2, vectors=[]))


def test_block_shape_mismatch_rejected():
    space = AtomicMeasureSpace(atoms=["a"], weights=[1.0])
    with pytest.raises(DimensionMismatch):
        OperatorValuedFrame(space=space, dim_h=2, blocks=[np.ones((1, 3), dtype=complex)])


def test_discretize_single_sample_scalar_space():
    # one sample c with weight w gives S = w |c|^2 in C^1
    f = discretize_continuous(samples=[np.array([0.5 + 0.5j])], weights=[2.0])
    s = frame_operator(f)
    assert s.shape == (1, 1)
    assert s[0, 0] == pytest.approx(1.0)
    b = frame_bounds(f)
    assert b.lower == pytest.approx(1.0) and b.upper == pytest.approx(1.0)


def test_discretize_single_sample_cannot_span_two_dims():
    with pytest.raises(NotAFrame):
        discretize_continuous(samples=[np.array([1.0, 0.0])], weights=[1.0])


# -- analysis / synthesis ----------------------------------------------------


def test_analysis_segments_are_weighted_functionals():
    f = overcomplete_pair_frame()
    x = np.array([2.0, -1j])
    c = analysis(f, x)
    # segments hold <x, x_i> per atom, weights stay in the measure
    assert c.segments[0][0] == pytest.approx(2.0)
    assert c.segments[1][0] == pytest.approx(2.0)
    assert c.segments[2][0] == pytest.approx(-1j)


def test_analysis_cuts_the_one_product_without_a_copy(monkeypatch):
    f = random_ovf(dim=5, atoms=7, seed=11)
    x = complex_box(rng_for(12), 5)
    with monkeypatch.context() as m:
        m.setattr(np, "concatenate", None)  # the segments are not joined again
        c = analysis(f, x)
    assert np.array_equal(c._values, f._rows @ x)
    assert not c._values.flags.writeable
    assert [len(seg) for seg in c.segments] == [len(b) for b in f.blocks]
    for seg, lo in zip(c.segments, f._offsets[:-1]):
        assert np.shares_memory(seg, c._values)
        assert np.array_equal(seg, c._values[lo:lo + len(seg)])
    # the same field as the public constructor builds from those segments
    built = CoefficientField(f.space, [np.array(seg) for seg in c.segments])
    assert np.array_equal(built._values, c._values)
    assert np.array_equal(built._offsets, c._offsets)
    assert np.array_equal(synthesis(f, built), synthesis(f, c))


def test_analysis_synthesis_adjointness():
    """<analysis(x), c>_mu == <x, synthesis(c)> for random frames."""
    for seed in range(5):
        f = random_ovf(dim=4, atoms=6, seed=seed)
        rng = rng_for(1000 + seed)
        x = complex_box(rng, 4)
        segs = [complex_box(rng, b.shape[0]) for b in f.blocks]
        c = CoefficientField(space=f.space, segments=segs)
        ax = analysis(f, x)
        lhs = sum(
            w * inner(sa, sc)
            for w, sa, sc in zip(f.space.weights, ax.segments, c.segments)
        )
        rhs = inner(x, synthesis(f, c))
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_frame_operator_equals_weighted_outer_products():
    rng = rng_for(5)
    vecs = [complex_box(rng, 3) for _ in range(4)]
    f = from_vector_frame(VectorFrame(dim_h=3, vectors=vecs))
    expected = sum(np.outer(np.conj(v), v).T for v in vecs)
    assert np.allclose(frame_operator(f), expected, atol=1e-13)


def test_frame_operator_sandwich_matches_weighted_norms():
    # <Sx, x> = sum_t mu(t) ||T(t) x||^2, the defining identity
    f = random_ovf(dim=3, atoms=5, seed=8)
    x = complex_box(rng_for(88), 3)
    lhs = inner(frame_operator(f) @ x, x).real
    rhs = sum(
        w * float(np.linalg.norm(b @ x) ** 2)
        for w, b in zip(f.space.weights, f.blocks)
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_synthesis_rejects_foreign_coefficients():
    f1 = overcomplete_pair_frame()
    f2 = random_ovf(dim=2, atoms=4, seed=2)
    c = analysis(f2, np.array([1.0, 1.0]))
    with pytest.raises(SpaceMismatch):
        synthesis(f1, c)


def test_analysis_rejects_wrong_dimension():
    with pytest.raises(DimensionMismatch):
        analysis(overcomplete_pair_frame(), np.array([1.0, 0.0, 0.0]))


def test_bounds_sandwich_every_vector():
    f = random_ovf(dim=5, atoms=7, seed=3)
    b = frame_bounds(f)
    s = frame_operator(f)
    for seed in range(10):
        x = complex_box(rng_for(seed), 5)
        nsq = inner(x, x).real
        q = inner(s @ x, x).real
        assert b.lower * nsq <= q + 1e-9
        assert q <= b.upper * nsq + 1e-9


# -- serialization -----------------------------------------------------------


def test_ovf_json_round_trip_is_exact():
    f = random_ovf(dim=3, atoms=4, seed=12)
    back = ovf_from_json(json.loads(json.dumps(ovf_to_json(f))))
    assert back.space == f.space
    assert all(np.array_equal(a, b) for a, b in zip(back.blocks, f.blocks))


def test_vector_frame_json_round_trip_is_exact():
    f = random_vector_frame(dim=3, atoms=5, seed=13)
    back = vector_frame_from_json(json.loads(json.dumps(vector_frame_to_json(f))))
    assert back.dim_h == f.dim_h
    assert all(np.array_equal(a, b) for a, b in zip(back.vectors, f.vectors))


def test_coefficients_json_round_trip_is_exact():
    f = random_ovf(dim=2, atoms=3, seed=14)
    c = analysis(f, np.array([1.0, 1j]))
    back = coefficients_from_json(json.loads(json.dumps(coefficients_to_json(c))))
    assert back.space == c.space
    assert all(np.array_equal(a, b) for a, b in zip(back.segments, c.segments))


def test_ovf_from_json_rejects_missing_fields():
    with pytest.raises(ParseError):
        ovf_from_json({"atoms": ["a"], "weights": [1.0]})
    with pytest.raises(ParseError):
        vector_frame_from_json({"vectors": []})


def test_fortran_and_transposed_inputs_give_the_same_bits():
    rng = rng_for(12)
    vectors = complex_box(rng, (5, 3))
    strided = VectorFrame(dim_h=3, vectors=np.asfortranarray(vectors))
    plain = VectorFrame(dim_h=3, vectors=vectors.copy())
    assert np.array_equal(strided.vectors, plain.vectors)
    assert strided.vectors.flags.c_contiguous
    blocks = [complex_box(rng, (3, 2)).T for _ in range(3)]  # 2 x 3 transposed views
    space = AtomicMeasureSpace(atoms=["a", "b", "c"], weights=[1.0, 0.5, 2.0])
    f = OperatorValuedFrame(space=space, dim_h=3, blocks=blocks)
    g = OperatorValuedFrame(space=space, dim_h=3, blocks=[np.ascontiguousarray(b) for b in blocks])
    assert np.array_equal(frame_operator(f), frame_operator(g))
    assert np.array_equal(f._eigen.eigenvectors, g._eigen.eigenvectors)
    assert (frame_bounds(f).lower, frame_bounds(f).upper) == (
        frame_bounds(g).lower, frame_bounds(g).upper)
    lone = OperatorValuedFrame(space=AtomicMeasureSpace(atoms=["a"], weights=[1.0]), dim_h=2,
                               blocks=[np.asfortranarray(complex_box(rng, (3, 2)))])
    assert lone._rows.flags.c_contiguous


def test_frame_refuses_rows_whose_operator_bound_squares_to_inf():
    """sum_t mu({t}) ||T(t)||_F^2 bounds ||S||_F; past sqrt(max double) S's norm
    cannot be squared, so the frame is refused before S is formed."""
    huge = VectorFrame(dim_h=2, vectors=[[1e308, 0.0], [0.0, 1.0]])  # entries are finite
    with pytest.raises(LimitExceeded):
        from_vector_frame(huge)
    with pytest.raises(LimitExceeded):  # S entries of 1e200: finite, but not their squares
        from_vector_frame(VectorFrame(dim_h=2, vectors=[[1e100, 0.0], [0.0, 1.0]]))
    space = AtomicMeasureSpace(atoms=["a"], weights=[1e300])
    with pytest.raises(LimitExceeded):  # the weights count too
        OperatorValuedFrame(space=space, dim_h=1, blocks=[np.ones((1, 1))])
    b = frame_bounds(from_vector_frame(VectorFrame(dim_h=2, vectors=[[1e60, 0.0], [0.0, 1e59]])))
    assert (b.lower, b.upper) == pytest.approx((1e118, 1e120), rel=1e-15)
