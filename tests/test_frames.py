import json
import tracemalloc

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
    frame_algorithm,
    frame_bounds,
    frame_operator,
    from_vector_frame,
    inner,
    frames,
    linalg,
    reconstruct_direct,
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
from framekit.linalg import TOL_FRAME_REL

from conftest import (complex_box, count_calls, random_ovf, random_vector_frame, rng_for,
                      rotated_rows)

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


# A 2 x 2 frame whose R has r_22 = 1e-310: 1 / r_22 overflows.
_TINY = np.array([[1.0, 0.0], [0.0, 1e-310]])


@pytest.mark.parametrize("blocks,dim,factored", [
    ([complex_box(rng_for(1), (2, 3))], 3, 0),  # fewer rows than dim_h: refused before the QR
    ([np.array([[1.0, 0.0, 2.0]]), np.array([[3.0, 0.0, 1j]]), np.array([[1.0, 0.0, 1.0]])], 3, 1),
    ([], 3, 0),  # no atoms, so no rows
    ([_TINY[:1], _TINY[1:]], 2, 1),
], ids=["few-rows", "zero-column", "no-atoms", "overflowing-inverse"])
def test_rank_deficient_families_are_not_frames_without_warnings(blocks, dim, factored, monkeypatch):
    """A family with fewer rows than dim_h is refused by its row count, exactly,
    with no factor; otherwise the certificate declines and the eigenvalues decide."""
    space = AtomicMeasureSpace(atoms=[str(t) for t in range(len(blocks))], weights=np.ones(len(blocks)))
    calls = count_calls(monkeypatch, linalg, "_one_sided_jacobi", "_scaled_r")
    with pytest.raises(NotAFrame):  # pytest turns RuntimeWarnings into errors
        OperatorValuedFrame(space=space, dim_h=dim, blocks=blocks)
    assert calls == {"_one_sided_jacobi": factored, "_scaled_r": factored}


def test_each_frame_takes_its_eigenpairs_from_one_gram_eigen_call(monkeypatch):
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen", "_scaled_r", "_one_sided_jacobi")
    for seed in range(3):
        random_ovf(dim=4, atoms=5, seed=seed)  # one QR each, certified without sweeps
        assert calls == {"hermitian_eigen": 0, "_scaled_r": seed + 1, "_one_sided_jacobi": 0}
    f = random_ovf(dim=4, atoms=5, seed=0)
    w = np.sqrt(f._row_weights)[:, None] * f._rows
    again = linalg._one_sided_jacobi(*linalg._scaled_r(w, np.ones(len(w))))  # on G itself
    assert np.array_equal(f._eigen.eigenvalues, again.eigenvalues)
    assert np.array_equal(f._eigen.eigenvectors, again.eigenvectors)
    assert calls == {"hermitian_eigen": 0, "_scaled_r": 5, "_one_sided_jacobi": 2}


def test_a_certified_frame_diagonalizes_once_on_the_first_read_of_its_bounds(monkeypatch):
    calls = count_calls(monkeypatch, linalg, "_one_sided_jacobi", "hermitian_eigen")
    f = random_ovf(dim=6, atoms=9, seed=4)
    reconstruct_direct(f, analysis(f, complex_box(rng_for(5), 6)))
    assert calls == {"_one_sided_jacobi": 0, "hermitian_eigen": 0}
    first = frame_bounds(f)
    assert calls == {"_one_sided_jacobi": 1, "hermitian_eigen": 0}
    assert frame_bounds(f) is first and f._eigen is f._eigen
    frame_algorithm(f, analysis(f, complex_box(rng_for(6), 6)))
    assert calls == {"_one_sided_jacobi": 1, "hermitian_eigen": 0}


def test_frames_diagonalized_together_get_the_bits_of_lone_calls(monkeypatch):
    """_diagonalize takes every frame with no eigenpairs yet through one stacked
    Jacobi call, each with its own exponent, and skips the frames that have them."""
    def build():  # S of very different scales, so the exponents differ
        return [random_ovf(dim=5, atoms=4 + k, seed=30 + k, weights=np.full(4 + k, 10.0 ** (6 * k)))
                for k in range(3)]

    lone = [f._eigen for f in build()]
    together = build()
    assert len({f._factor_exponent for f in together}) == 3
    cached = together[1]._eigen
    calls = count_calls(monkeypatch, linalg, "_one_sided_jacobi")
    eigs = frames._diagonalize(*together)
    assert calls == {"_one_sided_jacobi": 1}
    assert eigs[1] is cached and frames._diagonalize(*together) == eigs
    assert calls == {"_one_sided_jacobi": 1}
    for f, eig, alone in zip(together, eigs, lone):
        assert f._eigen is eig
        assert eig.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
        assert eig.eigenvectors.tobytes() == alone.eigenvectors.tobytes()
        assert not eig.eigenvalues.flags.writeable and not eig.eigenvectors.flags.writeable
    assert frames._diagonalize() == ()


def _graded(dim, cond_s):
    """dim log-spaced singular values from 1 down, with (max / min)^2 = cond_s."""
    return np.logspace(0.0, -0.5 * np.log10(cond_s), dim)


def test_the_verdict_near_the_threshold_is_the_eager_one(monkeypatch):
    """Frames with cond(S) = (1 +- delta) / TOL_FRAME_REL fail the certificate, so
    each takes the eigenvalue verdict at construction: the same verdict, from
    the same sweeps on the same R, as when every frame was diagonalized."""
    calls = count_calls(monkeypatch, linalg, "_one_sided_jacobi")
    rng = rng_for(21)
    verdicts = []
    for k in range(200):
        delta = 10.0 ** -(2 + k % 5) * (1 if k % 2 else -1)  # +-1e-2 ... +-1e-6
        dim = 3 + k % 4
        rows = rotated_rows(rng, 2 * dim, _graded(dim, (1.0 + delta) / TOL_FRAME_REL))
        lam = linalg._one_sided_jacobi(*linalg._scaled_r(rows, np.ones(len(rows)))).eigenvalues
        eager = frames._positive_definite(float(lam[0]), float(lam[-1]))
        before = calls["_one_sided_jacobi"]
        try:
            discretize_continuous(np.conj(rows), np.ones(len(rows)))
            verdicts.append(True)
        except NotAFrame:
            verdicts.append(False)
        assert verdicts[-1] == eager
        assert calls["_one_sided_jacobi"] == before + 1  # the fallback ran the sweeps
    assert 50 < sum(verdicts) < 150  # both verdicts occur


def test_a_frame_the_sweeps_accept_at_the_threshold_keeps_a_bound_past_it():
    """cond(S) = (1 - 1e-8) / TOL_FRAME_REL passes the eigenvalue test, but the
    bound the frame keeps, upper / lower times the sweeps' rounding allowance
    (6e-7 here), does not clear 1 / TOL_FRAME_REL, so to-povm's and
    to-ovf's framed check fails there rather than pass on a verdict the
    rounding could reverse."""
    rows = rotated_rows(rng_for(28), 6, _graded(3, (1.0 - 1e-8) / TOL_FRAME_REL))
    f = discretize_continuous(np.conj(rows), np.ones(len(rows)))
    b = frame_bounds(f)
    assert TOL_FRAME_REL * b.upper / b.lower < 1.0
    assert 1.0 < TOL_FRAME_REL * f._condition < 1.0 + 1e-5


def test_the_certificate_accepts_only_frames():
    """Across cond(S) from 1e2 to the threshold, every family the certificate
    accepts without sweeps passes the eigenvalue test too."""
    rng = rng_for(22)
    accepted = 0
    for k in range(120):
        dim = 2 + k % 7
        rows = rotated_rows(rng, 3 * dim, _graded(dim, 10.0 ** (2 + 8 * k / 120)))
        f = discretize_continuous(np.conj(rows), np.ones(len(rows)))
        if "_bounds" not in vars(f):  # no sweep ran at construction
            accepted += 1
            assert frames._positive_definite(frame_bounds(f).lower, frame_bounds(f).upper)
    assert 60 < accepted < 120


def test_building_a_frame_holds_one_tall_copy_besides_its_rows():
    """Peak traced memory of building a frame from a 4096 x 64 stack, against the
    stack's bytes: the rows plus about two tall temporaries at a time (the QR's
    one work array, then a node's V* and its product); S is not formed.  3.11
    measured; the pin is 3.13, measured while S was still formed, plus 10%."""
    rng = rng_for(23)
    blocks = [complex_box(rng, (64, 64)) for _ in range(64)]
    space = AtomicMeasureSpace(atoms=[str(t) for t in range(64)], weights=rng.uniform(0.5, 2.0, 64))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        OperatorValuedFrame(space=space, dim_h=64, blocks=blocks)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (4096 * 64 * 16) <= 3.45


def test_the_frame_operator_is_formed_only_when_read():
    """Building a frame, diagonalizing it, analysis and direct reconstruction never
    form S; frame_operator forms it once, read-only, with the bits of B* diag(w) B."""
    well = random_ovf(dim=5, atoms=7, seed=24)
    ill = from_vector_frame(VectorFrame(dim_h=16, vectors=ill_conditioned_vectors()))
    for f in (well, ill):
        x = complex_box(rng_for(25), f.dim_h)
        reconstruct_direct(f, analysis(f, x))
        frame_bounds(f)
        assert "_operator" not in vars(f)
        s = frame_operator(f)
        assert frame_operator(f) is s
        assert not s.flags.writeable
        b, w = f._rows, f._row_weights
        assert np.array_equal(s, linalg.hermitize(linalg.adjoint(b) @ (w[:, None] * b)))


def ill_conditioned_vectors():
    """48 rows in 16 dims with singular values graded over 4.25 decades, between
    random unitaries: cond(S) = 3.2e8."""
    return rotated_rows(rng_for(3), 48, np.logspace(0.0, -4.25, 16))


def test_bounds_of_an_ill_conditioned_frame_match_a_50_digit_svd():
    """A 16-dim vector frame of 48 rows with singular values graded over 4.25
    decades, between random unitaries: cond(S) = 3.2e8.  The bounds are the
    squared extreme singular values of the stored rows, which mpmath computes
    to 50 digits; forming S and diagonalizing it loses about cond(S) * eps."""
    mpmath = pytest.importorskip("mpmath")
    vectors = ill_conditioned_vectors()
    b = frame_bounds(from_vector_frame(VectorFrame(dim_h=16, vectors=vectors)))
    with mpmath.workdps(50):
        sv = sorted(mpmath.svd_c(mpmath.matrix(vectors.tolist()), compute_uv=False))
        lower, upper = sv[0] ** 2, sv[-1] ** 2
        assert float(upper / lower) == pytest.approx(3.16e8, rel=1e-2)
        assert float(abs(b.lower - lower) / lower) <= 1e-12
        assert float(abs(b.upper - upper) / upper) <= 1e-12


def test_direct_reconstruction_of_an_ill_conditioned_frame_is_accurate():
    """On the cond(S) = 3.2e8 frame the least-squares solve recovers analysed
    vectors to about cond(G) eps, where a solve through S loses about
    cond(S) eps = 3.5e-8."""
    f = from_vector_frame(VectorFrame(dim_h=16, vectors=ill_conditioned_vectors()))
    rng = rng_for(31)
    for _ in range(5):
        x = complex_box(rng, 16)
        x_hat = reconstruct_direct(f, analysis(f, x))
        assert np.linalg.norm(x_hat - x) <= 1e-12 * np.linalg.norm(x)


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


def test_per_atom_views_are_cut_on_first_read():
    """No constructor, loader or analysis cuts per-atom views; the first read of
    ``segments`` or ``blocks`` cuts read-only views flat[offsets[t]:offsets[t + 1]]
    into the one flat array, and every later read returns that same tuple."""
    f = random_ovf(dim=5, atoms=7, seed=13)
    c = analysis(f, complex_box(rng_for(14), 5))
    built = CoefficientField(f.space, [np.ones(k) for k in np.diff(f._offsets)])
    fields = [(obj, "segments", obj._values) for obj in
              (c, coefficients_from_json(coefficients_to_json(c)), built)]
    fields += [(obj, "blocks", obj._rows) for obj in (f, ovf_from_json(ovf_to_json(f)))]
    for obj, name, flat in fields:
        assert name not in vars(obj) and name not in repr(obj)
        views = getattr(obj, name)
        offsets = obj._offsets.tolist()
        assert len(views) == len(offsets) - 1
        for view, lo, hi in zip(views, offsets, offsets[1:]):
            assert view.shape == flat[lo:hi].shape and np.array_equal(view, flat[lo:hi])
            assert np.shares_memory(view, flat) and not view.flags.writeable
        assert getattr(obj, name) is views


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
