"""Forward and backward passage between frames and POVMs.

Hand oracles used below, all checkable by hand:

* frame {e1, e1, e2} in C^2 gives the POVM {diag(1,0), diag(1,0),
  diag(0,1)} with trace weights (1, 1, 1);
* the projective qubit POVM {diag(1,0), diag(0,1)} under the dyadic rule
  with the standard basis gets weights (1/2, 1/4) and densities
  diag(2,0), diag(0,4);
* scaling a decomposition to (2 mu, Q/2) leaves the weighted identity
  residual at exactly zero.
"""

import json

import numpy as np
import pytest

from framekit import (
    AtomicMeasureSpace,
    AtomMismatch,
    Decomposition,
    DimensionMismatch,
    InvalidPovm,
    NotAFrame,
    NotFramed,
    NotPsd,
    Povm,
    ReferenceMeasureRule,
    SequenceDoesNotSpan,
    VectorFrame,
    decompose,
    decomposition_to_ovf,
    frame_bounds,
    frame_operator,
    from_vector_frame,
    inner,
    ovf_to_povm,
    reference_measure,
    reintegration_residuals,
    verify_ovf_equivalence,
    verify_uniqueness,
)
from framekit import linalg
from framekit.correspondence import (
    all_events,
    decomposition_from_json,
    decomposition_to_json,
    sample_events,
)
from framekit.linalg import psd_sqrt

from conftest import complex_box, random_ovf, random_povm, rng_for

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def overcomplete_pair_frame():
    return from_vector_frame(VectorFrame(dim_h=2, vectors=[E1, E1, E2]))


def projective_qubit():
    return Povm(atoms=["a", "b"], dim_h=2,
                elements=[np.diag([1.0, 0.0]).astype(complex),
                          np.diag([0.0, 1.0]).astype(complex)])


def standard_basis_rule(dim):
    eye = np.eye(dim, dtype=complex)
    return ReferenceMeasureRule(kind="dyadic-sequence", sequence=[eye[:, j] for j in range(dim)])


# -- forward: frame to POVM ---------------------------------------------------


def test_povm_elements_are_weighted_block_grams():
    m = ovf_to_povm(overcomplete_pair_frame())
    assert [np.diag(e).real.tolist() for e in m.elements] == [
        [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def test_povm_total_equals_frame_operator():
    for seed in range(5):
        f = random_ovf(dim=3, atoms=5, seed=seed)
        m = ovf_to_povm(f)
        assert np.allclose(m.total(), frame_operator(f), atol=1e-13)


def test_event_pairing_matches_weighted_sum():
    """<M(E)x, y> against the atomwise sum of mu(t) <T(t)x, T(t)y>."""
    f = random_ovf(dim=3, atoms=5, seed=7)
    m = ovf_to_povm(f)
    rng = rng_for(123)
    for event in all_events(m.atoms):
        x, y = complex_box(rng, 3), complex_box(rng, 3)
        lhs = inner(m.evaluate(event) @ x, y)
        rhs = sum(
            f.space.weight(t) * inner(f.blocks[f.space.index(t)] @ x,
                                      f.blocks[f.space.index(t)] @ y)
            for t in event
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# -- reference measures -------------------------------------------------------


def test_trace_rule_weights():
    w = reference_measure(ovf_to_povm(overcomplete_pair_frame()))
    assert w.tolist() == [1.0, 1.0, 1.0]


def test_dyadic_rule_weights_on_projective_qubit():
    w = reference_measure(projective_qubit(), standard_basis_rule(2))
    assert w.tolist() == [0.5, 0.25]


def test_dyadic_rule_rejects_non_spanning_sequence():
    with pytest.raises(SequenceDoesNotSpan):
        reference_measure(
            projective_qubit(),
            ReferenceMeasureRule(kind="dyadic-sequence", sequence=[E1, E1]),
        )
    with pytest.raises(SequenceDoesNotSpan):
        reference_measure(
            projective_qubit(),
            ReferenceMeasureRule(kind="dyadic-sequence", sequence=[E1]),
        )


def test_rule_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        ReferenceMeasureRule(kind="median")
    with pytest.raises(ValueError):
        ReferenceMeasureRule(kind="dyadic-sequence", sequence=[])
    with pytest.raises(ValueError):
        ReferenceMeasureRule(kind="dyadic-sequence", sequence=[2.0 * E1])


# -- backward: POVM to decomposition ------------------------------------------


def test_decompose_projective_qubit_with_dyadic_rule():
    d = decompose(projective_qubit(), standard_basis_rule(2))
    assert d.measure.weights.tolist() == [0.5, 0.25]
    assert np.allclose(d.densities[0], np.diag([2.0, 0.0]), atol=0)
    assert np.allclose(d.densities[1], np.diag([0.0, 4.0]), atol=0)


def test_decompose_reintegrates_every_event_exactly():
    for seed in range(5):
        m = random_povm(dim=3, atoms=6, seed=seed)
        d = decompose(m)
        max_res, mean_res = reintegration_residuals(m, d)
        tol = 1e-10 * (1 + np.linalg.norm(m.total()))
        assert max_res <= tol
        assert mean_res <= max_res


def test_decompose_drops_zero_weight_atoms():
    m = Povm(atoms=["a", "b", "null"], dim_h=2,
             elements=[np.diag([1.0, 0.0]).astype(complex),
                       np.diag([0.0, 1.0]).astype(complex),
                       np.zeros((2, 2), dtype=complex)])
    d = decompose(m)
    assert d.measure.atoms == ("a", "b")
    max_res, _ = reintegration_residuals(m, d)
    assert max_res == 0.0


def test_decompose_rejects_invalid_povm():
    bad = np.diag([1.0, -1e-3]).astype(complex)
    m = Povm(atoms=["a", "b"], dim_h=2,
             elements=[np.diag([1.0, 0.0]).astype(complex), bad])
    with pytest.raises(InvalidPovm):
        decompose(m)


def test_densities_must_be_hermitian_psd():
    space = AtomicMeasureSpace(atoms=["a"], weights=[1.0])
    with pytest.raises(NotPsd):
        Decomposition(measure=space, densities=[np.diag([1.0, -1.0]).astype(complex)])


# -- decomposition back to a frame --------------------------------------------


def test_recovered_blocks_are_density_square_roots():
    d = decompose(projective_qubit(), standard_basis_rule(2))
    ovf = decomposition_to_ovf(d)
    for block, q in zip(ovf.blocks, d.densities):
        assert np.allclose(block @ block, q, atol=1e-12)
    # The blocks come from the decomposition's kept eigenpairs and must be
    # psd_sqrt's roots bit for bit: trace and dyadic rules, below and from
    # n = 16 (the round-robin Jacobi path), and a density read back from
    # JSON that is Hermitian only to within TOL_HERM.
    cases = []
    for dim, atoms in ((3, 5), (17, 3)):
        m = random_povm(dim=dim, atoms=atoms, seed=dim)
        cases += [decompose(m), decompose(m, standard_basis_rule(dim))]
    blob = decomposition_to_json(cases[0])
    q = linalg.matrix_from_json(blob["densities"][1])
    q[0, 1] += 1e-12 * linalg.frobenius(q)
    assert 0.0 < linalg.hermitian_residual(q) <= linalg.TOL_HERM
    blob["densities"][1] = linalg.matrix_to_json(q)
    cases.append(decomposition_from_json(blob))
    for d in cases:
        ovf = decomposition_to_ovf(d)
        for block, q in zip(ovf.blocks, d.densities):
            assert np.array_equal(block, psd_sqrt(q))


def test_recovered_frame_diagonalizes_only_its_frame_operator(monkeypatch):
    d = decompose(random_povm(dim=4, atoms=6, seed=3))
    calls = {"hermitian_eigen": 0, "psd_sqrt": 0}
    for name in calls:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(linalg, name, counted)
    decomposition_to_ovf(d)
    assert calls == {"hermitian_eigen": 1, "psd_sqrt": 0}


def test_round_trip_preserves_operator_and_bounds():
    for seed in range(10):
        f = random_ovf(dim=3, atoms=5, seed=seed)
        f2 = decomposition_to_ovf(decompose(ovf_to_povm(f)))
        s0, s1 = frame_operator(f), frame_operator(f2)
        assert np.allclose(s0, s1, atol=1e-9 * (1 + np.linalg.norm(s0)))
        b0, b1 = frame_bounds(f), frame_bounds(f2)
        assert b1.lower == pytest.approx(b0.lower, rel=1e-9)
        assert b1.upper == pytest.approx(b0.upper, rel=1e-9)
        report = verify_ovf_equivalence(f, f2)
        assert report.within_tolerance


def test_unframed_decomposition_is_rejected():
    m = Povm(atoms=["a", "b"], dim_h=2,
             elements=[np.diag([1.0, 0.0]).astype(complex)] * 2)
    with pytest.raises(NotFramed) as info:
        decomposition_to_ovf(decompose(m))
    # the frame's own construction made the test
    assert isinstance(info.value.__cause__, NotAFrame)


# -- uniqueness ---------------------------------------------------------------


def test_trace_and_dyadic_decompositions_agree():
    m = projective_qubit()
    report = verify_uniqueness(decompose(m), decompose(m, standard_basis_rule(2)))
    assert report.within_tolerance
    assert report.max_residual == 0.0
    # the weight ratios differ per atom even though the identity holds
    assert report.radon_nikodym_ratios[0] == pytest.approx((2 / 3, 1 / 3))
    assert report.radon_nikodym_ratios[1] == pytest.approx((0.8, 0.2))


def test_scaled_decomposition_has_exactly_zero_residual():
    for seed in range(5):
        m = random_povm(dim=3, atoms=5, seed=100 + seed)
        d = decompose(m)
        scaled = Decomposition(
            measure=AtomicMeasureSpace(atoms=d.measure.atoms,
                                       weights=2.0 * d.measure.weights),
            densities=[q / 2.0 for q in d.densities],
        )
        report = verify_uniqueness(d, scaled)
        assert report.max_residual == 0.0


def test_perturbed_density_is_detected():
    m = projective_qubit()
    d1 = decompose(m)
    d2 = decompose(m, standard_basis_rule(2))
    bumped = Decomposition(
        measure=d2.measure,
        densities=[d2.densities[0], d2.densities[1] * 1.01],
    )
    report = verify_uniqueness(d1, bumped)
    assert not report.within_tolerance
    # residual on atom b: |0.8 * 1 - 0.2 * 4.04| in Frobenius norm
    assert report.per_atom_residuals[1] == pytest.approx(0.008, rel=1e-10)


def test_uniqueness_aligns_partial_atom_overlap():
    space = AtomicMeasureSpace(atoms=["a"], weights=[1.0])
    d1 = Decomposition(measure=space, densities=[np.eye(2, dtype=complex)])
    m = projective_qubit()
    d2 = decompose(m)  # atoms a, b
    report = verify_uniqueness(d1, d2)
    assert report.atoms == ("a", "b")
    # atom b exists only in d2, so the identity cannot hold there
    assert report.per_atom_residuals[1] == pytest.approx(1.0)
    assert not report.within_tolerance


def test_uniqueness_rejects_disjoint_or_mismatched():
    space = AtomicMeasureSpace(atoms=["z"], weights=[1.0])
    d1 = Decomposition(measure=space, densities=[np.eye(2, dtype=complex)])
    d2 = decompose(projective_qubit())
    with pytest.raises(AtomMismatch):
        verify_uniqueness(d1, d2)
    d3 = Decomposition(measure=AtomicMeasureSpace(atoms=["a"], weights=[1.0]),
                       densities=[np.eye(3, dtype=complex)])
    with pytest.raises(DimensionMismatch):
        verify_uniqueness(d3, d2)


# -- event helpers and serialization ------------------------------------------


def test_all_events_enumerates_the_power_set():
    events = all_events(("a", "b", "c"))
    assert len(events) == 8
    assert events[0] == ()
    assert ("a", "c") in events


def test_sample_events_is_seeded():
    atoms = tuple(str(i) for i in range(20))
    assert sample_events(atoms, 50, seed=5) == sample_events(atoms, 50, seed=5)
    assert sample_events(atoms, 50, seed=5) != sample_events(atoms, 50, seed=6)


def test_decomposition_json_round_trip_is_exact():
    d = decompose(random_povm(dim=3, atoms=4, seed=2))
    back = decomposition_from_json(json.loads(json.dumps(decomposition_to_json(d))))
    assert back.measure == d.measure
    assert back.dim_h == d.dim_h
    assert all(np.array_equal(a, b) for a, b in zip(back.densities, d.densities))


def test_decomposition_from_json_rejects_malformed():
    with pytest.raises(Exception) as info:
        decomposition_from_json({"atoms": ["a"], "weights": [1.0], "dim_h": 2})
    assert "densities" in str(info.value)
