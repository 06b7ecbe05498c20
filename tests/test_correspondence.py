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

import itertools
import json

import numpy as np
import pytest

from framekit import (
    TRACE_RULE,
    AtomicMeasureSpace,
    AtomMismatch,
    Decomposition,
    DimensionMismatch,
    InvalidPovm,
    LimitExceeded,
    NotAFrame,
    NotFramed,
    NotHermitian,
    NotPsd,
    OperatorValuedFrame,
    Povm,
    ReferenceMeasureRule,
    SequenceDoesNotSpan,
    UnknownAtom,
    VectorFrame,
    decompose,
    decomposition_to_ovf,
    frame_bounds,
    frame_operator,
    from_vector_frame,
    hermitize,
    inner,
    ovf_to_povm,
    reference_measure,
    reintegration_bound,
    reintegration_residuals,
    validate,
    verify_ovf_equivalence,
    verify_uniqueness,
)
from framekit import linalg
from framekit.correspondence import (
    EXHAUSTIVE_EVENT_ATOMS,
    _aligned_products,
    _reintegration_tolerance,
    all_events,
    cut_bound,
    decomposition_from_json,
    decomposition_to_json,
)
from framekit.linalg import psd_sqrt

from conftest import (
    complex_box,
    count_calls,
    matrix_json,
    random_ovf,
    random_povm,
    random_psd,
    random_vector_frame,
    rng_for,
)

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


def test_validate_factors_only_the_elements_their_slack_does_not_settle(monkeypatch):
    """ovf_to_povm's elements carry a read-only slack that settles every one, so
    validate factors none; with the slack of two atoms taken away it factors
    those two alone, at the strict shift, and gives the same verdicts and the
    same report as a POVM with no slack."""
    f = random_ovf(dim=4, atoms=6, seed=3)
    m = ovf_to_povm(f)
    assert not m._psd_slack.flags.writeable
    stacks = []
    original = linalg._shifted_positive_definite

    def recording(a, shift):
        stacks.append(len(a))
        return original(a, shift)

    monkeypatch.setattr(linalg, "_shifted_positive_definite", recording)
    report = validate(m)
    assert stacks == [] and report.passed
    assert np.array_equal(report._psd_slack, m._psd_slack)
    partial = np.array(m._psd_slack)
    partial[[1, 4]] = np.inf
    object.__setattr__(m, "_psd_slack", partial)
    assert validate(m).psd == report.psd and stacks == [2]
    plain = validate(Povm(m.atoms, m.dim_h, m.elements))
    assert stacks == [2, 6] and plain.psd == report.psd
    assert plain.to_json() == report.to_json() and "_psd_slack" not in report.to_json()
    assert np.isfinite(plain._psd_slack).all()


def test_ovf_to_povm_keeps_the_stack_it_forms_without_a_copy(monkeypatch):
    """The element stack ovf_to_povm forms is held by nothing else, so its Povm
    keeps it as it is, read-only, with the slack set by the same fill."""
    f = random_ovf(dim=4, atoms=6, seed=3)
    copies = []
    original = linalg._as_stack

    def recording(items, shape, what, copy=True):
        copies.append(copy)
        return original(items, shape, what, copy)

    monkeypatch.setattr(linalg, "_as_stack", recording)
    m = ovf_to_povm(f)
    assert copies == [False]
    assert not m.elements.flags.writeable and not m._psd_slack.flags.writeable
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


def test_dyadic_rule_checks_the_vector_dimension_before_the_length():
    """3 unit vectors of dim 5 against a dim-4 POVM are the wrong dimension, not
    too few: DimensionMismatch, as for enough of them."""
    m = random_povm(dim=4, atoms=5, seed=3)
    for count in (3, 6):
        rule = ReferenceMeasureRule("dyadic-sequence", np.eye(5, dtype=complex)[:count])
        with pytest.raises(DimensionMismatch, match="dim 5, POVM expects 4"):
            reference_measure(m, rule)


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
    empty = Povm(atoms=["a", "b"], dim_h=2, elements=np.zeros((2, 2, 2), dtype=complex))
    for rule in (TRACE_RULE, ReferenceMeasureRule("dyadic-sequence", np.eye(2))):
        with pytest.raises(InvalidPovm, match="no atom has a positive reference weight"):
            decompose(empty, rule)


def test_decompose_rejects_invalid_povm():
    bad = np.diag([1.0, -1e-3]).astype(complex)
    m = Povm(atoms=["a", "b"], dim_h=2,
             elements=[np.diag([1.0, 0.0]).astype(complex), bad])
    with pytest.raises(InvalidPovm):
        decompose(m)


def test_decompose_refuses_a_zero_weight_atom_with_a_nonzero_element():
    cases = [
        # trace 0, norm 1.2e-10 > tol_psd, lambda_min > -tol_psd: valid, so the weight check trips
        (np.diag([8.5e-11, -8.5e-11]), "'z' has zero reference weight"),
        # trace 0 but lambda_min far below -tol_psd: validation fails first
        (np.diag([1e-3, -1e-3]), "NotPsd at atom 'z'"),
    ]
    for z, match in cases:
        m = Povm(atoms=["a", "b", "z"], dim_h=2,
                 elements=[np.diag([1.0, 0.0]).astype(complex),
                           np.diag([0.0, 1.0]).astype(complex),
                           z.astype(complex)])
        with pytest.raises(InvalidPovm, match=match):
            decompose(m)


@pytest.mark.parametrize("rule,eigen_calls", [("trace", 0), ("dyadic", 1)])
def test_decompose_diagonalizes_each_povm_once(rule, eigen_calls, monkeypatch):
    """The elements' and the densities' PSD verdicts come from Cholesky stacks;
    only the dyadic rule's Gram spanning check diagonalizes."""
    m = random_povm(dim=4, atoms=9, seed=6)
    rule = TRACE_RULE if rule == "trace" else standard_basis_rule(4)
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen")
    decompose(m, rule)
    assert calls == {"hermitian_eigen": eigen_calls}


def boundary_povm(a, ratio):
    """{diag(a, lam), I} with lam = ratio * tol_psd(diag(a, lam))."""
    lam = 0.0
    for _ in range(3):  # lam moves tol_psd only through ||M||_F, by far below 1e-3
        lam = ratio * float(linalg._psd_tolerance(np.diag([a, lam])))
    return Povm(atoms=["m", "i"], dim_h=2,
                elements=[np.diag([a, lam]).astype(complex), np.eye(2, dtype=complex)])


@pytest.mark.parametrize("rule", ["trace", "dyadic"])
@pytest.mark.parametrize(
    "a,ratio,element_psd,density_psd",
    [
        (1e-3, -(1 - 1e-3), True, False),   # mu < 1: the element passes, its density fails
        (50.0, -(1 + 1e-3), False, True),   # mu > 1: the element fails, its density passes
        (1e-3, -(1 + 1e-3), False, False),
        (50.0, -(1 - 1e-3), True, True),
        (1e-3, 1 + 1e-3, True, True),
        (50.0, 1 - 1e-3, True, True),
    ],
)
def test_decompose_raises_every_psd_failure_as_invalid_povm(
    a, ratio, element_psd, density_psd, rule
):
    """One element's lambda_min at +-(1 +- 1e-3) times its PSD tolerance:
    decompose accepts it only when both the element and its density pass."""
    m = boundary_povm(a, ratio)
    rule = TRACE_RULE if rule == "trace" else standard_basis_rule(2)
    assert validate(m).passed is element_psd
    weights = reference_measure(m, rule)
    space = AtomicMeasureSpace(atoms=m.atoms, weights=weights)
    densities = hermitize(m.elements / weights[:, None, None])
    if density_psd:
        Decomposition(measure=space, densities=densities)
    else:
        with pytest.raises(NotPsd):
            Decomposition(measure=space, densities=densities)
    if element_psd and density_psd:
        assert decompose(m, rule).measure.atoms == ("m", "i")
    else:
        with pytest.raises(InvalidPovm, match="'m'"):
            decompose(m, rule)


def test_densities_must_be_hermitian_psd():
    space = AtomicMeasureSpace(atoms=["a"], weights=[1.0])
    with pytest.raises(NotPsd):
        Decomposition(measure=space, densities=[np.diag([1.0, -1.0]).astype(complex)])


def test_decomposition_diagonalizes_every_density_in_one_call(monkeypatch):
    """A decomposition diagonalizes no density: the first read of _minimal_rows
    factors every density in one stacked pivoted Cholesky, and a second reuses it."""
    d = decompose(random_povm(dim=4, atoms=9, seed=6))
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen", "_pivoted_cholesky_rows")
    again = Decomposition(measure=d.measure, densities=d.densities)
    assert calls == {"hermitian_eigen": 0, "_pivoted_cholesky_rows": 0}
    first = again._minimal_rows
    assert calls == {"hermitian_eigen": 0, "_pivoted_cholesky_rows": 1}
    assert again._minimal_rows is first
    assert calls == {"hermitian_eigen": 0, "_pivoted_cholesky_rows": 1}
    rows, heights, dropped = first
    expected_rows, expected_heights, expected_dropped = d._minimal_rows
    assert heights == expected_heights
    assert rows.tobytes() == expected_rows.tobytes()
    assert np.array_equal(dropped, expected_dropped)


def test_decomposition_rejects_the_first_failing_atom():
    space = AtomicMeasureSpace(atoms=["a", "b"], weights=[1.0, 1.0])
    eye = np.eye(2, dtype=complex)
    not_psd = np.diag([1.0, -1.0]).astype(complex)
    not_hermitian = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotPsd, match="'a'"):
        Decomposition(measure=space, densities=[not_psd, not_hermitian])
    with pytest.raises(NotHermitian, match="'a'"):
        Decomposition(measure=space, densities=[not_hermitian, not_psd])
    # neither Hermitian nor PSD: Hermiticity is checked first
    with pytest.raises(NotHermitian, match="'b'"):
        Decomposition(measure=space, densities=[eye, not_hermitian - 3.0 * eye])


def test_decomposition_needs_a_positive_dim_h():
    empty = AtomicMeasureSpace(atoms=[], weights=[])
    for dim_h in (0, -3, None):
        with pytest.raises(DimensionMismatch):
            Decomposition(measure=empty, densities=[], dim_h=dim_h)


def test_reintegrate_rejects_unknown_atoms():
    d = decompose(projective_qubit())
    assert np.array_equal(d.reintegrate(["a", "a"]), d.reintegrate(["a"]))
    with pytest.raises(UnknownAtom):
        d.reintegrate(["a", "nope"])


# -- the reintegration bound --------------------------------------------------


def enumerated_max(m, d):
    """reintegration_residuals(m, d)[0] over every event, by subset sums.

    An event's two running sums extend those of the event without its last
    atom by that atom's terms, so a table of them has the oracle's bits.
    The table holds the first 12 atoms' events; each subset of the rest is
    added on top in atom order.  Events whose squared residual is within
    1e-9 of the largest are measured again with the oracle's norm.
    """
    terms = np.stack([m.elements, _aligned_products(m, d)], axis=1).view(np.float64)
    low = min(len(terms), 12)
    sums = np.zeros((1 << low,) + terms.shape[1:])
    for k, t in enumerate(terms[:low]):
        np.add(sums[:1 << k], t, out=sums[1 << k:2 << k])
    worst = 0.0
    for high in itertools.product((False, True), repeat=len(terms) - low):
        s = sums
        for t in terms[low:][list(high)]:
            s = s + t
        diff = (s[:, 0] - s[:, 1]).reshape(len(s), -1)
        squares = np.einsum("ij,ij->i", diff, diff)
        for x in diff[squares >= squares.max() * (1.0 - 1e-9)]:
            worst = max(worst, linalg.frobenius(x.view(np.complex128)))
    return worst


def rounding_term(m, d):
    """gamma_{N+2} (sum_t ||M({t})|| + sum_t ||mu({t}) Q(t)||), the bound's share
    for the enumeration's own rounding."""
    k, u = len(m.atoms) + 2, np.finfo(np.float64).eps / 2.0
    norms = np.linalg.norm(np.stack([m.elements, _aligned_products(m, d)]), axis=(2, 3))
    return k * u / (1.0 - k * u) * float(norms.sum())


def povm_with_a_zero_atom(dim, atoms, seed):
    m = random_povm(dim=dim, atoms=atoms, seed=seed)
    elements = np.array(m.elements)
    elements[1] = 0.0
    return Povm(atoms=m.atoms, dim_h=dim, elements=elements)


def criterion_5_povms():
    for seed in range(100):
        yield random_povm(dim=2 + seed % 7, atoms=3 + seed % 14, seed=seed)


def test_enumerated_max_has_the_oracles_bits():
    for m in (random_povm(dim=4, atoms=10, seed=41), povm_with_a_zero_atom(3, 8, seed=5)):
        for d in (decompose(m), decompose(m, standard_basis_rule(m.dim_h))):
            assert enumerated_max(m, d) == reintegration_residuals(m, d)[0]


def test_bound_dominates_every_event():
    povms = [random_povm(dim=4, atoms=10, seed=41), povm_with_a_zero_atom(4, 12, seed=3)]
    assert len(decompose(povms[1]).measure) == 11
    for m in itertools.chain(povms, criterion_5_povms()):
        for d in (decompose(m), decompose(m, standard_basis_rule(m.dim_h))):
            assert enumerated_max(m, d) <= reintegration_bound(m, d)


def test_bound_fails_a_perturbed_density_where_the_enumeration_does():
    m = random_povm(dim=4, atoms=10, seed=41)
    d = decompose(m)
    h = random_psd(4, seed=7)
    h /= linalg.frobenius(h)
    tol = _reintegration_tolerance(m.total())
    verdicts = []
    for delta in np.logspace(-16, -6, 21):
        densities = np.array(d.densities)
        densities[3] += delta * h
        bumped = Decomposition(measure=d.measure, densities=densities)
        enumerated, bound = enumerated_max(m, bumped), reintegration_bound(m, bumped)
        # the gap is the rounding term plus the unperturbed atoms' differences,
        # which are rounding-sized as well
        assert enumerated <= bound <= enumerated + 2.0 * rounding_term(m, bumped)
        verdicts.append((enumerated > tol, bound > tol))
    assert all(e == b for e, b in verdicts)
    assert verdicts[0] == (False, False) and verdicts[-1] == (True, True)


def test_bound_rejects_an_atom_the_povm_lacks():
    m = projective_qubit()
    d = Decomposition(measure=AtomicMeasureSpace(atoms=["a", "z"], weights=[1.0, 1.0]),
                      densities=list(m.elements))
    with pytest.raises(UnknownAtom):
        reintegration_bound(m, d)


def test_residuals_refuse_to_enumerate_a_large_space():
    big = random_povm(dim=2, atoms=EXHAUSTIVE_EVENT_ATOMS + 1, seed=9)
    with pytest.raises(ValueError):
        reintegration_residuals(big, decompose(big))


# -- decomposition back to a frame --------------------------------------------


@pytest.mark.parametrize("dim,atoms", [(2, 3), (3, 7), (5, 9), (12, 16)])
def test_minimal_blocks_close_the_correspondence_on_vector_frames(dim, atoms):
    """A vector frame's POVM has rank-one densities x x* / ||x||^2: the minimal
    blocks keep one row each, sqrt(mu) T(t) is the frame's row conj(x) up to a
    unit phase, and the recovered frame is no further from the original than
    the square roots' (over 240 measured frames the ratio stays below 0.97)."""
    f = from_vector_frame(random_vector_frame(dim, atoms, seed=dim))
    d = decompose(ovf_to_povm(f))
    minimal = decomposition_to_ovf(d)
    assert [len(b) for b in minimal.blocks] == [1] * atoms
    for block, w, row in zip(minimal.blocks, d.measure.weights, f.blocks):
        recovered = np.sqrt(w) * block[0]
        phase = np.vdot(recovered, row[0])
        unit = phase / abs(phase)
        assert np.linalg.norm(unit * recovered - row[0]) <= 1e-14 * np.linalg.norm(row[0])
    roots = OperatorValuedFrame(space=d.measure, dim_h=dim,
                                blocks=[psd_sqrt(q) for q in d.densities])
    assert (verify_ovf_equivalence(f, minimal).max_residual
            <= verify_ovf_equivalence(f, roots).max_residual)


def test_minimal_blocks_drop_no_more_than_the_cut_bound(monkeypatch):
    """Minimal blocks of rank-deficient densities, a zero one included: rank(Q) rows,
    T* T = Q to rounding and no eigen work; sum_t mu_t ||Q(t) - T(t)* T(t)||_F is
    within cut_bound, itself far below the decomp tolerance."""
    n = 5
    rng = rng_for(4)
    densities = [linalg.hermitize(linalg.adjoint(g) @ g)
                 for g in (complex_box(rng, (k, n)) for k in (1, 2, 4, 5))]
    densities.append(np.zeros((n, n), dtype=complex))
    space = AtomicMeasureSpace(atoms=list("abcde"), weights=rng.uniform(0.5, 2.0, 5))
    d = Decomposition(measure=space, densities=densities)
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen")
    ovf = decomposition_to_ovf(d)
    assert calls == {"hermitian_eigen": 0}
    assert [len(b) for b in ovf.blocks] == [1, 2, 4, 5, 0]
    for block, q in zip(ovf.blocks, d.densities):
        assert np.linalg.norm(linalg.adjoint(block) @ block - q) <= 1e-15 * (1 + np.linalg.norm(q))
    missed = sum(w * np.linalg.norm(q - linalg.adjoint(b) @ b)
                 for w, q, b in zip(d.measure.weights, d.densities, ovf.blocks))
    assert missed <= cut_bound(d) <= 1e-3 * _reintegration_tolerance(d.reintegrate())


def test_cut_bound_holds_for_densities_admitted_at_the_tolerances():
    """Densities read from JSON as Decomposition admits them: one with lambda_min
    at -tol_psd / 2, whose dropped Schur complement is indefinite, and one
    Hermitian only to within TOL_HERM / 2.  T* T is Hermitian PSD, so each
    misses its density by about that much; cut_bound still bounds the miss."""
    n = 4
    u = np.linalg.qr(complex_box(rng_for(8), (n, n)))[0]
    lam = np.array([1.0, 0.5, 0.25, 0.0])
    for _ in range(3):  # lam[-1] moves tol_psd only through ||Q||_F
        lam[-1] = -0.5 * float(linalg._psd_tolerance(np.diag(lam)))
    negative = (u * lam) @ linalg.adjoint(u)
    skewed = (u * [0.0, 0.0, 0.5, 1.0]) @ linalg.adjoint(u)  # with negative, spans C^n
    skewed[0, 1] += 0.5 * linalg.TOL_HERM * (1 + linalg.frobenius(skewed)) / np.sqrt(2.0)
    assert 0.4 * linalg.TOL_HERM < linalg.hermitian_residual(skewed) <= linalg.TOL_HERM
    blob = {"atoms": ["neg", "skew"], "weights": [2.0, 3.0], "dim_h": n,
            "densities": [matrix_json(q) for q in (negative, skewed)]}
    d = decomposition_from_json(json.loads(json.dumps(blob)))
    ovf = decomposition_to_ovf(d)
    misses = [np.linalg.norm(q - linalg.adjoint(b) @ b) for q, b in zip(d.densities, ovf.blocks)]
    assert misses[0] >= 0.4 * float(linalg._psd_tolerance(negative))
    assert misses[1] >= 0.4 * linalg.TOL_HERM
    assert d.measure.weights @ misses <= cut_bound(d)


def test_gamma_gives_the_bounds_of_the_inline_formulas_bit_for_bit():
    """cut_bound and reintegration_bound through linalg._gamma against the inline
    u = eps / 2; gamma = k u / (1 - k u) they used, over random decompositions."""
    u = np.finfo(np.float64).eps / 2.0
    for seed in range(12):
        m = random_povm(dim=1 + seed % 6, atoms=2 + 3 * seed, seed=seed)
        rule = TRACE_RULE if seed % 2 else ReferenceMeasureRule(
            kind="dyadic-sequence", sequence=np.eye(m.dim_h, dtype=complex))
        d = decompose(m, rule)
        n, k = d.dim_h, len(m.atoms) + 2
        gamma_cut = (n + 1) * u / (1.0 - (n + 1) * u)
        gamma_reint = k * u / (1.0 - k * u)
        assert linalg._gamma(n + 1) == gamma_cut and linalg._gamma(k) == gamma_reint
        dropped = d._minimal_rows[2]
        skew = linalg._norms(d.densities - linalg.hermitize(d.densities), 2)
        rounding = n * gamma_cut * (linalg._norms(d.densities, 2) + dropped)
        weighted = np.add.reduce(d.measure.weights * (skew + dropped + rounding))
        assert cut_bound(d) == float(weighted)
        products = _aligned_products(m, d)
        magnitudes = linalg._norms(m.elements, 2).sum() + linalg._norms(products, 2).sum()
        inline = float(linalg._norms(m.elements - products, 2).sum() + gamma_reint * magnitudes)
        assert reintegration_bound(m, d) == inline


def test_recovered_frame_diagonalizes_only_its_frame_operator(monkeypatch):
    d = decompose(random_povm(dim=4, atoms=6, seed=3))
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen", "psd_sqrt", "_one_sided_jacobi")
    decomposition_to_ovf(d)  # a cold decomposition: pivoted Cholesky rows; S is certified from R
    assert calls == {"hermitian_eigen": 0, "psd_sqrt": 0, "_one_sided_jacobi": 0}


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


def test_decomposition_json_round_trip_is_exact():
    d = decompose(random_povm(dim=3, atoms=4, seed=2))
    back = decomposition_from_json(json.loads(json.dumps(decomposition_to_json(d))))
    assert back.measure == d.measure
    assert back.dim_h == d.dim_h
    assert all(np.array_equal(a, b) for a, b in zip(back.densities, d.densities))
    # the loader keeps the decoded read-only stack; the constructor copies its input
    assert not back.densities.flags.writeable and not back.densities.flags.owndata
    densities = np.array(d.densities)
    built = Decomposition(d.measure, densities)
    assert not np.shares_memory(built.densities, densities) and densities.flags.writeable


def test_decomposition_from_json_rejects_malformed():
    with pytest.raises(Exception) as info:
        decomposition_from_json({"atoms": ["a"], "weights": [1.0], "dim_h": 2})
    assert "densities" in str(info.value)


def test_decomposition_refuses_densities_whose_norm_squares_to_inf():
    space = AtomicMeasureSpace(atoms=["a"], weights=[1.0])
    with pytest.raises(LimitExceeded):
        Decomposition(measure=space, densities=[np.diag([1e200, 1.0]).astype(complex)])


def test_decomposition_refuses_weighted_densities_whose_sum_overflows():
    """Each density [[1e10]] and weight 1e300 is finite, but mu({t}) Q(t) is not:
    reintegrate() and verify_uniqueness's tolerance would read inf."""
    space = AtomicMeasureSpace(atoms=["a", "b"], weights=[1e300, 1e300])
    with pytest.raises(LimitExceeded):
        Decomposition(measure=space, densities=[[[1e10]], [[1e10]]])
    small = AtomicMeasureSpace(atoms=["a", "b"], weights=[1e-300, 1e-300])
    with pytest.raises(LimitExceeded):  # the unweighted bound still holds
        Decomposition(measure=small, densities=[[[1e200]], [[1.0]]])


def test_decompose_reads_no_eigenpairs_until_the_roots(monkeypatch):
    """decompose leaves the densities unfactored; decomposition_to_ovf's first call
    fills the one cache, _minimal_rows, and its blocks are the same bits as a fresh
    decomposition's. No step reads an eigenpair, the recovery included."""
    d = decompose(random_povm(dim=3, atoms=7, seed=2))
    assert "_minimal_rows" not in vars(d)
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen")
    blocks = decomposition_to_ovf(d).blocks
    assert "_minimal_rows" in vars(d)
    fresh = Decomposition(measure=d.measure, densities=d.densities)
    again = decomposition_to_ovf(fresh).blocks
    assert len(again) == len(blocks)
    assert all(np.array_equal(a, b) for a, b in zip(again, blocks))
    assert calls == {"hermitian_eigen": 0}
