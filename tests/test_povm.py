import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from framekit import (
    DimensionMismatch,
    InvalidPovm,
    LimitExceeded,
    NotPsd,
    NotUnitVector,
    Povm,
    UnknownAtom,
    decompose,
    is_framed,
    measure_probabilities,
    validate,
)
from framekit import linalg
from framekit.povm import _additivity_bound, _sampled_residuals, povm_from_json, povm_to_json

from conftest import (
    complex_box,
    count_calls,
    random_hermitian,
    random_povm,
    random_psd,
    random_unit,
    rng_for,
)
from test_linalg import boundary_hermitian

D10 = np.diag([1.0, 0.0]).astype(complex)
D01 = np.diag([0.0, 1.0]).astype(complex)


def projective_qubit():
    return Povm(atoms=["up", "down"], dim_h=2, elements=[D10, D01])


class BrokenAdditivity(Povm):
    """Test double that reports a wrong union value."""

    def evaluate(self, event):
        out = super().evaluate(event)
        if len(set(event)) > 1:
            out = out + 1e-6 * np.eye(self.dim_h)
        return out


def test_construction_keeps_atom_order_and_elements():
    m = projective_qubit()
    assert m.atoms == ("up", "down")
    assert np.array_equal(m.element("down"), D01)
    with pytest.raises(UnknownAtom):
        m.element("sideways")


def test_construction_rejects_structural_problems():
    with pytest.raises(ValueError):
        Povm(atoms=["a", "a"], dim_h=2, elements=[D10, D01])
    with pytest.raises(DimensionMismatch):
        Povm(atoms=["a"], dim_h=3, elements=[D10])
    with pytest.raises(DimensionMismatch):
        Povm(atoms=["a", "b"], dim_h=2, elements=[D10])


def test_evaluate_sums_member_atoms():
    m = projective_qubit()
    assert np.array_equal(m.evaluate([]), np.zeros((2, 2)))
    assert np.array_equal(m.evaluate(["up"]), D10)
    assert np.array_equal(m.evaluate(["up", "down"]), np.eye(2))
    # duplicates in the event collapse to set membership
    assert np.array_equal(m.evaluate(["up", "up"]), D10)
    assert np.array_equal(m.evaluate(["down"]), D01)
    with pytest.raises(UnknownAtom):
        m.evaluate(["nope"])


def test_total_is_identity_for_projective_povm():
    assert np.allclose(projective_qubit().total(), np.eye(2), atol=0)


def test_validate_passes_clean_povms():
    report = validate(projective_qubit())
    assert report.passed
    assert report.failures == ()
    # the bound over every pair: 2 gamma_{N+2} sum_t ||M({t})||_F, two unit-norm elements
    u = np.finfo(np.float64).eps / 2.0
    assert report.max_additivity_residual == 2.0 * (4 * u / (1.0 - 4 * u)) * 2.0
    for seed in range(5):
        assert validate(random_povm(dim=3, atoms=6, seed=seed)).passed


def test_validate_flags_negative_eigenvalue():
    bad = projective_qubit().elements[1].copy()
    bad[1, 1] = -1e-3
    m = Povm(atoms=["a", "b"], dim_h=2, elements=[D10, bad])
    report = validate(m)
    assert not report.passed
    assert report.failures == ("NotPsd",)
    assert min(r.min_eigenvalue for r in report.element_reports) == pytest.approx(-1e-3)


def test_validate_flags_asymmetrized_element():
    # i times the symmetric pattern has a zero Hermitian part, so only
    # Hermiticity trips, not positivity
    skew = 1e-3 * np.array([[0.0, 1.0], [1.0, 0.0]]) * 1j
    m = Povm(atoms=["a", "b"], dim_h=2, elements=[D10 + skew, D01])
    report = validate(m)
    assert report.failures == ("NotHermitian",)
    assert report.element_reports[0].hermiticity_residual > 1e-10


def test_validate_flags_broken_additivity():
    m = BrokenAdditivity(atoms=["a", "b", "c"], dim_h=2,
                         elements=[D10, D01, 0.5 * np.eye(2, dtype=complex)])
    report = validate(m)
    assert report.failures == ("NotAdditive",)
    assert report.max_additivity_residual > report.additivity_tolerance


def test_validate_diagonalizes_every_element_in_one_call(monkeypatch):
    m = random_povm(dim=4, atoms=9, seed=5)
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen")
    report = validate(m)
    assert report.passed
    assert calls == {"hermitian_eigen": 0}  # the verdicts diagonalize nothing
    first = report.element_reports
    assert calls == {"hermitian_eigen": 1}  # the first read, one stacked call
    assert report.element_reports is first
    assert calls == {"hermitian_eigen": 1}  # a second read reuses it


def test_validate_min_eigenvalues_match_lone_calls_bit_for_bit():
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 2] = 1e-13j  # Hermitian only to within TOL_HERM: hermitize changes it
    cases = [random_povm(dim=17, atoms=3, seed=2), projective_qubit()]
    m = random_povm(dim=3, atoms=7, seed=1)
    cases.append(Povm(atoms=m.atoms, dim_h=3, elements=m.elements + skew))
    for m in cases:
        report = validate(m)
        for r, elem in zip(report.element_reports, m.elements):
            lone = linalg.hermitian_eigen(linalg.hermitize(elem)).eigenvalues[0]
            assert r.min_eigenvalue == lone
            assert type(r.min_eigenvalue) is float and type(r.psd) is bool


def test_validate_is_deterministic_per_seed():
    """The bound draws nothing, and the sampled pairs come from one fixed stream."""
    m = random_povm(dim=3, atoms=5, seed=4)
    for case in (m, BrokenAdditivity(atoms=m.atoms, dim_h=3, elements=m.elements)):
        r1, r2 = validate(case), validate(case)
        assert r1.max_additivity_residual == r2.max_additivity_residual
        assert r1.to_json() == r2.to_json()


@pytest.mark.parametrize("n", [2, 16, 128])
def test_validate_psd_verdicts_follow_the_eigenvalue_rule_at_the_boundary(n):
    """Elements with lambda_min at -+(1 +- 0.05) tol_psd, outside the 2% margin of
    the Cholesky verdict: validate's verdicts are lambda_min(H) >= -tol_psd, read
    from lone hermitian_eigen calls."""
    ratios = [-1.05, -0.95, 0.95, 1.05]
    elements = [boundary_hermitian(n, 1.0, ratio, seed=k) for k, ratio in enumerate(ratios)]
    m = Povm(atoms=[str(r) for r in ratios], dim_h=n, elements=elements)
    rule = [bool(linalg.hermitian_eigen(h).eigenvalues[0] >= -linalg._psd_tolerance(h))
            for h in elements]
    assert rule == [False, True, True, True]
    assert list(validate(m).psd) == rule


def corrupted(not_hermitian=(), not_psd=(), additive=True):
    """A valid 3 x 6 POVM with a skew (anti-Hermitian) term added at the atoms in
    ``not_hermitian``, leaving the Hermitian part alone, and its trace times I
    taken off at those in ``not_psd``; with ``additive`` false, unions are off."""
    m = random_povm(dim=3, atoms=6, seed=8)
    elements = m.elements.copy()
    skew = 1e-3j * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for t in not_hermitian:
        elements[t] += skew
    for t in not_psd:
        elements[t] -= np.trace(elements[t]).real * np.eye(3)
    return (Povm if additive else BrokenAdditivity)(atoms=m.atoms, dim_h=3, elements=elements)


def loop_failures(m):
    """The per-atom classification loop with eigenvalue verdicts from lone calls,
    and additivity from the per-pair loop."""
    failures = []
    for e in m.elements:
        hermitian = linalg.hermitian_residual(e) <= linalg.TOL_HERM
        lam = linalg.hermitian_eigen(linalg.hermitize(e)).eigenvalues[0]
        if not hermitian and "NotHermitian" not in failures:
            failures.append("NotHermitian")
        if not lam >= -linalg._psd_tolerance(e) and "NotPsd" not in failures:
            failures.append("NotPsd")
    tolerance = linalg.TOL_ADDITIVITY_REL * (1.0 + linalg.frobenius(m.total()))
    if max(loop_additivity(m, 0)) > tolerance:
        failures.append("NotAdditive")
    return tuple(failures)


CORRUPTIONS = {
    "hermitian-before-psd": (dict(not_hermitian=[1], not_psd=[4]), "NotHermitian at atom '1'"),
    "psd-before-hermitian": (dict(not_hermitian=[4], not_psd=[1]), "NotPsd at atom '1'"),
    "both-at-one-atom": (dict(not_hermitian=[2], not_psd=[2]), "NotHermitian at atom '2'"),
    "hermitian-only": (dict(not_hermitian=[3, 5]), "NotHermitian at atom '3'"),
    "psd-only": (dict(not_psd=[0]), "NotPsd at atom '0'"),
    "additivity": (dict(additive=False), "NotAdditive"),
    "psd-and-additivity": (dict(not_psd=[5], additive=False), "NotPsd at atom '5'"),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_validate_failures_match_the_per_atom_loop(name):
    corruption, message = CORRUPTIONS[name]
    m = corrupted(**corruption)
    report = validate(m)
    assert report.failures == loop_failures(m)
    assert report.failures and message.startswith(report.failures[0])
    with pytest.raises(InvalidPovm, match=f"failed validation: {message}$"):
        decompose(m)


def test_is_framed_projective_and_deficient():
    rep = is_framed(projective_qubit())
    assert rep.framed
    assert rep.lower == pytest.approx(1.0) and rep.upper == pytest.approx(1.0)
    flat = Povm(atoms=["a", "b"], dim_h=2, elements=[D10, D10])
    assert not is_framed(flat).framed


def test_measure_probabilities_plus_state():
    probs = measure_probabilities(projective_qubit(), np.array([1.0, 1.0]) / np.sqrt(2))
    assert probs == pytest.approx([0.5, 0.5], abs=1e-12)


def test_measure_probabilities_sum_to_one_when_total_is_identity():
    m = projective_qubit()
    for seed in range(10):
        probs = measure_probabilities(m, random_unit(2, seed))
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0.0 for p in probs)


def test_measure_probabilities_rejects_bad_states():
    m = projective_qubit()
    with pytest.raises(NotUnitVector):
        measure_probabilities(m, np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        measure_probabilities(m, np.array([1.0, 0.0, 0.0]))


def test_measure_probabilities_flags_indefinite_element():
    bad = D01.copy()
    bad[1, 1] = -1e-3
    m = Povm(atoms=["a", "b"], dim_h=2, elements=[D10, bad])
    with pytest.raises(NotPsd):
        measure_probabilities(m, np.array([0.0, 1.0], dtype=complex))


def test_json_round_trip_is_exact():
    m = random_povm(dim=3, atoms=4, seed=8)
    back = povm_from_json(json.loads(json.dumps(povm_to_json(m))))
    assert back.atoms == m.atoms
    assert all(np.array_equal(a, b) for a, b in zip(back.elements, m.elements))
    assert not back.elements.flags.writeable


def test_loading_a_povm_keeps_the_decoded_stack():
    """povm_from_json keeps the decoded read-only stack as the elements: a 256-atom,
    dim-32 POVM (a 4 MiB stack) peaks at about 4.3 MiB of traced memory, where a
    second copy in the constructor peaked at 8.3 MiB.  The public constructor
    still copies what it is given."""
    elements = complex_box(rng_for(64), (256, 32, 32))
    m = Povm(atoms=[str(t) for t in range(256)], dim_h=32, elements=elements)
    assert not np.shares_memory(m.elements, elements) and elements.flags.writeable
    obj = povm_to_json(m)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = povm_from_json(obj)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.elements, elements)
    assert not back.elements.flags.writeable and not back.elements.flags.owndata
    assert peak <= 1.1 * elements.nbytes


def test_validation_report_json_shape():
    blob = validate(projective_qubit()).to_json()
    assert blob["passed"] is True
    assert "seed" not in blob
    assert {e["atom"] for e in blob["elements"]} == {"up", "down"}


def loop_additivity(m, seed):
    """The per-pair loop: one draw per sample, E and F as label lists, E u F as E + F."""
    rng = np.random.Generator(np.random.PCG64(seed))
    residuals = []
    for _ in range(50):
        sides = rng.integers(0, 3, size=len(m.atoms))
        e = [a for a, s in zip(m.atoms, sides) if s == 0]
        f = [a for a, s in zip(m.atoms, sides) if s == 1]
        residuals.append(linalg.frobenius(m.evaluate(e) + m.evaluate(f) - m.evaluate(e + f)))
    return residuals


@pytest.mark.parametrize("dim,atoms", [(2, 1), (3, 7), (2, 33), (1, 64)])
def test_additivity_draws_the_per_pair_stream_bit_for_bit(dim, atoms):
    m = random_povm(dim=dim, atoms=atoms, seed=atoms)
    broken = BrokenAdditivity(atoms=m.atoms, dim_h=dim, elements=m.elements)
    for case in (m, broken):
        assert _sampled_residuals(case) == loop_additivity(case, 0)
    assert validate(broken).max_additivity_residual == max(loop_additivity(broken, 0))


def test_construction_refuses_elements_whose_norm_squares_to_inf():
    """{1e200, 1}: ||M||_F^2 overflows, so no check on it could mean anything."""
    with pytest.raises(LimitExceeded):
        Povm(atoms=["a", "b"], dim_h=1, elements=[[[1e200]], [[1.0]]])
    # every element fine alone, their sum's norm bound is not
    with pytest.raises(LimitExceeded):
        Povm(atoms=["a", "b"], dim_h=1, elements=[[[1e154]], [[1e154]]])
    Povm(atoms=["a", "b"], dim_h=1, elements=[[[1e150]], [[1.0]]])


U = np.finfo(np.float64).eps / 2.0


def gamma(k):
    return k * U / (1.0 - k * U)


def povm_of(elements):
    elements = np.asarray(elements, dtype=complex)
    return Povm(atoms=[str(t) for t in range(len(elements))], dim_h=elements.shape[-1],
                elements=elements)


def cancelling(scale, atoms=6, dim=3):
    """Hermitian elements of alternating sign and size ``scale`` whose sum is the
    identity: not PSD, and sum_t ||M({t})||_F far above ||M(Omega)||_F."""
    h = [(-1) ** t * scale * random_hermitian(dim, seed=40 + t) for t in range(atoms - 1)]
    return povm_of(h + [np.eye(dim) - sum(h)])


def rank_one(dim, atoms, seed):
    v = complex_box(rng_for(seed), (atoms, dim))
    return povm_of(v[:, :, None] * np.conj(v[:, None, :]))


# n = 1 rounding adversaries.  "residual": E = {0, 2, .., 6} sums on the grid of
# [1, 2), where each 1.5u rounds up by u/2; E u F passes 2 after atom 1, where
# each 1.5u rounds down by 1.5u: a residual of 8u against a bound of 36u.
# "lost-ties": each u after the 1 is a tie that rounds to even, so lost, and an
# event's sum errs by u for each of its u's after the 1: the three sums of
# E = Omega, F = {} err by 12u in all against a bound of 18u.
ADVERSARIES = {
    "residual": [[[1.0]], [[1.0]]] + [[[1.5 * U]]] * 5,
    "lost-ties": [[[1.0]]] + [[[U]]] * 6,
}

ADDITIVITY_CASES = {
    "one-atom": lambda: povm_of([random_psd(3, seed=1)]),
    "one-zero-atom": lambda: povm_of(np.zeros((1, 2, 2))),
    "all-zero": lambda: povm_of(np.zeros((4, 3, 3))),
    "some-zero": lambda: povm_of([random_psd(2, seed=t) * (t % 2) for t in range(6)]),
    "mixed-magnitudes": lambda: povm_of(
        [random_psd(3, seed=t) * 10.0 ** e for t, e in enumerate((-8, 8, -4, 0, 4, 8, -8))]),
    "rank-one-n16": lambda: rank_one(16, 7, seed=3),
    "cancelling": lambda: cancelling(1e4, atoms=7, dim=4),
    "adversary-residual": lambda: povm_of(ADVERSARIES["residual"]),
    "adversary-lost-ties": lambda: povm_of(ADVERSARIES["lost-ties"]),
}


def sum_errors(m):
    """||M(X) - exact M(X)||_F of every event X, keyed by its membership mask: the
    computed sum against the sum in rational arithmetic."""
    parts = [[Fraction(x) for x in e.view(np.float64).ravel()] for e in m.elements]
    errors = {}
    for mask in itertools.product((False, True), repeat=len(m.atoms)):
        members = [p for p, keep in zip(parts, mask) if keep]
        exact = [sum(column, Fraction(0)) for column in zip(*members)] or itertools.repeat(0)
        computed = m.evaluate([a for a, keep in zip(m.atoms, mask) if keep])
        errors[mask] = float(np.sqrt(sum(float(Fraction(c) - x) ** 2 for c, x
                                         in zip(computed.view(np.float64).ravel(), exact))))
    return errors


@pytest.mark.parametrize("name", ADDITIVITY_CASES)
def test_additivity_bound_holds_on_every_disjoint_pair(name):
    """All 3^N pairs (E, F) through Povm.evaluate, N <= 7.  Each residual, and the
    errors of its three sums against exact sums added up, are within
    2 gamma_{N+2} sum_t ||M({t})||_F; validate reports that bound whenever it
    certifies the tolerance."""
    m = ADDITIVITY_CASES[name]()
    bound = _additivity_bound(m)
    norms = sum(linalg.frobenius(e) for e in m.elements)
    assert bound == pytest.approx(2.0 * gamma(len(m.atoms) + 2) * norms, rel=1e-14, abs=0.0)
    errors = sum_errors(m)
    worst = worst_errors = 0.0
    for sides in itertools.product(range(3), repeat=len(m.atoms)):
        e = [a for a, s in zip(m.atoms, sides) if s == 0]
        f = [a for a, s in zip(m.atoms, sides) if s == 1]
        residual = linalg.frobenius(m.evaluate(e) + m.evaluate(f) - m.evaluate(e + f))
        masks = (tuple(s == 0 for s in sides), tuple(s == 1 for s in sides),
                 tuple(s < 2 for s in sides))  # E, F, E u F
        three = sum(errors[mask] for mask in masks)
        assert residual <= bound and three <= bound, (sides, residual, three, bound)
        worst, worst_errors = max(worst, residual), max(worst_errors, three)
    if name == "adversary-residual":
        assert worst == 8 * U and worst >= 0.2 * bound
    if name == "adversary-lost-ties":
        assert worst_errors == 12 * U and worst_errors >= 0.6 * bound
    report = validate(m)
    if bound <= report.additivity_tolerance:
        assert report.max_additivity_residual == bound
    else:
        assert report.max_additivity_residual == max(loop_additivity(m, 0))


# Where validate measures sampled pairs: plain Povms whose bound exceeds the
# tolerance, and a subclass that evaluates events its own way.
FALLBACKS = {
    "cancelling": (lambda: cancelling(1e2), ("NotPsd",)),
    "cancelling-past-the-tolerance": (lambda: cancelling(1e5), ("NotPsd", "NotAdditive")),
    "broken-union": (lambda: corrupted(additive=False), ("NotAdditive",)),
}


@pytest.mark.parametrize("name", FALLBACKS)
def test_validate_measures_sampled_pairs_where_the_bound_cannot_certify(name, monkeypatch):
    build, failures = FALLBACKS[name]
    m = build()
    calls = count_calls(monkeypatch, Povm, "evaluate")
    report = validate(m)
    assert calls == {"evaluate": 3 * 50}  # E, F and E u F of each sampled pair
    if type(m) is Povm:
        assert _additivity_bound(m) > report.additivity_tolerance
    assert report.max_additivity_residual == max(loop_additivity(m, 0))
    assert report.failures == loop_failures(m) == failures


def test_validate_of_a_povm_sums_no_event_and_draws_nothing(monkeypatch):
    m = random_povm(dim=8, atoms=48, seed=101)
    calls = count_calls(monkeypatch, Povm, "evaluate")
    draws = count_calls(monkeypatch, np.random, "PCG64")
    report = validate(m)
    assert report.passed and report.max_additivity_residual == _additivity_bound(m)
    assert calls == {"evaluate": 0} and draws == {"PCG64": 0}
