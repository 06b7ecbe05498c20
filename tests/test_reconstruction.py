"""Iterative reconstruction: convergence, certificates, trace output."""

import numpy as np
import pytest

from framekit import (
    FrameBounds,
    InvalidBounds,
    ReconstructionConfig,
    VectorFrame,
    analysis,
    frame_algorithm,
    frame_bounds,
    frame_operator,
    from_vector_frame,
    reconstruct_direct,
    synthesis,
    trace_to_csv,
)

from conftest import complex_box, random_ovf, rng_for

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def overcomplete_pair_frame():
    return from_vector_frame(VectorFrame(dim_h=2, vectors=[E1, E1, E2]))


def run_full(ovf, x, iters):
    """Run exactly `iters` steps with the true vector recorded."""
    cfg = ReconstructionConfig(max_iters=iters, target_error=1e-300)
    return frame_algorithm(ovf, analysis(ovf, x), cfg, true_x=x)


def test_known_frame_converges_at_one_third_per_step():
    # bounds (1, 2) so the relaxation contracts the e2 direction by 1/3
    trace = run_full(overcomplete_pair_frame(), E2, iters=20)
    assert trace.rate == pytest.approx(1.0 / 3.0)
    for n, err in enumerate(trace.actual_errors):
        assert err == pytest.approx((1.0 / 3.0) ** n, abs=1e-13)


def test_certified_bound_dominates_actual_error():
    for seed in range(8):
        ovf = random_ovf(dim=4, atoms=7, seed=seed)
        x = complex_box(rng_for(500 + seed), 4)
        trace = run_full(ovf, x, iters=40)
        assert trace.certified
        for bound, err in zip(trace.certified_bounds, trace.actual_errors):
            assert err <= bound + 1e-9


def test_certified_bounds_follow_geometric_law():
    ovf = overcomplete_pair_frame()
    trace = run_full(ovf, E2, iters=10)
    proxy = trace.certified_bounds[0]
    for n, bound in enumerate(trace.certified_bounds):
        assert bound == trace.rate**n * proxy  # exact, by construction


def test_tight_frame_recovers_in_one_step():
    f = from_vector_frame(VectorFrame(dim_h=2, vectors=[E1, E2]))
    x = np.array([0.3 - 1j, 2.5])
    trace = run_full(f, x, iters=1)
    assert trace.rate == 0.0
    assert float(np.linalg.norm(trace.final - x)) <= 1e-11 * float(np.linalg.norm(x))


def test_stops_when_certificate_meets_target():
    ovf = overcomplete_pair_frame()
    cfg = ReconstructionConfig(max_iters=10_000, target_error=1e-6)
    trace = frame_algorithm(ovf, analysis(ovf, E2), cfg)
    assert trace.stopped_by == "target_error"
    assert trace.certified_bounds[-1] <= 1e-6
    assert trace.certified_bounds[-2] > 1e-6  # stopped as soon as possible


def test_stops_at_max_iters_when_target_unreachable():
    ovf = overcomplete_pair_frame()
    cfg = ReconstructionConfig(max_iters=5, target_error=1e-300)
    trace = frame_algorithm(ovf, analysis(ovf, E2), cfg)
    assert trace.stopped_by == "max_iters"
    assert trace.iterations == 5


def test_matches_direct_inverse_reconstruction():
    ovf = random_ovf(dim=5, atoms=8, seed=3)
    x = complex_box(rng_for(42), 5)
    c = analysis(ovf, x)
    direct = reconstruct_direct(ovf, c)
    cfg = ReconstructionConfig(max_iters=10_000, target_error=1e-12)
    trace = frame_algorithm(ovf, c, cfg)
    assert np.allclose(trace.final, direct, atol=1e-10)
    assert np.allclose(direct, x, atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 5, 11, 20])
def test_direct_matches_numpy_solve(dim):
    ovf = random_ovf(dim=dim, atoms=dim + 2, seed=50 + dim)
    c = analysis(ovf, complex_box(rng_for(60 + dim), dim))
    expected = np.linalg.solve(frame_operator(ovf), synthesis(ovf, c))
    assert np.allclose(reconstruct_direct(ovf, c), expected, rtol=1e-10, atol=1e-10)


def test_direct_matches_numpy_solve_on_ill_conditioned_frame():
    # Coordinates graded over 4.25 decades give cond(S) near 1e9.  The
    # solution is well determined to ~1e-12 here, but only if the small
    # eigenpairs' errors are refined away.
    vectors = complex_box(rng_for(2), (32, 16)) * np.geomspace(1.0, 10**-4.25, 16)
    ovf = from_vector_frame(VectorFrame(dim_h=16, vectors=list(vectors)))
    s = frame_operator(ovf)
    assert 5e8 < np.linalg.cond(s) < 2e9
    c = analysis(ovf, complex_box(rng_for(43), 16))
    expected = np.linalg.solve(s, synthesis(ovf, c))
    assert np.allclose(reconstruct_direct(ovf, c), expected, rtol=1e-10, atol=1e-10)


def test_widened_bounds_override_keeps_certificate():
    ovf = overcomplete_pair_frame()  # true bounds (1, 2)
    cfg = ReconstructionConfig(
        max_iters=50, target_error=1e-300,
        bounds_override=FrameBounds(lower=0.5, upper=3.0),
    )
    trace = frame_algorithm(ovf, analysis(ovf, E2), cfg, true_x=E2)
    assert trace.certified
    assert trace.rate == pytest.approx(2.5 / 3.5)
    for bound, err in zip(trace.certified_bounds, trace.actual_errors):
        assert err <= bound + 1e-12


def test_narrowed_bounds_override_voids_certificate():
    ovf = overcomplete_pair_frame()
    cfg = ReconstructionConfig(
        max_iters=5, target_error=1e-300,
        bounds_override=FrameBounds(lower=1.4, upper=1.6),
    )
    trace = frame_algorithm(ovf, analysis(ovf, E2), cfg)
    assert not trace.certified


def test_exact_bounds_override_is_still_certified():
    ovf = overcomplete_pair_frame()
    b = frame_bounds(ovf)
    cfg = ReconstructionConfig(
        max_iters=5, target_error=1e-300,
        bounds_override=FrameBounds(lower=b.lower, upper=b.upper),
    )
    assert frame_algorithm(ovf, analysis(ovf, E2), cfg).certified


def test_config_rejects_bad_parameters():
    with pytest.raises(InvalidBounds):
        ReconstructionConfig(max_iters=0)
    with pytest.raises(InvalidBounds):
        ReconstructionConfig(target_error=0.0)


def test_is_deterministic_across_runs():
    ovf = random_ovf(dim=4, atoms=6, seed=9)
    c = analysis(ovf, complex_box(rng_for(7), 4))
    cfg = ReconstructionConfig(max_iters=30, target_error=1e-300)
    t1 = frame_algorithm(ovf, c, cfg)
    t2 = frame_algorithm(ovf, c, cfg)
    assert np.array_equal(t1.final, t2.final)
    assert t1.certified_bounds == t2.certified_bounds


def test_trace_csv_has_header_and_one_row_per_iterate():
    ovf = overcomplete_pair_frame()
    trace = run_full(ovf, E2, iters=3)
    lines = trace_to_csv(trace).splitlines()
    assert lines[0] == "iter,certified_bound,actual_error,elapsed_ns"
    assert len(lines) == 1 + 4  # x^(0) through x^(3)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == trace.certified_bounds[0]
    assert float(first[2]) == trace.actual_errors[0]


def test_trace_csv_leaves_unknown_error_blank():
    ovf = overcomplete_pair_frame()
    cfg = ReconstructionConfig(max_iters=2, target_error=1e-300)
    trace = frame_algorithm(ovf, analysis(ovf, E2), cfg)
    rows = trace_to_csv(trace).splitlines()[1:]
    assert all(r.split(",")[2] == "" for r in rows)
