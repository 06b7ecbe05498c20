"""Iterative reconstruction: convergence, certificates, trace output."""

from functools import lru_cache

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
    linalg,
    reconstruct_direct,
    reconstruction,
    synthesis,
    trace_to_csv,
)

from conftest import complex_box, count_calls, random_ovf, rng_for

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


# --- block evaluation against the plain recurrence ----------------------------


def reference_frame_algorithm(ovf, c, cfg):
    """The frame algorithm one step at a time, x = x + relax (T*c - S x): its
    iterates (n+1, d), certified bounds, rate, certificate and stop."""
    actual = frame_bounds(ovf)
    used = cfg.bounds_override or actual
    certified = (used.lower <= actual.lower * (1.0 + 1e-12)
                 and used.upper >= actual.upper * (1.0 - 1e-12))
    s, b = frame_operator(ovf), synthesis(ovf, c)
    relax = 2.0 / (used.lower + used.upper)
    rate = (used.upper - used.lower) / (used.upper + used.lower)
    proxy = float(np.linalg.norm(b)) / used.lower
    x = np.zeros(ovf.dim_h, dtype=complex)
    iterates, bounds, stopped_by, n = [x], [proxy], "max_iters", 0
    while n < cfg.max_iters:
        n += 1
        x = x + relax * (b - s @ x)
        iterates.append(x)
        bounds.append((rate**n) * proxy)
        if bounds[-1] <= cfg.target_error:
            stopped_by = "target_error"
            break
    return np.array(iterates), tuple(bounds), rate, certified, stopped_by


def block_length(dim):
    return max(1, reconstruction._BLOCK_BYTES // (16 * dim * dim))


@lru_cache(maxsize=None)
def frame_of_dim(dim):
    if dim == 1:
        return from_vector_frame(VectorFrame(dim_h=1, vectors=[[1.0], [2.0 - 1.0j]]))
    return random_ovf(dim=dim, atoms=8, seed=dim)  # blocks of 1..dim rows each


def slow_bounds(ovf):
    """Certified bounds 100x wider below than the spectrum: rate near 0.98, so no
    bound reaches 1e-300 within 2K+1 steps, even at dim 1 (K = 16384)."""
    b = frame_bounds(ovf)
    return FrameBounds(lower=b.lower / 100.0, upper=b.upper)


def assert_matches_reference(ovf, c, cfg, true_x=None):
    trace = frame_algorithm(ovf, c, cfg, true_x=true_x)
    ref, bounds, rate, certified, stopped_by = reference_frame_algorithm(ovf, c, cfg)
    assert trace.iterations == len(ref) - 1
    assert trace.stopped_by == stopped_by
    assert trace.rate == rate
    assert trace.certified is certified
    assert trace.certified_bounds == bounds  # bit for bit
    assert trace.iterates.shape == ref.shape
    assert np.abs(trace.iterates - ref).max() <= 1e-13 * np.abs(ref).max()
    assert len(trace.elapsed_ns) == len(ref) and trace.elapsed_ns[0] == 0
    assert all(a <= b for a, b in zip(trace.elapsed_ns, trace.elapsed_ns[1:]))
    return trace


def iteration_counts(dim):
    k = block_length(dim)
    return sorted({n for n in (1, k - 1, k, k + 1, 2 * k + 1) if n >= 1})


@pytest.mark.parametrize("dim,iters", [(d, n) for d in (1, 3, 16, 128)
                                       for n in iteration_counts(d)])
def test_blocks_reproduce_the_plain_recurrence(dim, iters):
    """Whole blocks, a partial last block and one step past a block edge, from
    dim 1 (K = 16384) to 128, where a block is one plain step (K = 1)."""
    ovf = frame_of_dim(dim)
    x = complex_box(rng_for(700 + dim), dim)
    cfg = ReconstructionConfig(max_iters=iters, target_error=1e-300,
                               bounds_override=slow_bounds(ovf))
    trace = assert_matches_reference(ovf, analysis(ovf, x), cfg, true_x=x)
    assert trace.stopped_by == "max_iters" and trace.certified
    expected = np.linalg.norm(x - trace.iterates, axis=1)
    assert np.array_equal(np.array(trace.actual_errors), expected)


@pytest.mark.parametrize("dim", [3, 16])
def test_blocks_stop_where_the_recurrence_meets_the_target(dim):
    ovf = frame_of_dim(dim)
    c = analysis(ovf, complex_box(rng_for(800 + dim), dim))
    for bounds in (None, slow_bounds(ovf)):  # at dim 16 the slow run spans many blocks
        cfg = ReconstructionConfig(bounds_override=bounds)
        trace = assert_matches_reference(ovf, c, cfg)
        assert trace.stopped_by == "target_error"
        capped = ReconstructionConfig(max_iters=trace.iterations - 1, bounds_override=bounds)
        assert assert_matches_reference(ovf, c, capped).stopped_by == "max_iters"


def test_blocks_follow_a_narrow_override_uncertified():
    ovf = frame_of_dim(16)
    b = frame_bounds(ovf)
    cfg = ReconstructionConfig(max_iters=2 * block_length(16) + 1, target_error=1e-300,
                               bounds_override=FrameBounds(lower=1.05 * b.lower, upper=b.upper))
    c = analysis(ovf, complex_box(rng_for(900), 16))
    assert not assert_matches_reference(ovf, c, cfg).certified


def test_iterates_are_one_read_only_array_and_runs_are_bit_identical():
    ovf = frame_of_dim(16)
    c = analysis(ovf, complex_box(rng_for(902), 16))
    cfg = ReconstructionConfig(max_iters=2 * block_length(16) + 1, target_error=1e-300)
    t1, t2 = frame_algorithm(ovf, c, cfg), frame_algorithm(ovf, c, cfg)
    assert t1.iterates.shape == (t1.iterations + 1, 16)
    assert not t1.iterates.flags.writeable
    with pytest.raises(ValueError):
        t1.iterates[0, 0] = 1.0
    assert np.array_equal(t1.iterates, t2.iterates)
    assert t1.certified_bounds == t2.certified_bounds


def test_frame_algorithm_makes_no_eigen_call(monkeypatch):
    ovf = frame_of_dim(16)
    c = analysis(ovf, complex_box(rng_for(903), 16))
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen")
    frame_algorithm(ovf, c)
    assert calls == {"hermitian_eigen": 0}
