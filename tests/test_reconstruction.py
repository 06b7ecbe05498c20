"""Iterative reconstruction: convergence, certificates, trace output."""

import dataclasses
import hashlib
import math
import warnings
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from framekit import (
    AtomicMeasureSpace,
    CoefficientField,
    DimensionMismatch,
    InvalidBounds,
    LimitExceeded,
    OperatorValuedFrame,
    ReconstructionConfig,
    SpaceMismatch,
    VectorFrame,
    analysis,
    frame_algorithm,
    frame_bounds,
    frame_operator,
    frames,
    from_vector_frame,
    linalg,
    reconstruct_direct,
    reconstruction,
    synthesis,
    trace_to_csv,
)

from conftest import (
    complex_box,
    count_calls,
    outputs_at_blas_threads,
    random_ovf,
    rng_for,
    rotated_rows,
)

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
    trace = run_full(ovf, E2, iters=200)
    proxy = trace.certified_bounds[0]
    expected = proxy * np.power(trace.rate, np.arange(201))
    assert np.array_equal(trace.certified_bounds, expected)  # exact, by definition


def test_tight_frame_recovers_in_one_step():
    """x(1) is r = relax T*c itself, with no product by the identity."""
    f = from_vector_frame(VectorFrame(dim_h=2, vectors=[E1, E2]))
    x = np.array([0.3 - 1j, 2.5])
    trace = run_full(f, x, iters=1)
    assert trace.rate == 0.0
    assert float(np.linalg.norm(trace.final - x)) <= 1e-11 * float(np.linalg.norm(x))
    assert trace.final.tobytes() == (f._plan.relax * synthesis(f, analysis(f, x))).tobytes()


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


def test_config_rejects_bad_parameters():
    with pytest.raises(InvalidBounds):
        ReconstructionConfig(max_iters=0)
    with pytest.raises(InvalidBounds):
        ReconstructionConfig(target_error=0.0)


@pytest.mark.parametrize("max_iters", [2.5, 3.0, True, False, np.float64(4.0), "5", None])
def test_config_takes_only_an_integer_max_iters(max_iters):
    """A float cap ran past itself (2.5 ran 3 steps and reported "max_iters") and
    True ran as 1; only integers >= 1, numpy's included, are taken."""
    with pytest.raises(InvalidBounds):
        ReconstructionConfig(max_iters=max_iters)


@pytest.mark.parametrize("target_error", [True, False, "1e-9", None, 1e-9 + 0j, np.bool_(True),
                                          np.nan, np.inf, -1e-9, 0])
def test_config_takes_only_a_positive_finite_real_target_error(target_error):
    """True was taken as a target of 1.0 and "1e-9" raised TypeError; only real
    numbers in (0, inf) are taken, each refused one with InvalidBounds."""
    with pytest.raises(InvalidBounds):
        ReconstructionConfig(target_error=target_error)


@pytest.mark.parametrize("target_error", [1e-3, np.float64(1e-3), np.float32(1e-3), 1])
def test_config_takes_a_numpy_float_target_error(target_error):
    ovf = overcomplete_pair_frame()
    cfg = ReconstructionConfig(target_error=target_error)
    trace = frame_algorithm(ovf, analysis(ovf, E2), cfg)
    assert trace.stopped_by == "target_error" and trace.certified_bounds[-1] <= target_error


def test_config_takes_a_numpy_integer_max_iters():
    ovf = overcomplete_pair_frame()
    cfg = ReconstructionConfig(max_iters=np.int64(3), target_error=1e-300)
    trace = frame_algorithm(ovf, analysis(ovf, E2), cfg)
    assert (trace.iterations, trace.stopped_by) == (3, "max_iters")


def test_is_deterministic_across_runs():
    ovf = random_ovf(dim=4, atoms=6, seed=9)
    c = analysis(ovf, complex_box(rng_for(7), 4))
    cfg = ReconstructionConfig(max_iters=30, target_error=1e-300)
    t1 = frame_algorithm(ovf, c, cfg)
    t2 = frame_algorithm(ovf, c, cfg)
    assert np.array_equal(t1.final, t2.final)
    assert np.array_equal(t1.certified_bounds, t2.certified_bounds)


def test_trace_csv_has_header_and_one_row_per_iterate():
    ovf = overcomplete_pair_frame()
    trace = run_full(ovf, E2, iters=3)
    text = trace_to_csv(trace)
    assert "np.float64(" not in text  # plain float text from both array columns
    lines = text.splitlines()
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


# --- the certified bounds and the stopping index ------------------------------


def frame_at_rate(kind):
    """A dim-2 frame at each rate: the tight frame (E1, E2) at rate 0, the pair
    frame (A = 1, B = 2) at rate 1/3, and a cond(S) = 300 frame at rate 299/301."""
    if kind == "tight":
        return from_vector_frame(VectorFrame(dim_h=2, vectors=[E1, E2]))
    if kind == "pair":
        return overcomplete_pair_frame()
    return conditioned_frame(2, 8, 300.0, seed=940)


@lru_cache(maxsize=None)
def exact_powers(rate, count):
    """rate^n for n = 0..count-1 to 50 digits, rate taken as the double it is."""
    with mpmath.workdps(50):
        powers, p, r = [], mpmath.mpf(1), mpmath.mpf(rate)
        for _ in range(count):
            powers.append(p)
            p = p * r
        return powers


def assert_first_bound_at_the_target(bounds, stopped_by, rate, proxy, target, max_iters):
    """bounds stop at the first one at the target, else at max_iters, and each is
    within 2 ULP of rate^n proxy to 50 digits where rate^n is normal."""
    assert bounds.dtype == np.float64 and not bounds.flags.writeable
    assert bounds[0] == proxy
    first = next((n for n in range(1, len(bounds)) if bounds[n] <= target), None)
    if first is None:
        assert (len(bounds) - 1, stopped_by) == (max_iters, "max_iters")
    else:
        assert (len(bounds) - 1, stopped_by) == (first, "target_error")
    exact = exact_powers(rate, len(bounds))
    with mpmath.workdps(50):
        for bound, power in zip(bounds.tolist(), exact):
            if power >= np.finfo(np.float64).tiny:  # rate^n normal
                want = power * mpmath.mpf(proxy)
                assert abs(mpmath.mpf(bound) - want) <= 2 * math.ulp(float(want))
            elif rate == 0.0:
                assert bound == 0.0


@pytest.mark.parametrize("max_iters", [1, 5, 10_000])
@pytest.mark.parametrize("target", ["proxy", 1e-9, 1e-300])
@pytest.mark.parametrize("kind", ["tight", "pair", "cond300"])
def test_the_stopping_index_is_the_first_bound_at_the_target(kind, target, max_iters):
    ovf = frame_at_rate(kind)
    c = analysis(ovf, np.array([0.5, 1.0 - 0.25j]))
    proxy = frame_algorithm(ovf, c, ReconstructionConfig(max_iters=1)).certified_bounds[0]
    target = proxy if target == "proxy" else target
    cfg = ReconstructionConfig(max_iters=max_iters, target_error=target)
    trace = frame_algorithm(ovf, c, cfg)
    assert len(trace.certified_bounds) == trace.iterations + 1
    assert_first_bound_at_the_target(trace.certified_bounds, trace.stopped_by, trace.rate,
                                     proxy, target, max_iters)


def rate_plan(rate):
    """A plan at ``rate`` with no frame behind it: _certified_bounds reads only its
    rate and powers."""
    return frames._IterationPlan(relax=None, rate=rate, operator=None)


@pytest.mark.parametrize("max_iters", [1, 5, 10_000])
@pytest.mark.parametrize("target", ["proxy", 1e-9, 1e-300])
def test_the_stopping_index_at_a_rate_just_below_one(target, max_iters):
    """Rate 1 - 1e-12 needs cond(S) = 2e12, past any frame, so the bounds are taken
    from _certified_bounds directly, with the proxy ||T*c|| / A of the pair frame's
    coefficients over the A that rate gives with B = 2."""
    rate = 1.0 - 1e-12
    ovf = overcomplete_pair_frame()
    c = analysis(ovf, np.array([0.5, 1.0 - 0.25j]))
    proxy = float(linalg._norms(synthesis(ovf, c), 1)) / (2.0 * (1.0 - rate) / (1.0 + rate))
    target = proxy if target == "proxy" else target
    bounds, stopped_by = reconstruction._certified_bounds(rate_plan(rate), proxy, target, max_iters)
    assert_first_bound_at_the_target(bounds, stopped_by, rate, proxy, target, max_iters)


def test_the_search_matches_a_plain_loop_and_falls_back_once():
    """Random rates, proxies, targets and caps give the first bound at the target of
    the whole array, as do a rate that rounds to 1, a zero proxy and a zero rate;
    at a rate near 1 and a target just under the proxy, the logarithms' rounding
    puts the estimate short, and the full array is searched."""
    rng = rng_for(31)
    cases = [(float(rng.uniform(0.0, 1.0)) ** float(rng.uniform(0.01, 4.0)),
              10.0 ** rng.uniform(-200.0, 200.0), 10.0 ** rng.uniform(-300.0, 10.0),
              int(rng.integers(1, 3000))) for _ in range(300)]
    cases += [(1.0, 2.0, 1.0, 7), (0.5, 0.0, 1e-9, 5), (0.0, 3.0, 1e-300, 4)]
    rate, proxy, target = 0.9999999999999998, 5.365349312655659e+117, 5.365349312655253e+117
    estimate = math.ceil((math.log(target) - math.log(proxy)) / math.log(rate)) + 1
    full = proxy * np.power(rate, np.arange(estimate + 1))
    assert not (full[1:] <= target).any()  # the estimate falls short
    cases.append((rate, proxy, target, 2000))
    for rate, proxy, target, max_iters in cases:
        full = proxy * np.power(rate, np.arange(max_iters + 1))
        first = next((n for n in range(1, max_iters + 1) if full[n] <= target), None)
        bounds, stopped_by = reconstruction._certified_bounds(rate_plan(rate), proxy, target, max_iters)
        assert stopped_by == ("max_iters" if first is None else "target_error")
        assert np.array_equal(bounds, full[:(first or max_iters) + 1])
    assert stopped_by == "target_error" and len(bounds) > estimate + 1


# --- the doubling scan against the plain recurrence ---------------------------


def reference_frame_algorithm(ovf, c, cfg):
    """The frame algorithm one step at a time, x = x + relax (T*c - S x): its
    iterates (n+1, d), certified bounds, rate and stop.  The bounds are the one
    expression over all max_iters + 1 indices from the package's proxy
    ||T*c|| / A (its norm is linalg._norms), and a plain loop stops at the
    first one at the target."""
    fb = frame_bounds(ovf)
    s, b = frame_operator(ovf), synthesis(ovf, c)
    relax = 2.0 / (fb.lower + fb.upper)
    rate = (fb.upper - fb.lower) / (fb.upper + fb.lower)
    proxy = float(linalg._norms(b, 1)) / fb.lower
    bounds = proxy * np.power(rate, np.arange(cfg.max_iters + 1))
    x = np.zeros(ovf.dim_h, dtype=complex)
    iterates, stopped_by, n = [x], "max_iters", 0
    while n < cfg.max_iters:
        n += 1
        x = x + relax * (b - s @ x)
        iterates.append(x)
        if bounds[n] <= cfg.target_error:
            stopped_by = "target_error"
            break
    return np.array(iterates), bounds[:n + 1], rate, stopped_by


def levels(n):
    """The rows each level of the scan writes for n iterations: x(1) = r alone,
    then rows h+1 .. min(2h, n) at h = 1, 2, 4, ..."""
    rows, h = [range(1, 2)], 1
    while h < n:
        rows.append(range(h + 1, min(2 * h, n) + 1))
        h *= 2
    return rows


@lru_cache(maxsize=None)
def frame_of_dim(dim):
    return random_ovf(dim=dim, atoms=8, seed=dim)  # blocks of 1..dim rows each


@lru_cache(maxsize=None)
def slow_frame(dim):
    """A cond(S) = 100 frame: rate 99/101, near 0.9802, so no bound reaches 1e-300
    within 10000 steps."""
    return conditioned_frame(dim, 16, 100.0, seed=960 + dim)


def assert_matches_reference(ovf, c, cfg, true_x=None):
    """The trace against the plain recurrence: x(n) from the prefix sums and the
    folds, read before the table, then the table, whose last row is that x(n)
    byte for byte."""
    trace = frame_algorithm(ovf, c, cfg, true_x=true_x)
    ref, bounds, rate, stopped_by = reference_frame_algorithm(ovf, c, cfg)
    assert trace.iterations == len(ref) - 1
    assert trace.stopped_by == stopped_by
    assert trace.rate == rate
    assert trace.certified is True
    assert np.array_equal(trace.certified_bounds, bounds)  # bit for bit
    final = trace.final
    assert "iterates" not in vars(trace)  # x(n) came from the folds, not the table
    assert final.shape == ref[-1].shape and not final.flags.writeable
    assert np.abs(final - ref[-1]).max() <= 1e-13 * np.abs(ref).max()
    assert trace.iterates.shape == ref.shape
    assert final.tobytes() == trace.iterates[-1].tobytes()
    assert np.abs(trace.iterates - ref).max() <= 1e-13 * np.abs(ref).max()
    assert trace.elapsed_ns.dtype == np.int64 and not trace.elapsed_ns.flags.writeable
    assert len(trace.elapsed_ns) == len(ref) and trace.elapsed_ns[0] == 0
    assert all(a <= b for a, b in zip(trace.elapsed_ns, trace.elapsed_ns[1:]))
    for rows in levels(trace.iterations):  # one time stamp a level
        assert len({trace.elapsed_ns[k] for k in rows}) == 1
    return trace


def iteration_counts():
    """Runs at the level edges: the first levels, one step short of, at and past
    a power of two, and one run of 10000 steps (14 levels).  For the folds they
    are powers of two (one set bit, no fold), their neighbours and
    popcount-heavy counts such as 1023 (ten set bits, nine folds)."""
    return (1, 2, 3, 4, 5, 63, 64, 65, 1023, 1024, 1025, 10_000)


@pytest.mark.parametrize("dim,iters", [(d, n) for d in (2, 3, 16, 128)
                                       for n in iteration_counts()])
def test_the_scan_reproduces_the_plain_recurrence(dim, iters):
    """Each level's edges, from the one-step run to one of 10000 steps, at dim 2
    to 128."""
    ovf = slow_frame(dim)
    x = complex_box(rng_for(700 + dim), dim)
    cfg = ReconstructionConfig(max_iters=iters, target_error=1e-300)
    trace = assert_matches_reference(ovf, analysis(ovf, x), cfg, true_x=x)
    assert trace.stopped_by == "max_iters" and trace.certified
    expected = linalg._norms(x - trace.iterates, 1)
    assert np.array_equal(trace.actual_errors, expected)
    assert trace.actual_errors.dtype == np.float64 and not trace.actual_errors.flags.writeable


@pytest.mark.parametrize("dim", [3, 16])
def test_the_scan_stops_where_the_recurrence_meets_the_target(dim):
    x = complex_box(rng_for(800 + dim), dim)
    for ovf in (frame_of_dim(dim), slow_frame(dim)):  # at dim 16 the slow run spans many levels
        c = analysis(ovf, x)
        trace = assert_matches_reference(ovf, c, ReconstructionConfig())
        assert trace.stopped_by == "target_error"
        capped = ReconstructionConfig(max_iters=trace.iterations - 1)
        assert assert_matches_reference(ovf, c, capped).stopped_by == "max_iters"


def test_a_dim_1_frame_is_tight_and_stops_after_one_step():
    """S is one positive number, so A = B and the rate is 0: the first step is
    S^-1 T*c with a certified bound of 0, even when 10000 steps are allowed.
    This is why the long scans start at dim 2.  x(1) is r = relax T*c itself."""
    ovf = from_vector_frame(VectorFrame(dim_h=1, vectors=[[1.0], [2.0 - 1.0j]]))
    x = np.array([0.5 - 2.0j])
    c = analysis(ovf, x)
    cfg = ReconstructionConfig(max_iters=10_000, target_error=1e-300)
    trace = assert_matches_reference(ovf, c, cfg, true_x=x)
    assert trace.rate == 0.0
    assert (trace.iterations, trace.stopped_by) == (1, "target_error")
    assert trace.certified_bounds[1] == 0.0
    assert abs(trace.final[0] - x[0]) <= 1e-15 * abs(x[0])
    assert trace.final.tobytes() == (ovf._plan.relax * synthesis(ovf, c)).tobytes()


@pytest.mark.parametrize("iters", [4095, 4096, 4097])
def test_the_folds_around_4096_reproduce_the_plain_recurrence(iters):
    """4095 has every bit below 2^12 set (eleven folds), 4096 one bit (x(n) from
    the prefix sums alone, no fold) and 4097 the top and the lowest bit (one
    fold)."""
    ovf = slow_frame(16)
    x = complex_box(rng_for(972), 16)
    cfg = ReconstructionConfig(max_iters=iters, target_error=1e-300)
    trace = assert_matches_reference(ovf, analysis(ovf, x), cfg, true_x=x)
    assert (trace.iterations, trace.stopped_by) == (iters, "max_iters")


@pytest.mark.parametrize("kind", ["tight", "pair", "cond300", "cond1e4"])
def test_every_error_is_within_the_frames_own_certified_bound(kind):
    """With the frame's own bounds every trace is certified, and the error of
    each iterate is at most proxy rate^n, up to rounding of 1e-12 ||x||, from
    rate 0 to rate 9999/10001."""
    ovf = conditioned_frame(8, 128, 1e4, seed=951) if kind == "cond1e4" else frame_at_rate(kind)
    x = complex_box(rng_for(970), ovf.dim_h)
    trace = run_full(ovf, x, iters=2000)
    assert trace.certified is True
    slack = 1e-12 * float(np.linalg.norm(x))
    assert np.all(trace.actual_errors <= trace.certified_bounds + slack)


def conditioned_frame(n, atoms, cond, seed):
    """A frame shaped like the benchmark's: atom t has 1 + t % n rows, weights in
    [0.5, 2], and cond(S) = cond."""
    rng = rng_for(seed)
    heights = [1 + t % n for t in range(atoms)]
    weights = rng.uniform(0.5, 2.0, atoms)
    rows = rotated_rows(rng, sum(heights), cond ** (np.arange(n) / (2.0 * (n - 1))))
    rows /= np.sqrt(np.repeat(weights, heights))[:, None]
    blocks = np.split(rows, np.cumsum(heights)[:-1])
    space = AtomicMeasureSpace(atoms=[str(t) for t in range(atoms)], weights=weights)
    return OperatorValuedFrame(space=space, dim_h=n, blocks=blocks)


def test_a_benchmark_shaped_run_reproduces_the_plain_recurrence():
    """dim 12, 128 atoms (816 rows), cond(S) = 300, target 1e-9: 3899 iterations,
    12 levels of the scan."""
    ovf = conditioned_frame(12, 128, 300.0, seed=950)
    x = complex_box(rng_for(951), 12)
    trace = assert_matches_reference(ovf, analysis(ovf, x), ReconstructionConfig(), true_x=x)
    assert trace.stopped_by == "target_error" and trace.certified
    assert trace.iterations > 2 ** 11
    assert np.linalg.norm(x - trace.final) <= trace.certified_bounds[-1]


def extended_recurrence(ovf, c, trace):
    """x = M x + r carried in clongdouble from the same S, T*c and relax as the
    trace, for as many steps: the scan's rounding, not the plain step's, is
    measured against it."""
    relax = np.longdouble(2.0 / (trace.bounds.lower + trace.bounds.upper))
    m = np.eye(ovf.dim_h, dtype=np.clongdouble) - relax * frame_operator(ovf).astype(np.clongdouble)
    r = relax * synthesis(ovf, c).astype(np.clongdouble)
    truth = np.empty(trace.iterates.shape, dtype=np.clongdouble)
    truth[0] = 0.0
    for k in range(1, len(truth)):
        truth[k] = m @ truth[k - 1] + r
    return truth


needs_long_double = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                                       reason="long double is no wider than double here")


@needs_long_double
def test_the_scan_is_within_1e_13_of_an_extended_precision_recurrence():
    """The benchmark-shaped run against the clongdouble recurrence."""
    ovf = conditioned_frame(12, 128, 300.0, seed=950)
    c = analysis(ovf, complex_box(rng_for(951), 12))
    trace = frame_algorithm(ovf, c)
    truth = extended_recurrence(ovf, c, trace)
    err = np.abs(trace.iterates - truth).max()
    assert err <= 1e-13 * np.abs(truth).max()


@needs_long_double
@pytest.mark.parametrize("dim", [8, 16])
def test_a_long_scan_at_cond_1e4_stays_within_its_rounding_order(dim):
    """10000 steps on a cond(S) = 1e4 frame (rate 9999/10001) against the
    clongdouble recurrence, held to dim eps / (1 - rate) max|x|, the order that
    frame_algorithm's rounding paragraph derives: about 8.9e-12 at dim 8, where
    the table is about 2.5e-13 off, most of it in x(n) (2.4e-13 against
    1.8e-11 at dim 16)."""
    ovf = conditioned_frame(dim, 128, 1e4, seed=951)
    c = analysis(ovf, complex_box(rng_for(952), dim))
    trace = frame_algorithm(ovf, c, ReconstructionConfig(max_iters=10_000, target_error=1e-300))
    assert (trace.iterations, trace.stopped_by) == (10_000, "max_iters")
    truth = extended_recurrence(ovf, c, trace)
    eps = np.finfo(np.float64).eps
    err = np.abs(trace.iterates - truth).max()
    assert err <= dim * eps / (1.0 - trace.rate) * np.abs(truth).max()


def test_iterates_are_one_read_only_array_and_runs_are_bit_identical():
    ovf = frame_of_dim(16)
    c = analysis(ovf, complex_box(rng_for(902), 16))
    cfg = ReconstructionConfig(max_iters=129, target_error=1e-300)
    t1, t2 = frame_algorithm(ovf, c, cfg), frame_algorithm(ovf, c, cfg)
    assert t1.iterates.shape == (t1.iterations + 1, 16)
    assert not t1.iterates.flags.writeable
    with pytest.raises(ValueError):
        t1.iterates[0, 0] = 1.0
    assert np.array_equal(t1.iterates, t2.iterates)
    assert np.array_equal(t1.certified_bounds, t2.certified_bounds)


@pytest.mark.parametrize("kind", ["tight", "4097"])
def test_iterates_are_a_read_only_view_with_no_writable_base(kind):
    """``iterates`` is the scan's one read-only (n+1, dim_h) complex array, not
    a view, so no writable array is reachable through it.  It is formed once: a
    second read gives the same array.  ``final`` is read-only and is its last
    row, byte for byte."""
    if kind == "tight":
        ovf, cfg, n = frame_at_rate("tight"), ReconstructionConfig(max_iters=10_000), 1
    else:
        ovf, cfg, n = slow_frame(16), ReconstructionConfig(max_iters=4097, target_error=1e-300), 4097
    trace = frame_algorithm(ovf, analysis(ovf, complex_box(rng_for(904), ovf.dim_h)), cfg)
    iterates = trace.iterates
    assert iterates.shape == (n + 1, ovf.dim_h) and iterates.dtype == np.complex128
    assert iterates.base is None and not iterates.flags.writeable
    with pytest.raises(ValueError):
        iterates[-1, 0] = 0.0
    assert trace.final.tobytes() == iterates[-1].tobytes()
    assert not trace.final.flags.writeable and trace.iterates is iterates


def test_a_run_read_as_the_cli_reads_it_forms_no_table(monkeypatch):
    """A run of over 3900 steps without the true vector, read for what the CLI's
    reconstruct writes (final, the certified bounds, elapsed_ns, the iteration
    count and the CSV), runs no scan and keeps no (n+1)-row iterate array; the
    first read of ``iterates`` forms it, once."""
    ovf = conditioned_frame(12, 128, 300.0, seed=950)
    c = analysis(ovf, 4.0 * complex_box(rng_for(951), 12))
    calls = count_calls(monkeypatch, reconstruction, "_iterate_table")
    trace = frame_algorithm(ovf, c)
    n = trace.iterations
    assert n >= 3900 and trace.final.shape == (12,)
    assert len(trace.certified_bounds) == len(trace.elapsed_ns) == n + 1
    assert len(trace_to_csv(trace).splitlines()) == n + 2
    assert trace.actual_errors is None
    assert calls == {"_iterate_table": 0} and "iterates" not in vars(trace)
    assert trace.iterates.shape == (n + 1, 12) and trace.iterates is trace.iterates
    assert calls == {"_iterate_table": 1}


def test_frame_algorithm_makes_no_eigen_call(monkeypatch):
    ovf = frame_of_dim(16)
    c = analysis(ovf, complex_box(rng_for(903), 16))
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen")
    frame_algorithm(ovf, c)
    assert calls == {"hermitian_eigen": 0}


# --- the frame's plan: level matrices and powers kept between runs ------------


def test_a_reused_frame_gives_the_bits_of_a_fresh_one():
    """Four runs in a row on one frame (default, 4097 steps, target 1e-3, default
    again) each equal the same run on a newly built frame bit for bit, and the
    plain recurrence as assert_matches_reference holds it.  The plan then holds
    4097.bit_length() = 13 entries in each of its two read-only complex128
    (13, dim_h, dim_h) stacks: the level matrices, (I - relax S)^T and then each
    the square of the one before, and the prefix sums, Sigma_0 = I and then each
    Sigma_k @ L_k + Sigma_k; and read-only powers no longer than 4097 + 1."""
    def build():
        return conditioned_frame(12, 128, 300.0, seed=950)

    ovf = build()
    x = complex_box(rng_for(953), 12)
    configs = (ReconstructionConfig(), ReconstructionConfig(max_iters=4097, target_error=1e-300),
               ReconstructionConfig(target_error=1e-3), ReconstructionConfig())
    for cfg in configs:
        trace = assert_matches_reference(ovf, analysis(ovf, x), cfg, true_x=x)
        fresh_frame = build()
        fresh = frame_algorithm(fresh_frame, analysis(fresh_frame, x), cfg, true_x=x)
        for name in ("final", "iterates", "certified_bounds", "actual_errors"):
            assert getattr(trace, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert (trace.stopped_by, trace.rate) == (fresh.stopped_by, fresh.rate)
        assert (trace.bounds.lower, trace.bounds.upper) == (fresh.bounds.lower, fresh.bounds.upper)
    plan = ovf._plan
    assert ovf._plan is plan and plan.rate == trace.rate
    levels, sums = plan._tables
    assert len(levels) == 13 == math.ceil(math.log2(4097))
    m = np.eye(12) - plan.relax * frame_operator(ovf)
    assert levels.dtype == np.complex128 and levels.shape == (13, 12, 12)
    assert np.array_equal(levels[0], m.T)
    for before, after in zip(levels, levels[1:]):
        assert (before @ before).tobytes() == after.tobytes()
    assert sums.dtype == np.complex128 and sums.shape == (13, 12, 12)
    assert not levels.flags.writeable and not sums.flags.writeable
    assert all(a.tobytes() == b.tobytes() for a, b in zip(plan.tables(13), (levels, sums)))
    assert np.array_equal(sums[0], np.eye(12))
    for k in range(12):
        assert (sums[k] @ levels[k] + sums[k]).tobytes() == sums[k + 1].tobytes(), k
    assert len(plan._powers) <= 4097 + 1 and not plan._powers.flags.writeable
    assert np.array_equal(plan._powers, np.power(plan.rate, np.arange(len(plan._powers))))


def test_a_plan_is_made_on_the_first_run_and_grows_only_for_a_longer_one():
    """Nothing is computed for a frame no run has read; a run of n steps leaves
    n.bit_length() levels and prefix sums, and a shorter run replaces no table.
    A longer one replaces both stacks whole, beginning with the bytes of the
    entries they had."""
    ovf = conditioned_frame(3, 16, 100.0, seed=963)  # rate 99/101: no bound reaches 1e-300
    assert "_plan" not in vars(ovf)
    c = analysis(ovf, complex_box(rng_for(954), 3))
    frame_algorithm(ovf, c, ReconstructionConfig(max_iters=100, target_error=1e-300))
    plan = ovf._plan
    tables, powers = plan._tables, plan._powers
    levels, sums = tables
    assert (len(levels), len(sums), len(powers)) == (7, 7, 101)
    frame_algorithm(ovf, c, ReconstructionConfig(max_iters=64, target_error=1e-300))
    assert plan._tables is tables and plan._powers is powers
    frame_algorithm(ovf, c, ReconstructionConfig(max_iters=129, target_error=1e-300))
    grown_levels, grown_sums = plan._tables
    assert (len(grown_levels), len(grown_sums), len(plan._powers)) == (8, 8, 130)
    assert grown_levels[:7].tobytes() == levels.tobytes()
    assert grown_sums[:7].tobytes() == sums.tobytes()
    assert grown_levels[7].tobytes() == (grown_levels[6] @ grown_levels[6]).tobytes()
    assert (grown_sums[7].tobytes()
            == (grown_sums[6] @ grown_levels[6] + grown_sums[6]).tobytes())
    assert not any(a.flags.writeable for a in (levels, sums, grown_levels, grown_sums))


@pytest.mark.parametrize("rate", [0.0, 1.0 / 3.0, 299.0 / 301.0, 9999.0 / 10001.0])
def test_a_longer_power_table_begins_with_the_shorter_one(rate):
    """The plan cuts its powers from one table however long it has grown, which
    gives a bound's bits only if np.power works entry by entry: every prefix of
    the 10001-entry table, around the SIMD tails too, is the table of that length."""
    table = np.power(rate, np.arange(10_001))
    for k in (*range(1, 71), *range(4090, 4101)):
        assert table[:k].tobytes() == np.power(rate, np.arange(k)).tobytes(), k


# Builds a dim-8 and a dim-16 frame past 256 rows from the generator alone (no
# LAPACK call), solves one vector on each by both routes, and prints a digest of
# the bytes of x(n) (read before the table), of the iterates, the certified
# bounds and the direct solution; on the dim-16 frame also of x(n) and the
# iterates of a 4097-step run (13 levels), and then of the default run once
# more, read from the frame's plan.
_DIGESTS = """
import hashlib
import numpy as np
from framekit import (AtomicMeasureSpace, OperatorValuedFrame, ReconstructionConfig,
                      analysis, frame_algorithm, reconstruct_direct)
def digest(n, rows, trace, name, a):
    print(n, rows, trace.iterations, name, hashlib.sha256(a.tobytes()).hexdigest())
for n in (8, 16):
    rng = np.random.Generator(np.random.PCG64(n))
    heights = [1 + t % n for t in range(64)]
    shape = (sum(heights), n)
    rows = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    rows *= 300.0 ** (np.arange(n) / (2.0 * (n - 1)))
    space = AtomicMeasureSpace([str(t) for t in range(64)], rng.uniform(0.5, 2.0, 64))
    ovf = OperatorValuedFrame(space, n, np.split(rows, np.cumsum(heights)[:-1]))
    c = analysis(ovf, rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    trace = frame_algorithm(ovf, c)
    digest(n, shape[0], trace, "final", trace.final)
    for name, a in (("iterates", trace.iterates), ("bounds", trace.certified_bounds),
                    ("direct", reconstruct_direct(ovf, c))):
        digest(n, shape[0], trace, name, a)
for trace in (frame_algorithm(ovf, c, ReconstructionConfig(max_iters=4097, target_error=1e-300)),
              frame_algorithm(ovf, c)):
    digest(n, shape[0], trace, "final", trace.final)
    digest(n, shape[0], trace, "iterates", trace.iterates)
"""


def test_iterates_are_bit_identical_at_one_and_two_blas_threads():
    """frame_algorithm (x(n) from the chain, the iterates and the certified bounds)
    and reconstruct_direct give the same bytes with OpenBLAS at 1 and at 2 threads,
    on a 288 x 8 and a 544 x 16 frame (several thousand iterates each, and 4097 on
    the second), each thread count in its own process.  After the 4097-step run,
    the second frame's default run, from its grown plan, gives the bytes of its
    first."""
    outs = outputs_at_blas_threads(_DIGESTS)
    assert len(outs[0]) == 12 and [int(line.split()[1]) for line in outs[0]] == [288] * 4 + [544] * 8
    assert [line.split()[3] for line in outs[0]] == (
        ["final", "iterates", "bounds", "direct"] * 2 + ["final", "iterates"] * 2)
    assert min(int(line.split()[2]) for line in outs[0]) > 1000
    assert int(outs[0][-4].split()[2]) == 4097
    assert outs[0] == outs[1]
    assert all(out[-2:] == out[4:6] for out in outs)


# --- a bit record of the op path ----------------------------------------------


def pinned_frame(n, atoms, seed):
    """A frame shaped like the benchmark's from the generator alone (no LAPACK
    call): atom t has 1 + t % n rows, weights in [0.5, 2], entries in the unit
    box with columns scaled log-spaced over [1, sqrt(300)]; and a vector."""
    rng = rng_for(seed)
    heights = [1 + t % n for t in range(atoms)]
    rows = complex_box(rng, (sum(heights), n)) * 300.0 ** (np.arange(n) / (2.0 * (n - 1)))
    space = AtomicMeasureSpace([str(t) for t in range(atoms)], rng.uniform(0.5, 2.0, atoms))
    ovf = OperatorValuedFrame(space, n, np.split(rows, np.cumsum(heights)[:-1]))
    return ovf, complex_box(rng, n)


# (m, n) of the matrices whose _scaled_r is pinned: the flat path (at most
# linalg._FLAT_QR_ROWS rows, one panel and several), then the recursive one.
PINNED_QR_SHAPES = {
    "flat": ((19, 3), (84, 6), (100, 17), (192, 12), (256, 40)),
    "recursive": ((257, 8), (544, 16), (1000, 20)),
}

# sha256, in case order, of every run's final, certified_bounds and iterates
# bytes, stopped_by and repr(rate), on the three frames of pinned_frame at dims
# 8, 12 and 16 (288, 400 and 272 rows), each under the default config and at
# 4097 steps to 1e-300; and of _scaled_r's R bytes and str(e) on five matrices
# of each shape of PINNED_QR_SHAPES, rows scaled by factors in [1e-8, 1].
# Computed with numpy 2.4.6 and its bundled OpenBLAS on an x86-64 AVX-512
# Xeon: the products go through BLAS, so another BLAS or CPU may round
# differently.
PINNED_OP_DIGESTS = {
    "frame_algorithm": "23d5bbf3053f3e1c8237ea38ff037d5be98bd44d88e0bcd0ac5b5bc82f2a1fb7",
    "_scaled_r flat": "26be05cc885d099e644a70849b8bac387e53ba839b68a778463c3baa8cce14c0",
    "_scaled_r recursive": "ba23f790d220c9b3fa371675609336d136cfb6183bb7b344bae050c91877797b",
}


def op_path_digests():
    digests = {key: hashlib.sha256() for key in PINNED_OP_DIGESTS}
    h = digests["frame_algorithm"]
    for n, atoms in ((8, 64), (12, 64), (16, 32)):
        ovf, x = pinned_frame(n, atoms, seed=1200 + n)
        for cfg in (None, ReconstructionConfig(max_iters=4097, target_error=1e-300)):
            trace = frame_algorithm(ovf, analysis(ovf, x), cfg)
            for a in (trace.final, trace.certified_bounds, trace.iterates):
                h.update(a.tobytes())
            h.update(f"{trace.stopped_by} {trace.rate!r}".encode())
    rng = rng_for(1300)
    for path, shapes in PINNED_QR_SHAPES.items():
        h = digests[f"_scaled_r {path}"]
        for m, n in shapes:
            for _ in range(5):
                g = complex_box(rng, (m, n))
                r, e = linalg._scaled_r(g, 10.0 ** rng.uniform(-8.0, 0.0, m))
                h.update(r.tobytes())
                h.update(str(e).encode())
    return {key: h.hexdigest() for key, h in digests.items()}


def test_frame_algorithm_keeps_its_pinned_bits():
    """x(n), the certified bounds, the iterates, the stop and the rate of default
    and 4097-step runs on frames above 256 rows, and the factors _scaled_r gives
    on both of its paths, have the bytes they had before the op path lost its
    fixed costs."""
    assert all(m <= linalg._FLAT_QR_ROWS for m, _ in PINNED_QR_SHAPES["flat"])
    assert all(m > linalg._FLAT_QR_ROWS for m, _ in PINNED_QR_SHAPES["recursive"])
    assert op_path_digests() == PINNED_OP_DIGESTS


def test_the_op_path_still_refuses_foreign_fields_and_other_offsets():
    """frame_algorithm takes T*c from synthesis, which refuses a field over another
    measure space and one over the frame's space cut at other offsets."""
    ovf = overcomplete_pair_frame()
    foreign = analysis(frames.discretize_continuous([E1, E1, E2], [1.0, 1.0, 0.5]), E1)
    with pytest.raises(SpaceMismatch):
        frame_algorithm(ovf, foreign)
    f = OperatorValuedFrame(AtomicMeasureSpace(["a", "b"], [1.0, 1.0]), 2,
                            [np.eye(2)[:1], np.array([[0.0, 1.0], [1.0, 1.0]])])
    shifted = CoefficientField(f.space, [np.ones(2), np.ones(1)])
    with pytest.raises(DimensionMismatch):
        frame_algorithm(f, shifted)


@pytest.mark.parametrize("value", [1e200, 1e308])
def test_overflowing_coefficients_raise_limit_exceeded_without_a_warning(value):
    """Coefficients whose T*c or ||T*c|| overflows are refused before any iterate,
    by both routes, and the overflow they meet on the way warns of nothing."""
    ovf = overcomplete_pair_frame()
    c = CoefficientField(ovf.space, [np.array([value]), np.array([value]), np.array([-value])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LimitExceeded, match="proxy"):
            frame_algorithm(ovf, c)
        if value > 1e300:  # T*c itself overflows; at 1e200 only its norm does
            with pytest.raises(LimitExceeded):
                reconstruct_direct(ovf, c)


def test_a_trace_is_the_one_the_public_constructor_builds():
    """frame_algorithm builds its trace without the generated constructor; every
    field is the one IterationTrace(...) given the same values holds, both have
    the same attributes, and both refuse a field assignment; both form the same
    table on first read."""
    ovf = random_ovf(4, 9, seed=41)
    x = complex_box(rng_for(42), 4)
    for true_x in (None, x):
        trace = frame_algorithm(ovf, analysis(ovf, x), true_x=true_x)
        fields = dataclasses.fields(trace)
        public = reconstruction.IterationTrace(**{f.name: getattr(trace, f.name) for f in fields})
        assert vars(trace) == vars(public)
        assert trace.certified is True and (trace._true_x is None) == (true_x is None)
        for f in fields:
            assert getattr(trace, f.name) is getattr(public, f.name), f.name
            for t in (trace, public):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(t, f.name, None)
        assert trace.iterates.tobytes() == public.iterates.tobytes()
