"""Verdicts against a 50-digit oracle.

Each table builds inputs at small n whose true value lies near a verdict's
threshold and computes the true spectrum of the rounded input, the doubles
the package holds, in mpmath at 50 digits.  numpy shares the rounding under
test, so it is no oracle for a bound; the PSD verdict table reads eigvalsh
only outside the kernel's documented margin of the threshold.
"""

import numpy as np
import pytest

from framekit import (InvalidPovm, NotAFrame, NotPsd, Povm, cli, decompose, discretize_continuous,
                      frames, linalg, validate)
from framekit import correspondence as cr

from conftest import complex_box, random_ovf, rng_for, rotated_rows

mpmath = pytest.importorskip("mpmath")

EPS = float(np.finfo(np.float64).eps)
# The certificate accepts a family when MARGIN ||R||_F^2 ||R^-1||_F^2 < 1 / TOL_FRAME_REL.
THRESHOLD = 1.0 / (linalg.TOL_FRAME_REL * linalg._CERTIFICATE_MARGIN)


def true_condition(f):
    """lambda_max / lambda_min of S = B* diag(w) B, from the frame's double rows
    and weights, at 50 digits."""
    with mpmath.workdps(50):
        b = mpmath.matrix(f._rows.tolist())
        w = [mpmath.mpf(float(x)) for x in f._row_weights]
        n = f.dim_h
        s = mpmath.matrix(n, n)
        for p in range(n):
            for q in range(p, n):
                s[p, q] = mpmath.fsum(w[i] * mpmath.conj(b[i, p]) * b[i, q] for i in range(len(w)))
                s[q, p] = mpmath.conj(s[p, q])
        lam = sorted(mpmath.eigh(s, eigvals_only=True))
        return lam[-1] / lam[0]


def near_threshold(rng, dim, ratio):
    """A vector frame of 2 dim rows whose certificate bound is ratio * THRESHOLD:
    singular values (1, ..., 1, c^-1/2), so cond(S) = c and the bound is
    (n - 1 + 1/c)(n - 1 + c) with n = dim."""
    k = (ratio * THRESHOLD - (dim - 1) ** 2 - 1) / (dim - 1)  # c + 1/c
    c = (k + np.sqrt(k * k - 4.0)) / 2.0
    d = np.ones(dim)
    d[-1] = c ** -0.5
    rows = rotated_rows(rng, 2 * dim, d)
    return discretize_continuous(np.conj(rows), np.ones(len(rows)))


def frame_table():
    """(case, frame): random frames, and frames with their certificate bound at
    0.95 and 1.05 times the threshold, at n = 2..8."""
    rng = rng_for(70)
    for dim in range(2, 9):
        for seed in range(2):
            yield "random", random_ovf(dim=dim, atoms=dim + 2, seed=70 + 10 * dim + seed)
        for ratio in (0.95, 1.05):
            for _ in range(2):
                yield ratio, near_threshold(rng, dim, ratio)


def test_the_framed_value_bounds_the_true_condition():
    """to-povm's and to-ovf's framed value, TOL_FRAME_REL * the bound a frame
    was accepted with, is at least TOL_FRAME_REL lambda_max / lambda_min of the
    true S, and below 1.  A certified frame's value is the certificate with its
    margin, so at least MARGIN times that.  A frame the certificate declines
    keeps upper / lower from the sweeps on R times its derived allowance
    (frames._swept_condition), so its value is at least the truth and at most
    the truth times that allowance and the sweeps' own n eps cond(R)."""
    paths = {"random": set(), 0.95: set(), 1.05: set()}
    for case, f in frame_table():
        certified = "_bounds" not in vars(f)
        paths[case].add(certified)
        value = cli._frame_check("framed", f._condition)["value"]
        truth = linalg.TOL_FRAME_REL * true_condition(f)
        assert value < 1.0, (case, f.dim_h)
        if certified:
            assert value >= linalg._CERTIFICATE_MARGIN * truth, (case, f.dim_h, value, truth)
        else:
            assert value >= truth, (case, f.dim_h, value, truth)
            b = frames.frame_bounds(f)
            allowance = f._condition / (b.upper / b.lower)
            rounding = 2 * f.dim_h * EPS * mpmath.sqrt(truth / linalg.TOL_FRAME_REL)
            assert value <= truth * allowance * (1 + rounding), (case, f.dim_h, value, truth)
    # both paths are exercised: the certificate takes the random frames and
    # those below its threshold, the eigenvalues those above it
    assert paths == {"random": {True}, 0.95: {True}, 1.05: {False}}


# --- roundtrip's bounds_preserved certificate ---------------------------------


def extremes(s):
    """(lambda_min, lambda_max) of a double Hermitian matrix, at 50 digits."""
    m = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in s.tolist()])
    lam = mpmath.eigh(m, eigvals_only=True)
    return min(lam), max(lam)


def true_drift(s0, s1):
    """max(|A1 - A0| / A0, |B1 - B0| / B0) of two formed operators, at 50 digits."""
    with mpmath.workdps(50):
        (a0, b0), (a1, b1) = extremes(s0), extremes(s1)
        return max(abs(a1 - a0) / a0, abs(b1 - b0) / b0)


def recovered_operator(f):
    """The recovered frame's S, as roundtrip forms it (trace rule)."""
    m = cr.ovf_to_povm(f)
    return frames.frame_operator(cr.decomposition_to_ovf(cr.decompose(m, cr.TRACE_RULE)))


def graded_frame(rng, dim, d, scale=1.0):
    rows = rotated_rows(rng, 2 * dim, d) * scale
    return discretize_continuous(np.conj(rows), np.ones(len(rows)))


def drift_table():
    """(case, frame, S1): the recovered operator of random frames and of frames
    with graded spectra up to cond(S) = 1e9, at n = 2..8, some scaled by 2^-40
    or 2^40 (so the factor's exponent is far from 0); and S0 moved by a multiple
    of the projector on its lowest eigenvector, where Weyl's inequality is tight,
    on frames whose singular values are (1, ..., 1, cond^-1/2), where
    ||R^-1||_F^2 exceeds ||R^-1||_2^2 by only (n - 1) / cond relative."""
    rng = rng_for(80)
    for dim in range(2, 9):
        f = random_ovf(dim=dim, atoms=dim + 2, seed=80 + dim)
        yield "random", f, recovered_operator(f)
        for cond, scale in ((1e3, 2.0 ** -40), (1e6, 1.0), (1e9, 2.0 ** 40)):
            f = graded_frame(rng, dim, np.logspace(0.0, -0.5 * np.log10(cond), dim), scale)
            yield "graded", f, recovered_operator(f)
    for dim in range(2, 9):
        for cond in (1e8, 1e9):
            d = np.ones(dim)
            d[-1] = cond ** -0.5
            f = graded_frame(rng, dim, d, 2.0 ** -20)
            s0 = frames.frame_operator(f)
            lam, vecs = np.linalg.eigh(s0)  # the test's oracle
            u = vecs[:, :1]
            step = 8.0 * float(lam[0])
            yield "aligned", f, linalg.hermitize(s0 + step * (u @ linalg.adjoint(u)))


def test_the_drift_certificate_bounds_the_true_drift():
    """roundtrip's certificate is finite on every frame of the table, and at
    least the true drift of the extreme eigenvalues between the two formed
    operators, whether or not it would clear the tolerance."""
    for case, f, s1 in drift_table():
        s0 = frames.frame_operator(f)
        value = cli._drift_certificate(f, linalg.frobenius(s0 - s1))
        assert np.isfinite(value), (case, f.dim_h)
        truth = true_drift(s0, s1)
        assert value >= truth, (case, f.dim_h, value, truth)
        if case == "aligned":  # Weyl's inequality is tight there, and so is the bound
            assert value <= 1.001 * truth, (case, f.dim_h, value, truth)


def roundtrip_drift(f):
    """roundtrip's bounds_preserved check on a loaded frame f."""
    cfg = cli.ExperimentConfig(command="roundtrip", input_paths=("f",), output_path="r")
    checks, _, _ = cli._cmd_roundtrip(cfg, f)
    (check,) = [c for c in checks if c["name"] == "bounds_preserved"]
    return check


def weighted_blocks(rng, dim, cond):
    """Weights and blocks of heights 1..dim over 2 dim atoms whose frame operator
    has singular values graded from 1 down so that cond(S) = cond."""
    heights = [1 + t % dim for t in range(2 * dim)]
    w = rng.uniform(0.5, 2.0, len(heights))
    rows = rotated_rows(rng, sum(heights), np.logspace(0.0, -0.5 * np.log10(cond), dim))
    rows /= np.sqrt(np.repeat(w, heights))[:, None]
    return w, np.split(rows, np.cumsum(heights)[:-1])


def test_the_certificate_keeps_every_bounds_preserved_verdict(monkeypatch):
    """Over cond(S) = 1e2..1e9, at n = 3, 5, 8 and 12, bounds_preserved gives the
    verdict that the measured drift alone gives on the same frame, and both
    verdicts occur.  The certificate decides every frame up to cond(S) = 1e6;
    where it declines, the value is the measured drift."""
    levels = [10.0 ** k for k in range(2, 10)]
    decided, verdicts = {}, set()
    for cond in levels:
        for dim in (3, 5, 8, 12):
            for seed in range(2):
                w, blocks = weighted_blocks(rng_for(90 + 100 * dim + seed), dim, cond)
                space = frames.AtomicMeasureSpace([str(t) for t in range(len(w))], w)
                check = roundtrip_drift(frames.OperatorValuedFrame(space, dim, blocks))
                decided.setdefault(cond, []).append(check["by"] == "certificate")
                with monkeypatch.context() as m:  # the same frame, built afresh
                    m.setattr(cli, "_drift_certificate", lambda ovf, gap: float("inf"))
                    measured = roundtrip_drift(frames.OperatorValuedFrame(space, dim, blocks))
                assert measured["by"] == "eigenvalues"
                assert check["passed"] == measured["passed"], (cond, dim, check, measured)
                if check["by"] == "eigenvalues":
                    assert check["value"] == measured["value"]
                verdicts.add(check["passed"])
    assert all(all(decided[cond]) for cond in levels[:5]), decided
    assert not any(decided[1e9]), decided
    assert verdicts == {True, False}


# --- NotAFrame and the bounds that `bounds` reports ---------------------------

DELTA = 0.05


def true_extremes(rows, weights):
    """(lambda_min, lambda_max) of S = B* diag(w) B for double rows B and weights w,
    at 50 digits."""
    with mpmath.workdps(50):
        b = [[mpmath.mpc(complex(z)) for z in row] for row in rows.tolist()]
        w = [mpmath.mpf(float(x)) for x in weights]
        n = rows.shape[1]
        s = mpmath.matrix(n, n)
        for p in range(n):
            for q in range(p, n):
                s[p, q] = mpmath.fsum(wi * mpmath.conj(bi[p]) * bi[q] for wi, bi in zip(w, b))
                s[q, p] = mpmath.conj(s[p, q])
        lam = mpmath.eigh(s, eigvals_only=True)
        return min(lam), max(lam)


def bounds_table():
    """(case, samples, copies): vector frames of 2 dim samples with singular
    values (1, ..., 1, d), so lambda_min / lambda_max = d^2, at n = 2, 4 and 8,
    with d^2 at (1 +- DELTA) times the frame threshold TOL_FRAME_REL, and with
    1 - d^2 at (1 +- DELTA) times the tightness threshold TOL_TIGHT_REL; and
    random frames.  Each set of samples is taken ``copies`` times over: once,
    so the QR work array is flat, and enough times to pass its row limit, so
    the recursion factors it.  Copies scale S and leave both ratios as they are."""
    rng = rng_for(60)
    for dim in (2, 4, 8):
        tall = linalg._FLAT_QR_ROWS // (2 * dim) + 1
        for copies in (1, tall):
            yield "random", complex_box(rng, (2 * dim, dim)), copies
            for name, threshold in (("frame", linalg.TOL_FRAME_REL), ("tight", linalg.TOL_TIGHT_REL)):
                for side in (-1, 1):
                    gap = (1 + side * DELTA) * threshold
                    d = np.ones(dim)
                    d[-1] = np.sqrt(gap if name == "frame" else 1.0 - gap)
                    yield (name, side), rotated_rows(rng, 2 * dim, d), copies


def test_not_a_frame_and_the_reported_bounds_match_the_true_spectrum():
    """Near the frame threshold, the constructor raises NotAFrame exactly when
    the true lambda_min / lambda_max is below TOL_FRAME_REL; near the
    tightness threshold, `bounds` reports tight exactly when the true
    (lambda_max - lambda_min) / lambda_max is at most TOL_TIGHT_REL.  Every frame
    built has its reported A and B within the sweeps' derived allowance
    (frames._swept_condition over upper / lower) of the true extremes, on both
    QR paths."""
    paths, verdicts = set(), set()
    for case, samples, copies in bounds_table():
        samples = np.tile(samples, (copies, 1))
        rows, weights = np.conj(samples), np.ones(len(samples))
        dim = rows.shape[1]
        paths.add(len(rows) <= linalg._FLAT_QR_ROWS)
        lo, hi = true_extremes(rows[: len(rows) // copies], weights[: len(rows) // copies])
        lo, hi = lo * copies, hi * copies
        truly_framed = lo > linalg.TOL_FRAME_REL * hi
        if case[0] == "frame":  # the truth sits on the side the case was built for
            assert (lo / hi > linalg.TOL_FRAME_REL) == (case[1] > 0), (case, dim, copies)
        try:
            f = discretize_continuous(samples, weights)
        except NotAFrame:
            assert not truly_framed, (case, dim, copies)
            verdicts.add(("frame", False))
            continue
        assert truly_framed, (case, dim, copies)
        verdicts.add(("frame", True))
        assert np.array_equal(f._rows, rows)
        cfg = cli.ExperimentConfig(command="bounds", input_paths=("f",), output_path="r")
        (check,), summary, _ = cli._cmd_bounds(cfg, f)
        assert check["passed"]
        b = frames.frame_bounds(f)
        allowance = frames._swept_condition(b, len(rows), dim) / (b.upper / b.lower)
        for reported, truth in ((summary["lower"], lo), (summary["upper"], hi)):
            assert truth / allowance <= reported <= truth * allowance, (case, dim, copies)
        if case[0] == "tight":
            truly_tight = hi - lo <= linalg.TOL_TIGHT_REL * hi
            assert truly_tight == (case[1] < 0), (case, dim, copies)
            assert summary["tight"] == truly_tight, (case, dim, copies)
            verdicts.add(("tight", truly_tight))
    assert paths == {True, False}
    assert verdicts == {(name, v) for name in ("frame", "tight") for v in (True, False)}


# --- PSD verdicts: validate's strict shift, the slack it carries, decompose ----

PSD_NORMS = (1e-3, 1.0, 50.0, 1e4)
PSD_DELTAS = (1e-2, 1e-3, 1e-4)


def true_lambda_min(a):
    """lambda_min of a double Hermitian matrix, at 50 digits."""
    with mpmath.workdps(50):
        m = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in a.tolist()])
        return min(mpmath.eigh(m, eigvals_only=True))


def strict_shift(a):
    """The shift validate factors at first: tol_psd without its absolute term."""
    return linalg.TOL_PSD_REL * linalg.frobenius(a)


def element_near(n, norm, threshold, ratio, seed):
    """Hermitian H with ||H||_F about ``norm`` and lambda_min = -ratio * threshold(H),
    the rest in [0.1, 1] times a common scale."""
    rng = rng_for(seed)
    q, _ = np.linalg.qr(complex_box(rng, (n, n)))
    rest = rng.uniform(0.1, 1.0, n - 1)
    rest *= norm / np.sqrt(np.sum(rest * rest))
    lam = 0.0
    for _ in range(4):  # lam moves the threshold only through ||H||_F, by far below 1e-4
        h = linalg.hermitize((q * np.concatenate(([lam], rest))) @ linalg.adjoint(q))
        lam = -ratio * float(threshold(h))
    return linalg.hermitize((q * np.concatenate(([lam], rest))) @ linalg.adjoint(q))


def kernel_calls(monkeypatch, build):
    """(what ``build()`` returns, or NotPsd if it raises that, and the stack size
    of each _shifted_positive_definite call it makes)."""
    sizes = []
    original = linalg._shifted_positive_definite

    def recording(a, shift):
        sizes.append(len(a))
        return original(a, shift)

    monkeypatch.setattr(linalg, "_shifted_positive_definite", recording)
    try:
        return build(), sizes
    except NotPsd:
        return NotPsd, sizes
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_validate_gives_the_verdicts_of_one_factorization_at_tol_psd(n, monkeypatch):
    """Elements with lambda_min at -tol_psd (1 +- delta) and at -s (1 +- delta), s
    the strict shift, for ||M||_F from 1e-3 to 1e4.  validate's verdicts equal
    one _shifted_positive_definite call at tol_psd on every element, and those
    of eigvalsh wherever its lambda_min lies outside the kernel's documented
    margin n gamma_{n+1} (||M||_F + tol_psd) of the threshold.  validate makes
    two calls, the second only on the elements that fail at s, and the slack it
    carries for a PASS bounds the true -lambda_min (50 digits, n <= 8).  The
    same matrices as densities of weight 1 get the same verdicts from
    Decomposition(...), in at most two calls per construction: the ones the
    kernel passes build together, and each one it fails is refused alone."""
    cases = [(norm, threshold, delta, sign) for norm in PSD_NORMS
             for threshold in (linalg._psd_tolerance, strict_shift)
             for delta in PSD_DELTAS for sign in (1, -1)]
    elements = np.array([element_near(n, norm, threshold, 1 + sign * delta, seed=380 + k)
                         for k, (norm, threshold, delta, sign) in enumerate(cases)])
    m = Povm([str(k) for k in range(len(cases))], n, elements)
    report, shifts = kernel_calls(monkeypatch, lambda: validate(m))
    tol = linalg._psd_tolerance(m.elements)
    kernel = linalg._shifted_positive_definite(m.elements, tol)
    assert report.psd == tuple(kernel.tolist())
    slack = report._psd_slack
    assert shifts == [len(cases), int(np.sum(np.isinf(slack)))]

    def densities(at):
        space = frames.AtomicMeasureSpace([m.atoms[k] for k in at], np.ones(len(at)))
        return lambda: cr.Decomposition(space, m.elements[at], n)

    d, shifts = kernel_calls(monkeypatch, densities(np.flatnonzero(kernel)))
    assert d is not NotPsd and 1 <= len(shifts) <= 2 and shifts[0] == int(kernel.sum())
    for k in np.flatnonzero(~kernel):
        assert kernel_calls(monkeypatch, densities([k])) == (NotPsd, [1, 1])
    lam = np.linalg.eigvalsh(m.elements)[:, 0]
    margin = n * linalg._gamma(n + 1) * (linalg._norms(m.elements, 2) + tol)
    clear = np.abs(lam + tol) > margin
    assert np.array_equal(kernel[clear], lam[clear] >= -tol[clear])
    # the margin is at most 3e-4 tol_psd at n <= 16, so only delta = 1e-4 may fall inside it
    assert clear[[delta > 1e-4 for _, _, delta, _ in cases]].all()
    assert set(kernel.tolist()) == {True, False}
    assert np.isfinite(slack).sum() >= len(cases) // 4
    assert not np.isfinite(slack[~kernel]).any()
    if n <= 8:
        for a, sigma in zip(m.elements, slack):
            if np.isfinite(sigma):
                assert -true_lambda_min(a) <= sigma, (n, sigma)


def weight_one_density(n, rule, threshold, ratio, seed):
    """Hermitian Q of weight 1 under ``rule`` (trace, or the dyadic rule on the
    standard basis) with lambda_min = -ratio * threshold(Q)."""
    rng = rng_for(seed)
    q, _ = np.linalg.qr(complex_box(rng, (n, n)))
    rest = rng.uniform(0.1, 1.0, n - 1)
    # the weight of each eigenprojection q_i q_i*: its trace, or sum_j 2^-(j+1) |q_ji|^2
    scales = 1.0 if rule.kind == "trace" else 2.0 ** -np.arange(1, n + 1)[:, None]
    unit = np.sum(scales * np.abs(q) ** 2, axis=0)
    lam = 0.0
    for _ in range(4):
        spectrum = np.concatenate(([lam], rest * (1.0 - lam * unit[0]) / (rest @ unit[1:])))
        h = linalg.hermitize((q * spectrum) @ linalg.adjoint(q))
        lam = -ratio * float(threshold(h))
    spectrum = np.concatenate(([lam], rest * (1.0 - lam * unit[0]) / (rest @ unit[1:])))
    return linalg.hermitize((q * spectrum) @ linalg.adjoint(q))


def decompose_with_full_checks(m, rule):
    """decompose with every PSD verdict from its own factorization at tol_psd: the
    elements', then Decomposition(...)'s of the same densities; None where
    either fails."""
    herm = linalg.hermitian_residual(m.elements) <= linalg.TOL_HERM
    psd = linalg._shifted_positive_definite(m.elements, linalg._psd_tolerance(m.elements))
    if not (herm & psd).all():
        return None
    weights = cr.reference_measure(m, rule)
    keep = weights > 0.0
    densities = linalg.hermitize(m.elements[keep] / weights[keep][:, None, None])
    space = frames.AtomicMeasureSpace([a for a, k in zip(m.atoms, keep) if k], weights[keep])
    try:
        return cr.Decomposition(space, densities, m.dim_h)
    except NotPsd:
        return None


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_decompose_succeeds_exactly_where_the_full_checks_pass(n):
    """Under the trace and the dyadic rule, a POVM of one density placed at
    -tol_psd(Q) (1 +- delta), one whose element lies inside the strict shift,
    at -s (1 - delta), and two PSD ones, all times a scale from 1e-3 to 1e4:
    decompose succeeds, with the same measure and densities, exactly
    where validate's and Decomposition's checks, each its own factorization at
    tol_psd, pass, and raises InvalidPovm where they do not.  Each density's
    slack carried from its element's verdict bounds its true -lambda_min
    (50 digits, n <= 5)."""
    basis = cr.ReferenceMeasureRule("dyadic-sequence", np.eye(n))
    outcomes, certified = set(), 0
    for rule in (cr.TRACE_RULE, basis):
        for k, (scale, delta, sign) in enumerate(
                (s, d, g) for s in PSD_NORMS for d in PSD_DELTAS for g in (1, -1)):
            q = weight_one_density(n, rule, linalg._psd_tolerance, 1 + sign * delta, seed=390 + k)
            inside = weight_one_density(n, rule, strict_shift, 1 - delta, seed=420 + k)
            fine = [linalg.hermitize(g @ linalg.adjoint(g)) for g in
                    (complex_box(rng_for(400 + 3 * k + i), (n, n)) for i in range(2))]
            m = Povm(["edge", "inside", "a", "b"], n, [scale * a for a in [q, inside] + fine])
            assert validate(m).max_additivity_residual <= validate(m).additivity_tolerance
            expected = decompose_with_full_checks(m, rule)
            try:
                d = decompose(m, rule)
            except InvalidPovm:
                d = None
            assert (d is None) == (expected is None), (rule.kind, scale, delta, sign)
            outcomes.add((rule.kind, d is None))
            if d is not None:
                assert d.measure == expected.measure
                assert np.array_equal(d.densities, expected.densities)
                if n <= 5:
                    slack = cr._density_slack(validate(m)._psd_slack, linalg._norms(m.elements, 2),
                                              d.measure.weights, n)
                    for q, sigma in zip(d.densities, slack):
                        if np.isfinite(sigma):
                            certified += 1
                            assert -true_lambda_min(q) <= sigma, (rule.kind, scale, sigma)
    assert outcomes == {(kind, failed) for kind in ("trace", "dyadic-sequence")
                        for failed in (True, False)}
    assert certified > 0 or n > 5


def gram_frames():
    """Frames of dims 3 and 5 whose blocks have heights 1..n and 4n, two
    near-rank-deficient blocks (rank 1 and rank n - 1, each plus 1e-9 noise),
    and an all-zero block, weighted from 1e-8 to 1e8 in ascending and in
    descending order, beside a 4n-row block of weight 1e8 that keeps S
    well conditioned."""
    for n in (3, 5):
        rng = rng_for(410 + n)
        anchor = complex_box(rng, (4 * n, n))
        blocks = [complex_box(rng, (k, n)) for k in (*range(1, n + 1), 4 * n)]
        for rank, rows in ((1, n), (n - 1, n + 1)):
            low = complex_box(rng, (rows, rank)) @ complex_box(rng, (rank, n))
            blocks.append(low + 1e-9 * complex_box(rng, (rows, n)))
        blocks.append(np.zeros((2, n), dtype=complex))
        weights = np.logspace(-8.0, 8.0, len(blocks))
        for order in (weights, weights[::-1]):
            space = frames.AtomicMeasureSpace([str(t) for t in range(len(blocks) + 1)],
                                              np.concatenate(([1e8], order)))
            yield frames.OperatorValuedFrame(space, n, [anchor] + blocks)


def test_the_gram_slack_bounds_the_true_lambda_min_of_every_element():
    """ovf_to_povm's certified slack: for each computed element, the true
    -lambda_min at 50 digits is at most sigma_t, and sigma_t is at most tol_psd,
    so validate factors none of them.  Some elements are truly indefinite."""
    indefinite = 0
    for f in gram_frames():
        m = cr.ovf_to_povm(f)
        sigma = m._psd_slack
        assert not sigma.flags.writeable
        assert np.all(sigma <= linalg._psd_tolerance(m.elements))
        for a, s in zip(m.elements, sigma):
            lam = true_lambda_min(a)
            indefinite += lam < 0
            assert -lam <= s, (f.dim_h, float(lam), s)
    assert indefinite > 0
