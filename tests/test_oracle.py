"""Verdicts against a 50-digit oracle.

Each table builds inputs at small n whose true value lies near a verdict's
threshold and computes the true spectrum of the rounded input, the doubles
the package holds, in mpmath at 50 digits.  numpy shares the rounding under
test, so it is no oracle here.
"""

import numpy as np
import pytest

from framekit import cli, discretize_continuous, linalg

from conftest import random_ovf, rng_for, rotated_rows

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
    keeps upper / lower from the sweeps on R, each eigenvalue within about
    n eps cond(R) relative (the rounding the margin covers), so the value is
    the true one to twice that."""
    paths = {"random": set(), 0.95: set(), 1.05: set()}
    for case, f in frame_table():
        certified = "_eigen" not in vars(f)
        paths[case].add(certified)
        value = cli._frame_check("framed", f._condition)["value"]
        truth = linalg.TOL_FRAME_REL * true_condition(f)
        assert value < 1.0, (case, f.dim_h)
        if certified:
            assert value >= linalg._CERTIFICATE_MARGIN * truth, (case, f.dim_h, value, truth)
        else:
            rounding = 2 * f.dim_h * EPS * mpmath.sqrt(truth / linalg.TOL_FRAME_REL)
            assert value >= truth * (1 - rounding), (case, f.dim_h, value, truth)
            assert value <= truth * (1 + rounding), (case, f.dim_h, value, truth)
    # both paths are exercised: the certificate takes the random frames and
    # those below its threshold, the eigenvalues those above it
    assert paths == {"random": {True}, 0.95: {True}, 1.05: {False}}
