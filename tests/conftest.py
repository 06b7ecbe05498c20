"""Shared seeded builders and data-file writers for the test suite.

Everything random goes through PCG64 with an explicit seed so failures
reproduce exactly.
"""

import base64
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framekit
from framekit import (
    AtomicMeasureSpace,
    NotAFrame,
    OperatorValuedFrame,
    Povm,
    VectorFrame,
    from_vector_frame,
    hermitize,
    is_framed,
)
from framekit.linalg import adjoint, hermitian_eigen


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def complex_box(rng, shape):
    """Entries uniform in the unit box, real and imaginary parts alike."""
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


def random_unit(dim, seed):
    rng = rng_for(seed)
    v = complex_box(rng, dim)
    return v / np.linalg.norm(v)


def random_hermitian(dim, seed):
    g = complex_box(rng_for(seed), (dim, dim))
    return hermitize(g + adjoint(g))


def random_psd(dim, seed):
    g = complex_box(rng_for(seed), (dim, dim))
    return hermitize(adjoint(g) @ g)


def seeded_events(atoms, count, seed):
    """``count`` events over ``atoms`` (repeats possible): each atom drawn in or
    out with one PCG64 integer draw per event."""
    rng = rng_for(seed)
    events = []
    for _ in range(count):
        mask = rng.integers(0, 2, size=len(atoms)).astype(bool)
        events.append(tuple(a for a, keep in zip(atoms, mask) if keep))
    return events


def rotated_rows(rng, rows, d):
    """rows x len(d) rows Q diag(d) U* between random unitaries: singular values d,
    so cond(S) = (max d / min d)^2."""

    def unitary(m, n):
        q, r = np.linalg.qr(complex_box(rng, (m, n)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return (unitary(rows, len(d)) * d) @ unitary(len(d), len(d)).conj().T


def random_vector_frame(dim, atoms, seed):
    """Random spanning family; retries the seed stream until it spans."""
    assert atoms >= dim
    rng = rng_for(seed)
    while True:
        f = VectorFrame(dim_h=dim, vectors=list(complex_box(rng, (atoms, dim))))
        try:
            from_vector_frame(f)
        except NotAFrame:
            continue
        return f


def random_ovf(dim, atoms, seed, weights=None):
    """Operator frame with block heights varying between 1 and dim."""
    rng = rng_for(seed)
    while True:
        blocks = [complex_box(rng, (int(rng.integers(1, dim + 1)), dim)) for _ in range(atoms)]
        w = weights if weights is not None else rng.uniform(0.5, 2.0, atoms)
        space = AtomicMeasureSpace(atoms=[str(i) for i in range(atoms)], weights=w)
        try:
            return OperatorValuedFrame(space=space, dim_h=dim, blocks=blocks)
        except NotAFrame:
            continue


def random_povm(dim, atoms, seed):
    """Random framed POVM, elements G*G scaled so the total has top eigenvalue 1."""
    rng = rng_for(seed)
    while True:
        elements = [hermitize(adjoint(g) @ g) for g in (complex_box(rng, (dim, dim)) for _ in range(atoms))]
        total = hermitize(sum(elements))
        top = float(hermitian_eigen(total).eigenvalues[-1])
        if top <= 0.0:
            continue
        m = Povm(atoms=[str(i) for i in range(atoms)], dim_h=dim,
                 elements=[e / top for e in elements])
        if is_framed(m).framed:
            return m


def b64_of(a):
    """Base64 of an array's entries as little-endian complex128, a data file's array."""
    return base64.b64encode(np.ascontiguousarray(a, "<c16").tobytes()).decode("ascii")


def matrix_json(a):
    """A matrix object of the per-matrix layout of older data files, with base64 data."""
    a = np.asarray(a)
    return {"rows": a.shape[0], "cols": a.shape[1], "data": b64_of(a)}


def count_calls(monkeypatch, module, *names):
    """Wrap each named function of ``module`` to count its calls; returns the live counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def outputs_at_blas_threads(script):
    """The stdout lines of ``python -c script`` at 1 and at 2 OpenBLAS threads, each
    run in its own process on the package sources; both are started, then both
    reaped before any assert, and each must exit 0."""
    src = str(Path(framekit.__file__).resolve().parents[1])
    runs = [subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": src,
                                  "OPENBLAS_NUM_THREADS": str(threads)})
            for threads in (1, 2)]
    results = [run.communicate(timeout=120) for run in runs]
    for run, (_, err) in zip(runs, results):
        assert run.returncode == 0, err
    return [out.splitlines() for out, _ in results]


@pytest.fixture
def rng():
    return rng_for(0)
