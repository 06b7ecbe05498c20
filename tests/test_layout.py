"""Per-atom families are stacked arrays.

Every result is held to a per-atom loop written out here: the sums of
POVM elements and of weighted densities to the same bits, the products
with a frame's blocks to 1e-12 relative.  The stacks and the views into
them are read-only.
"""

import numpy as np
import pytest

from framekit import (
    CoefficientField,
    Povm,
    VectorFrame,
    analysis,
    decompose,
    frame_operator,
    reintegration_residuals,
    synthesis,
)
from framekit.correspondence import all_events, decomposition_to_ovf
from framekit.linalg import frobenius

from conftest import complex_box, random_ovf, random_povm, rng_for, seeded_events


def loop_sum(terms, dim):
    out = np.zeros((dim, dim), dtype=np.complex128)
    for term in terms:
        out += term
    return out


def loop_evaluate(m, event):
    members = set(event)
    return loop_sum((e for a, e in zip(m.atoms, m.elements) if a in members), m.dim_h)


def loop_reintegrate(d, event):
    members = set(event)
    terms = (w * q for a, w, q in zip(d.measure.atoms, d.measure.weights, d.densities)
             if a in members)
    return loop_sum(terms, d.dim_h)


def same_bits(a, b):
    a, b = np.asarray(a).view(np.float64), np.asarray(b).view(np.float64)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def povm_with_a_dropped_atom(dim, atoms, seed):
    """random_povm with atom 1 zeroed: decompositions drop it."""
    m = random_povm(dim=dim, atoms=atoms, seed=seed)
    elements = np.array(m.elements)
    elements[1] = 0.0
    return Povm(atoms=m.atoms, dim_h=dim, elements=elements)


# 1 x 1 elements: the shape where numpy's own sum would pair terms up
@pytest.mark.parametrize("dim,atoms", [(4, 14), (8, 48), (1, 20)])
def test_event_sums_match_per_atom_loops_bit_for_bit(dim, atoms):
    m = povm_with_a_dropped_atom(dim, atoms, seed=dim + atoms)
    d = decompose(m)
    assert len(d.measure) == atoms - 1
    for event in [(), m.atoms] + seeded_events(m.atoms, 100, seed=1):
        assert same_bits(m.evaluate(event), loop_evaluate(m, event))
    assert same_bits(m.total(), loop_evaluate(m, m.atoms))
    for event in [(), d.measure.atoms] + seeded_events(d.measure.atoms, 100, seed=2):
        assert same_bits(d.reintegrate(event), loop_reintegrate(d, event))
    assert same_bits(d.reintegrate(), loop_reintegrate(d, d.measure.atoms))

    if atoms <= 16:
        events = all_events(m.atoms)
        got = reintegration_residuals(m, d)  # every event by default
    else:
        events = seeded_events(m.atoms, 1000, seed=0)
        got = reintegration_residuals(m, d, events=events)
    kept = set(d.measure.atoms)
    residuals = [
        frobenius(loop_evaluate(m, e) - loop_reintegrate(d, [a for a in e if a in kept]))
        for e in events
    ]
    assert got == (max(residuals), float(np.mean(residuals)))


@pytest.mark.parametrize("dim,atoms,seed", [(3, 5, 0), (8, 64, 1), (16, 40, 2)])
def test_frame_products_match_per_block_sums(dim, atoms, seed):
    f = random_ovf(dim=dim, atoms=atoms, seed=seed)
    rng = rng_for(100 + seed)
    x = complex_box(rng, dim)
    segs = [complex_box(rng, b.shape[0]) for b in f.blocks]
    s = sum(w * (np.conj(b).T @ b) for w, b in zip(f.space.weights, f.blocks))
    y = sum(w * (np.conj(b).T @ c) for w, b, c in zip(f.space.weights, f.blocks, segs))
    assert np.linalg.norm(frame_operator(f) - s) <= 1e-12 * np.linalg.norm(s)
    for seg, b in zip(analysis(f, x).segments, f.blocks):
        assert np.linalg.norm(seg - b @ x) <= 1e-12 * np.linalg.norm(b @ x)
    got = synthesis(f, CoefficientField(space=f.space, segments=segs))
    assert np.linalg.norm(got - y) <= 1e-12 * np.linalg.norm(y)


def test_stacks_and_views_are_read_only():
    f = random_ovf(dim=3, atoms=6, seed=4)
    c = analysis(f, np.ones(3))
    m = random_povm(dim=3, atoms=5, seed=4)
    d = decompose(m)
    v = VectorFrame(dim_h=2, vectors=[[1, 0], [0, 1], [1, 1]])
    stacks = [f._rows, f._row_weights, c._values, m.elements, d.densities,
              d._minimal_rows[0], v.vectors, decomposition_to_ovf(d)._rows]
    views = [(b, f._rows) for b in f.blocks] + [(seg, c._values) for seg in c.segments]
    for a in stacks + [view for view, _ in views]:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    for view, stack in views:
        assert np.shares_memory(view, stack)
    assert [b.shape[0] for b in f.blocks] == np.diff(f._offsets).tolist()
    assert sum(d._minimal_rows[1]) == len(d._minimal_rows[0])

