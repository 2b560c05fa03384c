"""The lattice's fixed pair and incidence tables against the sort-based
discovery they replace (`reference.intersecting_pairs`, `sorted_violations`,
`sorted_layers`): the same layer arrays, bit for bit, the same commutation
violations in the same order with the same norms, and the same vertex
named when a layer cannot be decomposed."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from commham import lattice
from commham.decompose import ImpossibleAlgebraPair, decompose_layers
from commham.lattice import LatticeSpec
from commham.linalg import BasisMismatch, ground_band
from commham.model import (
    CommutingModel,
    NonCommutingError,
    check_commuting,
    gen_ising,
    gen_random,
    gen_toric,
    ground_projectors,
)
from commham.verifier import prepare


def _ising_with_zeros(spec, seed):
    rng = np.random.default_rng(seed)
    couplings = {e: float(rng.choice([0.0, 0.0, 1.0, -0.5])) for e in lattice.edges(spec)}
    fields = {v: float(rng.choice([0.0, 0.3])) for v in spec.vertices()}
    return gen_ising(spec, couplings, fields)


FAMILIES = {
    "toric": lambda spec, seed: gen_toric(spec),
    "signed-toric": lambda spec, seed: gen_random(spec, seed, "signed-toric"),
    "rotated-classical": lambda spec, seed: gen_random(spec, seed, "rotated-classical"),
    "diagonal-field": lambda spec, seed: gen_random(spec, seed, "diagonal-field"),
    "ising with zeros": _ising_with_zeros,
}

SPECS = st.one_of(
    st.builds(LatticeSpec, st.integers(2, 9), st.integers(2, 9)),
    st.builds(LatticeSpec, st.sampled_from([4, 6, 8, 10]), st.sampled_from([4, 6, 8, 10]), st.just("periodic")),
)


def perturbed_at(m, p, eps, seed):
    """m with eps (h + h^dag) added to the term at p, h a seeded complex Gaussian."""
    g = np.random.default_rng(seed).standard_normal((2, 16, 16))
    h = g[0] + 1j * g[1]
    return CommutingModel(m.spec, {**m.terms, p: m.terms[p] + eps * (h + h.conj().T)})


def rotated_at(m, p, corner, seed):
    """m with the term at p conjugated by a seeded Haar unitary on one corner:
    where the term acts along one axis there, it now acts along another."""
    z = np.random.default_rng(seed).standard_normal((2, 2, 2)) @ [1, 1j]
    u, r = np.linalg.qr(z)
    u = np.kron(np.kron(np.eye(2**corner), u * (np.diag(r) / abs(np.diag(r)))), np.eye(2 ** (3 - corner)))
    return CommutingModel(m.spec, {**m.terms, p: u @ m.terms[p] @ u.conj().T})


def layers_or_error(layers_of, spec, ids, projectors):
    """The color and arrays of each layer, or the error's type and message."""
    try:
        return tuple((layer.color, layer.split, layer.owner, layer.basis) for layer in layers_of(spec, ids, projectors))
    except (BasisMismatch, ImpossibleAlgebraPair) as exc:
        return type(exc), str(exc)


def assert_same_layers(got, want):
    if isinstance(want[0], type):
        assert got == want
        return
    for g, w in zip(got, want, strict=True):
        assert g[0] == w[0]
        for a, b in zip(g[1:], w[1:]):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(SPECS, st.sampled_from(sorted(FAMILIES)), st.integers(0, 2**16), st.integers(0, 9), st.integers(-11, -1))
@example(LatticeSpec(6, 4, "periodic"), "rotated-classical", 0, 3, -3)
@example(LatticeSpec(4, 4, "periodic"), "toric", 1, 0, -3)
def test_tables_match_sorted_discovery(spec, family, seed, row, exponent):
    m = FAMILIES[family](spec, seed)
    prep = prepare(m)
    assert_same_layers(
        layers_or_error(decompose_layers, spec, prep.ids, prep.projectors),
        layers_or_error(reference.sorted_layers, spec, prep.ids, prep.projectors),
    )
    # one perturbed term; on a torus in the last column, so that its pair
    # with the first column wraps around
    px, py = lattice.plaquette_range(spec)
    p = (px - 1 if spec.boundary == "periodic" else seed % px, row % py)
    bad = perturbed_at(m, p, 10.0**exponent, seed)
    zeros = np.zeros(len(bad.distinct))
    assert check_commuting(bad).violations == reference.sorted_violations(spec, bad.ids, bad.distinct, zeros)
    stack, radius, frame, side = ground_band(bad.distinct)
    want = reference.sorted_violations(spec, bad.ids, stack, radius, (frame, side))
    try:
        ground_projectors(bad)
        got = []
    except NonCommutingError as exc:
        got = exc.violations
    assert got == want
    assert_same_layers(
        layers_or_error(decompose_layers, spec, bad.ids, stack),
        layers_or_error(reference.sorted_layers, spec, bad.ids, stack),
    )
    # the term at p turned at one corner: a BasisMismatch where it shares an axis
    turned = rotated_at(m, p, row % 4, seed)
    stack = ground_band(turned.distinct)[0]
    assert_same_layers(
        layers_or_error(decompose_layers, spec, turned.ids, stack),
        layers_or_error(reference.sorted_layers, spec, turned.ids, stack),
    )
