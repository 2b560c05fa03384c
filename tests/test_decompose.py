import numpy as np
import pytest

from commham import lattice
from commham import decompose, linalg, verifier
from commham.decompose import ImpossibleAlgebraPair, certificate_space, decompose_layers
from commham.lattice import BLACK, WHITE, LatticeSpec
from commham.linalg import (
    TRIVIAL,
    BasisMismatch,
    LabeledOp,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    algebra_classify,
    commutator_norm,
    common_eigenbasis,
    embed,
    frob,
    operator_schmidt,
)
from commham.model import (
    CommutingModel,
    gen_random,
    gen_rotated_classical,
    gen_toric,
    ground_projectors,
)


def kron(*ms):
    out = np.eye(1, dtype=complex)
    for m in ms:
        out = np.kron(out, m)
    return out


def layer_pair(model):
    return decompose_layers(model.spec, ground_projectors(model))


def test_toric_black_layer_splits_on_z():
    m = gen_toric(LatticeSpec(4, 4, "periodic"))
    black, white = layer_pair(m)
    assert black.split_vertices == frozenset(m.spec.vertices())
    assert white.split_vertices == frozenset(m.spec.vertices())
    d = black.decomps[(1, 1)]
    assert np.allclose(d.basis, np.eye(2))  # Z eigenstates, |0> first
    dw = white.decomps[(1, 1)]
    plus = np.array([1, 1]) / np.sqrt(2)
    assert np.allclose(dw.basis[:, 0], plus)  # X eigenstates, |+> first


def test_open_corner_vertex_trivial_with_owner():
    m = gen_toric(LatticeSpec(3, 3))
    black, white = layer_pair(m)
    d = black.decomps[(0, 0)]
    assert not d.split and d.owner == (0, 0)
    # no white plaquette touches the corner (0,0) non-trivially in a 3x3
    dw = white.decomps[(0, 0)]
    assert not dw.split


def test_open_toric_split_sets():
    m = gen_toric(LatticeSpec(3, 3))
    black, white = layer_pair(m)
    assert black.split_vertices == frozenset({(1, 1)})
    assert white.split_vertices == frozenset({(1, 1)})


def test_all_identity_projectors_trivial_no_owner():
    spec = LatticeSpec(3, 3)
    m = CommutingModel(spec, {p: np.zeros((16, 16)) for p in lattice.plaquettes(spec)})
    black, white = layer_pair(m)
    for layer in (black, white):
        assert not layer.split_vertices
        for d in layer.decomps.values():
            assert d.owner is None


@pytest.mark.parametrize("seed", range(5))
def test_rotated_classical_rediscovers_conjugated_basis(seed):
    spec = LatticeSpec(3, 3)
    m, units = gen_rotated_classical(spec, seed=seed)
    black, white = layer_pair(m)
    for layer in (black, white):
        for v, d in layer.decomps.items():
            if not d.split:
                continue
            u = units[v]
            expected = [np.outer(u[:, k], u[:, k].conj()) for k in (0, 1)]
            for k in (0, 1):
                pi = d.slice_projector(k)
                assert min(frob(pi - e) for e in expected) < 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_slice_projectors_commute_with_incident(seed):
    spec = LatticeSpec(4, 3)
    m, _ = gen_rotated_classical(spec, seed=seed)
    projs = ground_projectors(m)
    black, white = decompose_layers(spec, projs)
    for layer, color in ((black, BLACK), (white, WHITE)):
        for v, d in layer.decomps.items():
            if not d.split:
                continue
            for p in lattice.incident_plaquettes(spec, v, color):
                pi = LabeledOp(d.slice_projector(0), (v,))
                big = LabeledOp(projs[p], tuple(lattice.corners(spec, p)))
                assert commutator_norm(pi, big) <= 1e-8


def test_slices_complete():
    m = gen_toric(LatticeSpec(4, 4, "periodic"))
    black, _ = layer_pair(m)
    for d in black.decomps.values():
        assert np.allclose(d.slice_projector(0) + d.slice_projector(1), np.eye(2))


def shared_vertex_pair(a, b):
    """Decompose an open 3x3 lattice whose black plaquettes (0, 0) and (1, 1),
    which share the vertex (1, 1), carry the two-qubit operators a on
    ((0, 1), (1, 1)) and b on ((1, 1), (2, 1)); every other matrix is zero."""
    spec = LatticeSpec(3, 3)
    projs = {p: np.zeros((16, 16), dtype=complex) for p in lattice.plaquettes(spec)}
    for p, m, labels in (((0, 0), a, ((0, 1), (1, 1))), ((1, 1), b, ((1, 1), (2, 1)))):
        projs[p] = embed(LabeledOp(m, labels), lattice.corners(spec, p)).mat
    return decompose_layers(spec, projs)


def test_impossible_pair_raises():
    # hand-built non-commuting pair: at the shared vertex the first acts
    # through {1, Z}, the second through the full algebra (Z plus an X
    # coupling)
    a = kron(PAULI_X, np.eye(2)) + kron(PAULI_Z, PAULI_Z)
    b = kron(PAULI_Z, np.eye(2)) + kron(PAULI_X, PAULI_X)
    with pytest.raises(ImpossibleAlgebraPair):
        shared_vertex_pair(a, b)


def test_basis_mismatch_raises():
    # each operator's own vertex algebra is abelian ({1, Z} and {1, X}),
    # but the two cannot share an eigenbasis: corrupted (non-commuting)
    # input must surface as BasisMismatch
    a = np.eye(4) + kron(np.eye(2), PAULI_Z) / 2 + kron(PAULI_Z, PAULI_Z) / 3
    b = np.eye(4) + kron(PAULI_X, np.eye(2)) / 2 + kron(PAULI_X, PAULI_X) / 3
    with pytest.raises(BasisMismatch):
        shared_vertex_pair(a, b)


def test_schmidt_noise_term_does_not_break_split():
    # both projectors act on v through the axis n; the first also carries an
    # off-axis term at 1.07e-12 of its leading Pauli coefficient (as
    # eigendecomposition noise leaves in rotated-classical 24x24 models).
    # It must count as noise, not as a second Bloch direction that would
    # make the algebra full.
    v = (1, 1)
    theta, phi = 0.7, 0.3
    n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    m = np.array([np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)])
    n_sigma = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    m_sigma = m[0] * PAULI_X + m[1] * PAULI_Y + m[2] * PAULI_Z
    clean = (np.eye(4) + kron(PAULI_Z, n_sigma)) / 2
    noisy = clean + 0.535e-12 * kron(PAULI_X, m_sigma)
    b = (np.eye(4) + kron(n_sigma, PAULI_Z)) / 2

    ref = shared_vertex_pair(clean, b)[0].decomps[v]
    d = shared_vertex_pair(noisy, b)[0].decomps[v]
    assert d.split and ref.split
    assert np.max(np.abs(d.basis - ref.basis)) < 1e-9
    plus = (np.eye(2) + n_sigma) / 2
    assert min(frob(d.slice_projector(k) - plus) for k in (0, 1)) < 1e-9


def test_split_vertices_computed_once():
    black, _ = layer_pair(gen_toric(LatticeSpec(3, 3)))
    assert black.split_vertices is black.split_vertices


def test_factorization_after_full_slice_choice():
    # slicing every split vertex factorizes the black layer product into a
    # tensor product of per-plaquette sandwiches; dense check on 9 qubits
    spec = LatticeSpec(3, 3)
    m = gen_toric(spec)
    projs = ground_projectors(m)
    black, _ = decompose_layers(spec, projs)
    labels = sorted(spec.vertices())

    full = np.eye(2**9, dtype=complex)
    for p in lattice.plaquettes(spec):
        if lattice.is_black(p):
            full = full @ embed(
                LabeledOp(projs[p], tuple(lattice.corners(spec, p))), labels
            ).mat

    for choice in (0, 1):
        slicer = np.eye(2**9, dtype=complex)
        for v in black.split_vertices:
            slicer = slicer @ embed(
                LabeledOp(black.decomps[v].slice_projector(choice), (v,)), labels
            ).mat
        left = slicer @ full @ slicer

        right = np.eye(2**9, dtype=complex)
        for p in lattice.plaquettes(spec):
            if not lattice.is_black(p):
                continue
            op = LabeledOp(projs[p], tuple(lattice.corners(spec, p)))
            for v in op.labels:
                if black.decomps[v].split:
                    from commham.linalg import sandwich_site

                    op = sandwich_site(op, v, black.decomps[v].slice_projector(choice))
            right = right @ embed(op, labels).mat
        assert frob(left - right) <= 1e-8


def test_determinism_bitwise():
    spec = LatticeSpec(4, 3)
    m, _ = gen_rotated_classical(spec, seed=2)
    projs = ground_projectors(m)
    b1, w1 = decompose_layers(spec, projs)
    b2, w2 = decompose_layers(spec, projs)
    for v in spec.vertices():
        for l1, l2 in ((b1, b2), (w1, w2)):
            d1, d2 = l1.decomps[v], l2.decomps[v]
            assert d1.split == d2.split
            if d1.split:
                assert np.array_equal(d1.basis, d2.basis)


def test_certificate_space_counts():
    m = gen_toric(LatticeSpec(4, 4, "periodic"))
    black, white = layer_pair(m)
    space = certificate_space(black, white)
    assert space.count == 2**32

    spec = LatticeSpec(3, 3)
    empty = CommutingModel(spec, {p: np.zeros((16, 16)) for p in lattice.plaquettes(spec)})
    black, white = layer_pair(empty)
    assert certificate_space(black, white).count == 1

    m = gen_toric(LatticeSpec(3, 3))
    black, white = layer_pair(m)
    assert certificate_space(black, white).count == 4


def schmidt_reference(spec, projs, color, v):
    """(split, owner, basis) at v from the operator-Schmidt factors of the
    incident projectors, classified one incidence at a time."""
    factors, acting = [], []
    for p in lattice.incident_plaquettes(spec, v, color):
        op = LabeledOp(projs[p], tuple(lattice.corners(spec, p)))
        bs = [b for _, b in operator_schmidt(op, v).terms]
        factors += bs
        if algebra_classify(bs).kind != TRIVIAL:
            acting.append(p)
    if len(acting) < 2:
        return False, acting[0] if acting else None, None
    return True, None, common_eigenbasis(factors)


EQUIVALENCE_MODELS = [
    ("toric-8x8-open", lambda conj: gen_toric(LatticeSpec(8, 8))),
    ("toric-8x8-periodic", lambda conj: gen_toric(LatticeSpec(8, 8, "periodic"))),
    *[
        (f"{method}-12x12-s{seed}", lambda conj, seed=seed, method=method: gen_random(LatticeSpec(12, 12), seed, method))
        for method in ("rotated-classical", "diagonal-field")
        for seed in range(4)
    ],
    ("haar-toric-8x8-periodic", lambda conj: conj(gen_toric(LatticeSpec(8, 8, "periodic")), 0)),
]


@pytest.mark.parametrize("make", [m for _, m in EQUIVALENCE_MODELS], ids=[n for n, _ in EQUIVALENCE_MODELS])
def test_pauli_table_matches_schmidt_reference(make, haar_conjugated):
    # every vertex's split flag, owner and slice basis agree with
    # algebra_classify and common_eigenbasis on operator-Schmidt factors
    m = make(haar_conjugated)
    projs = ground_projectors(m)
    splits = 0
    for layer in decompose_layers(m.spec, projs):
        for v, d in layer.decomps.items():
            split, owner, basis = schmidt_reference(m.spec, projs, layer.color, v)
            assert (d.split, d.owner) == (split, owner)
            if split:
                splits += 1
                assert np.max(np.abs(d.basis - basis)) <= 1e-10
    assert splits


def test_prepare_runs_without_the_schmidt_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("prepare must not run the per-incidence classification")

    for module in (decompose, linalg):
        monkeypatch.setattr(module, "operator_schmidt", refuse)
        monkeypatch.setattr(module, "algebra_classify", refuse)
    prep = verifier.prepare(gen_rotated_classical(LatticeSpec(4, 3), seed=0)[0])
    assert prep.f_black and prep.f_white
