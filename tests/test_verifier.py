import functools
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commham import lattice
from commham.lattice import BLACK, WHITE, LatticeSpec
from commham.linalg import PAULI_Z, PRUNE_RTOL, LabeledOp, frob
from commham.model import CommutingModel, gen_ising, gen_random, gen_toric, projector_ops
from commham.oracle import dense_omega
from commham.prover import exhaustive_search
from commham.serialize import load_certificate, save_certificate
from commham import verifier
from commham.verifier import (
    _CHUNK,
    COMPONENT,
    FREE_QUBIT,
    VERTEX_OVERLAP,
    ZERO_FLOOR,
    Certificate,
    CertificateDomainError,
    Component,
    DegreeViolation,
    EffectiveState,
    PreparedModel,
    _live_labels,
    _prune,
    apply_certificate,
    build_overlap_graph,
    compute_omega,
    contract_component,
    effective_states,
    prepare,
    verify,
)
from reference import (
    certificates_lex,
    embed,
    own_and_other_only_model,
    partial_trace,
    plaquette_table,
    sandwich_site,
    slice_basis,
    slice_op,
)


def all_zero_cert(prep):
    return Certificate({v: 0 for v in prep.f_black}, {v: 0 for v in prep.f_white})


def lin(res):
    return 0.0 if res.zero else 2.0**res.log2_magnitude


def black_only_toric(spec):
    """Stabilizer terms on black plaquettes, zero terms on white."""
    terms = {}
    for p in lattice.plaquettes(spec):
        if lattice.is_black(p):
            z4 = PAULI_Z
            for _ in range(3):
                z4 = np.kron(z4, PAULI_Z)
            terms[p] = -z4
        else:
            terms[p] = np.zeros((16, 16))
    return CommutingModel(spec, terms)


def thinned_toric(spec, drop):
    """Stabilizer model with one term zeroed, breaking a boundary ring of
    effective states into an open chain."""
    m = gen_toric(spec)
    terms = dict(m.terms)
    terms[drop] = np.zeros((16, 16))
    return CommutingModel(spec, terms)


# ------------------------------------------------------------ worked example


def test_toric_4x4_periodic_zero_certificate():
    prep = prepare(gen_toric(LatticeSpec(4, 4, "periodic")))
    res = compute_omega(prep, all_zero_cert(prep))
    assert not res.zero
    assert abs(res.log2_magnitude - (-16.0)) < 1e-10
    overlaps = [f for f in res.factors if f.kind == VERTEX_OVERLAP]
    assert len(overlaps) == 16
    assert all(abs(f.value - 0.5) < 1e-12 for f in overlaps)
    comps = [f for f in res.factors if f.kind == COMPONENT]
    assert len(comps) == 16  # every plaquette reduces to a scalar 1
    assert all(abs(f.value - 1.0) < 1e-12 for f in comps)
    assert not any(f.kind == FREE_QUBIT for f in res.factors)


def test_toric_sliced_projector_is_basis_projector():
    prep = prepare(gen_toric(LatticeSpec(4, 4, "periodic")))
    sliced = apply_certificate(prep, all_zero_cert(prep))
    for p, op in sliced.items():
        want = np.zeros((16, 16), dtype=complex)
        if lattice.is_black(p):
            want[0, 0] = 1.0  # |0000><0000|
            assert frob(op.mat - want) < 1e-10
        else:
            plus = np.full(16, 0.25, dtype=complex)  # |++++>
            assert frob(op.mat - np.outer(plus, plus)) < 1e-10


def test_all_identity_model_free_qubits():
    spec = LatticeSpec(3, 3)
    m = CommutingModel(spec, {p: np.zeros((16, 16)) for p in lattice.plaquettes(spec)})
    prep = prepare(m)
    res = compute_omega(prep, Certificate({}, {}))
    assert not res.zero
    assert abs(res.log2_magnitude - 9.0) < 1e-10
    free = [f for f in res.factors if f.kind == FREE_QUBIT]
    assert len(free) == 1 and free[0].log2 == 9.0


def test_toric_2x2_single_plaquette():
    prep = prepare(gen_toric(LatticeSpec(2, 2)))
    res = compute_omega(prep, Certificate({}, {}))
    assert abs(lin(res) - 8.0) < 1e-9  # tr (1 + Z^4)/2 = 8


# --------------------------------------------------------------- zero paths


def test_disagreeing_slices_zero_sandwich():
    # ferromagnet: a black plaquette owns the edge between its two split
    # corners, so opposite slice labels annihilate the sliced projector
    prep = prepare(gen_ising(LatticeSpec(3, 4), 1.0, 0.0))
    fb = sorted(prep.f_black)
    assert len(fb) >= 2
    alpha = {v: 0 for v in prep.f_black}
    alpha[fb[1]] = 1
    cert = Certificate(alpha, {v: 0 for v in prep.f_white})
    res = compute_omega(prep, cert)
    assert res.zero
    assert any(f.kind == COMPONENT and f.value == 0.0 for f in res.factors)
    assert dense_omega(prep, cert) < 1e-10


def test_orthogonal_cross_layer_slices_zero_overlap():
    # all-sides diagonal plaquettes make both layers split at the center of
    # a 3x3 with computational slices; disagreeing alpha/beta kill the
    # vertex overlap factor
    spec = LatticeSpec(3, 3)
    signs = 1 - 2 * ((np.arange(16)[:, None] >> np.arange(3, -1, -1)[None, :]) & 1)
    diag = -(
        signs[:, 0] * signs[:, 1]
        + signs[:, 1] * signs[:, 2]
        + signs[:, 2] * signs[:, 3]
        + signs[:, 3] * signs[:, 0]
    )
    term = np.diag(diag.astype(complex))
    m = CommutingModel(spec, {p: term for p in lattice.plaquettes(spec)})
    prep = prepare(m)
    assert prep.f_black == frozenset({(1, 1)}) and prep.f_white == frozenset({(1, 1)})
    agree = compute_omega(prep, Certificate({(1, 1): 0}, {(1, 1): 0}))
    disagree = compute_omega(prep, Certificate({(1, 1): 0}, {(1, 1): 1}))
    assert not agree.zero
    assert disagree.zero
    assert any(
        f.kind == VERTEX_OVERLAP and f.value <= 1e-12 for f in disagree.factors
    )


def test_annihilated_plaquettes_follow_the_own_layer_bits():
    # black (1, 1)'s state-table entries carry the bits of its own-split and
    # its other-only corner, and the annihilated mask must read the own one,
    # as the literal sliced projectors do
    prep = prepare(own_and_other_only_model())
    table = plaquette_table(prep, (1, 1))
    assert (table.own_split, table.other_only) == (((1, 1),), ((2, 1),))
    assert table.norms[1] <= ZERO_FLOOR < table.norms[0]
    c = prep.compiled()
    for cert in certificates_lex(prep.f_black, prep.f_white):
        sliced = apply_certificate(prep, cert)
        want = [frob(sliced[p].mat) <= ZERO_FLOOR for p in c.plaquettes]
        assert c.annihilated(verifier._label_vector(prep, cert)).tolist() == want
        res = compute_omega(prep, cert)
        assert res.zero == any(want) == (abs(dense_omega(prep, cert)) <= 1e-11)


def test_certificate_domain_errors():
    prep = prepare(gen_toric(LatticeSpec(3, 3)))
    with pytest.raises(CertificateDomainError):
        compute_omega(prep, Certificate({}, {(1, 1): 0}))
    with pytest.raises(CertificateDomainError):
        compute_omega(
            prep, Certificate({(0, 0): 0, (1, 1): 0}, {(1, 1): 0})
        )
    with pytest.raises(CertificateDomainError):
        compute_omega(prep, Certificate({(1, 1): 2}, {(1, 1): 0}))


@pytest.mark.parametrize("label", [True, False, np.bool_(True)])
def test_bool_labels_rejected(label):
    # numpy reads a bool index as a mask, so bools must not pass as 0/1
    prep = prepare(gen_toric(LatticeSpec(3, 3)))
    with pytest.raises(CertificateDomainError):
        compute_omega(prep, Certificate({(1, 1): label}, {(1, 1): 0}))


def test_numpy_integer_labels_accepted():
    prep = prepare(gen_toric(LatticeSpec(3, 3)))
    want = compute_omega(prep, Certificate({(1, 1): 1}, {(1, 1): 0}))
    got = compute_omega(prep, Certificate({(1, 1): np.int64(1)}, {(1, 1): np.int8(0)}))
    assert got.log2_magnitude == want.log2_magnitude


@pytest.mark.parametrize("label", [1.0, 0.0, np.float64(1), True, 2])
def test_non_integer_labels_rejected(label):
    # 1.0 == 1, so a membership test alone passes floats, which must not be
    # rounded to an index either
    prep = prepare(gen_toric(LatticeSpec(4, 4)))
    cert = all_zero_cert(prep)
    cert.alpha[min(cert.alpha)] = label
    for check in (compute_omega, verify, apply_certificate, effective_states):
        with pytest.raises(CertificateDomainError):
            check(prep, cert)


def test_label_vectors_checked():
    prep = prepare(gen_toric(LatticeSpec(4, 4)))
    n = len(prep.f_black) + len(prep.f_white)
    want = compute_omega(prep, all_zero_cert(prep))
    got = compute_omega(prep, np.zeros(n, dtype=np.int8))
    assert (got.zero, got.log2_magnitude, got.nonzero) == (want.zero, want.log2_magnitude, want.nonzero)
    for bad in (np.zeros(n), np.zeros(n, dtype=bool), np.full(n, 2), np.zeros(n - 1, dtype=int),
                np.zeros((3, n - 1), dtype=int), np.full((3, n), 2), np.zeros((2, 3, n), dtype=int)):
        with pytest.raises(CertificateDomainError):
            compute_omega(prep, bad)


def omega_summary(res):
    return res.zero, res.log2_magnitude, res.nonzero


def domain_message(prep, cert):
    with pytest.raises(CertificateDomainError) as exc:
        compute_omega(prep, cert)
    return str(exc.value)


@pytest.mark.parametrize("model, sizes", [
    (lambda: gen_toric(LatticeSpec(3, 3)), (1, 1)),
    (lambda: gen_ising(LatticeSpec(3, 3), 1.0, 0.0), (1, 0)),
    (lambda: gen_toric(LatticeSpec(2, 2)), (0, 0)),
], ids=["toric 3x3", "ising 3x3", "toric 2x2"])
def test_label_gather_handles_layers_of_one_and_no_split_vertex(model, sizes):
    # `itemgetter` returns a bare value for one key and needs at least one
    prep = prepare(model())
    black, white = prep.label_order
    assert (len(black), len(white)) == sizes
    for bits in itertools.product((0, 1), repeat=sum(sizes)):
        cert = Certificate(dict(zip(black, bits)), dict(zip(white, bits[len(black) :])))
        assert verifier._label_vector(prep, cert).tolist() == [*bits, 0]
        want = compute_omega(prep, np.array(bits, dtype=int))
        assert omega_summary(compute_omega(prep, cert)) == omega_summary(want)
    assert prep.label_getters is prep.label_getters  # built once per prepared model
    if black:
        assert domain_message(prep, Certificate({(0, 0): 0}, dict.fromkeys(white, 0))) == (
            "alpha labels must cover exactly the split vertices; extra=[(0, 0)] missing=[(1, 1)]"
        )
    assert domain_message(prep, Certificate(dict.fromkeys(black, 0), {**dict.fromkeys(white, 0), (0, 0): 0})) == (
        "beta labels must cover exactly the split vertices; extra=[(0, 0)] missing=[]"
    )


def test_wrong_key_of_the_right_count_names_extra_and_missing():
    prep = prepare(gen_toric(LatticeSpec(4, 4)))
    cert = all_zero_cert(prep)
    gone = max(cert.beta)
    del cert.beta[gone]
    cert.beta[(0, 0)] = 0
    assert len(cert.beta) == len(prep.f_white)
    assert domain_message(prep, cert) == (
        f"beta labels must cover exactly the split vertices; extra=[(0, 0)] missing=[{gone}]"
    )


def test_labels_loaded_from_a_file_gather_alike(tmp_path):
    # load_certificate makes fresh key tuples, equal to the split vertices
    # but not the same objects
    prep = prepare(gen_toric(LatticeSpec(4, 4)))
    black, white = prep.label_order
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    cert = Certificate(dict(zip(black, bits)), dict(zip(white, bits[len(black) :])))
    save_certificate(cert, tmp_path / "cert.json")
    loaded = load_certificate(tmp_path / "cert.json")
    assert loaded == cert and not any(v is w for v, w in zip(sorted(loaded.alpha), black))
    assert verifier._label_vector(prep, loaded).tolist() == bits + [0]
    assert omega_summary(compute_omega(prep, loaded)) == omega_summary(compute_omega(prep, cert))


@pytest.mark.parametrize("key", [(np.int64(1), np.int64(1)), (1.0, 1.0)])
def test_hash_equal_keys_name_the_split_vertex(key):
    # a key that hashes and compares equal to (1, 1) is found by the lookup,
    # and is neither extra nor missing next to a wrong key
    prep = prepare(gen_toric(LatticeSpec(3, 3)))
    cert = Certificate({key: 1}, {(1, 1): 0})
    assert verifier._label_vector(prep, cert).tolist() == [1, 0, 0]
    want = compute_omega(prep, Certificate({(1, 1): 1}, {(1, 1): 0}))
    assert omega_summary(compute_omega(prep, cert)) == omega_summary(want)
    assert domain_message(prep, Certificate({key: 0, (0, 0): 0}, {(1, 1): 0})) == (
        "alpha labels must cover exactly the split vertices; extra=[(0, 0)] missing=[]"
    )


LABEL_MODELS = {
    "toric 4x4 open": lambda: gen_toric(LatticeSpec(4, 4)),
    "rotated-classical 4x3": lambda: gen_random(LatticeSpec(4, 3), 1, "rotated-classical"),
}


@functools.lru_cache(maxsize=None)
def label_prep(name):
    return prepare(LABEL_MODELS[name]())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(LABEL_MODELS)), st.data())
def test_label_dicts_gather_in_label_order(name, data):
    # any insertion order, Python or numpy ints: the vector is the labels in
    # `label_order`, and the dict and the vector give the same Omega
    prep = label_prep(name)
    black, white = prep.label_order
    n = len(black) + len(white)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    numpy_ints = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    labels = [np.int64(b) if k else b for b, k in zip(bits, numpy_ints)]
    alpha = dict(data.draw(st.permutations(list(zip(black, labels)))))
    beta = dict(data.draw(st.permutations(list(zip(white, labels[len(black) :])))))
    cert = Certificate(alpha, beta)
    bx = verifier._label_vector(prep, cert)
    assert bx.dtype == np.intp
    assert bx.tolist() == [cert.alpha[v] for v in black] + [cert.beta[v] for v in white] + [0]
    assert omega_summary(compute_omega(prep, cert)) == omega_summary(compute_omega(prep, np.array(bits)))


def _keyed(labels: dict, keys) -> dict:
    return {v: labels[v] for v in keys}


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(LABEL_MODELS)), st.data())
def test_label_dict_key_order_does_not_matter(name, data):
    # the same labels with keys in row-major, reversed row-major and shuffled
    # order give the same vector and Omega; one dropped or one extra key
    # gives the same message in every order
    prep = label_prep(name)
    spec = prep.model.spec
    black, white = prep.label_order
    bits = data.draw(st.lists(st.integers(0, 1), min_size=len(black) + len(white), max_size=len(black) + len(white)))
    alpha, beta = dict(zip(black, bits)), dict(zip(white, bits[len(black) :]))
    orders = {
        "row-major": lambda keys: sorted(keys, key=lambda v: (v[1], v[0])),
        "reversed": lambda keys: sorted(keys, key=lambda v: (v[1], v[0]), reverse=True),
        "shuffled": lambda keys: data.draw(st.permutations(list(keys))),
    }
    certs = [Certificate(_keyed(alpha, order(alpha)), _keyed(beta, order(beta))) for order in orders.values()]
    vectors = {tuple(verifier._label_vector(prep, c).tolist()) for c in certs}
    assert vectors == {(*bits, 0)}
    results = {omega_summary(compute_omega(prep, c)) for c in certs}
    assert len(results) == 1

    layer = data.draw(st.sampled_from([n for n, w in (("alpha", black), ("beta", white)) if w]))
    want = dict(zip(("alpha", "beta"), (black, white)))[layer]
    if data.draw(st.booleans()):
        gone, extra = data.draw(st.sampled_from(want)), None
        message = f"{layer} labels must cover exactly the split vertices; extra=[] missing=[{gone}]"
    else:
        gone, extra = None, (spec.lx, 0)  # off the lattice
        message = f"{layer} labels must cover exactly the split vertices; extra=[{extra}] missing=[]"
    for c in certs:
        labels = {v: b for v, b in getattr(c, layer).items() if v != gone}
        if extra is not None:
            labels[extra] = 0
        faulty = Certificate(labels, c.beta) if layer == "alpha" else Certificate(c.alpha, labels)
        assert domain_message(prep, faulty) == message


def sparse_ising(spec: LatticeSpec, seed: int) -> CommutingModel:
    """Ising terms with seeded zero couplings and fields, so that the two
    layers split different vertex sets."""
    rng = np.random.default_rng(seed)
    couplings = {e: float(rng.choice((0.0, 1.0))) for e in lattice.edges(spec)}
    return gen_ising(spec, couplings, {v: float(rng.choice((0.0, 0.5))) for v in spec.vertices()})


ORDER_MODELS = {
    "toric 5x4 open": lambda: gen_toric(LatticeSpec(5, 4)),
    "toric 4x20 open": lambda: gen_toric(LatticeSpec(4, 20)),
    "toric 6x4 periodic": lambda: gen_toric(LatticeSpec(6, 4, "periodic")),
    "rotated-classical 5x4": lambda: gen_random(LatticeSpec(5, 4), 1, "rotated-classical"),
    "rotated-classical 6x4 periodic": lambda: gen_random(LatticeSpec(6, 4, "periodic"), 2, "rotated-classical"),
    "diagonal-field 4x20": lambda: gen_random(LatticeSpec(4, 20), 3, "diagonal-field"),
    "diagonal-field 6x4 periodic": lambda: gen_random(LatticeSpec(6, 4, "periodic"), 4, "diagonal-field"),
    "signed-toric 6x4 periodic": lambda: gen_random(LatticeSpec(6, 4, "periodic"), 5, "signed-toric"),
    "ising 6x4 periodic": lambda: gen_ising(LatticeSpec(6, 4, "periodic"), 1.0, 0.0),
    "sparse ising 5x4": lambda: sparse_ising(LatticeSpec(5, 4), 7),
    "sparse ising 4x20": lambda: sparse_ising(LatticeSpec(4, 20), 7),
    "sparse ising 6x4 periodic": lambda: sparse_ising(LatticeSpec(6, 4, "periodic"), 7),
    "own and other-only 4x3": own_and_other_only_model,
}


@pytest.mark.parametrize("name", sorted(ORDER_MODELS))
def test_label_order_and_compiled_names_follow_the_lattice(name):
    # label_order, read from the layer arrays, is each layer's split vertices
    # sorted; the compiled model's lists, built from its id arrays on first
    # use, are the plaquettes black first, row-major, and the vertices
    # split in both layers, in neither, and each plaquette's corners in neither
    prep = prepare(ORDER_MODELS[name]())
    spec = prep.model.spec
    assert prep.label_order == (sorted(prep.black.split_vertices), sorted(prep.white.split_vertices))
    c = prep.compiled()
    plist = lattice.plaquettes(spec)
    assert c.plaquettes == [p for p in plist if lattice.is_black(p)] + [p for p in plist if not lattice.is_black(p)]
    assert c.both == sorted(prep.f_black & prep.f_white)
    split = prep.f_black | prep.f_white
    assert c.unsplit == [v for v in spec.vertices() if v not in split]
    for p, row in zip(c.plaquettes, c.free):
        free = [y * spec.lx + x for x, y in lattice.corners(spec, p) if (x, y) not in split]
        assert row == free + [-1] * (4 - len(free))
    assert c.plaquettes is c.plaquettes and c.free is c.free  # built once per compiled model


def test_order_models_split_different_vertex_sets():
    # the label-order test covers layers that split different vertices, on
    # open and periodic lattices, with vertices split in both layers and in
    # neither
    preps = {name: prepare(make()) for name, make in ORDER_MODELS.items()}
    assert {name for name, prep in preps.items() if prep.f_black != prep.f_white} == {
        "ising 6x4 periodic", "sparse ising 5x4", "sparse ising 4x20", "sparse ising 6x4 periodic",
        "own and other-only 4x3",
    }
    for name in ("sparse ising 5x4", "sparse ising 4x20", "sparse ising 6x4 periodic"):
        c = preps[name].compiled()
        assert c.both and c.unsplit and preps[name].f_black - preps[name].f_white


# ------------------------------------------------------------ overlap graph


def bell_state(support, color, plaquette=(0, 0)):
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return EffectiveState(plaquette, color, tuple(support), np.outer(psi, psi.conj()))


def test_graph_path_of_two():
    a = bell_state(["q1", "q2"], BLACK, (0, 0))
    b = bell_state(["q2", "q3"], WHITE, (1, 0))
    g = build_overlap_graph([a], [b])
    assert len(g.components) == 1
    comp = g.components[0]
    assert comp.kind == "path" and len(comp.node_ids) == 2
    assert g.max_degree == 1


def test_graph_empty_for_scalars():
    g = build_overlap_graph([], [])
    assert not g.nodes and not g.components


def test_degree_violation_branching():
    center = bell_state(["a", "b"], BLACK, (0, 0))
    center = EffectiveState(
        (0, 0), BLACK, ("a", "b", "c"), np.eye(8, dtype=complex) / 8 + 0.1 * np.diag(np.arange(8) / 8.0)
    )
    leaves = [
        bell_state(["a", "x"], WHITE, (1, 0)),
        bell_state(["b", "y"], WHITE, (0, 1)),
        bell_state(["c", "z"], WHITE, (2, 1)),
    ]
    with pytest.raises(DegreeViolation):
        build_overlap_graph([center], leaves)


def test_same_color_support_sharing_rejected():
    a = bell_state(["q1", "q2"], BLACK, (0, 0))
    b = bell_state(["q2", "q3"], BLACK, (1, 1))
    with pytest.raises(DegreeViolation):
        build_overlap_graph([a, b], [])


def walked(blacks, whites):
    return [(c.kind, c.node_ids) for c in build_overlap_graph(blacks, whites).components]


def test_graph_path_walked_from_its_smaller_end():
    # node ids 0 and 1 are the blacks, 2 the white; the path runs 1 - 2 - 0
    # and its first plaquette in plaquette order is node 1's
    blacks = [bell_state(["c", "d"], BLACK, (2, 0)), bell_state(["a", "b"], BLACK, (0, 0))]
    assert walked(blacks, [bell_state(["b", "c"], WHITE, (1, 0))]) == [("path", [0, 2, 1])]


def test_graph_cycle_walked_from_its_smallest_node_to_the_smaller_neighbour():
    # node 0 meets node 3 first (on "a"), yet the walk turns to node 2
    blacks = [bell_state(["a", "b"], BLACK, (0, 0)), bell_state(["c", "d"], BLACK, (1, 1))]
    whites = [bell_state(["b", "c"], WHITE, (1, 0)), bell_state(["d", "a"], WHITE, (0, 1))]
    assert list(build_overlap_graph(blacks, whites).adjacency[0]) == [3, 2]
    assert walked(blacks, whites) == [("cycle", [0, 2, 1, 3])]


def test_graph_states_sharing_two_qubits_are_one_path():
    g = build_overlap_graph([bell_state(["a", "b"], BLACK)], [bell_state(["b", "a"], WHITE, (1, 0))])
    assert [(c.kind, c.node_ids) for c in g.components] == [("path", [0, 1])]
    assert g.adjacency == {0: {1: ("a", "b")}, 1: {0: ("a", "b")}}


def test_graph_components_in_plaquette_order():
    # an isolated state, a two-state path and a lone white state, listed so
    # that node ids and plaquette order disagree
    blacks = [bell_state(["x", "y"], BLACK, (3, 3)), bell_state(["a", "b"], BLACK, (0, 2))]
    whites = [bell_state(["b", "c"], WHITE, (1, 2)), bell_state(["p", "q"], WHITE, (0, 1))]
    assert walked(blacks, whites) == [("isolated", [3]), ("path", [1, 2]), ("isolated", [0])]


# ------------------------------------------------------- chain contraction


def dense_chain_trace(states):
    """tr of the product of the states, black first, each embedded on the
    union of their supports by a literal Kronecker product."""
    ops = [LabeledOp(s.mat, s.support) for s in sorted(states, key=lambda s: s.color != BLACK)]
    full = list(dict.fromkeys(l for op in ops for l in op.labels))
    product = np.eye(2 ** len(full), dtype=complex)
    for op in ops:
        product = product @ embed(op, full).mat
    return np.trace(product).real


def test_contract_path_matches_embedded_trace():
    a = bell_state(["q1", "q2"], BLACK, (0, 0))
    b = bell_state(["q2", "q3"], WHITE, (1, 0))
    g = build_overlap_graph([a], [b])
    val = contract_component(g.components[0], g.nodes)
    expected = dense_chain_trace([a, b])
    assert abs(val - expected) < 1e-12
    assert abs(val - 0.5) < 1e-12


def test_contract_isolated_node():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = m @ m.conj().T
    s = EffectiveState((0, 0), BLACK, ("q",), m)
    g = build_overlap_graph([s], [])
    val = contract_component(g.components[0], g.nodes)
    assert abs(val - np.trace(m).real) < 1e-12


def test_contract_cycle_of_four_bells():
    # four Bell projectors around a square of vertices; alternating colors
    blacks = [bell_state(["a", "b"], BLACK, (0, 0)), bell_state(["c", "d"], BLACK, (1, 1))]
    whites = [bell_state(["b", "c"], WHITE, (1, 0)), bell_state(["d", "a"], WHITE, (0, 1))]
    g = build_overlap_graph(blacks, whites)
    assert len(g.components) == 1 and g.components[0].kind == "cycle"
    val = contract_component(g.components[0], g.nodes)
    expected = dense_chain_trace(blacks + whites)
    assert abs(val - expected) < 1e-12
    # rotations and reflections of the cycle order give the same trace
    ids = g.components[0].node_ids
    for variant in (ids[1:] + ids[:1], list(reversed(ids)), ids[2:] + ids[:2]):
        got = contract_component(Component("cycle", variant), g.nodes)
        assert abs(got - expected) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_contract_direction_invariance(seed):
    rng = np.random.default_rng(seed)

    def psd(n):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return m @ m.conj().T / n

    blacks = [
        EffectiveState((0, 0), BLACK, ("a", "b"), psd(4)),
        EffectiveState((1, 1), BLACK, ("c", "d"), psd(4)),
    ]
    whites = [
        EffectiveState((1, 0), WHITE, ("b", "c"), psd(4)),
        EffectiveState((0, 1), WHITE, ("d", "e"), psd(4)),
    ]
    g = build_overlap_graph(blacks, whites)
    comp = g.components[0]
    fwd = contract_component(comp, g.nodes)
    rev = contract_component(Component(comp.kind, list(reversed(comp.node_ids))), g.nodes)
    assert abs(fwd - rev) < 1e-12 * max(1.0, abs(fwd))
    assert abs(fwd - dense_chain_trace(blacks + whites)) < 1e-9


# ------------------------------------------------- chain vs dense equivalence


@pytest.mark.parametrize(
    "maker",
    [
        lambda: gen_toric(LatticeSpec(3, 3)),
        lambda: gen_toric(LatticeSpec(3, 4)),
        lambda: gen_ising(LatticeSpec(3, 3), 1.0, 0.0),
        lambda: gen_ising(LatticeSpec(3, 3), 1.0, 0.3),
        lambda: gen_random(LatticeSpec(3, 3), 1, "rotated-classical"),
        lambda: gen_random(LatticeSpec(3, 3), 2, "diagonal-field"),
        lambda: black_only_toric(LatticeSpec(3, 3)),
        lambda: thinned_toric(LatticeSpec(3, 4), (1, 0)),
    ],
)
def test_chain_equals_dense(maker):
    prep = prepare(maker())
    for cert in certificates_lex(prep.f_black, prep.f_white):
        chain = lin(compute_omega(prep, cert))
        dense = dense_omega(prep, cert)
        assert abs(chain - dense) <= 1e-9 * max(1.0, dense)


@pytest.mark.parametrize("seed", range(4))
def test_chain_equals_dense_mixed_zoos(seed):
    # adversarial mixes: thinned signed stabilizer terms (X/Z bases, zero
    # plaquettes) and a diagonal zoo (zero, parity word, random diagonal),
    # both swept over their full certificate space against the dense trace
    rng = np.random.default_rng(seed)
    z4 = PAULI_Z
    for _ in range(3):
        z4 = np.kron(z4, PAULI_Z)

    signed = gen_random(LatticeSpec(3, 4), seed, "signed-toric")
    thin_terms = {
        p: (np.zeros((16, 16)) if rng.random() < 0.3 else t)
        for p, t in signed.terms.items()
    }
    zoo_terms = {}
    for p in lattice.plaquettes(LatticeSpec(3, 4)):
        kind = rng.integers(0, 3)
        if kind == 0:
            zoo_terms[p] = np.zeros((16, 16))
        elif kind == 1:
            zoo_terms[p] = -z4
        else:
            zoo_terms[p] = np.diag(rng.standard_normal(16).astype(complex))

    for terms in (thin_terms, zoo_terms):
        m = CommutingModel(LatticeSpec(3, 4), terms)
        prep = prepare(m)
        for cert in certificates_lex(prep.f_black, prep.f_white):
            chain = lin(compute_omega(prep, cert))
            dense = dense_omega(prep, cert)
            assert abs(chain - dense) <= 1e-9 * max(1.0, dense)


def test_effective_states_positive():
    prep = prepare(gen_random(LatticeSpec(3, 3), 5, "rotated-classical"))
    cert = all_zero_cert(prep)
    blacks, whites, _ = effective_states(prep, cert)
    for s in blacks + whites:
        if s.support:
            w = np.linalg.eigvalsh(s.mat)
            assert w[0] >= -1e-9 * max(1.0, frob(s.mat))


def lost_positivity_prep():
    """Toric 3x3 with the projector at (1, 0) replaced by I - 2P: Hermitian,
    but with eigenvalue -1, so its effective state is not a positive
    operator, which commuting projectors never produce."""
    base = prepare(gen_toric(LatticeSpec(3, 3)))
    j = lattice.plaquettes(base.model.spec).index((1, 0))
    ids = base.ids.copy()
    ids[j] = len(base.projectors)  # a new stack row for (1, 0) alone
    projectors = np.concatenate([base.projectors, [np.eye(16) - 2 * base.projectors[base.ids[j]]]])
    return PreparedModel(base.model, ids, projectors, base.black, base.white)


@pytest.mark.parametrize("entry", [compute_omega, lambda prep, cert: effective_states(prep, cert)])
def test_lost_positivity_detected(entry):
    prep = lost_positivity_prep()
    with pytest.raises(DegreeViolation, match="lost positivity"):
        entry(prep, all_zero_cert(prep))


def test_lost_positivity_detected_by_the_stacked_scan():
    # the scan reads each state-table entry once for a whole stack of rows
    with pytest.raises(DegreeViolation, match="lost positivity"):
        exhaustive_search(lost_positivity_prep())


def test_dot_cross_rule():
    # vertices outside both split sets host at most one black and one white
    # effective state
    prep = prepare(gen_toric(LatticeSpec(4, 4)))
    cert = all_zero_cert(prep)
    blacks, whites, _ = effective_states(prep, cert)
    for group in (blacks, whites):
        seen = {}
        for s in group:
            for v in s.support:
                assert v not in seen, f"{v} hit twice within one layer"
                seen[v] = s.plaquette


# ------------------------------------------------------ stacked evaluation


def same_log2(a, b):
    return a == b or abs(a - b) <= 1e-12


def assert_stack_matches_rows(prep, rows):
    """compute_omega on the stack gives, row by row, the one-row call's
    zero flag, non-vanishing count, log2 value and factors."""
    got = compute_omega(prep, rows)
    assert len(got) == len(rows)
    for labels, res in zip(rows, got):
        want = compute_omega(prep, labels)
        assert (res.zero, res.nonzero) == (want.zero, want.nonzero)
        assert same_log2(res.log2_magnitude, want.log2_magnitude)
        assert [(f.kind, f.key) for f in res.factors] == [(f.kind, f.key) for f in want.factors]
        assert all(same_log2(f.log2, g.log2) for f, g in zip(res.factors, want.factors))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stacks_match_one_row_calls_on_the_oracle_models(seed, workloads):
    # every live row of the audited models (the 4x4 tori's 2**32 spaces
    # excepted), and on the small spaces every row, annihilating ones too
    for name, m in workloads.oracle_models(seed):
        prep = prepare(m)
        bits = len(prep.f_black) + len(prep.f_white)
        if bits > 16:
            continue
        for rows in _live_labels(prep, 16):
            assert_stack_matches_rows(prep, rows)
        if bits <= 8:
            space = np.array(list(itertools.product([0, 1], repeat=bits)), dtype=np.intp).reshape(-1, bits)
            assert_stack_matches_rows(prep, space)


def diagonal_model(lx, ly, seed):
    spec = LatticeSpec(lx, ly)
    rng = np.random.default_rng(seed)
    return CommutingModel(spec, {p: np.diag(rng.integers(0, 2, 16)).astype(float) for p in lattice.plaquettes(spec)})


@pytest.mark.parametrize("lx, ly, seed", [(3, 3, 0), (3, 3, 2), (3, 3, 3), (4, 3, 2), (4, 3, 3), (5, 4, 1)])
def test_stacks_with_several_support_groups_match_one_row_calls(lx, ly, seed, monkeypatch):
    # random 0/1-diagonal terms keep different corners under different
    # labels, so one stack's rows fall into several groups, one overlap
    # graph each; on 4x3 and 5x4 the rows of one group also differ in
    # their chain values, so each row must read its own matrices
    prep = prepare(diagonal_model(lx, ly, seed))
    graphs = []
    build = verifier.build_overlap_graph
    monkeypatch.setattr(verifier, "build_overlap_graph", lambda b, w: graphs.append(1) or build(b, w))
    bits = len(prep.f_black) + len(prep.f_white)
    space = np.array(list(itertools.product([0, 1], repeat=bits)), dtype=np.intp)
    compute_omega(prep, space)
    assert len(graphs) > 1
    assert_stack_matches_rows(prep, space if bits <= 8 else next(_live_labels(prep, 16)))


def test_live_label_stacks_are_capped_and_in_scan_order():
    prep = prepare(gen_toric(LatticeSpec(6, 4)))
    stacks = list(_live_labels(prep, 24))
    assert max(len(rows) for rows in stacks) <= _CHUNK
    rows = np.concatenate(stacks)
    assert len(rows) == 8192
    value = rows @ (1 << np.arange(rows.shape[1] - 1, -1, -1))
    assert np.all(np.diff(value) > 0)  # lexicographic, black labels outermost, no repeats


# ------------------------------------------------------------------- verify


def test_verify_accepts_toric_default_threshold():
    prep = prepare(gen_toric(LatticeSpec(4, 4, "periodic")))
    v = verify(prep, all_zero_cert(prep))
    assert v.accept
    assert v.log2_threshold == -33.0


def test_verify_threshold_rejects_small_omega():
    prep = prepare(gen_toric(LatticeSpec(4, 4, "periodic")))
    v = verify(prep, all_zero_cert(prep), threshold=2.0**-10)
    assert not v.accept  # omega = 2^-16 < 2^-10


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf")])
def test_verify_rejects_invalid_threshold(threshold):
    # nan or inf would give a threshold no certificate can clear
    prep = prepare(gen_toric(LatticeSpec(4, 4, "periodic")))
    with pytest.raises(ValueError, match="positive and finite"):
        verify(prep, all_zero_cert(prep), threshold=threshold)


def test_verify_rejects_zero():
    prep = prepare(gen_ising(LatticeSpec(3, 4), 1.0, 0.0))
    fb = sorted(prep.f_black)
    alpha = {v: 0 for v in prep.f_black}
    alpha[fb[1]] = 1
    v = verify(prep, Certificate(alpha, {w: 0 for w in prep.f_white}))
    assert not v.accept and v.omega.zero


# ------------------------------------------------------- plaquette tables


TABLE_FAMILIES = ["rotated-classical", "diagonal-field", "signed-toric", "haar-toric"]
# families whose plaquettes have corners split in the other layer only
OTHER_ONLY_FAMILIES = ["haar-ising", "thinned-toric"]


def table_family_model(family, haar_conjugated):
    if family == "haar-toric":
        return haar_conjugated(gen_toric(LatticeSpec(4, 4)), 2)
    if family == "signed-toric":
        return gen_random(LatticeSpec(4, 4, "periodic"), 2, family)
    if family == "haar-ising":
        return haar_conjugated(gen_ising(LatticeSpec(4, 4), 1.0, 0.0), 2)
    if family == "thinned-toric":
        return thinned_toric(LatticeSpec(4, 4), (1, 1))
    return gen_random(LatticeSpec(5, 5), 2, family)


def local_cert(prep, table, own_bits, other_bits=()):
    """All-zeros certificate carrying the given labels at one plaquette's
    own-split and other-only corners."""
    cert = all_zero_cert(prep)
    own, other = (cert.alpha, cert.beta) if table.color == BLACK else (cert.beta, cert.alpha)
    own.update(zip(table.own_split, own_bits))
    other.update(zip(table.other_only, other_bits))
    return cert


def prune_reference(op):
    """Pruning that starts over after every qubit it drops."""
    changed = True
    while changed and op.labels:
        changed = False
        for v in op.labels:
            reduced = partial_trace(op, [l for l in op.labels if l != v])
            half = LabeledOp(reduced.mat / 2.0, reduced.labels)
            if frob(embed(half, op.labels).mat - op.mat) <= PRUNE_RTOL * frob(op.mat):
                op, changed = half, True
                break
    return op


def test_prune_threshold_from_both_sides():
    # I (x) X plus noise along Z (x) I, which only qubit 0's test sees, of
    # norm 0.5 and 2 PRUNE_RTOL |block|: qubit 0 goes, then stays
    block = np.kron(np.eye(2), [[0, 1], [1, 0]]).astype(complex)
    for scale, kept in ((0.5, (1,)), (2.0, (0, 1))):
        noisy = block + scale * PRUNE_RTOL * frob(block) * np.kron(PAULI_Z, np.eye(2)) / 2
        ref = prune_reference(LabeledOp(noisy, (0, 1)))
        got = _prune(noisy)
        assert got[0] == ref.labels == kept
        assert frob(got[1] - ref.mat) <= 1e-15


def test_prune_drops_two_identity_factors_in_one_pass():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    block = np.kron(np.kron(np.eye(2), a @ a.conj().T), np.eye(2))
    ref = prune_reference(LabeledOp(block, (0, 1, 2)))
    kept, mat = _prune(block)
    assert kept == ref.labels == (1,)
    assert frob(mat - ref.mat) <= 1e-15 and frob(mat - a @ a.conj().T) <= 1e-15


@pytest.mark.parametrize("family", TABLE_FAMILIES)
def test_plaquette_table_matches_sandwich_reference(family, haar_conjugated):
    # every local slice pattern of every plaquette: the table's norm and
    # apply_certificate's sliced op against sandwich_site applied corner by
    # corner
    prep = prepare(table_family_model(family, haar_conjugated))
    layers = {BLACK: prep.black, WHITE: prep.white}
    ops = projector_ops(prep.model.spec, prep.ids, prep.projectors)
    zeros = patterns = 0
    for p in lattice.plaquettes(prep.model.spec):
        table = plaquette_table(prep, p)
        layer = layers[table.color]
        corners = tuple(lattice.corners(prep.model.spec, p))
        assert table.own_split == tuple(v for v in corners if v in layer.split_vertices)
        for bits in itertools.product((0, 1), repeat=len(table.own_split)):
            ref = ops[p]
            for v, b in zip(table.own_split, bits):
                ref = sandwich_site(ref, v, slice_op(layer, v, b))
            op = apply_certificate(prep, local_cert(prep, table, bits))[p]
            assert op.labels == ref.labels
            assert frob(op.mat - ref.mat) <= 1e-12
            assert abs(table.norms[bits] - frob(ref.mat)) <= 1e-12
            assert (table.norms[bits] <= ZERO_FLOOR) == (frob(ref.mat) <= ZERO_FLOOR)
            zeros += bool(table.norms[bits] <= ZERO_FLOOR)
            patterns += 1
    assert 0 < zeros < patterns


@pytest.mark.parametrize("family", TABLE_FAMILIES + OTHER_ONLY_FAMILIES)
def test_effective_states_match_sandwich_trace_reference(family, haar_conjugated):
    # every (own, other-only) pattern of every plaquette: the table's block,
    # pruned, against sandwich_site at each split corner, partial_trace onto
    # the unsplit corners and the start-over pruning loop
    prep = prepare(table_family_model(family, haar_conjugated))
    layers = {BLACK: (prep.black, prep.white), WHITE: (prep.white, prep.black)}
    plaquettes = lattice.plaquettes(prep.model.spec)
    ops = projector_ops(prep.model.spec, prep.ids, prep.projectors)
    assert any(plaquette_table(prep, p).other_only for p in plaquettes) == (family in OTHER_ONLY_FAMILIES)
    for p in plaquettes:
        table = plaquette_table(prep, p)
        own, other = layers[table.color]
        k = len(table.own_split)
        split = table.own_split + table.other_only
        for bits in itertools.product((0, 1), repeat=len(split)):
            ref = ops[p]
            for i, (v, b) in enumerate(zip(split, bits)):
                ref = sandwich_site(ref, v, slice_op(own if i < k else other, v, b))
            ref = prune_reference(partial_trace(ref, [v for v in ref.labels if v not in split]))
            blacks, whites, _ = effective_states(prep, local_cert(prep, table, bits[:k], bits[k:]))
            st = next(s for s in blacks + whites if s.plaquette == p)
            assert st.support == ref.labels
            assert frob(st.mat - ref.mat) <= 1e-12


@pytest.mark.parametrize(
    "model, values",
    [(gen_random(LatticeSpec(5, 5), 1, "diagonal-field"), {0.0, 1.0}), (gen_toric(LatticeSpec(4, 4)), {0.5})],
    ids=["diagonal-field-5x5", "toric-4x4"],
)
def test_vertex_overlap_gather_reads_both_labels(model, values):
    # every vertex split in both layers under all four label pairs (a, b):
    # the gathered overlap is |<black a|white b>|^2 of the two slice bases
    prep = prepare(model)
    both = sorted(prep.f_black & prep.f_white)
    assert both
    seen = set()
    for v in both:
        black, white = slice_basis(prep.black, v), slice_basis(prep.white, v)
        for a, b in itertools.product((0, 1), repeat=2):
            cert = all_zero_cert(prep)
            cert.alpha[v], cert.beta[v] = a, b
            got = dict(effective_states(prep, cert)[2])[v]
            want = abs(np.vdot(black[:, a], white[:, b])) ** 2
            assert abs(got - want) <= 1e-12
            seen.add(round(want, 12))
    assert seen == values


@pytest.mark.parametrize("family", ["rotated-classical", "haar-toric"])
def test_overlap_table_matches_trace_formula(family, haar_conjugated):
    if family == "haar-toric":
        prep = prepare(haar_conjugated(gen_toric(LatticeSpec(4, 4)), 1))
    else:
        prep = prepare(gen_random(LatticeSpec(5, 5), 1, family))
    vertices = prep.compiled()
    assert vertices.both == sorted(prep.f_black & prep.f_white) != []
    for i, v in enumerate(vertices.both):
        table = vertices.overlap[vertices.overlap_at[i] :][:4].reshape(2, 2)
        for a, b in itertools.product((0, 1), repeat=2):
            pa = slice_op(prep.black, v, a)
            pb = slice_op(prep.white, v, b)
            assert abs(table[a, b] - np.trace(pa @ pb).real) <= 1e-12


def test_vertices_with_equal_slice_bases_share_one_overlap_table():
    # every vertex of the torus has the same two slice bases, so the
    # compiled model holds one 2x2 table, which every vertex reads
    prep = prepare(gen_toric(LatticeSpec(8, 8, "periodic")))
    c = prep.compiled()
    assert len(c.both_ids) == 64 and c.overlap_at.tolist() == [0] * 64
    assert np.allclose(c.overlap, 0.5)
    assert [f.value for f in compute_omega(prep, all_zero_cert(prep)).factors if f.kind == VERTEX_OVERLAP] == [
        c.overlap[0]
    ] * 64


def _distinct_rows_by_sorting(rows):
    # the definition: sort all rows, a row is new where it differs from the one before
    order = np.lexsort(rows.T[::-1])
    new = np.concatenate([[True], np.any(rows[order[1:]] != rows[order[:-1]], axis=1)])
    number = np.empty(len(rows), dtype=np.intp)
    number[order] = np.cumsum(new) - 1
    return order[new], number


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_distinct_rows_sorting_only_run_heads_gives_the_same_numbering(data):
    # rows in runs of equal neighbours, with signed zeros and nans among floats
    width = data.draw(st.integers(1, 4))
    values = st.sampled_from([0.0, -0.0, 1.0, -2.5, np.nan]) if data.draw(st.booleans()) else st.integers(-2, 2)
    runs = data.draw(st.lists(st.tuples(st.lists(values, min_size=width, max_size=width), st.integers(1, 4)),
                              min_size=1, max_size=12))
    rows = np.array([row for row, count in runs for _ in range(count)])
    got, want = verifier._distinct_rows(rows), _distinct_rows_by_sorting(rows)
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


@pytest.mark.parametrize("check", [compute_omega, verify, apply_certificate])
@pytest.mark.parametrize("fault", ["extra", "missing", "bool"])
def test_every_entry_point_checks_the_domain(check, fault):
    prep = prepare(gen_toric(LatticeSpec(3, 3)))
    alpha = {(1, 1): 0}
    if fault == "extra":
        alpha[(0, 0)] = 0
    elif fault == "missing":
        alpha = {}
    else:
        alpha[(1, 1)] = True
    with pytest.raises(CertificateDomainError):
        check(prep, Certificate(alpha, {(1, 1): 0}))


# ------------------------------------------------------------ arrays against independent references

PROPERTY_FAMILIES = [
    "toric", "signed-toric", "ising", "rotated-classical", "diagonal-field", "haar-toric", "haar-ising",
    "thinned-toric",
]


@functools.lru_cache(maxsize=None)
def property_prep(family, shape, seed, haar_conjugated):
    return prepare(property_model(family, shape, seed, haar_conjugated))


def property_model(family, shape, seed, haar_conjugated):
    spec = LatticeSpec(*shape)
    if family == "toric":
        return gen_toric(spec)
    if family == "ising":  # degenerate terms: labels that disagree at a vertex survive slicing
        return gen_ising(spec, 1.0, 0.0)
    if family == "haar-toric":
        return haar_conjugated(gen_toric(spec), seed)
    if family == "haar-ising":
        return haar_conjugated(gen_ising(spec, 1.0, 0.0), seed)
    if family == "thinned-toric":
        return thinned_toric(spec, (1, 1))
    return gen_random(spec, seed, family)


def test_property_models_have_other_only_corners_and_chains(haar_conjugated):
    preps = [prepare(property_model(f, (4, 4), 0, haar_conjugated)) for f in PROPERTY_FAMILIES]
    assert any(plaquette_table(prep, p).other_only for prep in preps for p in lattice.plaquettes(prep.model.spec))
    states = [s for prep in preps for layer in effective_states(prep, all_zero_cert(prep))[:2] for s in layer]
    assert any(s.support for s in states)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(PROPERTY_FAMILIES),
    st.sampled_from([(4, 3), (4, 4), (5, 5)]),
    st.integers(0, 2),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
)
def test_compute_omega_matches_dense_trace_along_flips(haar_conjugated, family, shape, seed, start, flips):
    # the gathers against the literal sliced projectors traced on all N
    # qubits (`dense_omega`, which shares no code with the arrays); starts
    # are all-zeros or random labels
    prep = property_prep(family, shape, seed, haar_conjugated)
    black, white = prep.label_order
    n = len(black) + len(white)
    assume(n)
    bits = np.zeros(n, dtype=int) if start is None else np.random.default_rng(start).integers(0, 2, n)
    for f in flips:
        bits[f % n] ^= 1
        labels = bits.tolist()
        cert = Certificate(dict(zip(black, labels)), dict(zip(white, labels[len(black) :])))
        res = compute_omega(prep, cert)
        dense = dense_omega(prep, cert)
        if res.zero:
            assert abs(dense) <= 1e-11
        else:
            assert abs(2.0**res.log2_magnitude - dense) <= 1e-9 * dense


def test_concurrent_verification_matches_serial(haar_conjugated):
    # four threads, released together, compile one fresh prepared model and
    # fill its state table while verifying distinct certificates
    model = haar_conjugated(thinned_toric(LatticeSpec(5, 5), (1, 1)), 3)
    serial = prepare(model)
    certs = list(itertools.islice(certificates_lex(serial.f_black, serial.f_white), 1024))

    def summary(verdict):
        res = verdict.omega
        return res.zero, res.log2_magnitude, res.nonzero, [(f.kind, f.key, f.log2) for f in res.factors]

    want = [summary(verify(serial, c)) for c in certs]
    assert 0 < sum(not z for z, *_ in want) < len(want)
    prep, got, errors = prepare(model), [None] * len(certs), []
    start = threading.Barrier(4)

    def work(k):
        try:
            start.wait(timeout=60)
            for i in range(k, len(certs), 4):
                got[i] = summary(verify(prep, certs[i]))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert got == want


def test_slice_tables_in_chunks_match_one_batch(monkeypatch):
    # rotated 24x24 has more tables than one run of rows; run by run and
    # in one batch, the tables are the same bytes
    m = gen_random(LatticeSpec(24, 24), 0, "rotated-classical")
    real, seen = verifier._slice_tables, []

    def record(projs, frames, roles):
        seen.append(roles)
        return real(projs, frames, roles)

    monkeypatch.setattr(verifier, "_slice_tables", record)
    chunked = verifier.prepare(m).compiled().shared
    assert len(seen[0]) > 2 * verifier._SLICE_CHUNK
    monkeypatch.setattr(verifier, "_SLICE_CHUNK", len(seen[0]))
    whole = verifier.prepare(m).compiled().shared
    assert len(chunked) == len(whole)
    for (n1, b1), (n2, b2) in zip(chunked, whole):
        assert (n1.shape, b1.shape) == (n2.shape, b2.shape)
        assert n1.tobytes() == n2.tobytes() and b1.tobytes() == b2.tobytes()
