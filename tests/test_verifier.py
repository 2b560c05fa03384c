import itertools

import numpy as np
import pytest

from commham import lattice
from commham.lattice import BLACK, WHITE, LatticeSpec
from commham.linalg import (
    PAULI_Z, PRUNE_RTOL, LabeledOp, embed, frob, partial_trace, sandwich_site,
    trace_product_embedded,
)
from commham.model import CommutingModel, gen_ising, gen_random, gen_toric
from commham.oracle import dense_omega
from commham.verifier import (
    COMPONENT,
    FREE_QUBIT,
    VERTEX_OVERLAP,
    ZERO_FLOOR,
    Certificate,
    CertificateDomainError,
    Component,
    DegreeViolation,
    EffectiveState,
    apply_certificate,
    build_overlap_graph,
    certificates_lex,
    compute_omega,
    contract_component,
    effective_states,
    _effective_state,
    _overlap_table,
    prepare,
    verify,
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


# ------------------------------------------------------- chain contraction


def test_contract_path_matches_embedded_trace():
    a = bell_state(["q1", "q2"], BLACK, (0, 0))
    b = bell_state(["q2", "q3"], WHITE, (1, 0))
    g = build_overlap_graph([a], [b])
    val = contract_component(g.components[0], g.nodes)
    expected = trace_product_embedded(
        [LabeledOp(a.mat, a.support), LabeledOp(b.mat, b.support)]
    ).real
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
    ops = [LabeledOp(s.mat, s.support) for s in blacks] + [
        LabeledOp(s.mat, s.support) for s in whites
    ]
    expected = trace_product_embedded(ops).real
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
    ops = [LabeledOp(s.mat, s.support) for s in blacks] + [
        LabeledOp(s.mat, s.support) for s in whites
    ]
    assert abs(fwd - trace_product_embedded(ops).real) < 1e-9


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


@pytest.mark.parametrize("family", TABLE_FAMILIES)
def test_plaquette_table_matches_sandwich_reference(family, haar_conjugated):
    # every local slice pattern of every plaquette: the table's norm and
    # apply_certificate's sliced op against sandwich_site applied corner by
    # corner
    prep = prepare(table_family_model(family, haar_conjugated))
    layers = {BLACK: prep.black, WHITE: prep.white}
    zeros = patterns = 0
    for p in lattice.plaquettes(prep.model.spec):
        table = prep.table(p)
        layer = layers[table.color]
        corners = tuple(lattice.corners(prep.model.spec, p))
        assert table.own_split == tuple(v for v in corners if v in layer.split_vertices)
        for bits in itertools.product((0, 1), repeat=len(table.own_split)):
            ref = prep.projector_op(p)
            for v, b in zip(table.own_split, bits):
                ref = sandwich_site(ref, v, layer.decomps[v].slice_projector(b))
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
    assert any(prep.table(p).other_only for p in plaquettes) == (family in OTHER_ONLY_FAMILIES)
    for p in plaquettes:
        table = prep.table(p)
        own, other = layers[table.color]
        k = len(table.own_split)
        split = table.own_split + table.other_only
        for bits in itertools.product((0, 1), repeat=len(split)):
            ref = prep.projector_op(p)
            for i, (v, b) in enumerate(zip(split, bits)):
                ref = sandwich_site(ref, v, (own if i < k else other).decomps[v].slice_projector(b))
            ref = prune_reference(partial_trace(ref, [v for v in ref.labels if v not in split]))
            st = _effective_state(prep, p, local_cert(prep, table, bits[:k], bits[k:]))
            assert st.support == ref.labels
            assert frob(st.mat - ref.mat) <= 1e-12


@pytest.mark.parametrize("family", ["rotated-classical", "haar-toric"])
def test_overlap_table_matches_trace_formula(family, haar_conjugated):
    if family == "haar-toric":
        prep = prepare(haar_conjugated(gen_toric(LatticeSpec(4, 4)), 1))
    else:
        prep = prepare(gen_random(LatticeSpec(5, 5), 1, family))
    both = sorted(prep.f_black & prep.f_white)
    assert both
    for v in both:
        table = _overlap_table(prep, v)
        for a, b in itertools.product((0, 1), repeat=2):
            pa = prep.black.decomps[v].slice_projector(a)
            pb = prep.white.decomps[v].slice_projector(b)
            assert abs(table[a, b] - np.trace(pa @ pb).real) <= 1e-12


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
