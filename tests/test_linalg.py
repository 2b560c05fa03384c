from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commham import linalg
from commham.linalg import (
    ABELIAN,
    FULL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    TRIVIAL,
    ORDER_TOL,
    PHASE_FLOOR,
    CapExceeded,
    LabeledOp,
    NonHermitianError,
    algebra_classify,
    frob,
    herm_eig,
    operator_schmidt,
    trace_product_embedded,
)
from reference import I2, commutator_norm, embed, kron, partial_trace, permute_to


def random_hermitian(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------- herm_eig


def test_herm_eig_pauli_z():
    w, v = herm_eig(PAULI_Z)
    assert np.allclose(w, [-1, 1])
    assert abs(abs(v[1, 0]) - 1) < 1e-12  # |1> comes first
    assert abs(abs(v[0, 1]) - 1) < 1e-12


def test_herm_eig_identity():
    w, _ = herm_eig(np.eye(4, dtype=complex))
    assert np.allclose(w, 1.0)


def test_herm_eig_projector_spectrum():
    m = (np.eye(4) + kron(PAULI_Z, PAULI_Z)) / 2
    w, _ = herm_eig(m)
    assert np.allclose(w, [0, 0, 1, 1])


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("seed", range(5))
def test_herm_eig_reconstruction(seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(16, rng)
    w, v = herm_eig(m)
    assert frob(v @ np.diag(w) @ v.conj().T - m) <= 1e-10 * 16


# ------------------------------------------------------------ ground_band


def test_ground_projector_parity():
    z4 = kron(PAULI_Z, PAULI_Z, PAULI_Z, PAULI_Z)
    p = linalg.ground_band(-z4)[0]
    assert np.allclose(p, (np.eye(16) + z4) / 2, atol=1e-12)


def test_ground_projector_flat_spectrum():
    p = linalg.ground_band(np.zeros((16, 16), dtype=complex))[0]
    assert np.allclose(p, np.eye(16))


def test_ground_projector_ising_plaquette():
    # diagonal plaquette term -(Z1 Z2 + Z2 Z3 + Z3 Z4 + Z4 Z1); the ground
    # configs are found by direct enumeration of the 16 classical states
    signs = 1 - 2 * ((np.arange(16)[:, None] >> np.arange(3, -1, -1)[None, :]) & 1)
    energy = -(
        signs[:, 0] * signs[:, 1]
        + signs[:, 1] * signs[:, 2]
        + signs[:, 2] * signs[:, 3]
        + signs[:, 3] * signs[:, 0]
    )
    expected = np.diag((energy == energy.min()).astype(complex))
    p = linalg.ground_band(np.diag(energy.astype(complex)))[0]
    assert np.allclose(p, expected, atol=1e-12)
    assert expected[0, 0] == 1 and expected[15, 15] == 1 and expected.trace() == 2


@pytest.mark.parametrize("seed", range(4))
def test_ground_projector_is_projector(seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(16, rng)
    p = linalg.ground_band(m)[0]
    assert frob(p @ p - p) <= 1e-10
    assert frob(p - p.conj().T) <= 1e-10
    w, _ = herm_eig(m)
    assert frob(p @ m @ p - w[0] * p) <= 1e-8 * max(1.0, abs(w[0]))


def _band_member(kind, rng):
    """A Hermitian 16x16 matrix with a ground band of one kind, in a random basis."""
    if kind == "flat":  # c I: all band, radius 0
        return rng.uniform(-2.0, 2.0) * np.eye(16, dtype=complex)
    w = {
        "random": rng.standard_normal(16),
        "toric": np.repeat([-1.0, 1.0], 8),  # the spectrum of -Z^(x)4: rank-8 band
        "wide": np.concatenate([np.zeros(12), [1.0, 2.0, 3.0, 4.0]]),  # band 12: the frame leads with the other 4
        # band edge at GAP_RTOL spread = 1e-9, straddled: the gap 2e-12 is below it, so unresolved
        "unresolved": np.concatenate([[0.0, 1e-9 - 1e-12, 1e-9 + 1e-12], np.linspace(0.5, 1.0, 13)]),
    }[kind]
    u, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    h = u @ np.diag(w) @ u.conj().T
    return (h + h.conj().T) / 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(["random", "toric", "wide", "flat", "unresolved"]), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_ground_band_stack_matches_single_matrices(kinds, seed):
    rng = np.random.default_rng(seed)
    mats = np.stack([_band_member(k, rng) for k in kinds])
    projs, radii, frames, sides = linalg.ground_band(mats)
    assert projs.shape == frames.shape == mats.shape and radii.shape == sides.shape == (len(kinds),)
    for kind, m, proj, radius, frame, side in zip(kinds, mats, projs, radii, frames, sides):
        want, r, want_frame, want_side = linalg.ground_band(m)
        assert r.shape == want_side.shape == ()
        assert np.array_equal(proj, want) and radius == r
        assert np.array_equal(frame, want_frame) and side == want_side
        k = round(np.trace(proj).real)
        if kind != "random":
            assert k == {"toric": 8, "wide": 12, "flat": 16, "unresolved": 2}[kind]
        if kind in ("flat", "unresolved"):
            assert r == 0.0
        # the frame's first min(k, 16 - k) columns span the band, or its complement when that is smaller
        assert side == min(k, 16 - k)
        v = frame[:, :side] if 2 * k <= 16 else frame[:, side:]
        assert frob(v @ v.conj().T - proj) <= 1e-14
        assert frob(frame.conj().T @ frame - np.eye(16)) <= 1e-13
    bad = mats.copy()
    bad[rng.integers(len(kinds)), 0, 1] += 1.0
    with pytest.raises(NonHermitianError, match="not Hermitian within tolerance"):
        linalg.ground_band(bad)


# ------------------------------------------------------- operator_schmidt


def test_schmidt_product_operator():
    op = LabeledOp(kron(PAULI_Z, PAULI_Z), ("q1", "q2"))
    dec = operator_schmidt(op, "q2")
    assert len(dec.terms) == 1
    a, b = dec.terms[0]
    assert frob(np.kron(a.mat, b) - op.mat) < 1e-12


def test_schmidt_parity_projector_rank_two():
    z4 = kron(PAULI_Z, PAULI_Z, PAULI_Z, PAULI_Z)
    op = LabeledOp((np.eye(16) + z4) / 2, (0, 1, 2, 3))
    dec = operator_schmidt(op, 3)
    assert len(dec.terms) == 2


def test_schmidt_bell_projector_rank_four():
    # rank-1 projector onto (|00> + |11>)/sqrt(2); the singular values are
    # checked against an independent reshape + SVD oracle
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    proj = np.outer(psi, psi.conj())
    m = proj.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    svals = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(svals, 0.5)

    dec = operator_schmidt(LabeledOp(proj, ("a", "b")), "b")
    assert len(dec.terms) == 4
    assert np.allclose(sorted(dec.singular_values), svals)


@pytest.mark.parametrize("seed", range(6))
def test_schmidt_reconstruction_and_orthogonality(seed):
    rng = np.random.default_rng(seed)
    op = LabeledOp(random_hermitian(16, rng), (0, 1, 2, 3))
    split = int(rng.integers(0, 4))
    dec = operator_schmidt(op, split)
    rest = [l for l in op.labels if l != split]
    rebuilt = sum(np.kron(a.mat, b) for a, b in dec.terms)
    target = permute_to(op, rest + [split]).mat
    assert frob(rebuilt - target) <= 1e-9 * frob(op.mat)
    for i, (ai, bi) in enumerate(dec.terms):
        for j, (aj, bj) in enumerate(dec.terms):
            if i != j:
                assert abs(np.trace(ai.mat @ aj.mat.conj().T)) < 1e-9
                assert abs(np.trace(bi @ bj.conj().T)) < 1e-9


# ------------------------------------------------------- algebra_classify


def test_classify_identity_trivial():
    assert algebra_classify([I2]).kind == TRIVIAL


def test_classify_z_abelian_computational_basis():
    cls = algebra_classify([I2, PAULI_Z])
    assert cls.kind == ABELIAN
    assert np.allclose(cls.basis, np.eye(2))  # |0> first, canonical phase


def test_classify_x_abelian_plus_minus():
    cls = algebra_classify([PAULI_X])
    assert cls.kind == ABELIAN
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert np.allclose(cls.basis[:, 0], plus)
    assert np.allclose(cls.basis[:, 1], minus)


def test_classify_full():
    assert algebra_classify([I2, PAULI_X, PAULI_Z]).kind == FULL


def test_classify_y_abelian_deterministic_order():
    cls = algebra_classify([PAULI_Y])
    assert cls.kind == ABELIAN
    # canonical order puts the +i state first (imaginary-part tiebreak)
    assert np.allclose(cls.basis[:, 0], np.array([1, 1j]) / np.sqrt(2))


@pytest.mark.parametrize("seed", range(5))
def test_classify_rotated_diagonal(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    gens = [u @ np.diag(rng.standard_normal(2).astype(complex)) @ u.conj().T for _ in range(2)]
    cls = algebra_classify(gens)
    assert cls.kind == ABELIAN
    for col in cls.basis.T:
        overlaps = np.abs(u.conj().T @ col)
        assert max(overlaps) > 1 - 1e-8  # basis states match u's columns


def _unitary(theta, phi, chi):
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [[c, -np.exp(1j * chi) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + chi)) * c]]
    )


_angles = st.tuples(*[st.floats(-np.pi, np.pi, allow_nan=False)] * 3)
_ints = st.integers(-3, 3)
_cints = st.builds(complex, _ints, _ints)


@st.composite
def _generators(draw):
    """1-3 generators: scalars, matrices diagonal in one of two drawn bases,
    or integer matrices.  Integer coefficients keep every traceless part
    either zero or of order one; only the basis angles vary continuously."""
    bases = [_unitary(*draw(_angles)), _unitary(*draw(_angles))]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["scalar", "diagonal", "diagonal", "integer"]))
        if kind == "scalar":
            gens.append(draw(_cints) * I2)
        elif kind == "diagonal":
            u = bases[draw(st.sampled_from([0, 0, 1]))]
            gens.append(u @ np.diag([draw(_cints), draw(_cints)]) @ u.conj().T)
        else:
            gens.append(np.array([[draw(_cints) for _ in range(2)] for _ in range(2)]))
    return gens


def _reference_kind(gens):
    """Trivial iff every traceless part vanishes; abelian iff the generators
    and their adjoints pairwise commute.  Returns None in the band where
    near-parallel bases make the verdict depend on the cutoff."""
    if all(frob(m - np.trace(m) / 2 * I2) <= 1e-9 * max(1.0, frob(m)) for m in gens):
        return TRIVIAL
    mats = gens + [m.conj().T for m in gens]
    worst = max(
        frob(a @ b - b @ a) / max(1.0, frob(a) * frob(b)) for a in mats for b in mats
    )
    if 1e-12 < worst < 1e-6:
        return None
    return ABELIAN if worst <= 1e-12 else FULL


def _same_basis_up_to_phase_and_order(p, q):
    overlaps = np.abs(p.conj().T @ q)
    return np.allclose(overlaps, np.eye(2), atol=1e-8) or np.allclose(
        overlaps, np.eye(2)[::-1], atol=1e-8
    )


@settings(max_examples=300, deadline=None)
@given(_generators(), _angles)
def test_classify_matches_commutator_reference(gens, angles):
    want = _reference_kind(gens)
    assume(want is not None)
    cls = algebra_classify(gens)
    assert cls.kind == want
    w = _unitary(*angles)
    rotated = algebra_classify([w @ m @ w.conj().T for m in gens])
    assert rotated.kind == want
    if want == ABELIAN:
        for m in gens:
            d = cls.basis.conj().T @ m @ cls.basis
            assert abs(d[0, 1]) + abs(d[1, 0]) <= 1e-9 * max(1.0, frob(m))
        assert _same_basis_up_to_phase_and_order(rotated.basis, w @ cls.basis)


# ---------------------------------------------------------- partial_trace


def test_partial_trace_z_times_identity():
    op = LabeledOp(kron(PAULI_Z, I2), ("q1", "q2"))
    out = partial_trace(op, ["q1"])
    assert out.labels == ("q1",)
    assert np.allclose(out.mat, 2 * PAULI_Z)


def test_partial_trace_bell_marginal():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    op = LabeledOp(np.outer(psi, psi.conj()), ("q1", "q2"))
    out = partial_trace(op, ["q2"])
    assert np.allclose(out.mat, I2 / 2)
    full = partial_trace(op, [])
    assert np.allclose(full.mat, [[1.0]])


def test_partial_trace_unknown_label():
    op = LabeledOp(PAULI_Z, ("q1",))
    with pytest.raises(ValueError):
        partial_trace(op, ["nope"])


# -------------------------------------------------- trace_product_embedded


def test_trace_overlap_of_projectors():
    p0 = LabeledOp(np.array([[1, 0], [0, 0]], dtype=complex), ("q1",))
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    pp = LabeledOp(np.outer(plus, plus.conj()), ("q1",))
    assert abs(trace_product_embedded([p0, pp]) - 0.5) < 1e-12


def test_trace_identity():
    op = LabeledOp(np.eye(4, dtype=complex), ("q1", "q2"))
    assert abs(trace_product_embedded([op]) - 4.0) < 1e-12


def test_trace_bell_chain():
    # two Bell projectors overlapping on q2; oracle: explicit dense kron on
    # the 8-dimensional space
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    bell = np.outer(psi, psi.conj())
    d1 = np.kron(bell, np.eye(2))
    d2 = np.kron(np.eye(2), bell)
    expected = np.trace(d1 @ d2)
    assert abs(expected - 0.5) < 1e-12

    a = LabeledOp(bell, ("q1", "q2"))
    b = LabeledOp(bell, ("q2", "q3"))
    assert abs(trace_product_embedded([a, b]) - expected) < 1e-12


# integers, strings and tuples, as lattice vertices and tests label qubits
_TRACE_LABELS = [0, 1, 5, "a", "q2", (0, 1), (1, 0), (2, 3)]


@st.composite
def _labeled_products(draw):
    """1-8 random non-Hermitian operators on 1-4 of at most 8 qubits, in
    any order: some qubits are touched by one operator (a self-loop of the
    wire network), some by many, and label sets may repeat."""
    qubits = draw(st.lists(st.sampled_from(_TRACE_LABELS), min_size=1, max_size=8, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        if ops and draw(st.booleans()):
            labels = draw(st.sampled_from([op.labels for op in ops]))
        else:
            labels = draw(
                st.lists(st.sampled_from(qubits), min_size=1, max_size=min(4, len(qubits)), unique=True)
            )
        d = 2 ** len(labels)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ops.append(LabeledOp(m / np.sqrt(d), labels))
    return ops


@st.composite
def _disconnected_products(draw):
    """1-3 groups of 1-4 random operators, each group on its own 1-3 qubits,
    in any product order: each group closes to a scalar, and an operator
    alone on its qubits is one already (its wires are all self-loops)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for g in range(draw(st.integers(1, 3))):
        qubits = [(g, q) for q in range(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(1, 4))):
            labels = draw(st.lists(st.sampled_from(qubits), min_size=1, max_size=len(qubits), unique=True))
            d = 2 ** len(labels)
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ops.append(LabeledOp(m / np.sqrt(d), labels))
    return draw(st.permutations(ops))


def _literal_trace(ops):
    """Reference: a literal embedding of every operator, multiplied densely."""
    full = list(dict.fromkeys(l for op in ops for l in op.labels))
    product = np.eye(2 ** len(full), dtype=complex)
    for op in ops:
        product = product @ embed(op, full).mat
    return np.trace(product)


@settings(max_examples=200, deadline=None)
@given(_labeled_products(), st.data())
def test_trace_matches_literal_embedding(ops, data):
    # the absorption order, greedy or given, does not change the network
    order = data.draw(st.permutations(range(len(ops))))
    expected = _literal_trace(ops)
    assert abs(trace_product_embedded(ops) - expected) <= 1e-9 * max(1.0, abs(expected))
    assert abs(trace_product_embedded(ops, order) - expected) <= 1e-9 * max(1.0, abs(expected))


PLANNERS = {
    "chosen": linalg._plan,
    "pairwise": lambda ends, order=None: linalg._pairwise(ends),
    "one at a time": lambda ends, order=None: linalg._left_deep(ends, linalg._greedy_order(ends)),
}


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(_labeled_products(), _disconnected_products()),
    st.sampled_from(sorted(PLANNERS)),
    st.sampled_from([0, 4, linalg._BLAS_WIRES]),
)
def test_tree_plans_match_literal_embedding(ops, planner, blas_wires):
    # every plan of the order=None path, with steps over blas_wires distinct
    # wires on einsum's BLAS path, contracts the same network
    expected = _literal_trace(ops)
    with mock.patch.object(linalg, "_plan", PLANNERS[planner]), mock.patch.object(linalg, "_BLAS_WIRES", blas_wires):
        value = trace_product_embedded(ops)
    assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))


def test_trace_consistency_with_partial_trace():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    op = LabeledOp(m, ("a", "b", "c"))
    assert abs(trace_product_embedded([op]) - partial_trace(op, []).mat[0, 0]) < 1e-10


def test_trace_wire_bound_applies_to_given_order(monkeypatch):
    # a path of four two-qubit operators: absorbed along the path the
    # frontier holds 2 wires, absorbed from both ends at once it holds 4
    rng = np.random.default_rng(5)
    ops = [
        LabeledOp(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), (q, q + 1))
        for q in range(4)
    ]
    expected = trace_product_embedded(ops)
    monkeypatch.setattr(linalg, "_MAX_OPEN_WIRES", 3)
    with pytest.raises(CapExceeded):
        trace_product_embedded(ops, [0, 3, 1, 2])
    assert trace_product_embedded(ops) == expected
    assert abs(trace_product_embedded(ops, [0, 1, 2, 3]) - expected) <= 1e-12 * abs(expected)


def test_trace_beyond_float64_refused():
    # 1100 one-qubit 2 I factors trace to 4**1100 = 2**2200, which float64
    # cannot hold; the kernel refuses it instead of returning inf or nan
    ops = [LabeledOp(2 * I2, (q,)) for q in range(1100)]
    with pytest.raises(CapExceeded, match="float64"):
        trace_product_embedded(ops)
    assert trace_product_embedded(ops[:500]) == 4.0**500


@pytest.mark.parametrize("order", [[0, 0], [0], [0, 1, 2], [1, 2]])
def test_trace_order_must_be_a_permutation(order):
    op = LabeledOp(PAULI_Z, (0,))
    with pytest.raises(ValueError):
        trace_product_embedded([op, op], order)


@st.composite
def _stacked_products(draw):
    """A product of 1-8 operators as `_labeled_products` draws it, and
    1-5 random matrices per operator."""
    ops = draw(_labeled_products())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = draw(st.integers(1, 5))
    mats = [rng.standard_normal((b,) + op.mat.shape) + 1j * rng.standard_normal((b,) + op.mat.shape) for op in ops]
    return [LabeledOp(m, op.labels) for m, op in zip(mats, ops)]


@settings(max_examples=100, deadline=None)
@given(_stacked_products(), st.data())
def test_stacked_trace_matches_member_calls(ops, data):
    # each member of the stack is traced along the plan its own call makes;
    # einsum may add a step's terms in another order once a batch axis is
    # present (seen when a step sums over two or more wires), so the values
    # agree to rounding, not always bit for bit
    order = data.draw(st.one_of(st.none(), st.permutations(range(len(ops)))))
    got = trace_product_embedded(ops, order)
    assert got.shape == (len(ops[0].mat),)
    for b, value in enumerate(got):
        want = trace_product_embedded([LabeledOp(op.mat[b], op.labels) for op in ops], order)
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want))


def test_stacked_trace_broadcasts_unstacked_operators():
    rng = np.random.default_rng(3)
    a = LabeledOp(rng.standard_normal((4, 4, 4)), (0, 1))
    b = LabeledOp(rng.standard_normal((4, 4)), (1, 2))
    got = trace_product_embedded([a, b])
    assert list(got) == [trace_product_embedded([LabeledOp(m, (0, 1)), b]) for m in a.mat]


def test_stacked_trace_with_an_inf_member_refused():
    mats = np.stack([np.eye(4), np.eye(4), np.eye(4)]).astype(complex)
    mats[1, 0, 0] = np.inf
    ops = [LabeledOp(mats, (0, 1)), LabeledOp(np.stack([PAULI_Z] * 3), (1,))]
    with pytest.raises(CapExceeded, match="float64"):
        trace_product_embedded(ops)
    assert list(trace_product_embedded([LabeledOp(mats[::2], (0, 1))])) == [4.0, 4.0]


@pytest.mark.parametrize("shape", [(3, 4, 4), (3, 2, 4), (4,), (), (2, 1, 2)])
def test_labeled_op_checks_the_trailing_shape(shape):
    with pytest.raises(ValueError, match="does not match"):
        LabeledOp(np.zeros(shape), (0,))
    assert LabeledOp(np.zeros((3, 5, 2, 2)), (0,)).n_qubits == 1


# -------------------------------------------------------- commutator_norm


def test_commutator_stabilizer_pair():
    # ZZ and XX on the same two qubits anticommute twice, hence commute;
    # sharing only one anticommuting site they do not
    a = LabeledOp(kron(PAULI_Z, PAULI_Z), (1, 2))
    b = LabeledOp(kron(PAULI_X, PAULI_X), (1, 2))
    assert commutator_norm(a, b) < 1e-12
    c = LabeledOp(kron(PAULI_X, PAULI_X), (2, 3))
    assert commutator_norm(a, c) > 1.0


def test_commutator_x_z():
    a = LabeledOp(PAULI_Z, ("q1",))
    b = LabeledOp(PAULI_X, ("q1",))
    assert abs(commutator_norm(a, b) - 2 * np.sqrt(2)) < 1e-12


def test_commutator_toric_neighbors():
    z4 = (np.eye(16) + kron(PAULI_Z, PAULI_Z, PAULI_Z, PAULI_Z)) / 2
    x4 = (np.eye(16) + kron(PAULI_X, PAULI_X, PAULI_X, PAULI_X)) / 2
    # neighboring plaquettes share exactly two qubits
    a = LabeledOp(z4, (0, 1, 2, 3))
    b = LabeledOp(x4, (2, 3, 4, 5))
    assert commutator_norm(a, b) < 1e-12


def canonical_basis_reference(v):
    """The eigenbasis columns of v phased and ordered one state at a time."""

    def phased(vec):
        a = next(a for a in vec if abs(a) > PHASE_FLOOR)
        return vec * (a.conjugate() / abs(a))

    a, b = phased(v[:, 0]), phased(v[:, 1])
    for xa, xb in zip((abs(a[0]), a[1].real, a[1].imag), (abs(b[0]), b[1].real, b[1].imag)):
        if abs(xa - xb) > ORDER_TOL:
            return np.column_stack([a, b] if xa > xb else [b, a])
    return np.column_stack([a, b])


def test_axis_bases_match_one_state_at_a_time_reference():
    # random axes, the coordinate axes and their diagonals (ties in |amplitude
    # on 0>), each batched and one row at a time
    rng = np.random.default_rng(4)
    special = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                        [1, 1, 0], [1, -1, 0], [0, 1, 1], [1, 0, -1]], dtype=float)
    axes = np.concatenate([rng.standard_normal((500, 3)), special])
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    got = linalg._axis_bases(axes)
    for n, basis in zip(axes, got):
        _, v = np.linalg.eigh(np.einsum("k,kij->ij", n, linalg._PAULIS))
        want = canonical_basis_reference(v)
        assert np.array_equal(basis, want)
        assert np.array_equal(linalg._axis_bases(n[None])[0], want)
