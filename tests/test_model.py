import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commham import lattice, model, verifier
from commham.lattice import LatticeSpec
from commham.linalg import (
    PAULI_X,
    PAULI_Z,
    LabeledOp,
    frob,
    ground_band,
)
from commham.model import (
    COMMUTATION_TOL,
    CommutingModel,
    ModelError,
    NonCommutingError,
    check_commuting,
    gen_ising,
    gen_random,
    gen_rotated_classical,
    gen_signed_toric,
    gen_toric,
    ground_projectors,
)
import reference
from reference import band_pair_norms, bytes_numbering, commutator_norm, kron, pair_norms, projector_map


Z4 = kron(PAULI_Z, PAULI_Z, PAULI_Z, PAULI_Z)
X4 = kron(PAULI_X, PAULI_X, PAULI_X, PAULI_X)


def test_toric_4x4_periodic_commutes():
    m = gen_toric(LatticeSpec(4, 4, "periodic"))
    assert len(m.terms) == 16
    assert check_commuting(m).ok


def test_toric_3x3_open_commutes():
    m = gen_toric(LatticeSpec(3, 3))
    assert len(m.terms) == 4
    assert sum(lattice.is_black(p) for p in m.terms) == 2
    assert check_commuting(m).ok


def test_toric_2x2_single_term():
    m = gen_toric(LatticeSpec(2, 2))
    assert set(m.terms) == {(0, 0)}
    assert np.allclose(m.terms[(0, 0)], -Z4)


def test_corrupted_term_reported():
    m = gen_toric(LatticeSpec(3, 3))
    terms = dict(m.terms)
    terms[(1, 0)] = kron(PAULI_X, np.eye(2), np.eye(2), np.eye(2))
    bad = CommutingModel(m.spec, terms)
    report = check_commuting(bad)
    assert not report.ok
    assert any((1, 0) in (p, q) for p, q, _ in report.violations)


def test_all_zero_terms_commute():
    spec = LatticeSpec(3, 3)
    m = CommutingModel(spec, {p: np.zeros((16, 16)) for p in lattice.plaquettes(spec)})
    assert check_commuting(m).ok
    ids, projs = ground_projectors(m)
    for p in projs[ids]:
        assert np.allclose(p, np.eye(16))


def test_non_hermitian_rejected():
    spec = LatticeSpec(2, 2)
    bad = np.zeros((16, 16), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ModelError):
        CommutingModel(spec, {(0, 0): bad})


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_rejected(value):
    # NaN compares false with everything, so it would pass the Hermiticity check
    spec = LatticeSpec(2, 2)
    bad = np.zeros((16, 16), dtype=complex)
    bad[3, 3] = value
    with pytest.raises(ModelError, match="non-finite"):
        CommutingModel(spec, {(0, 0): bad})


def intersecting_pairs(spec, pairs=None):
    """`lattice.neighbour_pairs` (or the given (first, second, alignment)
    arrays) in row-major order, as plaquettes (p, q) with their alignments as
    (corner of p, corner of q) pairs."""
    plist = lattice.plaquettes(spec)
    first, second, align = lattice.neighbour_pairs(spec) if pairs is None else pairs
    at = np.lexsort((second, first))
    return [
        (plist[i], plist[j], [(b // 4, b % 4) for b in range(16) if m >> b & 1])
        for i, j, m in zip(first[at].tolist(), second[at].tolist(), align[at].tolist())
    ]


def test_intersecting_pairs_match_all_pairs_scan():
    # the same pairs as the scan over all pairs, each once with the corners
    # it shares, from the offset table and from sorting the corner table
    for spec in (LatticeSpec(2, 2), LatticeSpec(4, 3), LatticeSpec(2, 7), LatticeSpec(7, 2),
                 LatticeSpec(4, 4, "periodic"), LatticeSpec(6, 4, "periodic")):
        plist = lattice.plaquettes(spec)
        want = []
        for i, p in enumerate(plist):
            for q in plist[i + 1 :]:
                cp, cq = lattice.corners(spec, p), lattice.corners(spec, q)
                shared = [(a, cq.index(v)) for a, v in enumerate(cp) if v in cq]
                if shared:
                    want.append((p, q, shared))
        assert intersecting_pairs(spec) == want
        assert intersecting_pairs(spec, reference.intersecting_pairs(spec)) == want


def test_toric_projectors_match_stabilizers():
    m = gen_toric(LatticeSpec(4, 4, "periodic"))
    for p, mat in projector_map(m).items():
        want = (np.eye(16) + (Z4 if lattice.is_black(p) else X4)) / 2
        assert frob(mat - want) < 1e-10


@pytest.mark.parametrize("spec", [LatticeSpec(4, 3), LatticeSpec(4, 4, "periodic")], ids=str)
def test_projector_ops_put_each_projector_on_its_corners(spec):
    # every term distinct: a projector on another plaquette, or on its
    # corners in another order, shows; from ground_projectors and from prepare
    m = gen_random(spec, 0, "rotated-classical")
    prep = verifier.prepare(m)
    for ops in (model.projector_ops(spec, *ground_projectors(m)), model.projector_ops(spec, prep.ids, prep.projectors)):
        assert list(ops) == lattice.plaquettes(spec)
        for p, op in ops.items():
            assert op.labels == tuple(lattice.corners(spec, p))
            assert frob(op.mat - ground_band(m.terms[p])[0]) <= 1e-12


def test_ground_projectors_reject_noncommuting():
    m = gen_toric(LatticeSpec(3, 3))
    terms = dict(m.terms)
    terms[(1, 0)] = kron(PAULI_X, np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(NonCommutingError):
        ground_projectors(CommutingModel(m.spec, terms))


def test_ising_ferromagnet_ground_configs():
    # the diagonal of the summed Hamiltonian must equal the classical Ising
    # energy; oracle: direct enumeration over all 2^9 spin configurations
    spec = LatticeSpec(3, 3)
    m = gen_ising(spec, 1.0, 0.25)
    n = spec.n_vertices
    verts = spec.vertices()
    vidx = {v: i for i, v in enumerate(verts)}
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    z = 1 - 2 * bits
    energy = np.zeros(2**n)
    for a, b in lattice.edges(spec):
        energy -= z[:, vidx[a]] * z[:, vidx[b]]
    for v in verts:
        energy -= 0.25 * z[:, vidx[v]]

    total = np.zeros(2**n)
    for p, term in m.terms.items():
        cs = lattice.corners(spec, p)
        local = np.real(np.diag(term))
        idx = np.zeros(2**n, dtype=int)
        for k, v in enumerate(cs):
            idx = (idx << 1) | bits[:, vidx[v]]
        total += local[idx]
    assert np.allclose(total, energy, atol=1e-12)


def test_ising_ferromagnet_symmetric_ground_space():
    spec = LatticeSpec(3, 3)
    m = gen_ising(spec, 1.0, 0.0)
    for p, mat in projector_map(m).items():
        assert abs(mat[0, 0] - 1) < 1e-12  # |0000> in every term's ground space
        assert abs(mat[15, 15] - 1) < 1e-12


def test_ising_periodic_sums_to_hamiltonian():
    # on the torus every edge borders one black and one white plaquette, so
    # black plaquettes own all couplings; oracle: enumerate the classical
    # energy over all configurations and match the summed diagonal
    spec = LatticeSpec(4, 4, "periodic")
    m = gen_ising(spec, 1.0, 0.25)
    n = spec.n_vertices
    verts = spec.vertices()
    vidx = {v: i for i, v in enumerate(verts)}
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    z = 1 - 2 * bits
    energy = np.zeros(2**n)
    for a, b in lattice.edges(spec):
        energy -= z[:, vidx[a]] * z[:, vidx[b]]
    for v in verts:
        energy -= 0.25 * z[:, vidx[v]]

    total = np.zeros(2**n)
    for p, term in m.terms.items():
        cs = lattice.corners(spec, p)
        local = np.real(np.diag(term))
        idx = np.zeros(2**n, dtype=int)
        for v in cs:
            idx = (idx << 1) | bits[:, vidx[v]]
        total += local[idx]
    assert np.allclose(total, energy, atol=1e-12)
    # whites carry only field shares on the torus
    for p in lattice.plaquettes(spec):
        if not lattice.is_black(p):
            d = np.real(np.diag(m.terms[p]))
            assert abs(d).max() <= 0.25 + 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_random_ising_commutes(seed):
    m = gen_random(LatticeSpec(3, 3), seed, "diagonal-field")
    assert check_commuting(m).ok
    for term in m.terms.values():
        assert frob(term - np.diag(np.diag(term))) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_rotated_classical_commutes(seed):
    m = gen_random(LatticeSpec(3, 3), seed, "rotated-classical")
    assert check_commuting(m).ok
    ground_projectors(m)


@pytest.mark.parametrize("seed", range(4))
def test_signed_toric_commutes(seed):
    m = gen_random(LatticeSpec(4, 4, "periodic"), seed, "signed-toric")
    assert check_commuting(m).ok


@pytest.mark.parametrize("sign", [0, 5, -2])
def test_signed_toric_rejects_signs_other_than_one(sign):
    # 0 must not fall back to the seeded draw, and 5 or -2 must not scale the term
    spec = LatticeSpec(3, 3)
    for signs in ({"black_signs": {(0, 0): sign}}, {"white_signs": {(1, 0): sign}}):
        with pytest.raises(ModelError, match=rf"sign {sign} at plaquette \(\d, 0\)"):
            gen_signed_toric(spec, seed=1, **signs)


def test_toric_generators_share_one_read_only_term_per_kind():
    # a model holds one matrix per (color, sign), not a copy per plaquette,
    # and an in-place edit of it raises instead of changing every plaquette
    spec = LatticeSpec(6, 4, "periodic")
    toric = gen_toric(spec)
    for black in (True, False):
        same = [t for p, t in toric.terms.items() if lattice.is_black(p) == black]
        assert len({id(t) for t in same}) == 1
        assert np.array_equal(same[0], -(Z4 if black else X4))
    signed = gen_signed_toric(spec, seed=1)
    assert len({id(t) for t in signed.terms.values()}) <= 4
    signs = set()
    for p, t in signed.terms.items():
        word = Z4 if lattice.is_black(p) else X4
        s = -1 if np.array_equal(t, word) else 1
        assert np.array_equal(t, -s * word)
        signs.add((lattice.is_black(p), s))
    assert len(signs) == 4
    for m in (toric, signed):
        for t in m.terms.values():
            with pytest.raises(ValueError):
                t[0, 0] = 0


def _signed_zero_variant(h: np.ndarray) -> np.ndarray:
    """h with every zero real part negated: equal values, other bytes."""
    v = np.array(h, dtype=complex)
    v.real[v.real == 0] = -v.real[v.real == 0]
    return v


_NUMBERING_BASES = [-Z4, -1 * Z4, -X4, np.zeros((16, 16), dtype=complex), np.diag(np.arange(16.0)).astype(complex)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([LatticeSpec(3, 3), LatticeSpec(4, 4, "periodic")]),
    st.data(),
)
def test_constructor_numbers_terms_as_bytes_do(spec, data):
    # shared objects, byte-equal copies and -0.0 variants of a few terms: the
    # ids and rows are those of numbering by bytes alone, whatever the objects
    plist = lattice.plaquettes(spec)
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(_NUMBERING_BASES) - 1), st.sampled_from(["shared", "copy", "signed zero"])),
        min_size=len(plist), max_size=len(plist),
    ))
    variant = {"shared": lambda h: h, "copy": np.copy, "signed zero": _signed_zero_variant}
    terms = {p: variant[kind](_NUMBERING_BASES[b]) for p, (b, kind) in zip(plist, picks)}
    m = CommutingModel(spec, terms)
    ids, distinct = bytes_numbering(spec, terms)
    assert m.ids.tolist() == ids.tolist() and m.ids.dtype == ids.dtype
    assert m.distinct.shape == distinct.shape and m.distinct.tobytes() == distinct.tobytes()
    assert all(m.terms[p].tobytes() == np.asarray(terms[p], dtype=complex).tobytes() for p in plist)


def test_distinct_and_terms_are_read_only():
    for m in (gen_toric(LatticeSpec(4, 4, "periodic")), gen_random(LatticeSpec(3, 3), 0, "rotated-classical")):
        with pytest.raises(ValueError):
            m.distinct[0, 0, 0] = 1
        with pytest.raises(ValueError):
            m.ids[0] = 1
        for t in m.terms.values():
            with pytest.raises(ValueError):
                t[0, 0] = 0


def test_terms_view_reads_one_row_object_per_distinct_term():
    m = gen_signed_toric(LatticeSpec(4, 4, "periodic"), seed=2)
    assert len(m.terms) == len(m.ids) == 16 and list(m.terms) == lattice.plaquettes(m.spec)
    assert len({id(t) for t in m.terms.values()}) == len(m.distinct)
    for p, i in zip(lattice.plaquettes(m.spec), m.ids.tolist()):
        assert m.terms[p] is m.terms[p] and np.array_equal(m.terms[p], m.distinct[i])
    for key in [(4, 0), (0, -1), (1,), "ab", None]:
        assert key not in m.terms
        with pytest.raises(KeyError):
            m.terms[key]


def test_from_ids_renumbers_merges_and_drops_rows():
    # the same model whichever numbering, duplicate rows or unused rows it is given
    spec = LatticeSpec(3, 3)
    want = CommutingModel(spec, {p: -Z4 if lattice.is_black(p) else -X4 for p in lattice.plaquettes(spec)})
    white = [0 if lattice.is_black(p) else 1 for p in lattice.plaquettes(spec)]
    for ids, distinct in [
        (white, [-Z4, -X4]),
        ([1 - i for i in white], [-X4, -Z4]),
        ([2 * i for i in white], [-Z4, np.eye(16), -X4.copy(), -Z4.copy()]),
        ([3 * (1 - i) for i in white], [-X4, -X4, -X4, -Z4]),
    ]:
        m = CommutingModel.from_ids(spec, ids, np.array(distinct))
        assert m.ids.tolist() == want.ids.tolist() and m.distinct.tobytes() == want.distinct.tobytes()


@pytest.mark.parametrize(
    "ids, distinct, match",
    [
        ([0, 0, 0], [-Z4], "expected 4 integers"),
        ([0.0, 0.0, 0.0, 0.0], [-Z4], "expected 4 integers"),
        ([0, 0, 0, 1], [-Z4], r"outside \[0, 1\)"),
        ([0, -1, 0, 0], [-Z4], r"outside \[0, 1\)"),
        ([0, 0, 0, 0], [np.eye(8)], "expected \\(D, 16, 16\\)"),
        ([0, 0, 0, 1], [-Z4, np.triu(np.ones((16, 16)))], r"term at \(1, 1\) is not Hermitian"),
    ],
)
def test_from_ids_rejects_bad_arrays(ids, distinct, match):
    with pytest.raises(ModelError, match=match):
        CommutingModel.from_ids(LatticeSpec(3, 3), np.array(ids), np.array(distinct))


@pytest.mark.parametrize(
    "signs, key",
    [
        ({"black_signs": {(0, 0): -1, (1, 0): -1}}, "(1, 0)"),  # a white plaquette
        ({"black_signs": {(9, 9): -1}}, "(9, 9)"),  # off the lattice
        ({"white_signs": {(1, 1): 1}}, "(1, 1)"),  # a black plaquette
        ({"white_signs": {"1,0": 1}}, "'1,0'"),
    ],
)
def test_signed_toric_rejects_misplaced_keys(signs, key):
    # a sign at no plaquette of its color must not be ignored silently
    with pytest.raises(ModelError, match=re.escape(f"key {key} is no")):
        gen_signed_toric(LatticeSpec(4, 4), 1, **signs)


def _ising_maps(spec):
    return {e: 1.0 for e in lattice.edges(spec)}, {v: 0.3 for v in spec.vertices()}


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda j, f: j.update({((1, 0), (0, 0)): 2.0}), "key ((1, 0), (0, 0)) is no edge"),  # unsorted
        (lambda j, f: j.update({((0, 0), (2, 2)): 2.0}), "key ((0, 0), (2, 2)) is no edge"),
        (lambda j, f: f.update({(7, 7): 1.0}), "key (7, 7) is no vertex"),
        (lambda j, f: j.pop(((0, 0), (1, 0))), "no value for edge ((0, 0), (1, 0))"),
        (lambda j, f: f.pop((2, 1)), "no value for vertex (2, 1)"),
    ],
)
def test_ising_rejects_misplaced_keys(change, message):
    spec = LatticeSpec(3, 3)
    couplings, fields = _ising_maps(spec)
    gen_ising(spec, couplings, fields)  # the full maps are accepted
    change(couplings, fields)
    with pytest.raises(ModelError, match=re.escape(message)):
        gen_ising(spec, couplings, fields)


def test_generators_deterministic():
    a = gen_random(LatticeSpec(3, 3), 7, "rotated-classical")
    b = gen_random(LatticeSpec(3, 3), 7, "rotated-classical")
    for p in a.terms:
        assert np.array_equal(a.terms[p], b.terms[p])


def test_rotated_classical_returns_unitaries():
    spec = LatticeSpec(3, 3)
    m, units = gen_rotated_classical(spec, seed=5)
    assert set(units) == set(spec.vertices())
    for u in units.values():
        assert frob(u @ u.conj().T - np.eye(2)) < 1e-12


# ------------------------------------------------- pair commutator kernel

# periodic lattices add the wrap-around alignments
KERNEL_SPECS = [LatticeSpec(4, 4, "periodic"), LatticeSpec(6, 4, "periodic"), LatticeSpec(5, 3)]


def reference_norms(m, mats):
    """(p, q, commutator_norm, |A| |B|) per intersecting pair, one dense
    embedding each."""
    out = []
    for p, q, _ in intersecting_pairs(m.spec):
        a = LabeledOp(mats[p], tuple(lattice.corners(m.spec, p)))
        b = LabeledOp(mats[q], tuple(lattice.corners(m.spec, q)))
        out.append((p, q, commutator_norm(a, b), frob(a.mat) * frob(b.mat)))
    return out


def assert_kernel_matches(m, mats, got=None):
    got = pair_norms(m, mats) if got is None else got
    want = reference_norms(m, mats)
    assert [(p, q) for p, q, _ in got] == [(p, q) for p, q, _, _ in want]
    for (_, _, norm), (_, _, ref, scale) in zip(got, want):
        # both evaluations round relative to the operands' norms
        assert abs(norm - ref) <= 1e-12 * scale + 1e-15


def assert_band_kernel_matches(m, terms):
    """The band-frame kernel on the terms' ground projectors, against the dense loop."""
    got, projs = band_pair_norms(m, terms)
    assert_kernel_matches(m, projs, got)


@pytest.mark.parametrize("spec", KERNEL_SPECS)
@pytest.mark.parametrize("eps", [0.0, 1e-3, 1e-7, 1e-9, 1e-11])
def test_pair_norms_match_commutator_norm(spec, eps, perturbed):
    m = perturbed(gen_random(spec, 0, "rotated-classical"), eps, 1)
    assert_kernel_matches(m, m.terms)
    assert_kernel_matches(m, {p: ground_band(h)[0] for p, h in m.terms.items()})
    assert_band_kernel_matches(m, m.terms)


# rank-deficient terms: at one- and two-corner alignments many factor rows are exactly 0
RANK_DEFICIENT = {
    "toric": gen_toric,
    "signed-toric": lambda spec: gen_signed_toric(spec, seed=1),
    "ising-field": lambda spec: gen_ising(spec, 1.0, 0.3),
}


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
@pytest.mark.parametrize("family", sorted(RANK_DEFICIENT))
def test_pair_norms_match_on_rank_deficient_terms(spec, family):
    m = RANK_DEFICIENT[family](spec)
    assert_kernel_matches(m, m.terms)
    assert_kernel_matches(m, projector_map(m))
    assert_band_kernel_matches(m, m.terms)


def _banded(rng, k):
    """A random Hermitian 16x16 term with a ground band of exactly k, in a random basis."""
    u, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    h = u @ np.diag(np.concatenate([np.zeros(k), 1.0 + rng.random(16 - k)])) @ u.conj().T
    return (h + h.conj().T) / 2


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
def test_band_kernel_on_all_band_and_complement_frames(spec):
    # a zero term is all band (side 0, P = I: its commutators are 0), and a
    # band of 12 is read from its other 4 frame columns
    m = gen_random(spec, 0, "rotated-classical")
    rng = np.random.default_rng(5)
    terms = {**m.terms, (1, 1): np.zeros((16, 16), dtype=complex), (2, 1): _banded(rng, 12)}
    sides = ground_band(CommutingModel(spec, terms).distinct)[3]
    assert sorted(set(sides.tolist())) == [0, 1, 4]
    assert_band_kernel_matches(CommutingModel(spec, terms), terms)


def test_band_kernel_frame_on_either_member():
    # bands of 1 at even x and 8 at odd x: along x the first member of a
    # pair is the frame side at even x, the second at odd x
    spec = LatticeSpec(6, 4, "periodic")
    rng = np.random.default_rng(6)
    terms = {p: _banded(rng, 1 if p[0] % 2 == 0 else 8) for p in lattice.plaquettes(spec)}
    side = np.array([1 if p[0] % 2 == 0 else 8 for p in lattice.plaquettes(spec)])
    first, second, align = lattice.neighbour_pairs(spec)
    lead, trail = side[first] < side[second], side[second] < side[first]
    assert any(lead[align == a].any() and trail[align == a].any() for a in set(align.tolist()))
    assert_band_kernel_matches(CommutingModel(spec, terms), terms)


def test_prepare_reads_projector_commutators_from_band_frames(monkeypatch):
    # the factor kernel serves the terms only
    m = gen_random(LatticeSpec(4, 4, "periodic"), 0, "rotated-classical")

    def refuse(*args):
        raise AssertionError("a projector went through the factor kernel")

    monkeypatch.setattr(model, "_shared_factors", refuse)
    verifier.prepare(m)
    with pytest.raises(AssertionError, match="factor kernel"):
        check_commuting(m)


@pytest.mark.parametrize("eps", [0.0, 1e-3, 1e-9])
def test_pair_norms_share_identical_terms(eps):
    # one perturbation per color keeps two distinct matrices, so every
    # pair of an alignment is read from one evaluation
    spec = LatticeSpec(4, 4, "periodic")
    rng = np.random.default_rng(3)
    g = rng.standard_normal((2, 16, 16)) + 1j * rng.standard_normal((2, 16, 16))
    h = eps * (g + g.conj().transpose(0, 2, 1)) / 2
    terms = {p: -Z4 + h[0] if lattice.is_black(p) else -X4 + h[1] for p in lattice.plaquettes(spec)}
    m = CommutingModel(spec, terms)
    assert len(m.distinct) == 2
    assert_kernel_matches(m, m.terms)


@pytest.mark.parametrize(
    "spec", KERNEL_SPECS + [LatticeSpec(20, 20, "periodic")], ids=str
)
@pytest.mark.parametrize("eps", [1e-3, 3e-10, 1e-12])
def test_check_commuting_matches_reference_loop(spec, eps, perturbed):
    m = perturbed(gen_random(spec, 0, "rotated-classical"), eps, 2)
    # the policy's bound: COMMUTATION_TOL times the traceless parts' norms
    norm0 = {p: frob(h - np.trace(h) / 16 * np.eye(16)) for p, h in m.terms.items()}
    want = [
        (p, q, n)
        for p, q, n, _ in reference_norms(m, m.terms)
        if n > COMMUTATION_TOL * norm0[p] * norm0[q]
    ]
    if eps == 3e-10:
        # the pair norms lie on both sides of the bound
        assert 0 < len(want) < len(intersecting_pairs(m.spec))
    got = check_commuting(m).violations
    assert [(p, q) for p, q, _ in got] == [(p, q) for p, q, _ in want]
    assert all(abs(a[2] - b[2]) <= 1e-12 for a, b in zip(got, want))
    assert check_commuting(m).ok == (not want)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(KERNEL_SPECS),
    st.integers(0, 2**16),
    st.floats(-12.0, -1.0),
)
def test_pair_norms_random_hermitian_perturbations(spec, seed, exponent):
    m = gen_random(spec, seed % 7, "rotated-classical")
    rng = np.random.default_rng(seed)
    terms = {}
    for p, h in m.terms.items():
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        terms[p] = h + 10.0**exponent * rng.random() * (g + g.conj().T)
    assert_kernel_matches(m, terms)
    assert_band_kernel_matches(m, terms)


def test_ground_projectors_number_the_distinct_terms():
    # one stack row per distinct term, numbered by first appearance in
    # plaquette order whatever the order or the objects of the terms; the
    # compile's shared tables follow the rows
    toric = gen_toric(LatticeSpec(40, 40, "periodic"))
    ids, stack = ground_projectors(toric)
    assert len(stack) == 2
    assert ids.tolist() == [0 if lattice.is_black(p) else 1 for p in lattice.plaquettes(toric.spec)]
    assert len(verifier.prepare(toric).compiled().shared) == 2
    rot = gen_random(LatticeSpec(4, 4), 0, "rotated-classical")
    rot_ids, rot_stack = ground_projectors(rot)
    assert rot_ids.tolist() == list(range(len(rot.terms))) and len(rot_stack) == len(rot.terms)
    for m, want in ((toric, ids), (rot, rot_ids)):
        copied = CommutingModel(m.spec, {p: h.copy() for p, h in reversed(list(m.terms.items()))})
        assert np.array_equal(ground_projectors(copied)[0], want)


def test_ground_projectors_temporaries_stay_small():
    # the pair keys come from the lattice's offset table; sorting the corner
    # table to find the pairs peaked at 988 KB here
    m = gen_toric(LatticeSpec(40, 40, "periodic"))
    ground_projectors(m)
    tracemalloc.start()
    try:
        ground_projectors(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 700 * 1024, f"peak {peak} bytes"


def test_ground_projectors_report_every_violation():
    m = gen_random(LatticeSpec(4, 4, "periodic"), 0, "rotated-classical")
    rng = np.random.default_rng(4)
    terms = dict(m.terms)
    for p in [(0, 0), (2, 1), (3, 3)]:
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        terms[p] = terms[p] + 0.3 * (g + g.conj().T)
    bad = CommutingModel(m.spec, terms)
    projs = {p: ground_band(h)[0] for p, h in terms.items()}
    want = [(p, q, n) for p, q, n, _ in reference_norms(bad, projs) if n > COMMUTATION_TOL]
    assert len(want) > 1
    with pytest.raises(NonCommutingError) as err:
        ground_projectors(bad)
    msg = str(err.value)
    p, q, _ = want[0]
    assert msg.startswith(f"ground projectors at {p} and {q} do not commute")
    listed = re.findall(r"\((\d+), (\d+)\) and \((\d+), (\d+)\)(?: do not commute)? \(norm ([^)]+)\)", msg)
    assert [((int(a), int(b)), (int(c), int(d))) for a, b, c, d, _ in listed] == [
        (p, q) for p, q, _ in want
    ]
    for (*_, norm), (_, _, ref) in zip(listed, want):
        assert abs(float(norm) - ref) <= 0.01 * ref
