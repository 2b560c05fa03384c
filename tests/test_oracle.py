import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commham import lattice, linalg
from commham.lattice import LatticeSpec
from commham.linalg import ZERO_FLOOR, CapExceeded, LabeledOp
from commham.model import (
    CommutingModel,
    NonCommutingError,
    check_commuting,
    gen_ising,
    gen_random,
    gen_rotated_classical,
    gen_signed_toric,
    gen_toric,
)
from commham.oracle import (
    certificate_sum,
    dense_omega,
    ground_dim,
    nearest_count,
    total_overlap,
)
from commham.prover import exhaustive_search
from commham.verifier import Certificate, apply_certificate, compute_omega, prepare
from reference import certificates_lex, embed


def frustrated_signed_toric(spec=None):
    spec = spec or LatticeSpec(4, 4, "periodic")
    plist = lattice.plaquettes(spec)
    blacks = {p: 1 for p in plist if lattice.is_black(p)}
    blacks[(0, 0)] = -1
    whites = {p: 1 for p in plist if not lattice.is_black(p)}
    return gen_signed_toric(spec, black_signs=blacks, white_signs=whites)


def test_all_identity_model():
    spec = LatticeSpec(3, 3)
    m = CommutingModel(spec, {p: np.zeros((16, 16)) for p in lattice.plaquettes(spec)})
    assert abs(total_overlap(m) - 512) < 1e-9
    assert ground_dim(m) == 512


def test_toric_3x3_open_value():
    # 4 independent stabilizers on 9 qubits: 2^(9-4) joint ground states
    m = gen_toric(LatticeSpec(3, 3))
    assert abs(total_overlap(m) - 32) < 1e-9
    assert ground_dim(m) == 32


def test_toric_4x4_periodic_fourfold():
    # 16 stabilizers with two dependencies on 16 qubits: dimension 4
    m = gen_toric(LatticeSpec(4, 4, "periodic"))
    assert abs(total_overlap(m) - 4) < 1e-6
    assert ground_dim(m) == 4


def test_frustrated_signed_toric_zero():
    assert abs(total_overlap(frustrated_signed_toric())) < 1e-8


def test_ferromagnet_dims():
    spec = LatticeSpec(3, 3)
    assert ground_dim(gen_ising(spec, 1.0, 0.0)) == 2
    assert ground_dim(gen_ising(spec, 1.0, 0.2)) == 1


def test_cap_enforced():
    # the kernel's wire bound is the oracle's only size guard: the 6x6
    # torus's plans need 28 open wires, and it is refused before anything
    # is allocated
    m = gen_toric(LatticeSpec(6, 6, "periodic"))
    with pytest.raises(CapExceeded, match="open wires"):
        total_overlap(m)
    with pytest.raises(CapExceeded, match="open wires"):
        ground_dim(m)
    prep = prepare(m)
    zeros = Certificate(dict.fromkeys(prep.f_black, 0), dict.fromkeys(prep.f_white, 0))
    with pytest.raises(CapExceeded, match="open wires"):
        dense_omega(prep, zeros)


def test_wide_torus_refused_at_once():
    m = gen_toric(LatticeSpec(40, 40, "periodic"))
    for f in (total_overlap, ground_dim):
        with pytest.raises(CapExceeded, match="open wires"):
            f(m)


def test_wire_bound_enforced(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_OPEN_WIRES", 3)
    with pytest.raises(CapExceeded):
        total_overlap(gen_toric(LatticeSpec(3, 3)))


def test_ground_dim_equals_total_overlap():
    # the product of all projectors is the product of the two layer
    # products, so both traces agree for commuting models
    for maker in (
        lambda: gen_toric(LatticeSpec(3, 4)),
        lambda: gen_random(LatticeSpec(3, 3), 3, "rotated-classical"),
        lambda: gen_random(LatticeSpec(3, 4), 1, "diagonal-field"),
    ):
        m = maker()
        assert abs(total_overlap(m) - ground_dim(m)) < 1e-6


@pytest.mark.parametrize(
    "spec",
    [
        LatticeSpec(2, 11), LatticeSpec(11, 2), LatticeSpec(4, 5), LatticeSpec(5, 4),
        LatticeSpec(4, 4, "periodic"), LatticeSpec(4, 20), LatticeSpec(5, 40),
    ],
    ids=str,
)
def test_ground_dim_at_cap(spec):
    # an open lattice has 2^(N - #plaquettes) toric ground states, the 4x4
    # torus 4; strips of 80 and 200 qubits stay within the wire bound
    m = gen_toric(spec)
    want = 4 if spec.boundary == "periodic" else 2 ** (m.n_qubits - len(lattice.plaquettes(spec)))
    assert abs(total_overlap(m) - want) < 1e-9 * want
    assert ground_dim(m) == want


def test_wide_strip_layer_trace_only():
    # absorbed one at a time in plaquette order (ground_dim), 20x4 needs 42
    # open wires; the pairwise plan holds 12, so both traces run
    m = gen_toric(LatticeSpec(20, 4))
    want = 2 ** (m.n_qubits - len(lattice.plaquettes(m.spec)))
    assert abs(total_overlap(m) - want) < 1e-9 * want
    assert ground_dim(m) == want


def test_ground_dim_beyond_float64_refused():
    # toric 4x1100 open has 2**1103 ground states, past float64's 2**1024;
    # the kernel refuses the trace rather than return nan, and numpy's
    # overflow warnings on the way there do not surface
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapExceeded, match="float64"):
            ground_dim(gen_toric(LatticeSpec(4, 1100)))


@pytest.mark.parametrize("n", [0, 1, 32, 10**7, 2**30, 2**40])
def test_nearest_count_relative(n):
    # the tolerance grows with the count, but never reaches half a state
    assert nearest_count(n + 1e-7) == n
    assert nearest_count(n + 0.5) is None
    assert nearest_count(n - 0.5) is None


def test_nearest_count_large_trace():
    # the layer trace measured on toric 5x40 open, 2^44 within 1.7e-14
    assert nearest_count(17592186044415.693) == 2**44
    assert nearest_count(10**7 + 2e-6) is None  # small counts keep the absolute test
    assert nearest_count(-1.0) is None


STRIP_MODELS = {
    "toric": gen_toric,
    "rotated-classical": lambda spec: gen_random(spec, 0, "rotated-classical"),
    "diagonal-field": lambda spec: gen_random(spec, 0, "diagonal-field"),
    "ising f=0.3": lambda spec: gen_ising(spec, 1.0, 0.3),
}


@pytest.mark.parametrize(
    "family, spec",
    [("toric", LatticeSpec(3, 8))]
    + [(f, s) for f in list(STRIP_MODELS)[1:] for s in (LatticeSpec(3, 8), LatticeSpec(6, 4))],
    ids=str,
)
def test_strip_completeness_soundness(family, spec):
    # criteria 5 and 6 at N = 24: the search decides as the layer trace and
    # ground_dim do, and a found certificate clears the 2^(-2N) floor
    m = STRIP_MODELS[family](spec)
    result = exhaustive_search(m)
    assert result.found == (total_overlap(m) >= 0.5) == (ground_dim(m) >= 1)
    if result.found:
        assert result.verdict.accept
        assert result.omega.log2_magnitude >= -2 * m.n_qubits - 1e-9


def _rotated_terms(model, units, diag_of):
    """Each term un-rotated to its diagonal, mapped by diag_of(d), rotated back;
    returns the new terms and the argmin bitstring of every plaquette."""
    terms, argmins = {}, {}
    for p, h in model.terms.items():
        u = np.eye(1, dtype=complex)
        for v in lattice.corners(model.spec, p):
            u = np.kron(u, units[v])
        d = diag_of(np.real(np.diag(u.conj().T @ h @ u)))
        terms[p] = u @ np.diag(d.astype(complex)) @ u.conj().T
        argmins[p] = int(np.argmin(d))
    return terms, argmins


def _argmin_reference(spec, argmins):
    """1 iff the plaquettes' argmin bitstrings agree at every shared corner."""
    chosen = {}
    for p, best in argmins.items():
        for i, v in enumerate(lattice.corners(spec, p)):
            if chosen.setdefault(v, (best >> 3 - i) & 1) != (best >> 3 - i) & 1:
                return 0
    return 1


@pytest.mark.parametrize("seed", range(8))
def test_rotated_classical_4x4_ground_dim(seed):
    m, units = gen_rotated_classical(LatticeSpec(4, 4), seed)
    _, argmins = _rotated_terms(m, units, lambda d: d)
    assert ground_dim(m) == _argmin_reference(m.spec, argmins)
    # the same terms with every argmin moved to the all-zeros bitstring
    # agree everywhere: one joint ground state
    terms, argmins = _rotated_terms(m, units, lambda d: np.where(np.arange(16) == 0, d.min() - 1, d))
    aligned = CommutingModel(m.spec, terms)
    assert _argmin_reference(m.spec, argmins) == 1
    assert ground_dim(aligned) == 1
    assert abs(total_overlap(aligned) - 1) < 1e-9


def test_small_ground_gap_model_prepares():
    # every term is diagonal in one rotated product basis, so the model
    # commutes exactly; the term at (20, 1) has a ground gap of 3.1e-7, so
    # rounding moves its projector by about EIGH_RTOL spread / gap and its
    # commutators (9.75e-10) exceed COMMUTATION_TOL |P0| |Q0| alone
    m, units = gen_rotated_classical(LatticeSpec(24, 24), 3005)
    w = np.linalg.eigvalsh(m.terms[(20, 1)])
    assert w[1] - w[0] < 1e-6
    assert linalg.ground_band(m.terms[(20, 1)])[1] > 1e-9
    prep = prepare(m)
    _, argmins = _rotated_terms(m, units, lambda d: d)
    assert _argmin_reference(m.spec, argmins) == 0
    res = compute_omega(prep, Certificate({v: 0 for v in prep.f_black}, {v: 0 for v in prep.f_white}))
    assert res.zero


def test_unresolved_band_edge_gets_no_radius():
    # a non-commuting term whose eigenvalues straddle the band edge
    # (GAP_RTOL spread) by 1e-15: its projector is not determined, so it
    # must get no slack, and prepare must reject the model
    m = gen_toric(LatticeSpec(3, 3))
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    w = np.concatenate([[0.0, 1e-9 - 1e-15, 1e-9 + 1e-15], np.linspace(0.5, 1.0, 13)])
    h = u @ np.diag(w) @ u.conj().T
    proj, radius, *_ = linalg.ground_band((h + h.conj().T) / 2)
    assert abs(np.trace(proj) - 2) < 1e-9
    assert radius == 0.0
    terms = dict(m.terms)
    terms[(1, 1)] = (h + h.conj().T) / 2
    with pytest.raises(NonCommutingError):
        prepare(CommutingModel(m.spec, terms))


def test_dense_omega_specific_values():
    prep = prepare(gen_toric(LatticeSpec(3, 3)))
    for cert in certificates_lex(prep.f_black, prep.f_white):
        assert abs(dense_omega(prep, cert) - 8.0) < 1e-9

    spec = LatticeSpec(3, 3)
    empty = CommutingModel(spec, {p: np.zeros((16, 16)) for p in lattice.plaquettes(spec)})
    assert abs(dense_omega(prepare(empty), Certificate({}, {})) - 512) < 1e-9


def test_certificate_sum_toric():
    total, evaluated = certificate_sum(gen_toric(LatticeSpec(3, 3)))
    assert abs(total - 32.0) < 1e-8
    assert evaluated == 4


def test_certificate_sum_dense_method():
    prep = prepare(gen_toric(LatticeSpec(3, 3)))
    total = sum(dense_omega(prep, cert) for cert in certificates_lex(prep.f_black, prep.f_white))
    assert abs(total - total_overlap(prep.model)) < 1e-8
    assert abs(total - 32.0) < 1e-8


def test_certificate_sum_cap():
    # the 4x4 torus has 32 certificate bits, over the enumeration limit of 24
    with pytest.raises(CapExceeded, match="certificate space"):
        certificate_sum(gen_toric(LatticeSpec(4, 4, "periodic")))


SCAN_MODELS = {
    "toric 3x3 open": lambda: gen_toric(LatticeSpec(3, 3)),
    "toric 4x3 open": lambda: gen_toric(LatticeSpec(4, 3)),
    "toric 4x4 open": lambda: gen_toric(LatticeSpec(4, 4)),
    "signed-toric 4x3 open": lambda: gen_signed_toric(LatticeSpec(4, 3), 1),
    "diagonal-field 4x3": lambda: gen_random(LatticeSpec(4, 3), 1, "diagonal-field"),
    "diagonal-field 4x4": lambda: gen_random(LatticeSpec(4, 4), 2, "diagonal-field"),
    "rotated-classical 4x3": lambda: gen_rotated_classical(LatticeSpec(4, 3), 1)[0],
    "ising 3x3": lambda: gen_ising(LatticeSpec(3, 3), 1.0, 0.0),
    "all-zero terms 3x3": lambda: CommutingModel(
        LatticeSpec(3, 3), {p: np.zeros((16, 16)) for p in lattice.plaquettes(LatticeSpec(3, 3))}
    ),
}


@pytest.mark.parametrize("name", SCAN_MODELS)
def test_certificate_sum_scans_live_certificates(name):
    # the pruned scan against the dict enumeration of the whole space: the
    # same total, bit for bit, and `evaluated` counts the certificates under
    # which every literally sliced plaquette keeps a norm above ZERO_FLOOR
    prep = prepare(SCAN_MODELS[name]())
    total, evaluated = certificate_sum(prep)
    reference, live = 0.0, 0
    for cert in certificates_lex(prep.f_black, prep.f_white):
        res = compute_omega(prep, cert)
        reference += 0.0 if res.zero else 2.0**res.log2_magnitude
        live += all(linalg.frob(op.mat) > ZERO_FLOOR for op in apply_certificate(prep, cert).values())
    assert total == reference
    assert evaluated == live


@pytest.mark.parametrize("seed", range(3))
def test_integrality_random_models(seed):
    for method in ("rotated-classical", "signed-toric", "diagonal-field"):
        spec = (
            LatticeSpec(4, 4, "periodic")
            if method == "signed-toric"
            else LatticeSpec(3, 3)
        )
        val = total_overlap(gen_random(spec, seed, method))
        assert abs(val - round(val)) < 1e-6 and round(val) >= 0


# ---------------------------------------- anchor that builds no projectors


def dense_hamiltonian(m):
    """The full 2**N x 2**N Hamiltonian, summed from the embedded terms."""
    labels = sorted(m.spec.vertices())
    return sum(
        embed(LabeledOp(h, tuple(lattice.corners(m.spec, p))), labels).mat
        for p, h in m.terms.items()
    )


def traceless(m):
    return CommutingModel(m.spec, {p: h - np.trace(h) / 16 * np.eye(16) for p, h in m.terms.items()})


ANCHOR_VARIANTS = {"x1": (1.0, 0.0), "x1e-11": (1e-11, 0.0), "x1e6": (1e6, 0.0), "1e6+1e-4x": (1e-4, 1e6)}


@pytest.mark.parametrize(
    "spec, seed", [(LatticeSpec(3, 3), 0), (LatticeSpec(3, 3), 1), (LatticeSpec(2, 5), 0)], ids=str
)
@pytest.mark.parametrize("family", ["rotated-classical", "diagonal-field", "signed-toric", "haar"])
def test_ground_dim_matches_dense_spectrum(spec, seed, family, haar_conjugated, rescaled):
    """Against the full Hamiltonian's spectrum: frustration-free iff its
    minimum is the sum of the terms' minima, and then ground_dim is the
    multiplicity of that minimum."""
    base = haar_conjugated(gen_toric(spec), seed) if family == "haar" else gen_random(spec, seed, family)
    for name, (scale, shift) in ANCHOR_VARIANTS.items():
        m = rescaled(base, scale, shift)
        if shift and family in ("rotated-classical", "haar"):
            # the shift rounds the dense terms' diagonals by up to 6e-11,
            # about 1e-6 of their traceless parts: the stored terms do not
            # commute within the tolerance, and both checks say so
            assert not check_commuting(m).ok
            with pytest.raises(NonCommutingError):
                ground_dim(m)
            continue
        # the identity shift adds the same constant to both sides, so the
        # energies are compared on the traceless terms, at their scale
        m0 = traceless(m)
        w = np.linalg.eigvalsh(dense_hamiltonian(m0))
        minima = sum(np.linalg.eigvalsh(h)[0] for h in m0.terms.values())
        bound = 1e-9 * sum(np.linalg.norm(h, 2) for h in m0.terms.values())
        frustration_free = abs(w[0] - minima) <= bound
        assert frustration_free or w[0] - minima > 1e3 * bound, name
        want = int(np.sum(w <= w[0] + bound)) if frustration_free else 0
        assert ground_dim(m) == want, name


@settings(max_examples=6, deadline=None)
@given(exponent=st.floats(-14.0, 6.0))
def test_frustrated_torus_rejects_at_every_scale(rescaled, exponent):
    m = rescaled(frustrated_signed_toric(), 10.0**exponent)
    assert not exhaustive_search(m, cap=32).found
    assert ground_dim(m) == 0


@pytest.mark.parametrize(
    "scale, shift", [(1, 0), (1e-9, 0), (1e-11, 0), (1e-14, 0), (1e6, 0), (1e-4, 1e6)]
)
def test_frustrated_torus_rejects(rescaled, scale, shift):
    m = rescaled(frustrated_signed_toric(), scale, shift)
    assert not exhaustive_search(m, cap=32).found
    assert ground_dim(m) == 0
