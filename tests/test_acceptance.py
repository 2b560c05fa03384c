"""Acceptance suite.

Each test prints one PASS/FAIL line.  The model suite spans every
generator family; small instances (N <= 12) get full certificate-space
treatment, the N = 16 instances exercise the sparse oracle path.
"""
import math
import time

import numpy as np
import pytest

from commham import lattice
from commham.lattice import BLACK, WHITE, LatticeSpec
from commham.model import (
    CommutingModel,
    gen_ising,
    gen_random,
    gen_signed_toric,
    gen_toric,
)
from commham.oracle import certificate_sum, dense_omega, total_overlap
from commham.prover import exhaustive_search, greedy_search
from commham.verifier import (
    Certificate,
    DegreeViolation,
    EffectiveState,
    apply_certificate,
    build_overlap_graph,
    compute_omega,
    effective_states,
    prepare,
    verify,
)
from reference import certificates_lex


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({name}) {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _all_sides_ising(spec: LatticeSpec) -> CommutingModel:
    signs = 1 - 2 * ((np.arange(16)[:, None] >> np.arange(3, -1, -1)[None, :]) & 1)
    diag = -(
        signs[:, 0] * signs[:, 1]
        + signs[:, 1] * signs[:, 2]
        + signs[:, 2] * signs[:, 3]
        + signs[:, 3] * signs[:, 0]
    )
    term = np.diag(diag.astype(complex))
    return CommutingModel(spec, {p: term for p in lattice.plaquettes(spec)})


def _black_only_toric(spec: LatticeSpec) -> CommutingModel:
    from commham.linalg import PAULI_Z

    z4 = PAULI_Z
    for _ in range(3):
        z4 = np.kron(z4, PAULI_Z)
    terms = {
        p: (-z4 if lattice.is_black(p) else np.zeros((16, 16)))
        for p in lattice.plaquettes(spec)
    }
    return CommutingModel(spec, terms)


def _frustrated_signed_toric() -> CommutingModel:
    spec = LatticeSpec(4, 4, "periodic")
    plist = lattice.plaquettes(spec)
    blacks = {p: 1 for p in plist if lattice.is_black(p)}
    blacks[(0, 0)] = -1
    whites = {p: 1 for p in plist if not lattice.is_black(p)}
    return gen_signed_toric(spec, black_signs=blacks, white_signs=whites)


def _build_suite() -> dict[str, CommutingModel]:
    suite: dict[str, CommutingModel] = {}
    for lx, ly in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)]:
        suite[f"toric-{lx}x{ly}-open"] = gen_toric(LatticeSpec(lx, ly))
    suite["toric-4x4-periodic"] = gen_toric(LatticeSpec(4, 4, "periodic"))
    for f in (0.0, 0.3):
        for lx, ly in [(3, 3), (3, 4)]:
            suite[f"ising-{lx}x{ly}-f{f}"] = gen_ising(LatticeSpec(lx, ly), 1.0, f)
    for seed in range(6):
        suite[f"diagonal-field-3x3-s{seed}"] = gen_random(
            LatticeSpec(3, 3), seed, "diagonal-field"
        )
    for seed in range(2):
        suite[f"diagonal-field-3x4-s{seed}"] = gen_random(
            LatticeSpec(3, 4), seed, "diagonal-field"
        )
    for seed in range(8):
        suite[f"rotated-3x3-s{seed}"] = gen_random(
            LatticeSpec(3, 3), seed, "rotated-classical"
        )
    for seed in range(2):
        suite[f"rotated-3x4-s{seed}"] = gen_random(
            LatticeSpec(3, 4), seed, "rotated-classical"
        )
    for seed in range(2):
        suite[f"rotated-4x3-s{seed}"] = gen_random(
            LatticeSpec(4, 3), seed, "rotated-classical"
        )
    for seed in range(2):
        suite[f"diagonal-field-4x3-s{seed}"] = gen_random(
            LatticeSpec(4, 3), seed, "diagonal-field"
        )
    for seed in range(8):
        suite[f"signed-4x4-periodic-s{seed}"] = gen_random(
            LatticeSpec(4, 4, "periodic"), seed, "signed-toric"
        )
    for seed in range(6):
        suite[f"signed-3x3-open-s{seed}"] = gen_random(
            LatticeSpec(3, 3), seed, "signed-toric"
        )
    spec33 = LatticeSpec(3, 3)
    suite["identity-3x3"] = CommutingModel(
        spec33, {p: np.zeros((16, 16)) for p in lattice.plaquettes(spec33)}
    )
    suite["black-only-toric-3x3"] = _black_only_toric(spec33)
    suite["all-sides-ising-3x3"] = _all_sides_ising(spec33)
    suite["frustrated-signed-4x4"] = _frustrated_signed_toric()
    # a zeroed term breaks a ring of effective states into an open chain
    for drop in [(1, 0), (0, 1)]:
        m = gen_toric(LatticeSpec(3, 4))
        terms = dict(m.terms)
        terms[drop] = np.zeros((16, 16))
        suite[f"thinned-toric-3x4-{drop[0]}{drop[1]}"] = CommutingModel(m.spec, terms)
    return suite


@pytest.fixture(scope="module")
def suite() -> dict[str, CommutingModel]:
    return _build_suite()


@pytest.fixture(scope="module")
def small_names(suite) -> list[str]:
    return [name for name, m in suite.items() if m.n_qubits <= 12]


@pytest.fixture(scope="module")
def prepared(suite, small_names) -> dict:
    return {name: prepare(suite[name]) for name in small_names}


@pytest.fixture(scope="module")
def overlap_values(suite) -> dict[str, float]:
    return {name: total_overlap(m) for name, m in suite.items()}


def _linear(prep, cert) -> float:
    res = compute_omega(prep, cert)
    return 0.0 if res.zero else 2.0**res.log2_magnitude


def test_criterion_1_toric_certificate():
    model = gen_toric(LatticeSpec(4, 4, "periodic"))
    verify(gen_toric(LatticeSpec(2, 2)), Certificate({}, {}))  # warm the kernels
    t0 = time.perf_counter()
    prep = prepare(model)
    cert = Certificate({v: 0 for v in prep.f_black}, {v: 0 for v in prep.f_white})
    verdict = verify(prep, cert)
    elapsed = time.perf_counter() - t0
    ok = (
        verdict.accept
        and abs(verdict.omega.log2_magnitude - (-16.0)) <= 1e-10
        and elapsed < 1.0
    )
    _report(
        1,
        "toric certificate",
        ok,
        f"log2_omega={verdict.omega.log2_magnitude:.14f} time={elapsed:.3f}s",
    )


def test_criterion_2_integrality(suite, overlap_values):
    assert len(suite) >= 50
    worst = 0.0
    for name, val in overlap_values.items():
        err = abs(val - round(val))
        worst = max(worst, err)
        if err > 1e-6 or round(val) < 0:
            _report(2, "integrality", False, f"{name}: {val!r}")
    _report(
        2,
        "integrality",
        True,
        f"{len(overlap_values)} models, worst deviation {worst:.2e}",
    )


def test_criterion_3_sum_identity(prepared, overlap_values, small_names):
    names = [
        n
        for n in small_names
        if 2 ** (len(prepared[n].f_black) + len(prepared[n].f_white)) <= 2**20
    ]
    assert len(names) >= 20
    worst = 0.0
    for name in names:
        total, _ = certificate_sum(prepared[name])
        err = abs(total - overlap_values[name])
        worst = max(worst, err)
        if err > 1e-8:
            _report(3, "sum identity", False, f"{name}: sum={total!r} trace={overlap_values[name]!r}")
    _report(3, "sum identity", True, f"{len(names)} models, worst gap {worst:.2e}")


def _criterion4_pairs(prepared, small_names):
    rng = np.random.default_rng(2024)
    for name in small_names:
        prep = prepared[name]
        certs = list(certificates_lex(prep.f_black, prep.f_white))
        if len(certs) > 64:
            certs = [certs[int(i)] for i in rng.choice(len(certs), 8, replace=False)]
        for cert in certs:
            yield name, prep, cert


def test_criterion_4_chain_vs_dense(prepared, small_names):
    pairs = 0
    worst = 0.0
    for name, prep, cert in _criterion4_pairs(prepared, small_names):
        chain = _linear(prep, cert)
        dense = dense_omega(prep, cert)
        err = abs(chain - dense)
        bound = 1e-9 * max(1.0, dense)
        worst = max(worst, err / bound)
        pairs += 1
        if err > bound:
            _report(4, "chain vs dense", False, f"{name}: chain={chain!r} dense={dense!r}")
    _report(4, "chain vs dense", True, f"{pairs} pairs, worst err/bound {worst:.2e}")


def test_criterion_5_completeness_soundness(suite, prepared, overlap_values, small_names):
    checked = 0
    for name in small_names:
        result = exhaustive_search(prepared[name])
        expected = overlap_values[name] >= 0.5
        if result.found != expected:
            _report(5, "completeness and soundness", False, f"{name}")
        if result.found and not result.verdict.accept:
            _report(5, "completeness and soundness", False, f"{name}: found but rejected")
        checked += 1
    # the frustrated reject instance sits outside the N <= 12 set
    frustrated = suite["frustrated-signed-4x4"]
    assert overlap_values["frustrated-signed-4x4"] == 0.0
    result = exhaustive_search(frustrated, cap=32)
    if result.found:
        _report(5, "completeness and soundness", False, "frustrated instance accepted")
    checked += 1
    ferro = prepared["ising-3x3-f0.0"]
    if not exhaustive_search(ferro).found:
        _report(5, "completeness and soundness", False, "ferromagnet not found")
    _report(5, "completeness and soundness", True, f"{checked} instances")


def test_criterion_6_pigeonhole_floor(prepared, overlap_values, small_names):
    checked = 0
    for name in small_names:
        if overlap_values[name] < 1.0:
            continue
        result = exhaustive_search(prepared[name])
        n = prepared[name].model.n_qubits
        floor = -2.0 * n - 1e-9
        if not result.found or result.omega.log2_magnitude < floor:
            got = result.omega.log2_magnitude if result.found else None
            _report(6, "pigeonhole floor", False, f"{name}: log2={got} floor={-2*n}")
        checked += 1
    _report(6, "pigeonhole floor", True, f"{checked} instances with trace >= 1")


def test_criterion_7_degree_bound(prepared, small_names):
    max_seen = 0
    for name, prep, cert in _criterion4_pairs(prepared, small_names):
        sliced = apply_certificate(prep, cert)
        if any(np.linalg.norm(op.mat) <= 1e-12 for op in sliced.values()):
            continue
        blacks, whites, _ = effective_states(prep, cert)
        graph = build_overlap_graph(blacks, whites)  # raises on degree > 2
        max_seen = max(max_seen, graph.max_degree)
    # hand-built branching pattern must be rejected
    center = EffectiveState((1, 1), BLACK, ("a", "b", "c"), np.eye(8, dtype=complex) / 8)
    arms = [
        EffectiveState((1, 0), WHITE, ("a", "x"), np.eye(4, dtype=complex) / 4),
        EffectiveState((0, 1), WHITE, ("b", "y"), np.eye(4, dtype=complex) / 4),
        EffectiveState((2, 1), WHITE, ("c", "z"), np.eye(4, dtype=complex) / 4),
    ]
    raised = False
    try:
        build_overlap_graph([center], arms)
    except DegreeViolation:
        raised = True
    _report(7, "degree bound", max_seen <= 2 and raised, f"max degree {max_seen}, branching raises {raised}")


def test_criterion_8_scale_20x20():
    model = gen_toric(LatticeSpec(20, 20))
    search = greedy_search(model, seed=0, restarts=1)
    assert search.found
    cert = search.certificate
    verify(gen_toric(LatticeSpec(2, 2)), Certificate({}, {}))  # warm the kernels
    t0 = time.perf_counter()
    verdict = verify(model, cert)
    elapsed = time.perf_counter() - t0
    log2 = verdict.omega.log2_magnitude
    ok = verdict.accept and elapsed < 1.0 and math.isfinite(log2)
    _report(8, "scale 20x20", ok, f"time={elapsed:.3f}s log2_omega={log2:.6g}")
