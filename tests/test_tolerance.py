"""Verdicts do not depend on units or on local bases.

Every threshold on the input terms is relative to a norm of the terms, so
multiplying the whole Hamiltonian by c > 0 changes no decision, and
conjugating every term by one local unitary per qubit only relabels the
slices.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commham.lattice import LatticeSpec
from commham.model import CommutingModel, gen_ising, gen_random, gen_toric
from commham.prover import exhaustive_search
from commham.verifier import Certificate, compute_omega, prepare, verify
from reference import certificates_lex

OPEN_4x4 = LatticeSpec(4, 4)
FAMILIES = ["toric", "ising", "rotated-classical", "signed-toric", "diagonal-field"]


def family_model(family: str, seed: int) -> CommutingModel:
    if family == "toric":
        return gen_toric(OPEN_4x4)
    if family == "ising":
        return gen_ising(OPEN_4x4, 1.0, 0.1 * seed)
    return gen_random(OPEN_4x4, seed, family)


def zeros_verdict(m: CommutingModel) -> tuple[bool, float]:
    prep = prepare(m)
    cert = Certificate({v: 0 for v in prep.f_black}, {v: 0 for v in prep.f_white})
    v = verify(prep, cert)
    return v.accept, v.omega.log2_magnitude


def best_log2(m: CommutingModel) -> float | None:
    res = exhaustive_search(m)
    return res.omega.log2_magnitude if res.found else None


def value_table(m: CommutingModel) -> list[tuple[bool, float]]:
    """(zero, log2 Omega) of every certificate, sorted."""
    prep = prepare(m)
    table = []
    for cert in certificates_lex(prep.f_black, prep.f_white):
        res = compute_omega(prep, cert)
        table.append((res.zero, 0.0 if res.zero else res.log2_magnitude))
    return sorted(table)


def assert_same_log2(a, b):
    if a is None or b is None or np.isinf(a) or np.isinf(b):
        assert a == b
    else:
        assert abs(a - b) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 5), exponent=st.floats(-14.0, 6.0))
def test_verdicts_invariant_under_rescaling(rescaled, family, seed, exponent):
    m = family_model(family, seed)
    c = 10.0**exponent
    (accept, log2), (accept_c, log2_c) = zeros_verdict(m), zeros_verdict(rescaled(m, c))
    assert accept == accept_c
    assert_same_log2(log2, log2_c)
    assert_same_log2(best_log2(m), best_log2(rescaled(m, c)))


@settings(max_examples=15, deadline=None)
@given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 5), useed=st.integers(0, 2**16))
def test_verdicts_invariant_under_local_unitaries(haar_conjugated, family, seed, useed):
    # conjugation relabels slices, so the all-zeros certificate of one model
    # is some other certificate of the other: compare the whole value table
    m = family_model(family, seed)
    u = haar_conjugated(m, useed)
    assert_same_log2(best_log2(m), best_log2(u))
    values, values_u = value_table(m), value_table(u)
    assert [z for z, _ in values] == [z for z, _ in values_u]
    assert np.allclose([v for z, v in values if not z], [v for z, v in values_u if not z], atol=1e-10)


@pytest.mark.parametrize("scale", [1, 1e-12])
def test_toric_3x3_best_value(rescaled, scale):
    # a ground band of absolute width would hold every eigenvalue at scale
    # 1e-12, make every projector the identity and read log2 Omega 9
    res = exhaustive_search(rescaled(gen_toric(LatticeSpec(3, 3)), scale))
    assert res.found
    assert abs(res.omega.log2_magnitude - 3.0) <= 1e-12
