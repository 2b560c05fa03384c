import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commham import lattice, prover
from commham.lattice import LatticeSpec
from commham.linalg import CapExceeded
from commham.model import CommutingModel, gen_ising, gen_random, gen_signed_toric, gen_toric
from commham.oracle import dense_omega, total_overlap
from commham.prover import exhaustive_search, greedy_search
from commham.verifier import ZERO_FLOOR, Certificate, compute_omega, prepare, verify
from reference import certificates_lex, own_and_other_only_model


def frustrated_signed_toric():
    spec = LatticeSpec(4, 4, "periodic")
    plist = lattice.plaquettes(spec)
    blacks = {p: 1 for p in plist if lattice.is_black(p)}
    blacks[(2, 0)] = -1
    whites = {p: 1 for p in plist if not lattice.is_black(p)}
    return gen_signed_toric(spec, black_signs=blacks, white_signs=whites)


def frustrated_torus_8x8(seed):
    """8x8 stabilizer torus with the sign of one seeded black term flipped."""
    spec = LatticeSpec(8, 8, "periodic")
    plist = lattice.plaquettes(spec)
    blacks = [p for p in plist if lattice.is_black(p)]
    bad = blacks[int(np.random.default_rng(seed).integers(len(blacks)))]
    return gen_signed_toric(
        spec,
        black_signs={p: (-1 if p == bad else 1) for p in blacks},
        white_signs={p: 1 for p in plist if not lattice.is_black(p)},
    )


def test_exhaustive_toric_accepts():
    prep = prepare(gen_toric(LatticeSpec(3, 3)))
    r = exhaustive_search(prep)
    assert r.found and r.verdict.accept
    assert verify(prep, r.certificate).accept
    # the returned value is the true maximum over the full space
    assert abs(2.0**r.omega.log2_magnitude - dense_omega(prep, r.certificate)) < 1e-9
    # all four certificates tie here, so the lexicographically first wins
    assert r.certificate.alpha == {(1, 1): 0}
    assert r.certificate.beta == {(1, 1): 0}


def test_exhaustive_returns_maximum():
    prep = prepare(gen_ising(LatticeSpec(3, 3), 1.0, 0.0))
    r = exhaustive_search(prep)
    assert r.found
    best = max(
        (
            0.0
            if compute_omega(prep, c).zero
            else 2.0 ** compute_omega(prep, c).log2_magnitude
        )
        for c in certificates_lex(prep.f_black, prep.f_white)
    )
    assert abs(2.0**r.omega.log2_magnitude - best) < 1e-12


def test_exhaustive_frustrated_not_found():
    prep = prepare(frustrated_signed_toric())
    r = exhaustive_search(prep, cap=32)
    assert not r.found
    assert r.evaluated == 0  # pruned away before pairing the layers


def test_exhaustive_cap():
    with pytest.raises(CapExceeded):
        exhaustive_search(frustrated_signed_toric())  # default cap 26 < 32


def test_exhaustive_ferromagnet_classical_config():
    prep = prepare(gen_ising(LatticeSpec(3, 3), 1.0, 0.0))
    r = exhaustive_search(prep)
    assert r.found and r.verdict.accept
    # with the center slice bases being |0>,|1>, the best certificates are
    # the two aligned classical configurations
    assert abs(2.0**r.omega.log2_magnitude - 1.0) < 1e-10


def test_greedy_toric_8x8_periodic():
    r = greedy_search(gen_toric(LatticeSpec(8, 8, "periodic")), seed=0)
    assert r.found and r.verdict.accept
    assert abs(r.omega.log2_magnitude - (-64.0)) < 1e-9


def test_greedy_frustrated_not_found():
    r = greedy_search(frustrated_signed_toric(), seed=1, restarts=3)
    assert not r.found


@pytest.mark.parametrize("restarts", [0, -3])
def test_greedy_rejects_fewer_than_one_restart(restarts):
    with pytest.raises(ValueError, match="restarts"):
        greedy_search(gen_toric(LatticeSpec(3, 3)), restarts=restarts)


def test_greedy_periodic_ferromagnet():
    from commham.oracle import ground_dim

    spec = LatticeSpec(4, 4, "periodic")
    for f, dim in [(0.0, 2), (0.25, 1)]:
        m = gen_ising(spec, 1.0, f)
        assert ground_dim(m) == dim
        r = greedy_search(m, seed=0, restarts=4)
        assert r.found and r.verdict.accept
        assert abs(r.omega.log2_magnitude) < 1e-9  # a classical config: omega 1


def test_greedy_empty_certificate_immediate():
    spec = LatticeSpec(3, 3)
    m = CommutingModel(spec, {p: np.zeros((16, 16)) for p in lattice.plaquettes(spec)})
    r = greedy_search(m, seed=0)
    assert r.found
    assert r.certificate.alpha == {} and r.certificate.beta == {}
    assert r.evaluated == 1


def test_greedy_deterministic():
    m = gen_ising(LatticeSpec(3, 4), 1.0, 0.0)
    r1 = greedy_search(m, seed=9)
    r2 = greedy_search(m, seed=9)
    assert r1.found == r2.found
    assert r1.certificate.alpha == r2.certificate.alpha
    assert r1.certificate.beta == r2.certificate.beta


@pytest.mark.parametrize("seed", range(4))
def test_search_agrees_with_oracle(seed):
    from commham.model import gen_random

    m = gen_random(LatticeSpec(3, 3), seed, "rotated-classical")
    prep = prepare(m)
    found = exhaustive_search(prep).found
    assert found == (total_overlap(m) > 0.5)


@pytest.mark.parametrize("seed", range(5))
def test_exhaustive_tie_returns_lexicographically_first(seed, haar_conjugated):
    # every honest certificate of a conjugated toric code has value 1, up to
    # rounding; the documented winner is the first one in scan order
    prep = prepare(haar_conjugated(gen_toric(LatticeSpec(4, 4)), seed))
    scan = []
    for cert in certificates_lex(prep.f_black, prep.f_white):
        res = compute_omega(prep, cert)
        scan.append((cert, -math.inf if res.zero else res.log2_magnitude))
    best = max(v for _, v in scan)
    assert math.isfinite(best)
    first = next(c for c, v in scan if abs(v - best) <= 1e-9)
    r = exhaustive_search(prep)
    assert r.found
    assert r.certificate == first


def test_greedy_evaluation_counts():
    # flips that annihilate a plaquette skip compute_omega but still count
    r = greedy_search(gen_toric(LatticeSpec(12, 12)), seed=1, restarts=1)
    assert r.found and r.evaluated == 201
    for seed in (1, 2, 3):
        r = greedy_search(frustrated_torus_8x8(seed), seed=seed, restarts=4)
        assert not r.found and r.evaluated == 516


def test_greedy_trajectories_off_the_toric_family():
    # the random 4x4 models are frustrated: on rotated-classical seed 0
    # every candidate annihilates a plaquette, and on diagonal-field seed 26
    # (the first seed whose search leaves its starts) one does not; the
    # hand-built model has an own-split and an other-only corner on (1, 1)
    r = greedy_search(gen_random(LatticeSpec(4, 4), 0, "rotated-classical"), seed=0)
    assert (r.found, r.evaluated) == (False, 72)
    r = greedy_search(gen_random(LatticeSpec(4, 4), 26, "diagonal-field"), seed=0, restarts=3)
    assert (r.found, r.evaluated) == (False, 35)
    r = greedy_search(own_and_other_only_model(), seed=0)
    assert (r.found, r.evaluated) == (True, 3)
    assert r.certificate == Certificate({(1, 1): 0}, {(2, 1): 0})
    assert r.omega.log2_magnitude == 10.0 and r.verdict.accept


@functools.lru_cache(maxsize=None)
def _prepared_random(method, seed):
    if method == "toric":
        return prepare(gen_toric(LatticeSpec(4, 4)))
    spec = LatticeSpec(4, 4, "periodic") if method == "signed-toric" else LatticeSpec(4, 4)
    return prepare(gen_random(spec, seed, method))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["toric", "rotated-classical", "diagonal-field", "signed-toric"]),
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=25),
)
def test_greedy_annihilated_set_tracks_flips(method, seed, start, flips):
    # greedy's score after each flip against compute_omega's, and the
    # annihilated plaquettes against its zero factors; starts are all-zeros
    # (greedy's first restart) or random labels
    prep = _prepared_random(method, seed)
    n = len(prep.f_black) + len(prep.f_white)
    assume(n)
    c = prep.compiled()
    bx = np.zeros(n + 1, dtype=np.intp)
    if start is not None:
        bx[:n] = np.random.default_rng(start).integers(0, 2, n)
    for f in flips:
        bx[f % n] ^= 1
        res = compute_omega(prep, prover._certificate(prep, bx[:n]))
        score, _ = prover._evaluate(prep, c, bx)
        assert score == prover._score(res)
        assert res.nonzero == sum(1 for f in res.factors if f.value is None or f.value > ZERO_FLOOR)
        dead = c.annihilated(bx)
        if dead.any():
            assert sorted((c.plaquettes[j],) for j in np.flatnonzero(dead)) == [f.key for f in res.factors]
