"""Certificate search: exhaustive enumeration and a greedy hill climber.

Both searches only propose; every certificate handed back has been
re-checked by the verifier.  Exhaustive search prunes layer by layer: a
slice assignment that annihilates some plaquette projector of its own
color kills every certificate extending it, so surviving black and white
assignments are enumerated independently before being paired.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .linalg import CapExceeded
from .model import CommutingModel
from .verifier import (
    Certificate,
    OmegaResult,
    PreparedModel,
    Verdict,
    ZERO_FLOOR,
    _as_prepared,
    compute_omega,
    log2_exceeds,
    verify,
)


@dataclass
class SearchResult:
    found: bool
    certificate: Certificate | None = None
    omega: OmegaResult | None = None
    verdict: Verdict | None = None
    evaluated: int = 0


def _surviving_assignments(prep: PreparedModel, color: str) -> list[dict]:
    """Lexicographic scan of one layer's assignments, dropping any whose
    local bits annihilate some plaquette of that color."""
    f_sorted = sorted(prep.f_black if color == lattice.BLACK else prep.f_white)
    pos = {v: i for i, v in enumerate(f_sorted)}
    n = len(f_sorted)
    compiled = []
    for p in lattice.plaquettes(prep.model.spec):
        if lattice.plaquette_color(p) != color:
            continue
        table = prep.table(p)
        # big-endian local patterns whose sliced projector vanishes
        dead = {i for i, norm in enumerate(table.norms.ravel()) if norm <= ZERO_FLOOR}
        if dead:
            compiled.append(([pos[v] for v in table.own_split], dead))
    out = []
    for a in range(1 << n):
        ok = True
        for idxs, dead in compiled:
            bits = 0
            for i in idxs:
                bits = (bits << 1) | ((a >> (n - 1 - i)) & 1)
            if bits in dead:
                ok = False
                break
        if ok:
            out.append({v: (a >> (n - 1 - i)) & 1 for i, v in enumerate(f_sorted)})
    return out


def exhaustive_search(
    m: CommutingModel | PreparedModel,
    threshold: float | None = None,
    cap: int = 26,
) -> SearchResult:
    """Scan the whole certificate space and return the largest-value
    certificate (lexicographically first on ties), or not-found when every
    certificate evaluates to zero."""
    prep = _as_prepared(m)
    bits = len(prep.f_black) + len(prep.f_white)
    if bits > cap:
        raise CapExceeded(
            f"certificate space 2**{bits} exceeds the cap 2**{cap}; raise `cap` to force the scan"
        )
    alphas = _surviving_assignments(prep, lattice.BLACK)
    betas = _surviving_assignments(prep, lattice.WHITE)
    best: tuple[float, Certificate, OmegaResult] | None = None
    evaluated = 0
    for alpha in alphas:
        for beta in betas:
            cert = Certificate(dict(alpha), dict(beta))
            res = compute_omega(prep, cert)
            evaluated += 1
            if res.zero:
                continue
            if best is None or log2_exceeds(res.log2_magnitude, best[0]):
                best = (res.log2_magnitude, cert, res)
    if best is None:
        return SearchResult(False, evaluated=evaluated)
    _, cert, res = best
    verdict = verify(prep, cert, threshold)
    return SearchResult(True, cert, res, verdict, evaluated)


def _score(res: OmegaResult) -> tuple[float, int]:
    nonzero = sum(1 for f in res.factors if f.value is None or f.value > ZERO_FLOOR)
    log2 = -math.inf if res.zero else res.log2_magnitude
    return (log2, nonzero)


def _improves(cand: tuple[float, int], score: tuple[float, int]) -> bool:
    """A larger log2 beyond the tie tolerance, or a log2 tie with more
    non-vanishing factors."""
    if log2_exceeds(cand[0], score[0]):
        return True
    return not log2_exceeds(score[0], cand[0]) and cand[1] > score[1]


# the score of a certificate that annihilates some plaquette, which is what
# compute_omega's first stage returns for it
_ANNIHILATED = (-math.inf, 0)


def _slots(prep: PreparedModel) -> list[tuple[str, object]]:
    """Greedy's label slots: black split vertices, then white, each sorted."""
    return [("a", v) for v in sorted(prep.f_black)] + [("b", v) for v in sorted(prep.f_white)]


def _certificate(slots, bits: np.ndarray) -> Certificate:
    alpha = {v: int(bits[i]) for i, (layer, v) in enumerate(slots) if layer == "a"}
    beta = {v: int(bits[i]) for i, (layer, v) in enumerate(slots) if layer == "b"}
    return Certificate(alpha, beta)


def _flip_index(prep: PreparedModel, slots):
    """Per plaquette, its table and the slots of its own-split corners; per
    slot, the (at most two) plaquettes whose local pattern it changes."""
    slot_of = {s: i for i, s in enumerate(slots)}
    local = {}
    touches: list[list] = [[] for _ in slots]
    for p in lattice.plaquettes(prep.model.spec):
        table = prep.table(p)
        layer = "a" if table.color == lattice.BLACK else "b"
        idx = [slot_of[(layer, v)] for v in table.own_split]
        local[p] = (table, idx)
        for i in idx:
            touches[i].append(p)
    return local, touches


def _annihilated(entry, bits: np.ndarray) -> bool:
    table, idx = entry
    return table.norms[tuple(int(bits[i]) for i in idx)] <= ZERO_FLOOR


def _dead_after_flip(local, touches, dead: set, bits: np.ndarray, i: int) -> set:
    """The annihilated plaquettes once bits[i] has been flipped, given the
    set before the flip; only the plaquettes slot i touches can change."""
    out = dead.difference(touches[i])
    out.update(p for p in touches[i] if _annihilated(local[p], bits))
    return out


def _evaluate(prep: PreparedModel, slots, bits: np.ndarray, dead: set):
    """Score and result of the labelling; no compute_omega call when some
    plaquette is annihilated."""
    if dead:
        return _ANNIHILATED, None
    res = compute_omega(prep, _certificate(slots, bits))
    return _score(res), res


def greedy_search(
    m: CommutingModel | PreparedModel,
    seed: int = 0,
    restarts: int = 8,
    threshold: float | None = None,
) -> SearchResult:
    """Single-label hill climbing on the factorized objective.

    The objective is log2 of the certificate value with zeros at -inf,
    tie-broken by the number of non-vanishing factors; a candidate must beat
    the current score, so the first certificate found wins a tie.  Restart 0
    starts from the all-zeros labelling, later restarts from seeded random
    labels; the result is deterministic given the seed and is re-verified
    before being returned.

    A flip changes the local slice pattern of at most the two same-color
    plaquettes whose own-split corners hold the flipped vertex, so each
    restart keeps the set of annihilated plaquettes and updates it from
    their tables; compute_omega runs only for candidates that annihilate
    none.
    """
    prep = _as_prepared(m)
    slots = _slots(prep)
    local, touches = _flip_index(prep, slots)
    rng = np.random.default_rng(seed)
    evaluated = 0

    for restart in range(max(1, restarts)):
        bits = (
            np.zeros(len(slots), dtype=int)
            if restart == 0
            else rng.integers(0, 2, len(slots))
        )
        dead = {p for p, entry in local.items() if _annihilated(entry, bits)}
        score, res = _evaluate(prep, slots, bits, dead)
        evaluated += 1
        improved = True
        while improved and slots:
            improved = False
            for i in rng.permutation(len(slots)):
                bits[i] ^= 1
                cand_dead = _dead_after_flip(local, touches, dead, bits, i)
                cand_score, cand = _evaluate(prep, slots, bits, cand_dead)
                evaluated += 1
                if _improves(cand_score, score):
                    score, res, dead = cand_score, cand, cand_dead
                    improved = True
                else:
                    bits[i] ^= 1
        if res is not None and not res.zero:
            cert = _certificate(slots, bits)
            verdict = verify(prep, cert, threshold)
            if verdict.accept:
                return SearchResult(True, cert, res, verdict, evaluated)
    return SearchResult(False, evaluated=evaluated)
