"""Certificate search: exhaustive enumeration and a greedy hill climber.

Both searches only propose; every certificate handed back has been
re-checked by the verifier.  Both evaluate label vectors through the
compiled model.  Exhaustive search prunes layer by layer: a slice
assignment that annihilates some plaquette projector of its own color
kills every certificate extending it, so surviving black and white
assignments are enumerated independently before being paired.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import CapExceeded
from .model import CommutingModel
from .verifier import (
    Certificate,
    CompiledModel,
    OmegaResult,
    PreparedModel,
    Verdict,
    _as_prepared,
    compute_omega,
    log2_exceeds,
    verify,
)


_CHUNK = 4096  # label rows per step of the layer scan


@dataclass
class SearchResult:
    found: bool
    certificate: Certificate | None = None
    omega: OmegaResult | None = None
    verdict: Verdict | None = None
    evaluated: int = 0


def _surviving(c: CompiledModel, lo: int, hi: int, n: int, rows: range) -> np.ndarray:
    """The 0/1 label rows of slots lo..hi-1 in lexicographic order, dropping
    any that annihilates one of the plaquettes `rows`; n is the slot count."""
    k = hi - lo
    out = []
    for start in range(0, 1 << k, _CHUNK):
        a = np.arange(start, min(start + _CHUNK, 1 << k))
        bits = (a[:, None] >> np.arange(k - 1, -1, -1)) & 1
        bx = np.zeros((len(a), n + 1), dtype=np.intp)
        bx[:, lo:hi] = bits
        out.append(bits[~c.annihilated(bx, rows).any(axis=1)])
    return np.concatenate(out)


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
    c, nb = prep.compiled(), len(prep.f_black)
    alphas = _surviving(c, 0, nb, bits, range(c.n_black))
    betas = _surviving(c, nb, bits, bits, range(c.n_black, len(c.plaquettes)))
    best: tuple[float, np.ndarray, OmegaResult] | None = None
    evaluated = 0
    for alpha in alphas:
        for beta in betas:
            labels = np.concatenate([alpha, beta])
            res = compute_omega(prep, labels)
            evaluated += 1
            if res.zero:
                continue
            if best is None or log2_exceeds(res.log2_magnitude, best[0]):
                best = (res.log2_magnitude, labels, res)
    if best is None:
        return SearchResult(False, evaluated=evaluated)
    _, labels, res = best
    cert = _certificate(prep, labels)
    verdict = verify(prep, cert, threshold)
    return SearchResult(True, cert, res, verdict, evaluated)


def _score(res: OmegaResult) -> tuple[float, int]:
    return (-math.inf if res.zero else res.log2_magnitude, res.nonzero)


def _improves(cand: tuple[float, int], score: tuple[float, int]) -> bool:
    """A larger log2 beyond the tie tolerance, or a log2 tie with more
    non-vanishing factors."""
    if log2_exceeds(cand[0], score[0]):
        return True
    return not log2_exceeds(score[0], cand[0]) and cand[1] > score[1]


# the score of a certificate that annihilates some plaquette, which is what
# compute_omega's first stage returns for it
_ANNIHILATED = (-math.inf, 0)


def _certificate(prep: PreparedModel, labels: np.ndarray) -> Certificate:
    black, white = prep.label_order
    bits = labels.tolist()
    return Certificate(dict(zip(black, bits)), dict(zip(white, bits[len(black) :])))


def _touches(c: CompiledModel, n: int) -> list[np.ndarray]:
    """Per label slot, the (at most two) plaquettes whose local pattern it
    changes."""
    slots = c.own_slots.ravel()
    by_slot = np.argsort(slots, kind="stable")  # rows ascending within a slot
    return np.split(by_slot // 4, np.searchsorted(slots[by_slot], np.arange(1, n + 1)))[:n]


def _dead_after_flip(c: CompiledModel, touches, dead: np.ndarray, bx: np.ndarray, i: int) -> np.ndarray:
    """The annihilated-plaquette mask once bx[i] has been flipped, given the
    mask before; only the plaquettes slot i touches can change."""
    out = dead.copy()
    out[touches[i]] = c.annihilated(bx, touches[i])
    return out


def _evaluate(prep: PreparedModel, bx: np.ndarray, dead: np.ndarray):
    """Score and result of the padded labels; no compute_omega call when
    some plaquette is annihilated."""
    if dead.any():
        return _ANNIHILATED, None
    res = compute_omega(prep, bx[:-1])
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
    labels, `restarts` (at least 1, else ValueError) in all; the result is
    deterministic given the seed and is re-verified before being returned.

    Labels are one 0/1 vector in `label_order`, padded as the compiled
    model reads it.  A flip changes the local slice pattern of at most the
    two same-color plaquettes whose own-split corners hold the flipped
    vertex, so each restart keeps the mask of annihilated plaquettes and
    re-reads only those two; compute_omega runs only for candidates that
    annihilate none.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    prep = _as_prepared(m)
    c = prep.compiled()
    n = len(prep.f_black) + len(prep.f_white)
    touches = _touches(c, n)
    rng = np.random.default_rng(seed)
    evaluated = 0

    for restart in range(restarts):
        bx = np.zeros(n + 1, dtype=np.intp)  # the labels and the padding 0
        if restart:
            bx[:n] = rng.integers(0, 2, n)
        dead = c.annihilated(bx)
        score, res = _evaluate(prep, bx, dead)
        evaluated += 1
        improved = True
        while improved and n:
            improved = False
            for i in rng.permutation(n):
                bx[i] ^= 1
                cand_dead = _dead_after_flip(c, touches, dead, bx, i)
                cand_score, cand = _evaluate(prep, bx, cand_dead)
                evaluated += 1
                if _improves(cand_score, score):
                    score, res, dead = cand_score, cand, cand_dead
                    improved = True
                else:
                    bx[i] ^= 1
        if res is not None and not res.zero:
            cert = _certificate(prep, bx[:n])
            verdict = verify(prep, cert, threshold)
            if verdict.accept:
                return SearchResult(True, cert, res, verdict, evaluated)
    return SearchResult(False, evaluated=evaluated)
