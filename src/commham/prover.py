"""Certificate search: exhaustive enumeration and a greedy hill climber.

Both searches only propose; every certificate handed back has been
re-checked by the verifier at its default threshold.  Both evaluate label
vectors through the compiled model and call compute_omega only on those
that annihilate no plaquette: exhaustive search walks the verifier's pruned
scan (`_live_labels`, shared with `oracle.certificate_sum`) a stack of
label rows at a time, greedy reads `CompiledModel.annihilated` per candidate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CommutingModel
from .verifier import (
    Certificate,
    CompiledModel,
    OmegaResult,
    PreparedModel,
    Verdict,
    _as_prepared,
    _live_labels,
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


def exhaustive_search(
    m: CommutingModel | PreparedModel, cap: int = 26
) -> SearchResult:
    """Scan the whole certificate space and return the largest-value
    certificate (lexicographically first on ties), or not-found when every
    certificate evaluates to zero.  Only certificates that annihilate no
    plaquette are evaluated; above 2**cap certificates, CapExceeded."""
    prep = _as_prepared(m)
    best: tuple[float, np.ndarray] | None = None
    evaluated = 0
    for rows in _live_labels(prep, cap):
        for labels, res in zip(rows, compute_omega(prep, rows)):
            if not res.zero and (best is None or log2_exceeds(res.log2_magnitude, best[0])):
                best = (res.log2_magnitude, labels)
        evaluated += len(rows)
    if best is None:
        return SearchResult(False, evaluated=evaluated)
    cert = _certificate(prep, best[1])
    verdict = verify(prep, cert)
    return SearchResult(True, cert, verdict.omega, verdict, evaluated)


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


def _evaluate(prep: PreparedModel, c: CompiledModel, bx: np.ndarray):
    """Score and result of the padded labels; no compute_omega call when
    some plaquette is annihilated."""
    if c.annihilated(bx).any():
        return _ANNIHILATED, None
    res = compute_omega(prep, bx[:-1])
    return _score(res), res


def greedy_search(
    m: CommutingModel | PreparedModel,
    seed: int = 0,
    restarts: int = 8,
) -> SearchResult:
    """Single-label hill climbing on the factorized objective.

    The objective is log2 of the certificate value with zeros at -inf,
    tie-broken by the number of non-vanishing factors; a candidate must beat
    the current score, so the first certificate found wins a tie.  Restart 0
    starts from the all-zeros labelling, later restarts from seeded random
    labels, `restarts` (at least 1, else ValueError) in all; the result is
    deterministic given the seed and is re-verified before being returned.

    Labels are one 0/1 vector in `label_order`, padded as the compiled
    model reads it; compute_omega runs only for candidates that annihilate
    no plaquette.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    prep = _as_prepared(m)
    c = prep.compiled()
    n = sum(map(len, prep.label_ids))
    rng = np.random.default_rng(seed)
    evaluated = 0

    for restart in range(restarts):
        bx = np.zeros(n + 1, dtype=np.intp)  # the labels and the padding 0
        if restart:
            bx[:n] = rng.integers(0, 2, n)
        score, res = _evaluate(prep, c, bx)
        evaluated += 1
        improved = True
        while improved and n:
            improved = False
            for i in rng.permutation(n):
                bx[i] ^= 1
                cand_score, cand = _evaluate(prep, c, bx)
                evaluated += 1
                if _improves(cand_score, score):
                    score, res = cand_score, cand
                    improved = True
                else:
                    bx[i] ^= 1
        if res is not None and not res.zero:
            cert = _certificate(prep, bx[:n])
            verdict = verify(prep, cert)
            if verdict.accept:
                return SearchResult(True, cert, res, verdict, evaluated)
    return SearchResult(False, evaluated=evaluated)
