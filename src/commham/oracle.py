"""Brute-force ground truth on the full 2**N-dimensional space.

Exact traces of plaquette operators on all N qubits bypass the verifier's
effective states and overlap graph, so the two paths can certify each other
(they share only the wire-network kernel, tested on literal dense products).
The trace of the product of all ground projectors is the joint ground-space
dimension and must come out an integer for genuinely commuting input.  N is
not capped: the kernel plans each trace as a one-at-a-time chain or a
pairwise tree, whichever is cheaper, and its open-wire bound, checked before
it allocates, keeps every tensor of the plan within 2**24 entries and
refuses wider plans.
"""
from __future__ import annotations

from . import lattice
from .lattice import Plaquette
from .linalg import INTEGRALITY_RTOL, INTEGRALITY_TOL, SUM_TOL, CapExceeded
from .linalg import LabeledOp, trace_product_embedded
from .model import CommutingModel, ground_projectors
from .verifier import (
    Certificate,
    PreparedModel,
    _as_prepared,
    apply_certificate,
    certificates_lex,
    compute_omega,
)


_SUM_MAX_BITS = 24  # certificate_sum enumerates at most 2**24 certificates


class IntegralityError(ArithmeticError):
    """A trace that must be an integer is not; the input terms likely do
    not commute."""


def nearest_count(val: float) -> int | None:
    """The count n >= 0 within max(INTEGRALITY_TOL, INTEGRALITY_RTOL n) of val, else None."""
    nearest = round(val)
    tol = max(INTEGRALITY_TOL, INTEGRALITY_RTOL * nearest)
    return nearest if abs(val - nearest) <= tol and nearest >= 0 else None


def _black_first(spec: lattice.LatticeSpec) -> list[Plaquette]:
    return sorted(lattice.plaquettes(spec), key=lambda p: not lattice.is_black(p))


def _projector_ops(model: CommutingModel, order: list[Plaquette]) -> list[LabeledOp]:
    """The ground projectors of the plaquettes in `order`, each on its corners."""
    projs = ground_projectors(model)
    return [LabeledOp(projs[p], tuple(lattice.corners(model.spec, p))) for p in order]


def total_overlap(model: CommutingModel) -> float:
    """tr[(product of black projectors)(product of white projectors)]."""
    return trace_product_embedded(_projector_ops(model, _black_first(model.spec))).real


def ground_dim(model: CommutingModel) -> int:
    """Dimension of the joint ground space, tr of the product of all
    projectors, asserted to be integral."""
    val = trace_product_embedded(_projector_ops(model, lattice.plaquettes(model.spec))).real
    count = nearest_count(val)
    if count is None:
        raise IntegralityError(f"trace {val!r} is no non-negative integer count")
    return count


def dense_omega(m: CommutingModel | PreparedModel, cert: Certificate) -> float:
    """Certificate value as one trace on all N qubits of the literally
    sliced projectors, bypassing effective states and overlap graphs."""
    prep = _as_prepared(m)
    sliced = apply_certificate(prep, cert)
    return trace_product_embedded([sliced[p] for p in _black_first(prep.model.spec)]).real


def certificate_sum(m: CommutingModel | PreparedModel) -> tuple[float, list[tuple[Certificate, float]]]:
    """Sum of the certificate value over the whole certificate space.

    The sum telescopes back to total_overlap; the two are asserted equal,
    which exercises slicing, tracing, and contraction against the plain
    embedded product.
    """
    prep = _as_prepared(m)
    bits = len(prep.f_black) + len(prep.f_white)
    if bits > _SUM_MAX_BITS:
        raise CapExceeded(f"certificate space 2**{bits} exceeds 2**{_SUM_MAX_BITS}")
    table = []
    total = 0.0
    for cert in certificates_lex(prep.f_black, prep.f_white):
        res = compute_omega(prep, cert)
        val = 0.0 if res.zero else 2.0**res.log2_magnitude
        table.append((cert, val))
        total += val
    reference = total_overlap(prep.model)
    if abs(total - reference) > SUM_TOL:
        raise IntegralityError(
            f"certificate sum {total!r} does not match the layer trace {reference!r}"
        )
    return total, table
