"""Brute-force ground truth on the full 2**N-dimensional space.

Exact traces of plaquette operators on all N qubits bypass the verifier's
effective states and overlap graph, so the two paths can certify each other
(they share only the wire-network kernel, tested on literal dense products).
The trace of the product of all ground projectors is the joint ground-space
dimension and must come out an integer for genuinely commuting input.  N is
not capped: the kernel plans each trace as a one-at-a-time chain or a
pairwise tree, whichever is cheaper, and its open-wire bound, checked before
it allocates, keeps every tensor of the plan within 2**24 entries and
refuses wider plans; it refuses a trace beyond the float64 range too (toric
4x1100 open has 2**1103 ground states).
"""
from __future__ import annotations

from . import lattice
from .lattice import Plaquette
from .linalg import INTEGRALITY_RTOL, INTEGRALITY_TOL, SUM_TOL
from .linalg import LabeledOp, trace_product_embedded
from .model import CommutingModel, ground_projectors, projector_ops
from .verifier import (
    Certificate,
    PreparedModel,
    _as_prepared,
    _live_labels,
    apply_certificate,
    compute_omega,
)


_SUM_MAX_BITS = 24  # certificate_sum scans a space of at most 2**24 certificates


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


def _layer_trace(spec: lattice.LatticeSpec, ops: dict[Plaquette, LabeledOp]) -> float:
    """tr[(product of the black plaquettes' ops)(product of the white ones')],
    each layer in plaquette order."""
    return trace_product_embedded([ops[p] for p in _black_first(spec)]).real


def total_overlap(model: CommutingModel) -> float:
    """tr[(product of black projectors)(product of white projectors)]."""
    return _layer_trace(model.spec, projector_ops(model.spec, *ground_projectors(model)))


def ground_dim(model: CommutingModel) -> int:
    """Dimension of the joint ground space, tr of the product of all
    projectors, asserted to be integral."""
    ops = projector_ops(model.spec, *ground_projectors(model))
    val = trace_product_embedded(list(ops.values())).real
    count = nearest_count(val)
    if count is None:
        raise IntegralityError(f"trace {val!r} is no non-negative integer count")
    return count


def dense_omega(m: CommutingModel | PreparedModel, cert: Certificate) -> float:
    """Certificate value as one trace on all N qubits of the literally
    sliced projectors, bypassing effective states and overlap graphs."""
    prep = _as_prepared(m)
    return _layer_trace(prep.model.spec, apply_certificate(prep, cert))


def certificate_sum(m: CommutingModel | PreparedModel) -> tuple[float, int]:
    """Sum of the certificate value over the whole certificate space, and
    how many certificates were evaluated: the exhaustive prover's scan skips
    those that annihilate a plaquette, worth 0, and is evaluated a stack of
    label rows at a time; the values are added row by row in scan order.
    The sum telescopes back to the layer trace of `total_overlap`, taken
    on the prepared projectors; the two are asserted equal, which
    exercises slicing, tracing, and contraction against the plain embedded
    product.
    """
    prep = _as_prepared(m)
    total, evaluated = 0.0, 0
    for rows in _live_labels(prep, _SUM_MAX_BITS):
        for res in compute_omega(prep, rows):
            if not res.zero:
                total += 2.0**res.log2_magnitude
        evaluated += len(rows)
    reference = _layer_trace(prep.model.spec, projector_ops(prep.model.spec, prep.ids, prep.projectors))
    if abs(total - reference) > SUM_TOL:
        raise IntegralityError(
            f"certificate sum {total!r} does not match the layer trace {reference!r}"
        )
    return total, evaluated
