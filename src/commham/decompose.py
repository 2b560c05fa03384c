"""Per-vertex structure of one layer of commuting plaquette projectors.

Within one color class, the two projectors meeting at a vertex commute and
overlap on that single qubit only, so the operators they induce there
generate commuting algebras.  Each algebra is classified by the rank of
the Bloch vectors of the projector's operator-Schmidt factors at v (0
trivial, 1 abelian, 2 or more full), which leaves these cases: at most
one projector acts non-trivially (no structure needed), or both act
through abelian algebras along one shared axis, in which case the qubit
splits into two orthogonal rank-1 slices shared by both projectors.
A vertex of the second kind is called *split*; the slices are labelled 0
and 1 in a canonical order so that independently produced labellings
agree.  On qubits each slice is a single state and the two operators act
on it as scalars, so no residual multiplicity factor survives inside a
slice; that is what keeps everything downstream one-dimensional.  The
decomposition is deterministic: it draws no random numbers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import lattice
from .lattice import BLACK, WHITE, LatticeSpec, Plaquette, Vertex
from .linalg import (
    FULL,
    TRIVIAL,
    LabeledOp,
    algebra_classify,
    common_eigenbasis,
    content_ids,
    operator_schmidt,
    state_projector,
)


class ImpossibleAlgebraPair(ValueError):
    """Two commuting projectors cannot both generate the full algebra on a
    shared qubit; seeing this means the input does not actually commute."""


@dataclass(frozen=True)
class VertexDecomposition:
    """Either a trivial vertex (at most one same-color projector acts
    non-trivially there; `owner` names it, or None) or a split vertex with
    two canonical rank-1 slice states as the columns of `basis`."""

    split: bool
    owner: Plaquette | None = None
    basis: np.ndarray | None = None

    def slice_projector(self, label: int) -> np.ndarray:
        if not self.split:
            raise ValueError("trivial vertex has no slices")
        if label not in (0, 1):
            raise ValueError(f"slice label must be 0 or 1, got {label}")
        return state_projector(self.basis[:, label])


@dataclass
class LayerDecomposition:
    color: str
    decomps: dict[Vertex, VertexDecomposition]

    @cached_property
    def split_vertices(self) -> frozenset[Vertex]:
        return frozenset(v for v, d in self.decomps.items() if d.split)


def vertex_decomposition(
    incident: list[tuple[Plaquette, LabeledOp]], v: Vertex
) -> VertexDecomposition:
    """Classify the action of the (at most two) same-color projectors at v."""
    if len(incident) > 2:
        raise ValueError("a vertex meets at most two plaquettes of one color")
    factors = []
    kinds = []
    for _, op in incident:
        bs = [b for _, b in operator_schmidt(op, v).terms]
        cls = algebra_classify(bs)
        factors.append(bs)
        kinds.append(cls.kind)

    nontrivial = [i for i, k in enumerate(kinds) if k != TRIVIAL]
    if not nontrivial:
        return VertexDecomposition(split=False, owner=None)
    if len(nontrivial) == 1:
        return VertexDecomposition(split=False, owner=incident[nontrivial[0]][0])
    if FULL in kinds:
        raise ImpossibleAlgebraPair(
            f"projectors at {v} act through non-commuting algebras; "
            "the model terms do not commute"
        )
    # both abelian: commuting input puts all their Bloch vectors on one
    # axis, whose eigenbasis is the shared slice basis
    basis = common_eigenbasis(factors[0] + factors[1])
    return VertexDecomposition(split=True, basis=basis)


def decompose_layers(
    spec: LatticeSpec,
    projectors: Mapping[Plaquette, np.ndarray],
) -> tuple[LayerDecomposition, LayerDecomposition]:
    """Vertex decompositions of the black and the white layer."""
    ops = {
        p: LabeledOp(m, tuple(lattice.corners(spec, p))) for p, m in projectors.items()
    }
    ids = content_ids({p: op.mat for p, op in ops.items()})
    out = []
    cache: dict[tuple, tuple] = {}
    for color in (BLACK, WHITE):
        decomps = {}
        for v in spec.vertices():
            incident = [
                (p, ops[p]) for p in lattice.incident_plaquettes(spec, v, color)
            ]
            # decompositions depend only on the matrices and where v sits in
            # their corner order; identical plaquette terms share the result
            key = tuple((ids[p], op.labels.index(v)) for p, op in incident)
            if key in cache:
                split, owner_idx, basis = cache[key]
            else:
                d = vertex_decomposition(incident, v)
                owner_idx = None
                if d.owner is not None:
                    owner_idx = [p for p, _ in incident].index(d.owner)
                split, basis = d.split, d.basis
                cache[key] = (split, owner_idx, basis)
            owner = incident[owner_idx][0] if owner_idx is not None else None
            decomps[v] = VertexDecomposition(split=split, owner=owner, basis=basis)
        out.append(LayerDecomposition(color, decomps))
    return out[0], out[1]


@dataclass
class CertificateSpace:
    """Label alphabets per (layer, vertex): {0, 1} at split vertices, a
    singleton everywhere else."""

    alphabets: dict[tuple[str, Vertex], tuple[int, ...]]
    count: int


def certificate_space(black: LayerDecomposition, white: LayerDecomposition) -> CertificateSpace:
    alphabets = {}
    count = 1
    for layer in (black, white):
        for v, d in layer.decomps.items():
            if d.split:
                alphabets[(layer.color, v)] = (0, 1)
                count *= 2
            else:
                alphabets[(layer.color, v)] = (0,)
    return CertificateSpace(alphabets, count)
