"""Per-vertex structure of one layer of commuting plaquette projectors.

Within one color class, the two projectors meeting at a vertex commute and
overlap on that single qubit only, so the algebras they act through there
commute: trivial, abelian along one axis n, or full (the qubit case of the
Bravyi-Vyalyi structure lemma).  A projector P acts at its corner k through
the row span of the real 3x64 block C_k[s, t] = tr(P . sigma_s (x) tau_t) / 16
of its Pauli table (sigma_s in X, Y, Z on corner k, tau_t over the Pauli
strings on the other corners); the rank of C_k (0, 1, 2 or more) is the class.
One einsum builds the tables, a QR shrinks each block to a 3x3 factor with
the same singular values and left singular vectors, and one batched SVD
ranks them all against NOISE_RTOL times the table's norm |P| / 4.  Either at
most one projector acts non-trivially, or both act along one axis n (the
leading singular vector of their blocks side by side) and the qubit *splits*
into the eigenstates of n.sigma: two rank-1 slices shared by both, labelled
0 and 1 in a canonical order, so independently produced labellings agree.
On a slice both act as scalars, so no multiplicity factor survives; that
keeps everything downstream one-dimensional.  No random numbers are drawn.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import lattice
from .lattice import BLACK, WHITE, LatticeSpec, Plaquette, Vertex
from .linalg import NOISE_RTOL, BasisMismatch, _PAULIS, _axis_basis, content_ids, state_projector
# unused here: perfbench/tracing.py patches these names on this module
from .linalg import algebra_classify, common_eigenbasis, operator_schmidt  # noqa: F401

_HALF_PAULIS = np.concatenate([np.eye(2)[None], _PAULIS]) / 2  # I, X, Y, Z; four give the 1/16
# the flat Pauli-table index of sigma_s on corner k and the t-th string on the others
_BLOCK_INDEX = np.stack([np.moveaxis(np.arange(256).reshape((4,) * 4), k, 0)[1:] for k in range(4)])
_CHUNK = 32  # projectors per batched table; bounds the working set


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


def _bloch_factors(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per 16x16 Hermitian P_n and corner k, a 3x3 F with C_k = F Q^T (the QR
    of C_k^T), so with the singular values and left singular vectors of the
    block C_k; and the norm of P_n's Pauli table, |P_n| / 4."""
    t = np.einsum(
        "nabcdABCD,iAa,jBb,kCc,lDd->nijkl",
        mats.reshape((-1,) + (2,) * 8), *[_HALF_PAULIS] * 4, optimize=True,
    ).real.reshape(-1, 256)
    blocks = t[:, _BLOCK_INDEX].reshape(-1, 4, 3, 64).transpose(0, 1, 3, 2)
    return np.linalg.qr(blocks, mode="r").transpose(0, 1, 3, 2), np.linalg.norm(t, axis=1)


def decompose_layers(
    spec: LatticeSpec, projectors: Mapping[Plaquette, np.ndarray]
) -> tuple[LayerDecomposition, LayerDecomposition]:
    """Vertex decompositions of the black and the white layer."""
    ids = content_ids(projectors)
    distinct = [projectors[p] for p in {i: p for p, i in ids.items()}.values()]
    chunks = [
        _bloch_factors(np.stack(distinct[i : i + _CHUNK])) for i in range(0, len(distinct), _CHUNK)
    ]
    factors, norms = (np.concatenate(parts) for parts in zip(*chunks))
    cut = NOISE_RTOL * norms
    ranks = np.sum(np.linalg.svd(factors, compute_uv=False) > cut[:, None, None], axis=-1).tolist()

    # the same-color projectors acting at each vertex, in row-major order
    acting: dict[str, dict[Vertex, list]] = {BLACK: {}, WHITE: {}}
    for p in lattice.plaquettes(spec):
        i, layer = ids[p], acting[lattice.plaquette_color(p)]
        for k, v in enumerate(lattice.corners(spec, p)):
            if ranks[i][k]:
                layer.setdefault(v, []).append((p, (i, k)))
    # each distinct pair's axis: the leading left singular vector of its two
    # blocks (so of their factors) side by side; a second direction means they
    # do not commute
    twos = [found for layer in acting.values() for found in layer.values() if len(found) == 2]
    pairs = list(dict.fromkeys((x[1], y[1]) for x, y in twos))
    a, b = np.array(pairs, dtype=int).reshape(-1, 2, 2).transpose(1, 2, 0)  # ends: ids, corners
    u, s, _ = np.linalg.svd(np.concatenate([factors[tuple(a)], factors[tuple(b)]], 2))
    one_axis = np.sum(s > np.maximum(cut[a[0]], cut[b[0]])[:, None], axis=1) == 1
    bases = {key: _axis_basis(u[n, :, 0]) for n, key in enumerate(pairs) if one_axis[n]}

    out = []
    for color in (BLACK, WHITE):
        decomps = {}
        for v in spec.vertices():
            found = acting[color].get(v, [])
            if len(found) < 2:
                decomps[v] = VertexDecomposition(False, found[0][0] if found else None)
                continue
            key = (found[0][1], found[1][1])
            if max(ranks[i][k] for i, k in key) > 1:
                raise ImpossibleAlgebraPair(f"projectors at {v} act through non-commuting algebras")
            if key not in bases:
                raise BasisMismatch(f"projectors at {v} act along different axes")
            decomps[v] = VertexDecomposition(True, basis=bases[key])
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
