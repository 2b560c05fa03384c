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
keeps everything downstream one-dimensional.  The acting incidences come
from the lattice's corner table sorted by vertex, each distinct pair of
blocks gets one axis, and a layer is three arrays over the vertex ids.
No random numbers are drawn.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import lattice
from .lattice import BLACK, WHITE, LatticeSpec, Plaquette, Vertex
from .linalg import NOISE_RTOL, BasisMismatch, _PAULIS, _axis_bases, state_projector
# unused here: perfbench/tracing.py patches these names on this module
from .linalg import algebra_classify, common_eigenbasis, operator_schmidt  # noqa: F401

_HALF_PAULIS = np.concatenate([np.eye(2)[None], _PAULIS]) / 2  # I, X, Y, Z; four give the 1/16
# the flat Pauli-table index of sigma_s on corner k and the t-th string on the others
_BLOCK_INDEX = np.stack([np.moveaxis(np.arange(256).reshape((4,) * 4), k, 0)[1:] for k in range(4)])
_CHUNK = 32  # projectors per batched table; bounds the working set
_TABLE = "nabcdABCD,iAa,jBb,kCc,lDd->nijkl"  # Pauli tables of n projectors
# its contraction order, searched once (the same for any chunk size), not per chunk
_TABLE_PATH = np.einsum_path(_TABLE, np.empty((_CHUNK,) + (2,) * 8, complex), *[_HALF_PAULIS] * 4, optimize=True)[0]


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


@dataclass(frozen=True, eq=False)
class LayerDecomposition:
    """One layer as arrays over the vertex ids y * lx + x: `split` flags the
    split vertices, `owner` holds the plaquette acting alone at a trivial
    vertex as the id of its top-left corner (else -1), and `basis` stacks the
    (n_split, 2, 2) slice bases in id order.  `decomps` reads them per vertex."""

    color: str
    spec: LatticeSpec
    split: np.ndarray
    owner: np.ndarray
    basis: np.ndarray

    @cached_property
    def split_vertices(self) -> frozenset[Vertex]:
        return frozenset(lattice.vertices_of(self.spec, np.flatnonzero(self.split)))

    @cached_property
    def basis_row(self) -> np.ndarray:
        """Per vertex id, its row of `basis` (meaningless where not split)."""
        return np.cumsum(self.split) - 1

    @cached_property
    def decomps(self) -> Mapping[Vertex, VertexDecomposition]:
        """A read-only mapping in `LatticeSpec.vertices` order, built on first access."""
        bases, owners = iter(self.basis), lattice.vertices_of(self.spec, self.owner)
        return MappingProxyType({
            v: VertexDecomposition(split, o if i >= 0 else None, next(bases) if split else None)
            for v, split, o, i in zip(self.spec.vertices(), self.split.tolist(), owners, self.owner.tolist())
        })


def _bloch_factors(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per 16x16 Hermitian P_n and corner k, a 3x3 F with C_k = F Q^T (the QR
    of C_k^T), so with the singular values and left singular vectors of the
    block C_k; and the norm of P_n's Pauli table, |P_n| / 4."""
    t = np.einsum(_TABLE, mats.reshape((-1,) + (2,) * 8), *[_HALF_PAULIS] * 4, optimize=_TABLE_PATH)
    t = t.real.reshape(-1, 256)
    blocks = t[:, _BLOCK_INDEX].reshape(-1, 4, 3, 64).transpose(0, 1, 3, 2)
    return np.linalg.qr(blocks, mode="r").transpose(0, 1, 3, 2), np.linalg.norm(t, axis=1)


def decompose_layers(
    spec: LatticeSpec, ids: np.ndarray, projectors: np.ndarray
) -> tuple[LayerDecomposition, LayerDecomposition]:
    """Vertex decompositions of the black and the white layer, plaquette i
    (in `plaquettes` order) carrying the projector `projectors[ids[i]]`, as
    `ground_projectors` numbers them."""
    chunks = [_bloch_factors(projectors[i : i + _CHUNK]) for i in range(0, len(projectors), _CHUNK)]
    factors, norms = (np.concatenate(parts) for parts in zip(*chunks))
    # one block per (distinct projector, corner), numbered 4 id + corner
    factors, cut = factors.reshape(-1, 3, 3), np.repeat(NOISE_RTOL * norms, 4)
    ranks = np.sum(np.linalg.svd(factors, compute_uv=False) > cut[:, None], axis=-1)

    # the incidences that act (plaquette, block k), sorted by layer vertex:
    # 0 (black) or 1 (white) times n_vertices plus the vertex id.  A layer
    # vertex has at most two, which come in plaquette order
    cs, nv = lattice.corner_ids(spec), spec.n_vertices
    block = 4 * ids[:, None] + np.arange(4)
    plaq, corner = np.nonzero(ranks[block] > 0)
    at = (cs[plaq, 0] % spec.lx + cs[plaq, 0] // spec.lx) % 2 * nv + cs[plaq, corner]
    by_at = np.argsort(at, kind="stable")
    plaq, k, at = plaq[by_at], block[plaq, corner][by_at], at[by_at]
    t = np.flatnonzero(at[1:] == at[:-1])
    # each distinct pair's axis: the leading left singular vector of its two
    # blocks (so of their factors) side by side; a second direction means they
    # do not commute
    n = len(factors)
    pairs, pair = np.unique(k[t] * n + k[t + 1], return_inverse=True)
    a, b = np.divmod(pairs, n)
    u, s, _ = np.linalg.svd(np.concatenate([factors[a], factors[b]], 2))
    one_axis = np.sum(s > np.maximum(cut[a], cut[b])[:, None], axis=1) == 1
    full = np.maximum(ranks[a], ranks[b]) > 1
    bad = np.flatnonzero(full[pair] | ~one_axis[pair])
    if bad.size:
        where = lattice.vertices_of(spec, at[t[bad[:1]]] % nv)[0]
        if full[pair[bad[0]]]:
            raise ImpossibleAlgebraPair(f"projectors at {where} act through non-commuting algebras")
        raise BasisMismatch(f"projectors at {where} act along different axes")

    split, owner = np.zeros(2 * nv, dtype=bool), np.full(2 * nv, -1)
    split[at[t]] = True
    owner[at[~split[at]]] = cs[plaq[~split[at]], 0]
    bases, white = _axis_bases(u[:, :, 0])[pair], at[t] >= nv
    return (
        LayerDecomposition(BLACK, spec, split[:nv], owner[:nv], bases[~white]),
        LayerDecomposition(WHITE, spec, split[nv:], owner[nv:], bases[white]),
    )

