"""Literal, slow references and shared helpers for the tests; nothing in
`commham` calls them.  What each one checks:

* `embed`, `permute_to`, `partial_trace`, `sandwich_site`, `commutator_norm`:
  dense operators on a label union, against `linalg` (the trace kernel,
  `operator_schmidt`), `decompose` (slices), `verifier` (effective states,
  pruning) and `oracle` (dense products);
* `slice_basis`, `slice_op`: a vertex's slice basis and slice projectors
  read from a layer's `split`, `basis_row` and `basis` arrays;
* `bytes_numbering`: per plaquette, its matrix's row among the distinct
  ones by bytes, numbered by first appearance, against the ids and distinct
  stack of a `CommutingModel`;
* `pair_norms`, `band_pair_norms`: `model._distinct_pair_norms` on
  matrices and `model._band_pair_norms` on the terms' ground projectors, per
  plaquette pair, against `commutator_norm`;
* `per_plaquette_dict`: a model in the per-plaquette file format, one
  matrix per plaquette, against `serialize.model_from_dict`;
* `certificates_lex`: one `Certificate` at a time, against the scans of
  `prover` and `oracle` and the stacked `verifier.compute_omega`;
* `plaquette_table`: one plaquette's corners and slice-pattern norms read
  from `verifier.CompiledModel`, against `sandwich_site`;
* `own_and_other_only_model`: a model with an own-split and an other-only
  corner on one plaquette, for `verifier` (annihilated mask) and `prover`.
"""
from __future__ import annotations

import functools
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from commham import lattice, model
from commham.linalg import PAULI_Z, LabeledOp, frob, ground_band
from commham.verifier import Certificate

I2 = np.eye(2, dtype=complex)


def kron(*ms):
    out = np.eye(1, dtype=complex)
    for m in ms:
        out = np.kron(out, m)
    return out


def projector_map(m):
    """The ground projector of each plaquette, keyed by plaquette."""
    return {p: op.mat for p, op in model.projector_ops(m.spec, *model.ground_projectors(m)).items()}


def permute_to(op: LabeledOp, new_labels: Sequence) -> LabeledOp:
    new_labels = tuple(new_labels)
    if new_labels == op.labels:
        return op
    if set(new_labels) != set(op.labels) or len(new_labels) != len(op.labels):
        raise ValueError("new labels must be a permutation of the old ones")
    k = op.n_qubits
    perm = [op.labels.index(l) for l in new_labels]
    t = op.mat.reshape((2,) * 2 * k).transpose(perm + [k + p for p in perm])
    return LabeledOp(t.reshape(2**k, 2**k), new_labels)


def embed(op: LabeledOp, labels: Sequence) -> LabeledOp:
    """Pad op with identities so it lives on the given larger label set."""
    labels = tuple(labels)
    extra = [l for l in labels if l not in op.labels]
    if len(extra) + op.n_qubits != len(labels):
        raise ValueError("target labels must contain all of the operator's labels")
    big = np.kron(op.mat, np.eye(2 ** len(extra)))
    return permute_to(LabeledOp(big, op.labels + tuple(extra)), labels)


def partial_trace(op: LabeledOp, keep: Iterable) -> LabeledOp:
    """Trace out all labels not in keep, preserving the original label order."""
    keep = set(keep)
    unknown = keep - set(op.labels)
    if unknown:
        raise ValueError(f"unknown labels {unknown}")
    kept = [l for l in op.labels if l in keep]
    traced = [l for l in op.labels if l not in keep]
    p = permute_to(op, kept + traced)
    dk, dt = 2 ** len(kept), 2 ** len(traced)
    m = p.mat.reshape(dk, dt, dk, dt)
    return LabeledOp(np.einsum("atbt->ab", m), kept)


def sandwich_site(op: LabeledOp, label, proj: np.ndarray) -> LabeledOp:
    """proj op proj with the 2x2 proj acting on one labelled qubit."""
    k, i = op.n_qubits, op.labels.index(label)
    t = np.moveaxis(op.mat.reshape((2,) * 2 * k), (i, k + i), (0, 1))
    t = np.einsum("ab,bc...,cd->ad...", proj, t, proj)
    return LabeledOp(np.moveaxis(t, (0, 1), (i, k + i)).reshape(2**k, 2**k), op.labels)


def slice_basis(layer, v) -> np.ndarray | None:
    """The (2, 2) slice basis of vertex v in a `LayerDecomposition`, slices
    as columns, read from its arrays; None where v is not split."""
    i = v[1] * layer.spec.lx + v[0]
    return layer.basis[layer.basis_row[i]] if layer.split[i] else None


def slice_op(layer, v, label: int) -> np.ndarray:
    """|b><b| for b the slice `label` of the split vertex v."""
    b = slice_basis(layer, v)[:, label]
    return np.outer(b, b.conj())


def commutator_norm(a: LabeledOp, b: LabeledOp) -> float:
    """Frobenius norm of [a, b] on the union of their labels."""
    labels = sorted(set(a.labels) | set(b.labels))
    am = embed(a, labels).mat
    bm = embed(b, labels).mat
    return frob(am @ bm - bm @ am)


def bytes_numbering(spec: lattice.LatticeSpec, mats) -> tuple[np.ndarray, np.ndarray]:
    """Per plaquette in `plaquettes` order, the row of its matrix among the
    distinct ones, numbered by first appearance and keyed by the matrix's
    bytes alone, and those rows stacked."""
    rows: dict[bytes, int] = {}
    plist = lattice.plaquettes(spec)
    mats = {p: np.asarray(mats[p], dtype=complex) for p in plist}
    ids = np.array([rows.setdefault(mats[p].tobytes(), len(rows)) for p in plist])
    return ids, np.stack([mats[plist[i]] for i in np.unique(ids, return_index=True)[1]])


def pair_norms(m: model.CommutingModel, mats) -> model.PairNorms:
    """|[mats[p], mats[q]]| for every intersecting pair, in `_intersecting_pairs` order."""
    ids, distinct = bytes_numbering(m.spec, mats)
    return model._named(m.spec, *model._distinct_pair_norms(m.spec, ids, model._traceless(distinct)))


def band_pair_norms(m: model.CommutingModel, terms) -> tuple[model.PairNorms, dict]:
    """|[P_p, P_q]| from the band frames for every intersecting pair, P the
    ground projectors of `terms`, and those projectors keyed by plaquette."""
    ids, distinct = bytes_numbering(m.spec, terms)
    proj, _, frame, side = ground_band(distinct)
    projs = {p: proj[i] for p, i in zip(lattice.plaquettes(m.spec), ids.tolist())}
    return model._named(m.spec, *model._band_pair_norms(m.spec, ids, proj, frame, side)), projs


def per_plaquette_dict(m: model.CommutingModel) -> dict:
    """m in the per-plaquette model file format: one "terms" entry per
    plaquette, in `plaquettes` order, each with its whole matrix."""
    return {
        "lattice": {"lx": m.spec.lx, "ly": m.spec.ly, "boundary": m.spec.boundary},
        "terms": [
            {"plaquette": list(p), "matrix": [[[float(c.real), float(c.imag)] for c in row] for row in h]}
            for p, h in m.terms.items()
        ],
    }


def certificates_lex(f_black: frozenset, f_white: frozenset):
    """All certificates in lexicographic order, black labels outermost."""
    fb, fw = sorted(f_black), sorted(f_white)
    nb, nw = len(fb), len(fw)
    for a in range(1 << nb):
        alpha = {v: (a >> (nb - 1 - i)) & 1 for i, v in enumerate(fb)}
        for b in range(1 << nw):
            beta = {v: (b >> (nw - 1 - i)) & 1 for i, v in enumerate(fw)}
            yield Certificate(dict(alpha), beta)


def plaquette_table(prep, p) -> SimpleNamespace:
    """Plaquette p's color, its own-split corners and its other-only ones
    (split in the other layer only), in corner order, and `norms[bits]`,
    the sliced projector's norm per own-split label pattern."""
    c = prep.compiled()
    own, other = (prep.f_black, prep.f_white) if lattice.is_black(p) else (prep.f_white, prep.f_black)
    cs = lattice.corners(prep.model.spec, p)
    return SimpleNamespace(
        color=lattice.plaquette_color(p),
        own_split=tuple(v for v in cs if v in own),
        other_only=tuple(v for v in cs if v in other and v not in own),
        norms=c.shared[c.which[c.plaquettes.index(p)]][0],
    )


def own_and_other_only_model() -> model.CommutingModel:
    """4x3 open lattice of single-qubit -Z terms.  Black (1, 1) has -Z at
    its own-split corner (1, 1), so label 1 there annihilates it, and it has
    the white-only split (2, 1) as an other-only corner."""
    spec = lattice.LatticeSpec(4, 3)

    def minus_z(p, v):
        return -functools.reduce(np.kron, [PAULI_Z if c == v else np.eye(2) for c in lattice.corners(spec, p)])

    terms = {p: np.zeros((16, 16)) for p in lattice.plaquettes(spec)}
    for p, v in [((0, 0), (1, 1)), ((1, 1), (1, 1)), ((1, 0), (2, 1)), ((2, 1), (2, 1))]:
        terms[p] = minus_z(p, v)
    return model.CommutingModel(spec, terms)
