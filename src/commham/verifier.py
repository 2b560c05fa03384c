"""Certificate verification for commuting plaquette models.

A certificate assigns one slice label per split vertex and per layer.  Its
value Omega is the trace of the product of all black plaquette projectors,
each projected onto its chosen slices, times the same product for the
white layer.  The verifier evaluates Omega without ever touching the full
Hilbert space:

* every split vertex carries rank-1 factors for both touching plaquettes
  of its color, so it can be traced out, leaving small *effective states*
  on the remaining corners plus one scalar overlap per vertex split in
  both layers;
* tracing out a rank-1 slice |s><s| keeps the entry <s|P|s>, so in the
  frame whose basis vectors are the slices every effective state is a
  diagonal block of one rotated 16x16 matrix per plaquette, read by
  indexing;
* effective states of one color never share a qubit, and a state can
  overlap states of the other color on at most two neighbors, so the
  overlap structure decomposes into isolated nodes, paths, and cycles
  that contract with a constant-size frontier, absorbed in chain order by
  the wire-network kernel the oracle's traces use;
* on its first evaluation a model is compiled to index arrays, so a
  certificate is one 0/1 vector and annihilated plaquettes, vertex
  overlaps and scalar states are each one gather; only states with
  support reach the overlap graph;
* the scans of the whole certificate space evaluate a stack of label rows
  at a time: the gathers run over the whole stack, rows whose states have
  the same supports share one overlap graph, and each of its components
  is contracted once for all of them, on stacked matrices.

Omega is accumulated in the log2 domain since honest values scale like
2**(-2N); each factor is O(1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import itemgetter
from typing import Callable

import numpy as np

from . import lattice
from .decompose import LayerDecomposition, decompose_layers
from .lattice import BLACK, WHITE, LatticeSpec, Plaquette, Vertex
from .linalg import (
    IMAG_RTOL, LOG2_TIE_TOL, POSITIVITY_TOL, PRUNE_RTOL, ZERO_FLOOR,
    CapExceeded, LabeledOp, frob, trace_product_embedded,
)
from .model import CommutingModel, ground_projectors, projector_ops

VERTEX_OVERLAP = "vertex-overlap"
COMPONENT = "component"
FREE_QUBIT = "free-qubit"


def log2_exceeds(a: float, b: float) -> bool:
    """Whether log2 value `a` is larger than `b` beyond the tie tolerance;
    -inf stands for zero and ties with itself."""
    return a > b + LOG2_TIE_TOL


class CertificateDomainError(ValueError):
    """Certificate labels do not match the model's split vertices."""


class DegreeViolation(RuntimeError):
    """The overlap structure is not a disjoint union of chains.  This never
    happens for commuting input; it signals corrupted terms or a support
    pruning tolerance failure."""


@dataclass
class Certificate:
    """Slice labels: alpha for black-layer splits, beta for white-layer."""

    alpha: dict[Vertex, int]
    beta: dict[Vertex, int]


_ID2 = np.eye(2)
_W4 = np.array([8, 4, 2, 1])  # a left-padded row of four 0/1 labels as a big-endian pattern
_CHUNK = 4096  # label rows per stack of the layer scan


def _corner_kron(mats: np.ndarray) -> np.ndarray:
    """Kronecker products of stacked (..., corners, 2, 2) matrices over the
    corners, corner 0 most significant."""
    out = np.ones(mats.shape[:-3] + (1, 1))
    for m in np.moveaxis(mats, -3, 0):
        d = 2 * out.shape[-1]
        out = (out[..., :, None, :, None] * m[..., None, :, None, :]).reshape(out.shape[:-2] + (d, d))
    return out


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first of each distinct row of a 2-D array, and each
    row's number among the distinct rows, numbered in sorted order."""
    order = np.lexsort(rows.T[::-1])
    new = np.concatenate([[True], np.any(rows[order[1:]] != rows[order[:-1]], axis=1)])
    number = np.empty(len(rows), dtype=np.intp)
    number[order] = np.cumsum(new) - 1
    return order[new], number


def _slice_tables(projs: np.ndarray, frames: np.ndarray, roles: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(norms, blocks) per projector, frame per corner and role per corner
    (0 own-split, 1 other-only, 2 free), batched per tuple of roles, read
    from R = U^dag P U, U the Kronecker product of the frames.  In it,
    slicing keeps the rows and columns whose bit at a corner is the label,
    and tracing out a rank-1 slice keeps that diagonal entry.  norms[b] is
    the Frobenius norm of the block whose own-split rows and columns equal
    b, the sliced projector's norm since U is unitary; blocks[own + other]
    is the diagonal block over all split corners, the effective state on
    the free corners before pruning."""
    u = _corner_kron(frames)
    r = u.conj().transpose(0, 2, 1) @ projs @ u
    first, kind_of = _distinct_rows(roles)
    out: list = [None] * len(roles)
    for g, kind in enumerate(roles[first].tolist()):
        members = np.flatnonzero(kind_of == g)
        # corners reordered own-split, other-only, free, each in corner order
        order = sorted(range(4), key=kind.__getitem__)
        rg = r[members].reshape((-1,) + (2,) * 8).transpose([0] + [1 + i for i in order] + [5 + i for i in order])
        k, s = kind.count(0), 4 - kind.count(2)
        own = np.einsum("nbxby->nbxy", rg.reshape(-1, 2**k, 16 >> k, 2**k, 16 >> k))
        norms = np.sqrt(np.einsum("nbxy,nbxy->nb", own, own.conj()).real)
        d = 16 >> s
        blocks = np.einsum("nbxby->nbxy", rg.reshape(-1, 2**s, d, 2**s, d)).copy()
        for t, nm, bl in zip(members.tolist(), norms, blocks):
            out[t] = (nm.reshape((2,) * k), bl.reshape((2,) * s + (d, d)))
    return out


@dataclass(eq=False)
class CompiledModel:
    """Certificate evaluation as array gathers, built from the corner table
    and the layer arrays.

    Labels form one vector in `label_order` plus a trailing 0 that pads
    rows of slots to four.  Row j is the plaquette `plaquettes[j]`, black
    first, each color in row-major order: its free corners' (split in
    neither layer) vertex ids then -1s, its table `shared[which[j]]`
    (norms, blocks), its own-split then other-only slots and its table's
    offset in the state table, where `dead` marks the entries whose
    own-split bits annihilate it, `scal` holds a scalar state, inf for a
    state with support or nan until first read, `kept` the pruned state as
    (kept positions in `free`, matrix) and `code` those positions as a
    bitmask, 0 for a scalar.
    The vertices split in both layers, sorted, are `both`; their rows of
    label slots (padding, padding, black, white) `both_slots` give the
    pattern 2a + b that, plus `overlap_at[i]` = 4 i, indexes `overlap`,
    tr[pi_a pibar_b] = |<black a|white b>|^2 of vertex i.  `unsplit` lists
    the vertices split in neither layer, in vertex order.
    """

    spec: LatticeSpec
    plaquettes: list[Plaquette]
    n_black: int
    free: list[list[int]]
    which: np.ndarray
    shared: list[tuple[np.ndarray, np.ndarray]]
    split_slots: np.ndarray
    state_at: np.ndarray
    dead: np.ndarray
    scal: np.ndarray
    kept: list
    code: np.ndarray
    both: list[Vertex]
    both_slots: np.ndarray
    overlap_at: np.ndarray
    overlap: np.ndarray
    unsplit: list[Vertex]

    def entries(self, bx: np.ndarray, rows=slice(None)) -> np.ndarray:
        """The state-table entry of each plaquette of `rows` under the labels
        (a padded vector, or a stack of them)."""
        return self.state_at[rows] + np.take(bx, self.split_slots[rows], axis=-1) @ _W4

    def annihilated(self, bx: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Whether the labels (a padded vector, or a stack of them)
        annihilate each plaquette of `rows`."""
        return self.dead[self.entries(bx, rows)]

    def overlaps(self, bx: np.ndarray) -> np.ndarray:
        """The overlap of each vertex in `both` under the labels (a padded
        vector, or a stack of them)."""
        return self.overlap[self.overlap_at + np.take(bx, self.both_slots, axis=-1) @ _W4]


def _rows_by(key: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values with each row reordered by key ascending, ties in corner order."""
    return np.take_along_axis(values, np.argsort(key, axis=1, kind="stable"), axis=1)


def _compile(prep: PreparedModel) -> CompiledModel:
    spec, black, white, ids = prep.model.spec, prep.black, prep.white, prep.ids
    cs = lattice.corner_ids(spec)
    is_black = (cs[:, 0] % spec.lx + cs[:, 0] // spec.lx) % 2 == 0
    order = np.argsort(~is_black, kind="stable")
    cs, ids, on_black = cs[order], ids[order], is_black[order][:, None]
    own = np.where(on_black, black.split[cs], white.split[cs])
    roles = np.where(own, 0, np.where(np.where(on_black, white.split[cs], black.split[cs]), 1, 2))

    # a corner's role names the black layer's split or the white one's; the
    # frame table holds black slice bases, white slice bases, the identity
    nb, nw = len(black.basis), len(white.basis)
    in_black, free = on_black == (roles == 0), roles == 2
    frames = np.concatenate([black.basis, white.basis, np.eye(2)[None]])
    frame = np.where(free, nb + nw, np.where(in_black, black.basis_row[cs], nb + white.basis_row[cs]))
    # label slots per vertex: `label_order` sorts each layer's split vertices x-major
    x_major = np.arange(spec.n_vertices).reshape(spec.ly, spec.lx).T.ravel()
    sb, sw = np.zeros((2, spec.n_vertices), dtype=np.intp)
    sb[x_major[black.split[x_major]]], sw[x_major[white.split[x_major]]] = np.arange(nb), nb + np.arange(nw)
    slot = np.where(free, nb + nw, np.where(in_black, sb[cs], sw[cs]))
    # rows with one projector and equal frames in equal roles share a table
    content = _distinct_rows(frames.reshape(-1, 4).view(float))[1]
    first, which = _distinct_rows(np.column_stack([ids, roles, content[frame]]))
    shared = _slice_tables(prep.projectors[ids[first]], frames[frame[first]], roles[first])
    state_at = np.cumsum([0] + [bl.size // bl.shape[-1] ** 2 for _, bl in shared])
    # an entry's pattern leads with its own-split bits, so each norm covers
    # a run of entries; one repeat for all tables, as there may be thousands
    sizes = np.array([nm.size for nm, _ in shared])
    norms = np.concatenate([nm.ravel() for nm, _ in shared])
    dead = np.repeat(norms <= ZERO_FLOOR, np.repeat(np.diff(state_at) // sizes, sizes))
    both = x_major[(black.split & white.split)[x_major]]
    a, b = black.basis[black.basis_row[both]], white.basis[white.basis_row[both]]
    return CompiledModel(
        spec, lattice.vertices_of(spec, cs[:, 0]), int(is_black.sum()),
        _rows_by(~free, np.where(free, cs, -1)).tolist(), which, shared,
        _rows_by((roles + 1) % 3, slot), state_at[which],
        dead, np.full(state_at[-1], np.nan), [None] * int(state_at[-1]), np.zeros(state_at[-1], dtype=np.uint8),
        lattice.vertices_of(spec, both), np.column_stack([np.full((len(both), 2), nb + nw), sb[both], sw[both]]),
        4 * np.arange(len(both)), (np.abs(a.conj().transpose(0, 2, 1) @ b) ** 2).ravel(),
        lattice.vertices_of(spec, np.flatnonzero(~(black.split | white.split))),
    )


@dataclass
class PreparedModel:
    """Model with its ground projectors and layer decompositions attached.

    `projectors` stacks one ground projector per distinct term and `ids`
    gives each plaquette's row of it, in `plaquettes` order, as
    `ground_projectors` returns them.

    Slicing and tracing of a plaquette depend only on the few certificate
    labels at its corners.  On the first evaluation (never in `prepare`)
    the model is compiled to a `CompiledModel`: norm and block tables, one
    per projector row and slice frames, and index arrays that turn a
    certificate into gathers.  Effective states are memoized per (shared
    table, pattern).  Every array and entry is a deterministic
    function of the model, so a concurrent duplicate write stores an equal
    value and concurrent verification of distinct certificates against one
    prepared model is safe.
    """

    model: CommutingModel
    ids: np.ndarray
    projectors: np.ndarray
    black: LayerDecomposition
    white: LayerDecomposition
    _compiled: CompiledModel | None = field(default=None, repr=False)

    @property
    def f_black(self) -> frozenset[Vertex]:
        return self.black.split_vertices

    @property
    def f_white(self) -> frozenset[Vertex]:
        return self.white.split_vertices

    @cached_property
    def label_order(self) -> tuple[list[Vertex], list[Vertex]]:
        """The black and the white split vertices, each sorted: the order
        of a certificate's labels as a vector."""
        return sorted(self.f_black), sorted(self.f_white)

    @cached_property
    def label_getters(self) -> tuple[Callable[[dict], tuple], ...]:
        """Per layer, one C-level gather of a dict's labels in `label_order`,
        as a tuple (which `itemgetter` returns only for two keys or more)."""
        return tuple(itemgetter(*w) if len(w) > 1 else lambda d, w=w: tuple(map(d.__getitem__, w))
                     for w in self.label_order)

    def compiled(self) -> CompiledModel:
        c = self._compiled
        if c is None:
            c = self._compiled = _compile(self)
        return c


def prepare(model: CommutingModel) -> PreparedModel:
    ids, projs = ground_projectors(model)
    black, white = decompose_layers(model.spec, ids, projs)
    return PreparedModel(model, ids, projs, black, white)


def _as_prepared(m: CommutingModel | PreparedModel) -> PreparedModel:
    return m if isinstance(m, PreparedModel) else prepare(m)


def _bad_label(b) -> bool:
    # bool is an int subclass, but numpy reads a bool index as a mask; a
    # float is refused, not rounded
    return isinstance(b, (bool, np.bool_)) or not isinstance(b, (int, np.integer)) or b not in (0, 1)


def _label_vector(prep: PreparedModel, cert: Certificate | np.ndarray) -> np.ndarray:
    """The labels as a 0/1 intp vector in `label_order` plus the padding 0
    (the pattern gathers multiply by int64 weights); a vector, or a 2-D
    stack of them, is taken as it is and padded.  Raises
    CertificateDomainError unless the labels cover exactly the split
    vertices with integers 0 and 1."""
    order = prep.label_order
    if isinstance(cert, np.ndarray):
        n = len(order[0]) + len(order[1])
        if (cert.dtype.kind not in "iu" or cert.ndim not in (1, 2) or cert.shape[-1] != n
                or np.any((cert != 0) & (cert != 1))):
            raise CertificateDomainError(f"a label vector must hold {n} integers 0 or 1")
        return np.concatenate([cert, np.zeros(cert.shape[:-1] + (1,), cert.dtype)], axis=-1)
    values = ()
    for name, labels, want, get in zip(("alpha", "beta"), (cert.alpha, cert.beta), order, prep.label_getters):
        try:
            if len(labels) == len(want):
                values += get(labels)
                continue
        except KeyError:
            pass
        raise CertificateDomainError(
            f"{name} labels must cover exactly the split vertices; "
            f"extra={sorted(set(labels) - set(want))} missing={sorted(set(want) - set(labels))}"
        )
    # bytes() takes ints 0..255, bools and numpy ints; the type pass sends the
    # last two to the one-by-one check, so labels that pass it were taken
    try:
        bx = np.frombuffer(bytes(values) + b"\0", dtype=np.uint8)
    except (TypeError, ValueError):
        bx = None
    if bx is None or bx.max() > 1 or set(map(type, values)) != {int}:
        for name, labels in (("alpha", cert.alpha), ("beta", cert.beta)):
            for v, b in labels.items():
                if _bad_label(b):
                    raise CertificateDomainError(f"{name}[{v}] = {b!r}, must be 0 or 1")
    return bx.astype(np.intp)


def apply_certificate(prep: PreparedModel, cert: Certificate) -> dict[Plaquette, LabeledOp]:
    """Sandwich each plaquette projector at its own-layer split corners by
    the chosen rank-1 slice projectors: the literal definition, which the
    plaquette tables replace inside `compute_omega`."""
    _label_vector(prep, cert)
    lx, out = prep.model.spec.lx, {}
    for p, op in projector_ops(prep.model.spec, prep.ids, prep.projectors).items():
        own, labels = (prep.black, cert.alpha) if lattice.is_black(p) else (prep.white, cert.beta)
        slices = np.array([_ID2] * len(op.labels), dtype=complex)
        for k, (x, y) in enumerate(op.labels):
            if (x, y) in labels:  # |b><b|, b column `label` of the vertex's slice basis
                b = own.basis[own.basis_row[y * lx + x], :, labels[x, y]]
                slices[k] = np.outer(b, b.conj())
        pi = _corner_kron(slices)
        out[p] = LabeledOp(pi @ op.mat @ pi, op.labels)
    return out


@dataclass(frozen=True, eq=False)
class EffectiveState:
    """A plaquette operator after slice projection and tracing of split
    vertices, pruned to the corners it genuinely acts on.  `mat` is a
    (2**s, 2**s) matrix, or a stack (G, 2**s, 2**s) of them for G label
    rows; s = 0 means a plain scalar."""

    plaquette: Plaquette
    color: str
    support: tuple[Vertex, ...]
    mat: np.ndarray


def _prune(block: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """The qubits a (d, d) block B acts on, by position (0 most significant),
    and B pruned: qubit q is dropped, B becoming tr_q(B)/2, when
    |B - id_q (x) tr_q(B)/2| <= PRUNE_RTOL |B|.  If B = id_q (x) rest this is
    exact; a later factor of 2 is credited to q only if no other state acts
    there.  One pass suffices: tracing out an identity factor leaves every
    other qubit's factor, and so its test, as it was."""
    s = block.shape[0].bit_length() - 1
    kept, t = [], block.reshape((2,) * 2 * s)
    for q in range(s):
        # qubit q is row axis len(kept); its column axis follows the rows of the qubits left
        m = np.moveaxis(t, (len(kept), len(kept) + t.ndim // 2), (0, 1))
        half = (m[0, 0] + m[1, 1]) / 2.0
        if frob(np.stack([m[0, 1], m[1, 0], half - m[0, 0], half - m[1, 1]])) <= PRUNE_RTOL * frob(t):
            t = half
        else:
            kept.append(q)
    return tuple(kept), t.reshape(2 ** len(kept), -1)


def _state_values(c: CompiledModel, idx: np.ndarray) -> np.ndarray:
    """The `scal` value of each state-table entry of idx (a row of the
    plaquettes' entries, or a stack of rows), pruning and checking each
    entry not read before once, at its first read in row order."""
    vals, flat = c.scal[idx], idx.ravel()
    new = np.flatnonzero(np.isnan(vals))
    if new.size:
        new = new[np.sort(np.unique(flat[new], return_index=True)[1])]
    for k in new.tolist():
        e, j = flat[k], k % len(c.plaquettes)
        blocks = c.shared[c.which[j]][1]
        d = blocks.shape[-1]
        kept, mat = _prune(blocks.reshape(-1, d, d)[e - c.state_at[j]])
        norm = frob(mat)
        if norm > ZERO_FLOOR:
            w = np.linalg.eigvalsh(mat)
            if w[0] < -POSITIVITY_TOL * max(1.0, norm):
                raise DegreeViolation(
                    f"effective state at {c.plaquettes[j]} lost positivity (min eig {w[0]:.2e}); "
                    "input terms likely do not commute"
                )
        # `kept` and `code` before `scal`, which tells readers they are there
        c.kept[e], c.code[e] = (kept, mat), sum(1 << q for q in kept)
        c.scal[e] = math.inf if kept else mat[0, 0].real
    return c.scal[idx] if new.size else vals


def _states(c: CompiledModel, idx: np.ndarray, rows) -> list[EffectiveState]:
    """The effective states of plaquettes `rows` under the state-table
    entries idx: one row of entries gives each state its matrix, a stack
    of rows whose states have equal supports the matrices stacked, each
    distinct entry read once."""
    out, lx = [], c.spec.lx
    lead = (idx[0] if idx.ndim == 2 else idx)[rows].tolist()
    for j, e in zip(rows, lead):
        (kept, mat), free = c.kept[e], c.free[j]
        if idx.ndim == 2:
            distinct, inv = np.unique(idx[:, j], return_inverse=True)
            mat = np.stack([c.kept[x][1] for x in distinct.tolist()])[inv]
        support = tuple((free[k] % lx, free[k] // lx) for k in kept)
        out.append(EffectiveState(c.plaquettes[j], BLACK if j < c.n_black else WHITE, support, mat))
    return out


def effective_states(
    prep: PreparedModel, cert: Certificate
) -> tuple[list[EffectiveState], list[EffectiveState], list[tuple[Vertex, float]]]:
    """Reduce the sliced projectors to effective states and vertex overlaps.

    Vertices split in both layers contribute tr[pi_alpha pibar_beta] each;
    vertices split in one layer only are absorbed by slicing the other
    layer's operators there before tracing.  Each state is a block of its
    plaquette table, pruned.
    """
    bx = _label_vector(prep, cert)
    c = prep.compiled()
    idx = c.entries(bx)
    _state_values(c, idx)
    states = _states(c, idx, range(len(c.plaquettes)))
    overlaps = list(zip(c.both, c.overlaps(bx).tolist()))
    return states[: c.n_black], states[c.n_black :], overlaps


@dataclass
class Component:
    kind: str  # "isolated" | "path" | "cycle"
    node_ids: list[int]


@dataclass
class OverlapGraph:
    nodes: list[EffectiveState]
    adjacency: dict[int, dict[int, tuple[Vertex, ...]]]
    components: list[Component]
    max_degree: int


def build_overlap_graph(
    blacks: list[EffectiveState], whites: list[EffectiveState]
) -> OverlapGraph:
    """Connect effective states that share support; the result must be a
    disjoint union of isolated nodes, paths, and cycles."""
    nodes = [s for s in blacks + whites if s.support]
    owner: dict[tuple[Vertex, str], int] = {}
    for i, s in enumerate(nodes):
        for v in s.support:
            if (v, s.color) in owner:
                raise DegreeViolation(
                    f"two {s.color} effective states ({nodes[owner[v, s.color]].plaquette} and "
                    f"{s.plaquette}) both act on {v}"
                )
            owner[v, s.color] = i

    adjacency: dict[int, dict[int, tuple[Vertex, ...]]] = {i: {} for i in range(len(nodes))}
    for (v, color), i in owner.items():
        j = owner.get((v, WHITE))
        if color == BLACK and j is not None:
            adjacency[i][j] = adjacency[i].get(j, ()) + (v,)
            adjacency[j][i] = adjacency[j].get(i, ()) + (v,)

    max_degree = 0
    for i, nbrs in adjacency.items():
        max_degree = max(max_degree, len(nbrs))
        if len(nbrs) > 2:
            raise DegreeViolation(
                f"effective state at {nodes[i].plaquette} overlaps "
                f"{len(nbrs)} neighbors; chains allow at most 2"
            )

    # path ends and isolated nodes first, in id order, so each path is walked
    # from its smaller end; what remains are cycles, each walked from its
    # smallest node towards the smaller of that node's neighbours
    components = []
    seen: set[int] = set()
    for start in sorted(range(len(nodes)), key=lambda k: (len(adjacency[k]) == 2, k)):
        if start in seen:
            continue
        order, prev, node = [start], start, min(adjacency[start], default=None)
        while node is not None and node != start:
            order.append(node)
            prev, node = node, next((j for j in adjacency[node] if j != prev), None)
        seen.update(order)
        components.append(Component(("isolated", "path", "cycle")[len(adjacency[start])], order))
    components.sort(key=lambda comp: min(nodes[i].plaquette for i in comp.node_ids))
    return OverlapGraph(nodes, adjacency, components, max_degree)


def contract_component(component: Component, nodes: list[EffectiveState]) -> float | np.ndarray:
    """Trace of (product of black states)(product of white states) on the
    component's support.  Each qubit's wire runs through at most one black
    and one white state, so the network is the same in any listing order;
    `trace_product_embedded` absorbs the states in chain order, which keeps
    at most two qubits open (plus the wrap-around pair for cycles).  States
    with stacked matrices give the stack of traces.
    """
    ops = [LabeledOp(nodes[i].mat, nodes[i].support) for i in component.node_ids]
    value = trace_product_embedded(ops, range(len(ops)))
    flat = np.ravel(value)
    unreal = flat[abs(flat.imag) > IMAG_RTOL * (1.0 + abs(flat))]
    if unreal.size:
        raise DegreeViolation(f"component trace came out non-real: {unreal[0]}")
    return value.real


@dataclass
class OmegaFactor:
    kind: str  # "vertex-overlap" | "component" | "free-qubit"
    key: object
    value: float | None  # linear value; None for the free-qubit factor
    log2: float


@dataclass
class OmegaResult:
    """Omega's zero flag, its log2 and how many of its factors do not
    vanish.  `factors` lists them, built on first access: the annihilated
    plaquettes alone, or the vertex overlaps, then the scalar states, then
    (when neither vanishes) the chain components and the free qubits."""

    zero: bool
    log2_magnitude: float
    nonzero: int
    _factors: Callable[[], list[OmegaFactor]] = field(repr=False, compare=False)

    @cached_property
    def factors(self) -> list[OmegaFactor]:
        return self._factors()


def _factor(kind: str, key, value: float) -> OmegaFactor:
    log2 = math.log2(value) if value > ZERO_FLOOR else -math.inf
    return OmegaFactor(kind, key, value, log2)


def _dead_factors(keys: list) -> list[OmegaFactor]:
    return [_factor(COMPONENT, k, 0.0) for k in keys]


def _factors(c: CompiledModel, overlaps: np.ndarray, vals: np.ndarray,
             keys: list | tuple = (), values: list | tuple = (), free: tuple = ()) -> list[OmegaFactor]:
    """One row's factors from its vertex overlaps, its state-table values
    (the finite ones are its scalar states), and its chain components'
    keys and values and its free qubits."""
    out = [_factor(VERTEX_OVERLAP, v, x) for v, x in zip(c.both, overlaps.tolist())]
    out += [_factor(COMPONENT, (c.plaquettes[j],), x) for j, x in enumerate(vals.tolist()) if math.isfinite(x)]
    out += [_factor(COMPONENT, key, val) for key, val in zip(keys, values)]
    return out + [OmegaFactor(FREE_QUBIT, free, None, float(len(free)))] if free else out


def compute_omega(
    m: CommutingModel | PreparedModel, cert: Certificate | np.ndarray
) -> OmegaResult | list[OmegaResult]:
    """Value of the certificate: per-vertex slice overlaps times chain
    contractions times 2 per untouched qubit, accumulated in log2.  `cert`
    may also be its labels as one 0/1 vector in `label_order`, as greedy
    search passes it, or a 2-D stack of such rows, as the scans pass them;
    a stack gives one OmegaResult per row, each with the `zero` and
    `nonzero` of the one-row call, its `log2_magnitude` to rounding (the
    stacked contraction may add terms in another order; see
    `trace_product_embedded`) and its `factors` built on first access,
    from that row alone."""
    prep = _as_prepared(m)
    bx = _label_vector(prep, cert)
    results = _omega_rows(prep.compiled(), bx.reshape(-1, bx.shape[-1]))
    return results if bx.ndim == 2 else results[0]


def _omega_rows(c: CompiledModel, bx: np.ndarray) -> list[OmegaResult]:
    """compute_omega's stages on a stack of padded label rows.  Each stage
    gathers over the rows it reaches; rows whose states keep the same
    corners share one overlap graph, built from the first of them, and its
    components are contracted once for all of them, on stacked matrices.
    A group of one row is read unstacked."""
    out: list = [None] * len(bx)
    # an annihilated plaquette (a dead entry) zeroes Omega before any state is read
    idx = c.entries(bx)
    dead = c.dead[idx]
    reached = []
    for r, killed in enumerate(dead.any(axis=1).tolist()):
        if killed:
            keys = sorted((c.plaquettes[j],) for j in dead[r].nonzero()[0].tolist())
            out[r] = OmegaResult(True, -math.inf, 0, partial(_dead_factors, keys))
        else:
            reached.append(r)
    if not reached:
        return out
    if len(reached) < len(bx):
        bx, idx = bx[reached], idx[reached]

    overlaps = c.overlaps(bx)
    vals = _state_values(c, idx)
    # a vanishing overlap or scalar state zeroes Omega; a state with support reads inf
    held = (overlaps > ZERO_FLOOR).all(axis=1) & (vals > ZERO_FLOOR).all(axis=1)
    rows = held.nonzero()[0].tolist()
    if len(rows) < len(held):
        lost = (~held).nonzero()[0]
        nonzero = (overlaps[lost] > ZERO_FLOOR).sum(axis=1) + (vals[lost] > ZERO_FLOOR).sum(axis=1)
        for r, n in zip(lost.tolist(), (nonzero - np.isinf(vals[lost]).sum(axis=1)).tolist()):
            out[reached[r]] = OmegaResult(True, -math.inf, n, partial(_factors, c, overlaps[r], vals[r]))

    groups = [rows] if len(rows) == 1 else []
    if len(rows) > 1:
        number = _distinct_rows(c.code[idx[rows]])[1]
        by_group = np.array(rows)[np.argsort(number, kind="stable")]
        groups = sorted((g.tolist() for g in np.split(by_group, np.cumsum(np.bincount(number))[:-1])), key=min)
    for g in groups:
        sel = g if len(g) > 1 else g[0]  # one row is read unstacked, as a one-row call reads it
        scalar = np.isfinite(vals[g[0]])
        cols = (~scalar).nonzero()[0].tolist()
        states = _states(c, idx[sel], cols)
        n_black = sum(s.color == BLACK for s in states)
        graph = build_overlap_graph(states[:n_black], states[n_black:])
        keys = [tuple(graph.nodes[i].plaquette for i in comp.node_ids) for comp in graph.components]
        values = np.array([contract_component(comp, graph.nodes) for comp in graph.components])
        supported = {v for s in states for v in s.support}
        free = tuple(v for v in c.unsplit if v not in supported)
        local = overlaps.shape[1] + len(scalar) - len(cols)
        local_log2 = np.log2(overlaps[sel]).sum(axis=-1) + np.log2(np.compress(scalar, vals[sel], axis=-1)).sum(axis=-1)
        for r, log2, comps in zip(g, np.atleast_1d(local_log2).tolist(), values.reshape(-1, len(g)).T.tolist()):
            live = sum(v > ZERO_FLOOR for v in comps)
            zero = live < len(comps)
            out[reached[r]] = OmegaResult(
                zero, -math.inf if zero else log2 + (sum(map(math.log2, comps)) + len(free)),
                local + live + bool(free), partial(_factors, c, overlaps[r], vals[r], keys, comps, free),
            )
    return out


@dataclass
class Verdict:
    accept: bool
    omega: OmegaResult
    log2_threshold: float


def default_log2_threshold(n_qubits: int) -> float:
    # half of the guaranteed floor 2**(-2N) for an honest certificate
    return -(2.0 * n_qubits + 1.0)


def verify(
    m: CommutingModel | PreparedModel,
    cert: Certificate,
    threshold: float | None = None,
) -> Verdict:
    """Accept iff Omega is nonzero and log2 Omega clears the threshold
    (default 2**-(2N+1))."""
    prep = _as_prepared(m)
    if threshold is None:
        log2_threshold = default_log2_threshold(prep.model.n_qubits)
    else:
        if not 0 < threshold < math.inf:  # nan fails both comparisons
            raise ValueError(f"threshold must be positive and finite, got {threshold}")
        log2_threshold = math.log2(threshold)
    omega = compute_omega(prep, cert)
    accept = (not omega.zero) and omega.log2_magnitude >= log2_threshold
    return Verdict(accept, omega, log2_threshold)


def _live_rows(c: CompiledModel, lo: int, hi: int, n: int, rows: range):
    """The 0/1 label rows of slots lo..hi-1 in lexicographic order, a chunk
    at a time, dropping any that annihilates one of the plaquettes `rows`;
    n is the slot count."""
    k = hi - lo
    for start in range(0, 1 << k, _CHUNK):
        a = np.arange(start, min(start + _CHUNK, 1 << k))
        bits = (a[:, None] >> np.arange(k - 1, -1, -1)) & 1
        bx = np.zeros((len(a), n + 1), dtype=np.intp)
        bx[:, lo:hi] = bits
        yield bits[~c.annihilated(bx, rows).any(axis=1)]


def _live_labels(prep: PreparedModel, max_bits: int):
    """The label vector of every certificate that annihilates no plaquette
    (those `compute_omega` zeroes at its first stage), lexicographically,
    black labels outermost, as 2-D stacks of at most _CHUNK rows;
    CapExceeded above 2**max_bits certificates.  A plaquette reads only its
    own layer's labels, so the surviving white rows are held and paired
    with the black ones as they are scanned."""
    nb = len(prep.f_black)
    bits = nb + len(prep.f_white)
    if bits > max_bits:
        raise CapExceeded(f"certificate space 2**{bits} exceeds 2**{max_bits}")
    c = prep.compiled()
    betas = np.concatenate(list(_live_rows(c, nb, bits, bits, range(c.n_black, len(c.plaquettes)))))
    alphas = _live_rows(c, 0, nb, bits, range(c.n_black))

    def stacks():
        for chunk in alphas:
            pairs = len(chunk) * len(betas)
            for start in range(0, pairs, _CHUNK):
                k = np.arange(start, min(start + _CHUNK, pairs))
                yield np.hstack([chunk[k // len(betas)], betas[k % len(betas)]])

    return stacks()
