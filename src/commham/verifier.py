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
  that contract with a constant-size frontier.

Omega is accumulated in the log2 domain since honest values scale like
2**(-2N); each factor is O(1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .decompose import LayerDecomposition, decompose_layers
from .lattice import BLACK, WHITE, Plaquette, Vertex
from .linalg import (
    IMAG_RTOL, LOG2_TIE_TOL, POSITIVITY_TOL, PRUNE_RTOL, ZERO_FLOOR,
    LabeledOp, embed, frob, partial_trace,
)
from .model import CommutingModel, ground_projectors

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


@dataclass(eq=False)
class PlaquetteTable:
    """One plaquette's slicing data, read from R = U^dag P U.

    The slice frame U is the Kronecker product over the corners of the
    own-layer slice basis at own-split corners, the other layer's at
    other-only corners and the identity elsewhere.  In it, slicing keeps
    the rows and columns whose bit at a corner is the label, and tracing
    out a rank-1 slice keeps that diagonal entry.  `norms[b]` is the
    Frobenius norm of the block whose own-split rows and columns equal b,
    the sliced projector's norm since U is unitary.  `blocks[own + other]`
    is the diagonal block over all split corners: the effective state on
    the unsplit corners before pruning.  Effective states are memoized per
    local pattern in `effective`.
    """

    color: str
    corners: tuple[Vertex, ...]
    own_split: tuple[Vertex, ...]
    other_only: tuple[Vertex, ...]
    norms: np.ndarray
    blocks: np.ndarray
    effective: dict = field(default_factory=dict)

    def own_bits(self, cert: Certificate) -> tuple[int, ...]:
        labels = cert.alpha if self.color == BLACK else cert.beta
        return tuple(labels[v] for v in self.own_split)


_ID2 = np.eye(2)


def _corner_kron(mats: list[np.ndarray]) -> np.ndarray:
    """Kronecker product of one 2x2 matrix per corner, corner 0 most
    significant, as one einsum: corner i owns row axis i and column axis
    n + i."""
    n = len(mats)
    args = [x for i, m in enumerate(mats) for x in (m, [i, n + i])]
    return np.einsum(*args, list(range(2 * n))).reshape(2**n, 2**n)


def _plaquette_table(prep: PreparedModel, p: Plaquette) -> PlaquetteTable:
    color = lattice.plaquette_color(p)
    own, other = (prep.black, prep.white) if color == BLACK else (prep.white, prep.black)
    cs = tuple(lattice.corners(prep.model.spec, p))
    own_split = tuple(v for v in cs if own.decomps[v].split)
    other_only = tuple(v for v in cs if other.decomps[v].split and v not in own_split)
    frame = _corner_kron([
        own.decomps[v].basis if v in own_split
        else other.decomps[v].basis if v in other_only else _ID2
        for v in cs
    ])
    n = len(cs)
    rotated = (frame.conj().T @ prep.projectors[p] @ frame).reshape((2,) * (2 * n))
    own_ax = [cs.index(v) for v in own_split]
    split_ax = own_ax + [cs.index(v) for v in other_only]
    free_ax = [i for i in range(n) if i not in split_ax]

    def tied(axes: list[int]) -> list[int]:
        # row axis i and column axis n + i share one label for i in axes
        return list(range(n)) + [i if i in axes else n + i for i in range(n)]

    norms = np.sqrt(np.einsum(np.abs(rotated) ** 2, tied(own_ax), own_ax))
    blocks = np.einsum(rotated, tied(split_ax), split_ax + free_ax + [n + i for i in free_ax])
    d = 2 ** len(free_ax)
    blocks = blocks.reshape((2,) * len(split_ax) + (d, d)).copy()  # einsum's view would keep R
    return PlaquetteTable(color, cs, own_split, other_only, norms, blocks)


@dataclass
class PreparedModel:
    """Model with its ground projectors and layer decompositions attached.

    Slicing and tracing of a plaquette depend only on the few certificate
    labels at its corners.  Each plaquette gets a `PlaquetteTable` on first
    use (never in `prepare`): the norm of every local slice pattern, the
    unpruned effective state of every pattern of its split corners, and
    memoized effective states, so certificate scans and label flips reuse
    almost everything.  Tables and their entries are deterministic
    functions of the model, so a concurrent duplicate write stores an equal
    value and concurrent verification of distinct certificates against one
    prepared model is safe.
    """

    model: CommutingModel
    projectors: dict[Plaquette, np.ndarray]
    black: LayerDecomposition
    white: LayerDecomposition
    _tables: dict[Plaquette, PlaquetteTable] = field(default_factory=dict, repr=False)
    _overlaps: dict[Vertex, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def f_black(self) -> frozenset[Vertex]:
        return self.black.split_vertices

    @property
    def f_white(self) -> frozenset[Vertex]:
        return self.white.split_vertices

    def projector_op(self, p: Plaquette) -> LabeledOp:
        return LabeledOp(self.projectors[p], tuple(lattice.corners(self.model.spec, p)))

    def table(self, p: Plaquette) -> PlaquetteTable:
        t = self._tables.get(p)
        if t is None:
            t = self._tables[p] = _plaquette_table(self, p)
        return t


def prepare(model: CommutingModel) -> PreparedModel:
    projs = ground_projectors(model)
    black, white = decompose_layers(model.spec, projs)
    return PreparedModel(model, projs, black, white)


def _as_prepared(m: CommutingModel | PreparedModel) -> PreparedModel:
    return m if isinstance(m, PreparedModel) else prepare(m)


def _check_domain(prep: PreparedModel, cert: Certificate) -> None:
    for name, labels, want in (
        ("alpha", cert.alpha, prep.f_black),
        ("beta", cert.beta, prep.f_white),
    ):
        if labels.keys() != want:
            extra = sorted(set(labels) - set(want))
            missing = sorted(set(want) - set(labels))
            raise CertificateDomainError(
                f"{name} labels must cover exactly the split vertices; "
                f"extra={extra} missing={missing}"
            )
        for v, b in labels.items():
            # bool is an int subclass, but numpy reads a bool index as a mask
            if isinstance(b, (bool, np.bool_)) or b not in (0, 1):
                raise CertificateDomainError(f"{name}[{v}] = {b!r}, must be 0 or 1")


def apply_certificate(prep: PreparedModel, cert: Certificate) -> dict[Plaquette, LabeledOp]:
    """Sandwich each plaquette projector at its own-layer split corners by
    the chosen rank-1 slice projectors: the literal definition, which the
    plaquette tables replace inside `compute_omega`."""
    _check_domain(prep, cert)
    out = {}
    for p in lattice.plaquettes(prep.model.spec):
        own, labels = (prep.black, cert.alpha) if lattice.is_black(p) else (prep.white, cert.beta)
        op = prep.projector_op(p)
        pi = _corner_kron([
            own.decomps[v].slice_projector(labels[v]) if v in labels else _ID2
            for v in op.labels
        ])
        out[p] = LabeledOp(pi @ op.mat @ pi, op.labels)
    return out


@dataclass(frozen=True, eq=False)
class EffectiveState:
    """A plaquette operator after slice projection and tracing of split
    vertices, pruned to the corners it genuinely acts on.  `mat` is a
    (2**s, 2**s) matrix; s = 0 means a plain scalar."""

    plaquette: Plaquette
    color: str
    support: tuple[Vertex, ...]
    mat: np.ndarray

    @property
    def scalar(self) -> float | None:
        return float(self.mat[0, 0].real) if not self.support else None


def _prune_trivial_sites(op: LabeledOp) -> LabeledOp:
    """Drop qubits the operator acts on as the identity (within tolerance).

    If op = id_v (x) rest, replacing it by rest (= tr_v op / 2) is exact; a
    later factor of 2 is credited to v only if no other state acts there.
    One pass suffices: tracing out an identity factor leaves every other
    qubit's factor, and so its test, as it was.
    """
    for v in op.labels:
        reduced = partial_trace(op, [l for l in op.labels if l != v])
        half = LabeledOp(reduced.mat / 2.0, reduced.labels)
        if frob(embed(half, op.labels).mat - op.mat) <= PRUNE_RTOL * frob(op.mat):
            op = half
    return op


def _effective_state(prep: PreparedModel, p: Plaquette, cert: Certificate) -> EffectiveState:
    table = prep.table(p)
    other_labels = cert.beta if table.color == BLACK else cert.alpha
    key = (table.own_bits(cert), tuple(other_labels[v] for v in table.other_only))
    st = table.effective.get(key)
    if st is not None:
        return st

    free = [v for v in table.corners if v not in table.own_split + table.other_only]
    op = _prune_trivial_sites(LabeledOp(table.blocks[key[0] + key[1]], free))

    norm = frob(op.mat)
    if norm > ZERO_FLOOR:
        w = np.linalg.eigvalsh(op.mat)
        if w[0] < -POSITIVITY_TOL * max(1.0, norm):
            raise DegreeViolation(
                f"effective state at {p} lost positivity (min eig {w[0]:.2e}); "
                "input terms likely do not commute"
            )
    st = EffectiveState(p, table.color, tuple(op.labels), op.mat)
    table.effective[key] = st
    return st


def _overlap_table(prep: PreparedModel, v: Vertex) -> np.ndarray:
    """tr[pi_a pibar_b] = |<black slice a|white slice b>|^2 for all labels."""
    if v not in prep._overlaps:
        overlap = prep.black.decomps[v].basis.conj().T @ prep.white.decomps[v].basis
        prep._overlaps[v] = np.abs(overlap) ** 2
    return prep._overlaps[v]


def effective_states(
    prep: PreparedModel, cert: Certificate
) -> tuple[list[EffectiveState], list[EffectiveState], list[tuple[Vertex, float]]]:
    """Reduce the sliced projectors to effective states and vertex overlaps.

    Vertices split in both layers contribute tr[pi_alpha pibar_beta] each;
    vertices split in one layer only are absorbed by slicing the other
    layer's operators there before tracing.  Each state is a block of its
    plaquette table, pruned.
    """
    overlaps = []
    for v in sorted(prep.f_black & prep.f_white):
        overlaps.append((v, float(_overlap_table(prep, v)[cert.alpha[v], cert.beta[v]])))
    blacks, whites = [], []
    for p in lattice.plaquettes(prep.model.spec):
        st = _effective_state(prep, p, cert)
        (blacks if st.color == BLACK else whites).append(st)
    return blacks, whites, overlaps


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
    by_vertex: dict[Vertex, dict[str, int]] = {}
    for i, s in enumerate(nodes):
        for v in s.support:
            slot = by_vertex.setdefault(v, {})
            if s.color in slot:
                other = nodes[slot[s.color]]
                raise DegreeViolation(
                    f"two {s.color} effective states ({other.plaquette} and "
                    f"{s.plaquette}) both act on {v}"
                )
            slot[s.color] = i

    adjacency: dict[int, dict[int, tuple[Vertex, ...]]] = {i: {} for i in range(len(nodes))}
    for v, slot in by_vertex.items():
        if len(slot) == 2:
            i, j = slot[BLACK], slot[WHITE]
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

    components = []
    seen: set[int] = set()
    for i in sorted(range(len(nodes)), key=lambda k: nodes[k].plaquette):
        if i in seen:
            continue
        comp = _trace_component(i, adjacency)
        seen.update(comp.node_ids)
        components.append(comp)
    return OverlapGraph(nodes, adjacency, components, max_degree)


def _trace_component(start: int, adjacency: dict[int, dict[int, tuple]]) -> Component:
    # collect the connected component
    stack, members = [start], {start}
    while stack:
        i = stack.pop()
        for j in adjacency[i]:
            if j not in members:
                members.add(j)
                stack.append(j)
    if len(members) == 1:
        kind = "isolated" if not adjacency[start] else "cycle"
        return Component(kind, [start])
    ends = sorted(i for i in members if len(adjacency[i]) <= 1)
    if ends:
        kind, first = "path", ends[0]
    else:
        kind, first = "cycle", min(members)
    order = [first]
    prev = None
    while True:
        nxt = [j for j in adjacency[order[-1]] if j != prev]
        if kind == "cycle" and len(order) > 1:
            nxt = [j for j in nxt if j != first]
        if not nxt:
            break
        prev = order[-1]
        order.append(min(nxt))
        if len(order) == len(members):
            break
    return Component(kind, order)


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def contract_component(component: Component, nodes: list[EffectiveState]) -> float:
    """Trace of (product of black states)(product of white states) on the
    component's support, contracted sequentially along the chain.

    The trace tr[B W] is Sum B[i, j] W[j, i]; each qubit carries an index
    pair (i, j), a black state plugs row legs into i and column legs into
    j, a white state the other way around, and a missing color closes the
    pair.  Processing nodes in chain order keeps at most two qubits open
    (plus the wrap-around pair for cycles).
    """
    if component.kind == "isolated":
        s = nodes[component.node_ids[0]]
        return float(np.trace(s.mat).real)

    touch: dict[Vertex, int] = {}
    for i in component.node_ids:
        for v in nodes[i].support:
            touch[v] = touch.get(v, 0) + 1

    frontier = np.array(1.0 + 0.0j)
    open_wires: list[tuple[Vertex, str]] = []
    remaining = dict(touch)
    for i in component.node_ids:
        s = nodes[i]
        k = len(s.support)
        tensor = s.mat.reshape((2,) * (2 * k))
        row = "i" if s.color == BLACK else "j"
        col = "j" if s.color == BLACK else "i"
        node_wires = [(v, row) for v in s.support] + [(v, col) for v in s.support]

        # qubits touched by a single node get the same letter on both wires,
        # which einsum reads as a trace over the missing color's identity
        def canon(w: tuple[Vertex, str]) -> tuple[Vertex, str]:
            return (w[0], "i") if touch[w[0]] == 1 else w

        letters: dict[tuple[Vertex, str], str] = {}
        pool = iter(_LETTERS)
        for w in open_wires + node_wires:
            letters.setdefault(canon(w), next(pool))

        for v in s.support:
            remaining[v] -= 1
        out_wires = []
        for w in open_wires + node_wires:
            if remaining[w[0]] > 0 and w not in out_wires:
                out_wires.append(w)

        sub_f = "".join(letters[canon(w)] for w in open_wires)
        sub_n = "".join(letters[canon(w)] for w in node_wires)
        sub_o = "".join(letters[canon(w)] for w in out_wires)
        frontier = np.einsum(f"{sub_f},{sub_n}->{sub_o}", frontier, tensor)
        open_wires = out_wires

    value = complex(frontier)
    if abs(value.imag) > IMAG_RTOL * (1.0 + abs(value)):
        raise DegreeViolation(f"component trace came out non-real: {value}")
    return float(value.real)


@dataclass
class OmegaFactor:
    kind: str  # "vertex-overlap" | "component" | "free-qubit"
    key: object
    value: float | None  # linear value; None for the free-qubit factor
    log2: float


@dataclass
class OmegaResult:
    zero: bool
    log2_magnitude: float
    factors: list[OmegaFactor]


def _factor(kind: str, key, value: float) -> OmegaFactor:
    log2 = math.log2(value) if value > ZERO_FLOOR else -math.inf
    return OmegaFactor(kind, key, value, log2)


def compute_omega(m: CommutingModel | PreparedModel, cert: Certificate) -> OmegaResult:
    """Value of the certificate: per-vertex slice overlaps times chain
    contractions times 2 per untouched qubit, accumulated in log2."""
    prep = _as_prepared(m)
    _check_domain(prep, cert)

    # an annihilated plaquette zeroes Omega; its table says so before any
    # effective state is read
    factors: list[OmegaFactor] = []
    for p in sorted(lattice.plaquettes(prep.model.spec)):
        table = prep.table(p)
        if table.norms[table.own_bits(cert)] <= ZERO_FLOOR:
            factors.append(_factor(COMPONENT, (p,), 0.0))
    if factors:
        return OmegaResult(True, -math.inf, factors)

    blacks, whites, overlaps = effective_states(prep, cert)
    zero = False
    for v, val in overlaps:
        factors.append(_factor(VERTEX_OVERLAP, v, val))
        zero |= val <= ZERO_FLOOR
    for s in blacks + whites:
        if not s.support:
            factors.append(_factor(COMPONENT, (s.plaquette,), s.scalar))
            zero |= s.scalar <= ZERO_FLOOR
    if zero:
        return OmegaResult(True, -math.inf, factors)

    graph = build_overlap_graph(blacks, whites)
    for comp in graph.components:
        val = contract_component(comp, graph.nodes)
        key = tuple(graph.nodes[i].plaquette for i in comp.node_ids)
        factors.append(_factor(COMPONENT, key, val))
        zero |= val <= ZERO_FLOOR

    touched = set(prep.f_black) | set(prep.f_white)
    for s in blacks + whites:
        touched.update(s.support)
    free = [v for v in prep.model.spec.vertices() if v not in touched]
    if free:
        factors.append(OmegaFactor(FREE_QUBIT, tuple(free), None, float(len(free))))

    if zero:
        return OmegaResult(True, -math.inf, factors)
    log2 = sum(f.log2 for f in factors)
    return OmegaResult(False, log2, factors)


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
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        log2_threshold = math.log2(threshold)
    omega = compute_omega(prep, cert)
    accept = (not omega.zero) and omega.log2_magnitude >= log2_threshold
    return Verdict(accept, omega, log2_threshold)


def certificates_lex(
    f_black: frozenset[Vertex], f_white: frozenset[Vertex]
):
    """All certificates in lexicographic order, black labels outermost."""
    fb, fw = sorted(f_black), sorted(f_white)
    nb, nw = len(fb), len(fw)
    for a in range(1 << nb):
        alpha = {v: (a >> (nb - 1 - i)) & 1 for i, v in enumerate(fb)}
        for b in range(1 << nw):
            beta = {v: (b >> (nw - 1 - i)) & 1 for i, v in enumerate(fw)}
            yield Certificate(dict(alpha), beta)
