"""Plaquette Hamiltonians with mutually commuting terms, and generators.

A model is a lattice plus one Hermitian 16x16 matrix per plaquette, acting
on the plaquette's corners in the fixed TL, TR, BR, BL order, stored once
per distinct matrix with one id per plaquette.  Generators
cover the stabilizer-type model (Z-words on black plaquettes, X-words on
white), classical Ising models in a field, and three seeded random
families used for testing.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from . import lattice
from .lattice import LatticeSpec, Plaquette, Vertex, is_black
from .linalg import COMMUTATION_TOL, HERMITICITY_RTOL, LabeledOp, ground_band

# pairs per batched evaluation in either pair kernel; bounds its working set
_PAIR_CHUNK = 32
# (p, q, Frobenius norm of the commutator) per pair of plaquettes
PairNorms = list[tuple[Plaquette, Plaquette, float]]


class ModelError(ValueError):
    """Malformed model input."""


class NonCommutingError(ModelError):
    """Operators required to commute do not; `violations` lists (p, q, norm)."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class Terms(Mapping):
    """A model's terms as a read-only mapping from plaquette to 16x16 matrix,
    in `lattice.plaquettes` order: terms[p] is the row of `distinct` that p's
    id names, one read-only object per distinct term."""

    def __init__(self, spec: LatticeSpec, ids: np.ndarray, distinct: np.ndarray):
        self._spec, self._ids, self._rows = spec, ids, list(distinct)
        self._px, self._py = lattice.plaquette_range(spec)

    def __getitem__(self, p: Plaquette) -> np.ndarray:
        try:
            x, y = map(operator.index, p)
        except (TypeError, ValueError):
            raise KeyError(p) from None
        if not (0 <= x < self._px and 0 <= y < self._py):
            raise KeyError(p)
        return self._rows[self._ids[y * self._px + x]]

    def __iter__(self) -> Iterator[Plaquette]:
        return iter(lattice.plaquettes(self._spec))

    def __len__(self) -> int:
        return len(self._ids)


def _by_first_appearance(ids: np.ndarray, distinct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ids renumbered by first appearance, with the rows they name: each
    byte-distinct matrix once, unused rows dropped."""
    rows: dict[bytes, int] = {}
    first_equal = np.array([rows.setdefault(m.tobytes(), i) for i, m in enumerate(distinct)])
    used, first, inverse = np.unique(first_equal[ids], return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(used), dtype=np.intp)
    rank[order] = np.arange(len(used))
    return rank[inverse], distinct[used[order]]


def _check_terms(spec: LatticeSpec, ids: np.ndarray, distinct: np.ndarray) -> None:
    """ModelError naming the first plaquette whose term has a non-finite
    entry, else the first whose term is not Hermitian."""
    bad, what = np.flatnonzero(~np.isfinite(distinct).all(axis=(1, 2))), "has non-finite entries"
    if not len(bad):  # NaN compares false with everything, so it would pass the Hermiticity check
        skew = np.linalg.norm(distinct - distinct.conj().transpose(0, 2, 1), axis=(1, 2))
        bad, what = np.flatnonzero(skew > HERMITICITY_RTOL * np.linalg.norm(distinct, axis=(1, 2))), "is not Hermitian"
    if len(bad):
        # rows are numbered by first appearance: the first bad row's first plaquette is the first bad one
        p = lattice.plaquettes(spec)[int(np.argmax(ids == bad[0]))]
        raise ModelError(f"term at {p} {what}")


class CommutingModel:
    """Lattice geometry plus one Hermitian term per plaquette, each distinct
    term held once: plaquette i of `lattice.plaquettes` has the term
    distinct[ids[i]].

    However the model is built, terms are numbered by first appearance in
    plaquette order and no two rows of the (D, 16, 16) stack `distinct` are
    equal bytes; `ids` and `distinct` are read-only, and each distinct term
    is validated once.  `terms` reads them as a mapping.

    `CommutingModel(spec, terms)` takes one matrix per plaquette, keyed by
    plaquette; terms that are one object, or equal bytes, share a row.
    `CommutingModel.from_ids(spec, ids, distinct)` takes the arrays.
    """

    __slots__ = ("spec", "ids", "distinct", "terms")

    def __init__(self, spec: LatticeSpec, terms: Mapping[Plaquette, np.ndarray]):
        plist = lattice.plaquettes(spec)
        valid = set(plist)
        for p in terms:
            if p not in valid:
                raise ModelError(f"plaquette {p} not on the lattice")
        missing = valid.difference(terms)
        if missing:
            raise ModelError(f"missing terms for plaquettes {sorted(missing)}")
        held = [terms[p] for p in plist]  # keeps every term alive while numbered by id()
        by_object: dict[int, int] = {}
        by_bytes: dict[bytes, int] = {}
        mats = []
        for p, t in zip(plist, held):
            if id(t) not in by_object:
                m = np.asarray(t, dtype=complex)
                if m.shape != (16, 16):
                    raise ModelError(f"term at {p} has shape {m.shape}, expected 16x16")
                row = by_object[id(t)] = by_bytes.setdefault(m.tobytes(), len(mats))
                if row == len(mats):
                    mats.append(m)
        self._build(spec, np.array([by_object[id(t)] for t in held]), np.stack(mats))

    @classmethod
    def from_ids(cls, spec: LatticeSpec, ids, distinct) -> CommutingModel:
        """The model whose plaquette i of `lattice.plaquettes` has the term
        distinct[ids[i]]: `ids` one integer per plaquette, `distinct` a stack
        (D, 16, 16).  Ids are renumbered by first appearance, equal rows
        merged and unused rows dropped."""
        ids, distinct = np.asarray(ids), np.asarray(distinct, dtype=complex)
        n = math.prod(lattice.plaquette_range(spec))
        if ids.shape != (n,) or ids.dtype.kind not in "iu":
            raise ModelError(f"ids have shape {ids.shape} and dtype {ids.dtype}, expected {n} integers")
        if distinct.ndim != 3 or distinct.shape[1:] != (16, 16):
            raise ModelError(f"distinct terms have shape {distinct.shape}, expected (D, 16, 16)")
        if ids.min() < 0 or ids.max() >= len(distinct):
            raise ModelError(f"ids span [{ids.min()}, {ids.max()}], outside [0, {len(distinct)})")
        model = cls.__new__(cls)
        model._build(spec, *_by_first_appearance(ids, distinct))
        return model

    def _build(self, spec: LatticeSpec, ids: np.ndarray, distinct: np.ndarray) -> None:
        """Validate and hold fresh arrays already numbered by first appearance."""
        _check_terms(spec, ids, distinct)
        ids.flags.writeable = distinct.flags.writeable = False
        self.spec, self.ids, self.distinct = spec, ids, distinct
        self.terms = Terms(spec, ids, distinct)

    @property
    def n_qubits(self) -> int:
        return self.spec.n_vertices


@dataclass
class CommutationReport:
    ok: bool
    violations: PairNorms


def _intersecting_pairs(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plaquette index pairs (first, second) sharing a corner, each once, in
    row-major order, and each pair's alignment: the bitmask with bit 4 a + b
    set when corner a of the first is corner b of the second."""
    cs = lattice.corner_ids(spec)
    by_vertex = np.argsort(cs.ravel(), kind="stable")  # incidences 4 i + k, plaquettes ascending
    v = cs.ravel()[by_vertex]
    # a vertex has at most 4 incidences, so the two ends of a pair sit at most 3 apart
    ends = [(s, s + d) for d in (1, 2, 3) for s in [np.flatnonzero(v[d:] == v[:-d])]]
    a, b = (by_vertex[np.concatenate(e)] for e in zip(*ends))
    keys, pair = np.unique(a // 4 * len(cs) + b // 4, return_inverse=True)
    align = np.bincount(pair, weights=1 << (4 * (a % 4) + b % 4), minlength=len(keys))
    return keys // len(cs), keys % len(cs), align.astype(np.int64)


def _shared_factors(mats: np.ndarray, shared: tuple[int, ...]) -> np.ndarray:
    """The alpha_i of each 16x16 plaquette matrix written as
    sum_i a_i (x) alpha_i across (other corners | shared corners, in the
    given order) with orthonormal a_i: the rows of the reshaped matrix (the
    a_i are matrix units), compressed by the R factor of a QR when there are
    more rows than columns (one shared corner: 64 rows to 4)."""
    n, s = len(mats), len(shared)
    own = [k for k in range(4) if k not in shared]
    axes = [0] + [b + k for ks in (own, shared) for b in (1, 5) for k in ks]
    m = mats.reshape((n,) + (2,) * 8).transpose(axes).reshape(n, 4 ** (4 - s), 4**s)
    return (np.linalg.qr(m, mode="r") if s < 2 else m).reshape(n, -1, 2**s, 2**s)


def _traceless(distinct: np.ndarray) -> np.ndarray:
    """A0 = A - tr(A)/16 of each: commutators from A0 round relative to |A0|, not |A|."""
    return distinct - np.trace(distinct, axis1=1, axis2=2)[:, None, None] / 16 * np.eye(16)


def _named(spec: LatticeSpec, first: np.ndarray, second: np.ndarray, norms: np.ndarray) -> PairNorms:
    plist = lattice.plaquettes(spec)
    return [(plist[i], plist[j], n) for i, j, n in zip(first.tolist(), second.tolist(), norms.tolist())]


def _distinct_pair_norms(
    spec: LatticeSpec, ids: np.ndarray, distinct: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Commutator norm of distinct[ids[i]] and distinct[ids[j]] per
    intersecting pair (i, j), with the pairs.

    With A = sum_i a_i (x) alpha_i and B = sum_j beta_j (x) b_j split at
    the shared corners, a_i and b_j orthonormal, the norm is exactly
    sqrt(sum_ij |alpha_i beta_j - beta_j alpha_i|^2), so no 64x64 or
    128x128 embedding is formed.  Pairs are batched by alignment (which
    corners of p meet which of q); equal matrices share one evaluation.
    """
    first, second, align = _intersecting_pairs(spec)
    n = len(distinct)
    # sorted by alignment, then ids: each alignment's evaluations are one run
    keys, slot = np.unique((align * n + ids[first]) * n + ids[second], return_inverse=True)
    norms = np.empty(len(keys))
    starts = np.flatnonzero(np.diff(keys // n**2, prepend=-1)).tolist() + [len(keys)]
    for start, stop in zip(starts, starts[1:]):
        bits = [b for b in range(16) if keys[start] // n**2 >> b & 1]
        on_p, on_q = tuple(b // 4 for b in bits), tuple(b % 4 for b in bits)
        for k in range(start, stop, _PAIR_CHUNK):
            chunk = keys[k : min(k + _PAIR_CHUNK, stop)]
            al = _shared_factors(distinct[chunk // n % n], on_p)
            be = _shared_factors(distinct[chunk % n], on_q)
            m, r, d, _ = al.shape
            # blocks [i, :, j, :] of alpha_i beta_j and of beta_j alpha_i, then of their difference
            ab = (al.reshape(m, r * d, d) @ be.transpose(0, 2, 1, 3).reshape(m, d, -1)).reshape(m, r, d, -1, d)
            ba = be.reshape(m, -1, d) @ al.transpose(0, 2, 1, 3).reshape(m, d, r * d)
            ab -= ba.reshape(m, -1, d, r, d).transpose(0, 3, 2, 1, 4)
            x = ab.reshape(m, -1).view(float)
            norms[k : k + len(chunk)] = np.sqrt(np.einsum("mi,mi->m", x, x))
    return first, second, norms[slot]


def _band_pair_norms(
    spec: LatticeSpec, ids: np.ndarray, projectors: np.ndarray, frame: np.ndarray, side: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_distinct_pair_norms` for ground projectors, read from the band frame
    (`ground_band`) of the member with the smaller side r.  With V its first r
    frame columns and Vc the rest, P = V V^dag (or 1 - P, whose commutators are
    -[P, Q]) and [P, Q] = P Q (1 - P) - (1 - P) Q P, two orthogonal blocks that
    are each other's adjoints: |[P, Q]| = sqrt(2) |(V (x) I)^dag (I (x) Q) (Vc (x) I)|
    exactly, nothing subtracted.  Z = V^dag Vc over the frame side's own corners,
    then Z Q over the shared ones; evaluations are grouped by (alignment, frame
    member, r, id, id), and r = 0 (P = I) gives 0."""
    first, second, align = _intersecting_pairs(spec)
    n, swap = len(projectors), side[ids[second]] < side[ids[first]]  # swap: the second is the frame side
    f, o = np.where(swap, ids[second], ids[first]), np.where(swap, ids[first], ids[second])
    keys, slot = np.unique(((align << 5 | swap << 4 | side[f]) * n + f) * n + o, return_inverse=True)
    norms = np.empty(len(keys))
    starts = np.flatnonzero(np.diff(keys // n**2, prepend=-1)).tolist() + [len(keys)]
    for start, stop in zip(starts, starts[1:]):
        group = int(keys[start] // n**2)
        r, step = group & 15, -1 if group & 16 else 1
        on_f, on_o = ([*c] for c in zip(*[(b // 4, b % 4)[::step] for b in range(16) if group >> 5 >> b & 1]))
        du, ds = 2 ** (4 - len(on_f)), 2 ** len(on_f)  # dimensions of the frame side's own and shared corners
        v_axes = [0, *(1 + c for c in range(4) if c not in on_f), *(1 + c for c in on_f), 5]
        q_axes = [0, *(b + c for cs in (on_o, [c for c in range(4) if c not in on_o]) for b in (1, 5) for c in cs)]
        for k in range(start, stop, _PAIR_CHUNK):
            chunk = keys[k : min(k + _PAIR_CHUNK, stop)]
            m = len(chunk)
            v = frame[chunk // n % n].reshape((m,) + (2,) * 4 + (16,)).transpose(v_axes).reshape(m, du, ds, 16)
            # Z[j, s, s', c] = sum_u conj(V[u s, j]) Vc[u s', c], as rows (j, c) by columns (s, s')
            z = v[..., :r].conj().transpose(0, 3, 2, 1).reshape(m, -1, du) @ v[..., r:].reshape(m, du, -1)
            z = z.reshape(m, r, ds, ds, 16 - r).transpose(0, 1, 4, 2, 3).reshape(m, -1, ds * ds)
            q = projectors[chunk % n].reshape((m,) + (2,) * 8).transpose(q_axes).reshape(m, ds * ds, -1)
            x = (z @ q).reshape(m, -1).view(float)
            norms[k : k + m] = np.sqrt(2 * np.einsum("mi,mi->m", x, x))
    return first, second, norms[slot]


def _violations(spec: LatticeSpec, ids: np.ndarray, distinct: np.ndarray, radius: np.ndarray, band=()) -> PairNorms:
    """Intersecting pairs with |[A, B]| > COMMUTATION_TOL |A0| |B0| + 2 (r_A + r_B),
    A = distinct[ids[p]] and r_A = radius[ids[p]] (a projector's radius).  Given
    `band`, the (frame, side) of `ground_band`, the rows are projectors and their
    norms come from `_band_pair_norms`; else from `_distinct_pair_norms`."""
    traceless = _traceless(distinct)
    norm = np.linalg.norm(traceless, axis=(1, 2))
    first, second, norms = (
        _band_pair_norms(spec, ids, distinct, *band) if band else _distinct_pair_norms(spec, ids, traceless)
    )
    a, b = ids[first], ids[second]
    bad = norms > COMMUTATION_TOL * norm[a] * norm[b] + 2 * (radius[a] + radius[b])
    return _named(spec, first[bad], second[bad], norms[bad])


def check_commuting(model: CommutingModel) -> CommutationReport:
    """Exhaustively check all plaquette pairs that share at least one qubit.

    Disjoint pairs commute trivially and are skipped.
    """
    violations = _violations(model.spec, model.ids, model.distinct, np.zeros(len(model.distinct)))
    return CommutationReport(not violations, violations)


def ground_projectors(model: CommutingModel) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the terms' ground bands as (ids, projectors):
    `projectors` stacks one per distinct term, numbered by first appearance
    in `lattice.plaquettes` order, and `ids` gives each plaquette's row, in
    that order.

    Raises NonCommutingError, naming every pair of overlapping projectors
    that fail to commute beyond their radii (`linalg.ground_band`): input
    that does not commute, or a degeneracy split by the gap tolerance.  Pair
    norms come from the band frames of the same eigh (`_band_pair_norms`).
    """
    stack, radius, *band = ground_band(model.distinct)  # equal terms share one eigendecomposition
    bad = _violations(model.spec, model.ids, stack, radius, band)
    if bad:
        (p, q, norm), rest = bad[0], bad[1:]
        more = "".join(f"; also at {a} and {b} (norm {n:.2e})" for a, b, n in rest)
        raise NonCommutingError(
            f"ground projectors at {p} and {q} do not commute (norm {norm:.2e}){more}", bad
        )
    return model.ids, stack


def projector_ops(spec: LatticeSpec, ids: np.ndarray, projectors: np.ndarray) -> dict[Plaquette, LabeledOp]:
    """Each plaquette's ground projector on its corners, in `lattice.plaquettes`
    order, from the (ids, projectors) of `ground_projectors`."""
    return {
        p: LabeledOp(projectors[i], tuple(lattice.corners(spec, p)))
        for p, i in zip(lattice.plaquettes(spec), ids.tolist())
    }


# ---------------------------------------------------------------------------
# Generators


def _pauli_word(m2: np.ndarray) -> np.ndarray:
    w = m2
    for _ in range(3):
        w = np.kron(w, m2)
    return w


_Z4 = _pauli_word(np.array([[1, 0], [0, -1]], dtype=complex))
_X4 = _pauli_word(np.array([[0, 1], [1, 0]], dtype=complex))
# one term per kind, stacked: toric rows black, white; signed rows black
# -1, black +1, white -1, white +1; -Z4 and -1 * Z4 differ in the signs of
# their zeros
_TORIC = np.stack([-_Z4, -_X4])
_SIGNED = np.stack([-s * word for word in (_Z4, _X4) for s in (-1, 1)])


def _check_keys(given: Mapping, keys: list, what: str, complete: bool = False) -> None:
    """ModelError naming the first key of `given` that is no `what` of the
    lattice, or, if `complete`, the first of `keys` that `given` lacks."""
    allowed = set(keys)
    odd = [k for k in given if k not in allowed] or [k for k in keys if complete and k not in given]
    if odd:
        k = odd[0]
        raise ModelError(f"no value for {what} {k!r}" if k in allowed else f"key {k!r} is no {what} of the lattice")


def gen_toric(spec: LatticeSpec) -> CommutingModel:
    """Stabilizer model: h = -Z^(x)4 on black plaquettes, -X^(x)4 on white,
    built from the ids of the two colors."""
    px, py = lattice.plaquette_range(spec)
    y, x = np.divmod(np.arange(px * py), px)
    return CommutingModel.from_ids(spec, (x + y) % 2, _TORIC)


def gen_signed_toric(
    spec: LatticeSpec,
    seed: int | None = None,
    black_signs: Mapping[Plaquette, int] | None = None,
    white_signs: Mapping[Plaquette, int] | None = None,
) -> CommutingModel:
    """Stabilizer model with per-plaquette signs h = -s Z^(x)4 / -s X^(x)4.

    A plaquette without a given sign gets an independent seeded +-1 draw; a
    given sign other than +-1, or at no plaquette of its color, raises
    ModelError.  On a periodic lattice the product of all signs of one color
    must be +1 for a common ground state to exist, so random draws are
    frustrated half the time.  Terms of one color and sign share one row.
    """
    plist = lattice.plaquettes(spec)
    _check_keys(black_signs or {}, [p for p in plist if is_black(p)], "black plaquette")
    _check_keys(white_signs or {}, [p for p in plist if not is_black(p)], "white plaquette")
    rng = np.random.default_rng(seed)
    rows = []
    for p in plist:
        given = (black_signs if is_black(p) else white_signs) or {}
        s = given[p] if p in given else int(rng.choice((-1, 1)))
        if s not in (-1, 1):
            raise ModelError(f"sign {s!r} at plaquette {p} must be +1 or -1")
        rows.append(2 * (not is_black(p)) + (s == 1))
    return CommutingModel.from_ids(spec, rows, _SIGNED)


def gen_ising(
    spec: LatticeSpec,
    couplings: float | Mapping[lattice.Edge, float] = 1.0,
    fields: float | Mapping[Vertex, float] = 0.0,
) -> CommutingModel:
    """Classical Ising model in a field, packaged as plaquette terms.

    Each lattice edge contributes -J Z Z to exactly one plaquette (the
    black one when the edge borders two, else the unique one) and each
    vertex field is split evenly over the plaquettes containing it, so the
    terms sum to -sum_e J_e Z Z - sum_v f_v Z_v exactly once.  All terms
    are diagonal, hence commuting.  A mapping must key exactly every edge
    (a sorted vertex pair) or vertex, else ModelError names the odd key.
    """
    all_edges = lattice.edges(spec)
    if not isinstance(couplings, Mapping):
        couplings = {e: float(couplings) for e in all_edges}
    if not isinstance(fields, Mapping):
        fields = {v: float(fields) for v in spec.vertices()}
    _check_keys(couplings, all_edges, "edge", complete=True)
    _check_keys(fields, spec.vertices(), "vertex", complete=True)

    owned: dict[Plaquette, list[tuple[lattice.Edge, float]]] = {}
    for e in all_edges:
        owner = lattice.edge_owner(spec, *e)
        owned.setdefault(owner, []).append((e, couplings[e]))

    degree = {v: len(lattice.incident_plaquettes(spec, v)) for v in spec.vertices()}
    signs = 1 - 2 * ((np.arange(16)[:, None] >> np.arange(3, -1, -1)[None, :]) & 1)

    terms = {}
    for p in lattice.plaquettes(spec):
        cs = lattice.corners(spec, p)
        diag = np.zeros(16)
        for e, j in owned.get(p, []):
            ia, ib = cs.index(e[0]), cs.index(e[1])
            diag -= j * signs[:, ia] * signs[:, ib]
        for i, v in enumerate(cs):
            diag -= (fields[v] / degree[v]) * signs[:, i]
        terms[p] = np.diag(diag.astype(complex))
    return CommutingModel(spec, terms)


def _haar_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gen_rotated_classical(
    spec: LatticeSpec, seed: int = 0
) -> tuple[CommutingModel, dict[Vertex, np.ndarray]]:
    """Random diagonal terms conjugated by one random unitary per vertex.

    All terms are diagonal in the same rotated product basis, so they
    commute.  Returns the model together with the per-vertex unitaries
    (the slice bases the pipeline should rediscover).
    """
    rng = np.random.default_rng(seed)
    units = {v: _haar_qubit_unitary(rng) for v in spec.vertices()}
    terms = {}
    for p in lattice.plaquettes(spec):
        u = np.eye(1, dtype=complex)
        for v in lattice.corners(spec, p):
            u = np.kron(u, units[v])
        diag = rng.standard_normal(16)
        m = u @ np.diag(diag.astype(complex)) @ u.conj().T
        terms[p] = (m + m.conj().T) / 2
    return CommutingModel(spec, terms), units


def gen_random(spec: LatticeSpec, seed: int = 0, method: str = "rotated-classical") -> CommutingModel:
    """Seeded random commuting models; method is one of
    "rotated-classical", "signed-toric", "diagonal-field"."""
    method = method.replace("_", "-")
    if method == "rotated-classical":
        return gen_rotated_classical(spec, seed)[0]
    if method == "signed-toric":
        return gen_signed_toric(spec, seed)
    if method == "diagonal-field":
        rng = np.random.default_rng(seed)
        couplings = {e: float(rng.choice((-1.0, 1.0))) for e in lattice.edges(spec)}
        fields = {v: float(rng.normal(0.0, 0.5)) for v in spec.vertices()}
        return gen_ising(spec, couplings, fields)
    raise ValueError(f"unknown method {method!r}")
