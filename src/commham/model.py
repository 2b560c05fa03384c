"""Plaquette Hamiltonians with mutually commuting terms, and generators.

A model is a lattice plus one Hermitian 16x16 matrix per plaquette, acting
on the plaquette's corners in the fixed TL, TR, BR, BL order.  Generators
cover the stabilizer-type model (Z-words on black plaquettes, X-words on
white), classical Ising models in a field, and three seeded random
families used for testing.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import lattice
from .lattice import LatticeSpec, Plaquette, Vertex, is_black
from .linalg import COMMUTATION_TOL, HERMITICITY_RTOL, content_ids, frob, ground_band

# pairs per batched factorization; bounds the kernel's working set
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


@dataclass(frozen=True, eq=False)
class CommutingModel:
    """Lattice geometry plus one Hermitian plaquette term per plaquette."""

    spec: LatticeSpec
    terms: dict[Plaquette, np.ndarray]

    def __post_init__(self) -> None:
        valid = set(lattice.plaquettes(self.spec))
        terms = {}
        for p, m in self.terms.items():
            if p not in valid:
                raise ModelError(f"plaquette {p} not on the lattice")
            m = np.asarray(m, dtype=complex)
            if m.shape != (16, 16):
                raise ModelError(f"term at {p} has shape {m.shape}, expected 16x16")
            if not np.isfinite(m).all():
                raise ModelError(f"term at {p} has non-finite entries")
            if frob(m - m.conj().T) > HERMITICITY_RTOL * frob(m):
                raise ModelError(f"term at {p} is not Hermitian")
            terms[p] = m
        missing = valid - set(terms)
        if missing:
            raise ModelError(f"missing terms for plaquettes {sorted(missing)}")
        object.__setattr__(self, "terms", terms)

    @property
    def n_qubits(self) -> int:
        return self.spec.n_vertices


@dataclass
class CommutationReport:
    ok: bool
    violations: PairNorms


def _intersecting_pairs(model: CommutingModel) -> list[tuple[Plaquette, Plaquette]]:
    """Plaquette pairs sharing a corner, each once, in row-major order of
    (first, second), found through the <= 4 plaquettes at each corner."""
    spec = model.spec
    order = {p: i for i, p in enumerate(lattice.plaquettes(spec))}
    at: dict[Vertex, list[Plaquette]] = {}
    for p in order:
        for v in lattice.corners(spec, p):
            at.setdefault(v, []).append(p)
    # each list is in row-major order, so every pair comes out (first, second)
    pairs = {pq for ps in at.values() for pq in itertools.combinations(ps, 2)}
    return sorted(pairs, key=lambda pq: (order[pq[0]], order[pq[1]]))


def _shared_factors(mats: np.ndarray, shared: tuple[int, ...]) -> np.ndarray:
    """The alpha_i of each 16x16 plaquette matrix written as
    sum_i a_i (x) alpha_i across (other corners | shared corners, in the
    given order) with orthonormal a_i: the rows of the R factor of a QR."""
    n, s = len(mats), len(shared)
    own = [k for k in range(4) if k not in shared]
    axes = [0] + [b + k for ks in (own, shared) for b in (1, 5) for k in ks]
    m = mats.reshape((n,) + (2,) * 8).transpose(axes).reshape(n, 4 ** (4 - s), 4**s)
    return np.linalg.qr(m, mode="r").reshape(n, -1, 2**s, 2**s)


def _distinct(mats: Mapping[Plaquette, np.ndarray]) -> tuple[dict, list[np.ndarray]]:
    """Content ids of mats, and the matrix of each id: equal terms share work."""
    ids = content_ids(mats)
    return ids, [mats[p] for p in {i: p for p, i in ids.items()}.values()]


def _traceless(distinct: list[np.ndarray]) -> list[np.ndarray]:
    """A0 = A - tr(A)/16 of each: commutators from A0 round relative to |A0|, not |A|."""
    return [m - np.trace(m) / 16 * np.eye(16) for m in distinct]


def _pair_norms(model: CommutingModel, mats: Mapping[Plaquette, np.ndarray]) -> PairNorms:
    """|[mats[p], mats[q]]| for every intersecting pair, in `_intersecting_pairs` order."""
    ids, distinct = _distinct(mats)
    return _distinct_pair_norms(model, ids, _traceless(distinct))


def _distinct_pair_norms(
    model: CommutingModel, ids: Mapping[Plaquette, int], distinct: list[np.ndarray]
) -> PairNorms:
    """Commutator norm of distinct[ids[p]] and distinct[ids[q]] per pair (p, q).

    With A = sum_i a_i (x) alpha_i and B = sum_j beta_j (x) b_j split at
    the shared corners, a_i and b_j orthonormal, the norm is exactly
    sqrt(sum_ij |alpha_i beta_j - beta_j alpha_i|^2), so no 64x64 or
    128x128 embedding is formed.  Pairs are batched by alignment (which
    corners of p meet which of q); equal matrices share one evaluation.
    """
    pairs = _intersecting_pairs(model)
    groups: dict[tuple, dict[tuple[int, int], int]] = {}  # alignment -> ids -> slot
    slots = []
    for p, q in pairs:
        cp, cq = lattice.corners(model.spec, p), lattice.corners(model.spec, q)
        align = tuple((i, cq.index(v)) for i, v in enumerate(cp) if v in cq)
        group = groups.setdefault(align, {})
        slots.append(group.setdefault((ids[p], ids[q]), len(slots)))
    norms = np.empty(len(pairs))
    for align, group in groups.items():
        on_p, on_q = zip(*align)
        items = list(group.items())
        for k in range(0, len(items), _PAIR_CHUNK):
            chunk = items[k : k + _PAIR_CHUNK]
            al = _shared_factors(np.stack([distinct[i] for (i, _), _ in chunk]), on_p)
            be = _shared_factors(np.stack([distinct[j] for (_, j), _ in chunk]), on_q)
            n, r, d, _ = al.shape
            # blocks [i, :, j, :] of alpha_i beta_j and of beta_j alpha_i
            ab = al.reshape(n, r * d, d) @ be.transpose(0, 2, 1, 3).reshape(n, d, -1)
            ba = be.reshape(n, -1, d) @ al.transpose(0, 2, 1, 3).reshape(n, d, r * d)
            diff = ab.reshape(n, r, d, -1, d) - ba.reshape(n, -1, d, r, d).transpose(0, 3, 2, 1, 4)
            norms[[slot for _, slot in chunk]] = np.linalg.norm(diff.reshape(n, -1), axis=1)
    return [(p, q, float(norms[s])) for (p, q), s in zip(pairs, slots)]


def _violations(model: CommutingModel, ids: dict, distinct: list, radius: list) -> PairNorms:
    """Intersecting pairs with |[A, B]| > COMMUTATION_TOL |A0| |B0| + 2 (r_A + r_B),
    A = distinct[ids[p]] and r_A = radius[ids[p]] (a projector's radius)."""
    traceless = _traceless(distinct)
    norm = [frob(m) for m in traceless]
    return [
        (p, q, n)
        for p, q, n in _distinct_pair_norms(model, ids, traceless)
        if n > COMMUTATION_TOL * norm[ids[p]] * norm[ids[q]] + 2 * (radius[ids[p]] + radius[ids[q]])
    ]


def check_commuting(model: CommutingModel) -> CommutationReport:
    """Exhaustively check all plaquette pairs that share at least one qubit.

    Disjoint pairs commute trivially and are skipped.
    """
    ids, terms = _distinct(model.terms)
    violations = _violations(model, ids, terms, [0.0] * len(terms))
    return CommutationReport(not violations, violations)


def ground_projectors(model: CommutingModel) -> dict[Plaquette, np.ndarray]:
    """Per-plaquette projectors onto each term's ground band.

    Raises NonCommutingError, naming every pair of overlapping projectors
    that fail to commute beyond their radii (`linalg.ground_band`): input
    that does not commute, or a degeneracy split by the gap tolerance.
    """
    ids, terms = _distinct(model.terms)  # equal terms share one eigendecomposition
    projs, radius = zip(*map(ground_band, terms))
    bad = _violations(model, ids, projs, radius)
    if bad:
        (p, q, norm), rest = bad[0], bad[1:]
        more = "".join(f"; also at {a} and {b} (norm {n:.2e})" for a, b, n in rest)
        raise NonCommutingError(
            f"ground projectors at {p} and {q} do not commute (norm {norm:.2e}){more}", bad
        )
    return {p: projs[i] for p, i in ids.items()}


# ---------------------------------------------------------------------------
# Generators


def _pauli_word(m2: np.ndarray) -> np.ndarray:
    w = m2
    for _ in range(3):
        w = np.kron(w, m2)
    return w


_Z4 = _pauli_word(np.array([[1, 0], [0, -1]], dtype=complex))
_X4 = _pauli_word(np.array([[0, 1], [1, 0]], dtype=complex))


def gen_toric(spec: LatticeSpec) -> CommutingModel:
    """Stabilizer model: h = -Z^(x)4 on black plaquettes, -X^(x)4 on white."""
    terms = {}
    for p in lattice.plaquettes(spec):
        terms[p] = -_Z4 if is_black(p) else -_X4
    return CommutingModel(spec, terms)


def gen_signed_toric(
    spec: LatticeSpec,
    seed: int | None = None,
    black_signs: Mapping[Plaquette, int] | None = None,
    white_signs: Mapping[Plaquette, int] | None = None,
) -> CommutingModel:
    """Stabilizer model with per-plaquette signs h = -s Z^(x)4 / -s X^(x)4.

    Signs default to an independent seeded +-1 draw per plaquette.  On a
    periodic lattice the product of all signs of one color must be +1 for a
    common ground state to exist, so random draws are frustrated half the
    time.
    """
    rng = np.random.default_rng(seed)
    terms = {}
    for p in lattice.plaquettes(spec):
        given = (black_signs if is_black(p) else white_signs) or {}
        s = int(given.get(p, 0)) or int(rng.choice((-1, 1)))
        terms[p] = (-s * _Z4) if is_black(p) else (-s * _X4)
    return CommutingModel(spec, terms)


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
    are diagonal, hence commuting.
    """
    all_edges = lattice.edges(spec)
    if not isinstance(couplings, Mapping):
        couplings = {e: float(couplings) for e in all_edges}
    if not isinstance(fields, Mapping):
        fields = {v: float(fields) for v in spec.vertices()}

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
