"""Dense complex linear algebra on small multi-qubit operators.

Operators carry an ordered tuple of qubit labels; label 0 is the most
significant tensor factor.  Everything here works on a handful of qubits
(16x16 plaquette matrices) except
:func:`trace_product_embedded`, which evaluates traces of products of
locally-supported operators on up to 22 qubits as one tensor-network
contraction over qubit wires (Markov & Shi, quant-ph/0511069), holding at
most _MAX_OPEN_WIRES open wires at a time.

The algebra a set of 2x2 operators generates is read off the rank of
their Bloch vectors (the qubit case of the Bravyi-Vyalyi structure
lemma), so classification and common eigenbases are deterministic.  Every
numerical threshold of the package is in the tolerance block below.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])

TRIVIAL = "trivial"
ABELIAN = "abelian"
FULL = "full"

# ---------------------------------------------------------------------------
# Tolerance policy: every numerical threshold of the package.  |A| is the
# Frobenius norm, |A|_2 the spectral norm, A0 = A - tr(A)/d the traceless part.
# The first five act on input terms, relative to their norms, so multiplying
# every term by c > 0 changes no decision.
HERMITICITY_RTOL = 1e-10  # |H - H^dag| <= HERMITICITY_RTOL |H|
# Ground band: w <= w0 + max(GAP_RTOL (w_max - w0), EIGH_RTOL |H|_2), the latter
# the eigensolver's rounding level: a spectrum flat within it is all ground band.
GAP_RTOL = 1e-9
EIGH_RTOL = 64 * np.finfo(float).eps
# Terms and ground projectors commute iff |[A, B]| <= COMMUTATION_TOL |A0| |B0|,
# plus 2 (r_A + r_B) for projectors of radius r (`ground_band`, at most
# EIGH_RTOL / GAP_RTOL); the commutator ignores identity shifts, and so does the bound.
COMMUTATION_TOL = 1e-9
NOISE_RTOL = 1e-9  # rank noise: below this x |P| / 4 (Pauli blocks), x largest (Schmidt, Bloch)
# The rest act on scale-free values derived from ground projectors or unit vectors.
ZERO_FLOOR = 1e-12  # slice norms, vertex overlaps and component traces at or below are 0
LOG2_TIE_TOL = 1e-9  # log2 values closer than this tie, so searches ignore rounding
PRUNE_RTOL = 1e-9  # an effective state is the identity on a qubit within PRUNE_RTOL |op|
POSITIVITY_TOL = 1e-9  # effective-state eigenvalues are >= -POSITIVITY_TOL max(1, |op|)
IMAG_RTOL = 1e-8  # a component trace's imaginary part is <= IMAG_RTOL (1 + |value|)
INTEGRALITY_TOL = 1e-6  # a trace that counts states is this close to an integer
SUM_TOL = 1e-8  # the certificate values sum to the layer trace within this
PHASE_FLOOR = 1e-12  # the first amplitude above it fixes a unit vector's phase
ORDER_TOL = 1e-9  # amplitudes closer than this tie when slice states are ordered

_MAX_OPEN_WIRES = 24  # trace_product_embedded's widest tensor: 2**24 entries, 256 MiB


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class BasisMismatch(ValueError):
    """Operators expected to share an eigenbasis do not."""


class CapExceeded(ValueError):
    """A computation exceeds its configured size cap."""


@dataclass(frozen=True, eq=False)
class LabeledOp:
    """A square operator on 2**k dimensions with k ordered qubit labels."""

    mat: np.ndarray
    labels: tuple

    def __post_init__(self) -> None:
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "labels", tuple(self.labels))
        k = len(self.labels)
        if mat.shape != (2**k, 2**k):
            raise ValueError(f"matrix shape {mat.shape} does not match {k} labels")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def _tensorized(op: LabeledOp) -> np.ndarray:
    k = op.n_qubits
    return op.mat.reshape((2,) * (2 * k))


def permute_to(op: LabeledOp, new_labels: Sequence) -> LabeledOp:
    new_labels = tuple(new_labels)
    if new_labels == op.labels:
        return op
    if set(new_labels) != set(op.labels) or len(new_labels) != len(op.labels):
        raise ValueError("new labels must be a permutation of the old ones")
    k = op.n_qubits
    perm = [op.labels.index(l) for l in new_labels]
    t = _tensorized(op).transpose(perm + [k + p for p in perm])
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
    t = np.moveaxis(_tensorized(op), (i, k + i), (0, 1))
    t = np.einsum("ab,bc...,cd->ad...", proj, t, proj)
    return LabeledOp(np.moveaxis(t, (0, 1), (i, k + i)).reshape(2**k, 2**k), op.labels)


def state_projector(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def herm_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NonHermitianError when |m - m^dag| > HERMITICITY_RTOL |m|.
    """
    mat = np.asarray(mat, dtype=complex)
    if frob(mat - mat.conj().T) > HERMITICITY_RTOL * frob(mat):
        raise NonHermitianError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(mat)


def ground_band(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Projector onto the ground band (eigenvalues within max(GAP_RTOL spread,
    EIGH_RTOL |mat|_2) of the minimum), and the radius r = EIGH_RTOL spread / gap
    forgiven in its commutators (gap: band top to next eigenvalue).  r is a policy
    after Davis-Kahan, below the eigensolver's |mat|_2-relative error for shifted
    terms; r = 0 if all is band or the gap is below GAP_RTOL spread (unresolved)."""
    w, v = herm_eig(mat)
    spread = w[-1] - w[0]
    sel = v[:, w <= w[0] + max(GAP_RTOL * spread, EIGH_RTOL * max(-w[0], w[-1]))]
    m = sel.shape[1]
    gap = w[m] - w[m - 1] if m < len(w) else 0.0
    radius = EIGH_RTOL * spread / gap if gap >= GAP_RTOL * spread > 0 else 0.0
    return sel @ sel.conj().T, radius


def ground_space_projector(mat: np.ndarray) -> np.ndarray:
    """Projector onto the ground band of `ground_band`."""
    return ground_band(mat)[0]


@dataclass
class OperatorSchmidt:
    """Trace-orthogonal product expansion across a one-qubit bipartition.

    terms[i] is (A_i, B_i) with A_i on the remaining labels and B_i a 2x2
    on the split qubit; sum_i A_i (x) B_i reconstructs the input.
    """

    terms: list[tuple[LabeledOp, np.ndarray]]
    singular_values: np.ndarray


def operator_schmidt(op: LabeledOp, split) -> OperatorSchmidt:
    if split not in op.labels:
        raise ValueError(f"label {split!r} not in operator labels")
    rest = [l for l in op.labels if l != split]
    p = permute_to(op, rest + [split])
    r = 2 ** len(rest)
    m = p.mat.reshape(r, 2, r, 2)
    t = m.transpose(0, 2, 1, 3).reshape(r * r, 4)
    u, s, vh = np.linalg.svd(t, full_matrices=False)
    terms: list[tuple[LabeledOp, np.ndarray]] = []
    keep = s > NOISE_RTOL * s[0] if s.size and s[0] > 0 else np.zeros_like(s, dtype=bool)
    for i in np.nonzero(keep)[0]:
        c = np.sqrt(s[i])
        a = LabeledOp((c * u[:, i]).reshape(r, r), tuple(rest))
        b = (c * vh[i, :]).reshape(2, 2)
        terms.append((a, b))
    return OperatorSchmidt(terms, s[keep])


@dataclass
class AlgebraClass:
    """The unital *-algebra generated by a set of 2x2 matrices.

    kind is one of "trivial" (scalars only), "abelian" (a common eigenbasis
    exists; `basis` holds its two canonically ordered and phased states as
    columns), or "full" (all of the 2x2 matrices).
    """

    kind: str
    basis: np.ndarray | None = None


def _bloch_rank(ops: Sequence[np.ndarray]) -> tuple[int, np.ndarray | None]:
    """Numerical rank of the real span of the generators' Bloch vectors.

    Each 2x2 B is tr(B)/2 + c.sigma with c_k = tr(sigma_k B)/2; Re c and
    Im c are the Bloch vectors of its Hermitian and anti-Hermitian parts.
    Directions below NOISE_RTOL times the largest generator norm are noise.
    Returns the rank and, when it is 1, the unit axis n of the span.
    """
    mats = np.asarray(ops, dtype=complex).reshape(-1, 2, 2)
    if not len(mats):
        return 0, None
    c = np.einsum("kij,mji->mk", _PAULIS, mats) / 2
    _, s, vt = np.linalg.svd(np.concatenate([c.real, c.imag]))
    rank = int(np.sum(s > NOISE_RTOL * np.linalg.norm(mats, axis=(1, 2)).max()))
    return rank, (vt[0] if rank == 1 else None)


def _axis_basis(n: np.ndarray) -> np.ndarray:
    _, v = np.linalg.eigh(np.einsum("k,kij->ij", n, _PAULIS))
    return canonical_basis_pair(v)


def algebra_classify(ops: Sequence[np.ndarray]) -> AlgebraClass:
    """Classify the unital *-algebra generated by single-qubit operators.

    On a qubit the algebra is fixed by the rank of the generators' Bloch
    vectors: 0 is trivial, 1 is abelian (diagonal in the eigenbasis of
    n.sigma), and 2 or more generates the full algebra.
    """
    rank, axis = _bloch_rank(ops)
    if rank == 0:
        return AlgebraClass(TRIVIAL)
    if rank == 1:
        return AlgebraClass(ABELIAN, _axis_basis(axis))
    return AlgebraClass(FULL)


def common_eigenbasis(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Shared orthonormal eigenbasis of commuting normal 2x2 operators.

    Raises BasisMismatch when the generators' Bloch vectors span more than
    one axis, which signals non-commuting (or non-normal) input, and
    ValueError when every generator is a scalar.
    """
    rank, axis = _bloch_rank(ops)
    if rank == 0:
        raise ValueError("no non-scalar generators; eigenbasis is arbitrary")
    if rank > 1:
        raise BasisMismatch("generators do not share an eigenbasis")
    return _axis_basis(axis)


def canonical_state(vec: np.ndarray) -> np.ndarray:
    """Fix the global phase: first non-negligible amplitude real positive."""
    vec = np.asarray(vec, dtype=complex)
    for a in vec:
        if abs(a) > PHASE_FLOOR:
            return vec * (a.conjugate() / abs(a))
    raise ValueError("zero state")


def canonical_basis_pair(v: np.ndarray) -> np.ndarray:
    """Canonically phase and order two orthonormal qubit states (columns).

    Order: larger |amplitude on 0> first; ties broken by the real part of
    the amplitude on |1>, then by its imaginary part.
    """
    a, b = canonical_state(v[:, 0]), canonical_state(v[:, 1])

    def key(s: np.ndarray) -> tuple[float, float, float]:
        return (abs(s[0]), s[1].real, s[1].imag)

    for xa, xb in zip(key(a), key(b)):
        if abs(xa - xb) > ORDER_TOL:
            return np.column_stack([a, b] if xa > xb else [b, a])
    return np.column_stack([a, b])


def commutator_norm(a: LabeledOp, b: LabeledOp) -> float:
    """Frobenius norm of [a, b] on the union of their labels."""
    labels = sorted(set(a.labels) | set(b.labels))
    am = embed(a, labels).mat
    bm = embed(b, labels).mat
    return frob(am @ bm - bm @ am)


def content_ids(mats: Mapping) -> dict:
    """Number the distinct matrices in mats by contents, per key.  Caches
    keyed on ids let equal plaquette terms share work while holding one
    byte string per distinct matrix, not one per use."""
    index: dict[bytes, int] = {}
    return {k: index.setdefault(m.tobytes(), len(index)) for k, m in mats.items()}


# ---------------------------------------------------------------------------
# Traces of products of locally-supported operators on many qubits.


def trace_product_embedded(ops: Sequence[LabeledOp], cap: int = 22) -> complex:
    """tr of the ordered product of operators embedded on their label union.

    The product is contracted as a network of qubit wires: each qubit's wire
    runs through the operators acting on it in product order, and the last
    of them closes back onto the first (a self-loop when only one operator
    acts on the qubit).  Operators are absorbed one at a time, each time the
    one that leaves the fewest open wires, ties going to product order.
    Raises CapExceeded when the labels span more than `cap` qubits, or,
    before anything is allocated, when the contraction would hold more than
    _MAX_OPEN_WIRES open wires.
    """
    if not ops:
        raise ValueError("need at least one operator")
    users: dict = {}
    for i, op in enumerate(ops):
        for a, label in enumerate(op.labels):
            users.setdefault(label, []).append((i, a))
    if len(users) > cap:
        raise CapExceeded(f"{len(users)} qubits exceeds cap {cap}")
    # wire w joins the column index of one user of a qubit to the row index
    # of the next user; the row indices of an operator come first
    wires = [[0] * (2 * op.n_qubits) for op in ops]
    ids = itertools.count()
    for chain in users.values():
        for (i, a), (nxt, b) in zip(chain, chain[1:] + chain[:1]):
            wires[i][ops[i].n_qubits + a] = wires[nxt][b] = next(ids)
    ends = [frozenset(x for x in ws if ws.count(x) == 1) for ws in wires]
    todo, plan, open_ = list(range(len(ops))), [], frozenset()
    while todo:
        i = min(todo, key=lambda i: len(open_ ^ ends[i]))
        todo.remove(i)
        open_ = open_ ^ ends[i]
        if len(open_) > _MAX_OPEN_WIRES:
            raise CapExceeded(f"{len(open_)} open wires exceed {_MAX_OPEN_WIRES}")
        plan.append((i, open_))
    state, state_wires = np.ones((), dtype=complex), []
    for i, open_ in plan:
        out = [x for x in state_wires + wires[i] if x in open_]
        num = {x: n for n, x in enumerate(dict.fromkeys(state_wires + wires[i]))}
        t = ops[i].mat.reshape((2,) * len(wires[i]))
        # optimize=True lets einsum hand the contraction to BLAS
        state = np.einsum(
            state, [num[x] for x in state_wires], t, [num[x] for x in wires[i]],
            [num[x] for x in out], optimize=True,
        )
        state_wires = out
    return complex(state)
