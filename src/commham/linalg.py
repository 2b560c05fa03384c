"""Dense complex linear algebra on small multi-qubit operators.

Operators carry an ordered tuple of qubit labels; label 0 is the most
significant tensor factor.  Everything here works on a handful of qubits
(16x16 plaquette matrices) except :func:`trace_product_embedded`, the one
contraction kernel of the package: it evaluates traces of products of
locally-supported operators as a tensor network of qubit wires, contracted
two tensors at a time along a left-deep chain or a pairwise tree (Markov &
Shi, quant-ph/0511069), bounded by the open wires of its widest tensor
(_MAX_OPEN_WIRES), not by the qubit count.  The verifier's chains and the
oracle's traces both go through it.

The algebra a set of 2x2 operators generates is read off the rank of
their Bloch vectors (the qubit case of the Bravyi-Vyalyi structure
lemma), so classification and common eigenbases are deterministic.  Every
numerical threshold of the package is in the tolerance block below.
"""
from __future__ import annotations

import cmath
import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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
# Projector commutators come from a band frame (`ground_band`), rounded to about eps |Q|.
COMMUTATION_TOL = 1e-9
NOISE_RTOL = 1e-9  # rank noise: below this x |P| / 4 (Pauli blocks), x largest (Schmidt, Bloch)
# The rest act on scale-free values derived from ground projectors or unit vectors.
ZERO_FLOOR = 1e-12  # slice norms, vertex overlaps and component traces at or below are 0
LOG2_TIE_TOL = 1e-9  # log2 values closer than this tie, so searches ignore rounding
PRUNE_RTOL = 1e-9  # an effective state is the identity on a qubit within PRUNE_RTOL |op|
POSITIVITY_TOL = 1e-9  # effective-state eigenvalues are >= -POSITIVITY_TOL max(1, |op|)
IMAG_RTOL = 1e-8  # a component trace's imaginary part is <= IMAG_RTOL (1 + |value|)
INTEGRALITY_TOL = 1e-6  # a trace that counts n states is within max(INTEGRALITY_TOL,
INTEGRALITY_RTOL = 1e-13  # INTEGRALITY_RTOL n) of n: rounding grows with n (1.7e-14 at 2**44)
SUM_TOL = 1e-8  # the certificate values sum to the layer trace within this
PHASE_FLOOR = 1e-12  # the first amplitude above it fixes a unit vector's phase
ORDER_TOL = 1e-9  # amplitudes closer than this tie when slice states are ordered

_MAX_OPEN_WIRES = 24  # trace_product_embedded's widest tensor: 2**24 entries, 256 MiB
_BLAS_WIRES = 12  # its steps over more distinct wires than this use einsum's BLAS path


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class BasisMismatch(ValueError):
    """Operators expected to share an eigenbasis do not."""


class CapExceeded(ValueError):
    """A computation exceeds its configured size cap."""


@dataclass(frozen=True, eq=False)
class LabeledOp:
    """A square operator on 2**k dimensions with k ordered qubit labels.
    `mat` may carry leading batch axes, (..., 2**k, 2**k): a stack of
    operators on the same labels, which `trace_product_embedded` traces
    member by member; the other functions here take single operators."""

    mat: np.ndarray
    labels: tuple

    def __post_init__(self) -> None:
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "labels", tuple(self.labels))
        k = len(self.labels)
        if mat.shape[-2:] != (2**k, 2**k):
            raise ValueError(f"matrix shape {mat.shape} does not match {k} labels")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def state_projector(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def herm_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each of a stack
    (..., d, d), eigenvalues ascending.

    Raises NonHermitianError when |m - m^dag| > HERMITICITY_RTOL |m| for any m.
    """
    mat = np.asarray(mat, dtype=complex)
    err = np.linalg.norm(mat - mat.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.any(err > HERMITICITY_RTOL * np.linalg.norm(mat, axis=(-2, -1))):
        raise NonHermitianError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(mat)


def ground_band(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Projector onto the ground band (eigenvalues within max(GAP_RTOL spread,
    EIGH_RTOL |mat|_2) of the minimum), and the radius r = EIGH_RTOL spread / gap
    forgiven in its commutators (gap: band top to next eigenvalue).  r is a policy
    after Davis-Kahan, below the eigensolver's |mat|_2-relative error for shifted
    terms; r = 0 if all is band or the gap is below GAP_RTOL spread (unresolved).
    From the same eigh, the band frame: the eigenvectors, the smaller side's
    first (band k or the other d - k, ties to the band), and its size min(k, d - k).
    A stack (..., d, d) stacks all four; one matrix gives a 0-d radius and size."""
    w, v = herm_eig(mat)
    lo, hi = w[..., :1], w[..., -1:]
    spread = hi - lo
    band = w <= lo + np.maximum(GAP_RTOL * spread, EIGH_RTOL * np.maximum(-lo, hi))
    # the band is a prefix of the ascending w: the gap is the step after its top, 0 past the end
    k = band.sum(axis=-1, keepdims=True)
    gap = np.take_along_axis(np.diff(w, append=hi), k - 1, -1)
    resolved = (gap >= GAP_RTOL * spread) & (GAP_RTOL * spread > 0)
    radius = np.divide(EIGH_RTOL * spread, gap, out=np.zeros_like(gap), where=resolved)[..., 0]
    proj = (v * band[..., None, :]) @ v.conj().swapaxes(-1, -2)
    side = np.minimum(k, w.shape[-1] - k)
    frame = np.where((side == k)[..., None], v, v[..., ::-1])  # reversed: the d - k above the band first
    return proj, radius, frame, side[..., 0]


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
    k, i, r = op.n_qubits, op.labels.index(split), 2 ** len(rest)
    # the split qubit's row and column axes moved last of their halves
    m = np.moveaxis(op.mat.reshape((2,) * 2 * k), (i, k + i), (k - 1, 2 * k - 1)).reshape(r, 2, r, 2)
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


def _axis_bases(n: np.ndarray) -> np.ndarray:
    """The eigenstates of n.sigma per axis (row of n) as the columns of a
    2x2 matrix, phased so that the first amplitude above PHASE_FLOOR is real
    positive, the larger |amplitude on 0> first (ties: larger Re, then Im
    of the amplitude on |1>)."""
    _, v = np.linalg.eigh(np.einsum("mk,kij->mij", n, _PAULIS))
    lead = np.where(np.abs(v[:, 0]) > PHASE_FLOOR, v[:, 0], v[:, 1])
    v = v * (lead.conj() / np.abs(lead))[:, None, :]
    key = np.stack([np.abs(v[:, 0]), v[:, 1].real, v[:, 1].imag], axis=1)  # (m, key, state)
    diff = key[..., 0] - key[..., 1]
    decisive = np.abs(diff) > ORDER_TOL
    swap = np.take_along_axis(decisive & (diff < 0), np.argmax(decisive, axis=1)[:, None], axis=1)[:, 0]
    return np.where(swap[:, None, None], v[..., ::-1], v)


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
        return AlgebraClass(ABELIAN, _axis_bases(axis[None])[0])
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
    return _axis_bases(axis[None])[0]


# ---------------------------------------------------------------------------
# Traces of products of locally-supported operators on many qubits.


def _wire_network(ops: Sequence[LabeledOp]) -> tuple[list[list[int]], list[frozenset]]:
    """Each operator's wire per tensor index, row indices first, and the
    wires it shares.  Wires are numbered by the column index they leave, for
    the row index of the qubit's next user in product order; the last
    user's wire closes onto the first user (a self-loop if it is the only one)."""
    ids = itertools.count()
    cols = [[next(ids) for _ in op.labels] for op in ops]
    last = {label: w for op, ws in zip(ops, cols) for label, w in zip(op.labels, ws)}
    wires, ends = [], []
    for op, ws in zip(ops, cols):
        rows = [last[label] for label in op.labels]
        last.update(zip(op.labels, ws))
        wires.append(rows + ws)
        ends.append(frozenset(rows) ^ frozenset(ws))
    return wires, ends


# A plan is a list of merges (a, b, out): tensors a and b are contracted into
# a tensor open on the wires out.  Tensors 0..n-1 are the operators, n is a
# scalar 1, and the k-th merge makes tensor n + 1 + k.  The planners stop at
# the first tensor over _MAX_OPEN_WIRES: such a plan cannot run.


def _left_deep(ends: list[frozenset], order: Iterable[int]) -> list[tuple]:
    """Absorb the operators one at a time, in `order`, into the scalar 1."""
    n, plan, open_ = len(ends), [], frozenset()
    for step, i in enumerate(order):
        open_ = open_ ^ ends[i]
        plan.append((n + step, i, open_))
        if len(open_) > _MAX_OPEN_WIRES:
            break
    return plan


def _greedy_order(ends: list[frozenset]) -> list[int]:
    """Each time the operator on an open wire that leaves the fewest open
    wires, ties to product order; with no wire open, the first one left."""
    touch: dict = {}
    for i, e in enumerate(ends):
        for x in e:
            touch.setdefault(x, []).append(i)
    left, order, open_, first = [True] * len(ends), [], set(), 0
    for _ in ends:
        near = {j for x in open_ for j in touch[x] if left[j]}
        if near:
            i = min(near, key=lambda j: (len(ends[j]) - 2 * len(ends[j] & open_), j))
        else:
            i = first = left.index(True, first)
        left[i] = False
        order.append(i)
        open_ ^= ends[i]
        if len(open_) > _MAX_OPEN_WIRES:
            break
    return order


def _pairwise(ends: list[frozenset]) -> list[tuple]:
    """Each time merge the two tensors sharing a wire that minimise
    2**|out| - 2**|a| - 2**|b|, ties to the smaller ids (a heap, kept by
    each wire's owners); then multiply the scalars left in id order."""
    sets, owners, heap = [*ends, frozenset()], {}, []
    for t, e in enumerate(ends):
        for x in e:
            owners.setdefault(x, []).append(t)

    def push(a, b):
        heapq.heappush(heap, (2 ** len(sets[a] ^ sets[b]) - 2 ** len(sets[a]) - 2 ** len(sets[b]), a, b))

    for a, b in dict.fromkeys(map(tuple, owners.values())):
        push(a, b)
    live, plan = set(range(len(sets))), []
    while heap:
        _, a, b = heapq.heappop(heap)
        if a in live and b in live:
            k = len(sets)
            sets.append(sets[a] ^ sets[b])
            live -= {a, b}
            live.add(k)
            plan.append((a, b, sets[k]))
            if len(sets[k]) > _MAX_OPEN_WIRES:
                return plan
            for x in sets[k]:
                owners[x] = [k if t in (a, b) else t for t in owners[x]]
            for t in {t for x in sets[k] for t in owners[x]} - {k}:
                push(t, k)
    acc, *rest = sorted(live)
    for t in rest:
        plan.append((acc, t, frozenset()))
        acc = len(ends) + len(plan)
    return plan


def _plan_cost(ends: list[frozenset], plan: list[tuple]) -> tuple[bool, int]:
    """Whether a tensor of the plan exceeds _MAX_OPEN_WIRES, and its
    predicted cost, the sum of 2**|a | b| over its merges."""
    sets = [*ends, frozenset(), *(out for _, _, out in plan)]
    width = max([len(out) for _, _, out in plan])
    return width > _MAX_OPEN_WIRES, sum(2 ** len(sets[a] | sets[b]) for a, b, _ in plan)


def _plan(ends: list[frozenset], order: Sequence[int] | None = None) -> list[tuple]:
    """The left-deep plan in `order` if given, else the cheaper of the greedy
    left-deep and pairwise plans, one within the wire bound first."""
    if order is not None:
        return _left_deep(ends, order)
    return min(_left_deep(ends, _greedy_order(ends)), _pairwise(ends), key=lambda p: _plan_cost(ends, p))


def trace_product_embedded(ops: Sequence[LabeledOp], order: Sequence[int] | None = None) -> complex | np.ndarray:
    """tr of the ordered product of operators embedded on their label union.

    The product is a network of qubit wires (`_wire_network`), contracted
    two tensors at a time along a plan (`_plan`) made before anything is
    allocated: given `order`, a permutation of the operator indices, the
    operators are absorbed one at a time in that order; else the cheaper of
    two greedy plans runs, one at a time or a pairwise tree (Markov & Shi).
    The value does not depend on the plan.  Operators whose `mat` carries
    leading batch axes, (B, d, d) say, are stacks: the batch axes
    broadcast, every member is traced along the same plan and the B traces
    come back as an array; with none, one complex.  A member's trace agrees
    with its own call to rounding: einsum may add a step's terms in another
    order once a batch axis is present (seen on steps that sum over two or
    more wires).  Raises CapExceeded when the plan holds a tensor of more
    than _MAX_OPEN_WIRES open wires (per member), or when a trace leaves
    the float64 range (inf or nan).  Steps over more than _BLAS_WIRES
    distinct wires go through einsum's BLAS path; on fewer, its plain loop
    is cheaper.
    """
    if not ops:
        raise ValueError("need at least one operator")
    if order is not None and sorted(order) != list(range(len(ops))):
        raise ValueError(f"order must list each of the {len(ops)} operator indices once")
    wires, ends = _wire_network(ops)
    plan = _plan(ends, order)
    width = max([len(out) for _, _, out in plan])
    if width > _MAX_OPEN_WIRES:
        raise CapExceeded(f"{width} open wires exceed {_MAX_OPEN_WIRES}")
    batched = any(op.mat.ndim > 2 for op in ops)
    tensors = [op.mat.reshape(op.mat.shape[:-2] + (2,) * len(ws)) for op, ws in zip(ops, wires)]
    tensors.append(np.ones((), dtype=complex))
    wires.append([])
    with np.errstate(over="ignore", invalid="ignore"):  # the isfinite check below reports it
        for a, b, open_ in plan:
            both = wires[a] + wires[b]
            num = {x: n for n, x in enumerate(dict.fromkeys(both))}
            out = [x for x in both if x in open_]
            subs = [num[x] for x in wires[a]], [num[x] for x in wires[b]], [num[x] for x in out]
            if batched:  # the batch axes lead every tensor
                subs = [[..., *s] for s in subs]
            tensors.append(np.einsum(
                tensors[a], subs[0], tensors[b], subs[1], subs[2], optimize=len(num) > _BLAS_WIRES,
            ))
            tensors[a] = tensors[b] = None
            wires.append(out)
    if batched:
        value = tensors[-1]
        bad = value[~np.isfinite(value)]
    else:
        value = complex(tensors[-1])
        bad = [] if cmath.isfinite(value) else [value]
    if len(bad):
        raise CapExceeded(f"the trace came out {bad[0]}: it leaves the float64 range (about 1.8e308)")
    return value
