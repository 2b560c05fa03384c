"""The stabilizer model on a torus and its all-zeros certificate.

A 4x4 periodic lattice carries -Z^(x)4 terms on black plaquettes and
-X^(x)4 on white ones.  Every vertex splits in both layers: the black
slices are the Z eigenstates and the white slices the X eigenstates.
Choosing slice 0 everywhere projects the black layer onto |0000><0000|
per plaquette and the white layer onto |++++><++++|, and the certificate
value collapses to one overlap tr[|0><0| |+><+|] = 1/2 per qubit, i.e.
2^-16.  That single number certifies a joint ground state exists, without
saying anything about how to prepare it.
"""
import numpy as np

from commham import (
    Certificate,
    LatticeSpec,
    check_commuting,
    compute_omega,
    gen_toric,
    prepare,
    total_overlap,
    verify,
)

spec = LatticeSpec(4, 4, "periodic")
model = gen_toric(spec)
print(f"model: {len(model.terms)} plaquette terms on {model.n_qubits} qubits")
print("pairwise commuting:", check_commuting(model).ok)

prep = prepare(model)
print(f"split vertices: black {len(prep.f_black)}, white {len(prep.f_white)}")

# a layer is three arrays over the vertex ids y * lx + x; a split vertex's
# slice bases are the columns of its row of `basis`
i = 1 * spec.lx + 1
print("black slice basis at (1,1):")
print(np.round(prep.black.basis[prep.black.basis_row[i]], 6))
print("white slice basis at (1,1):")
print(np.round(prep.white.basis[prep.white.basis_row[i]], 6))

cert = Certificate({v: 0 for v in prep.f_black}, {v: 0 for v in prep.f_white})
result = compute_omega(prep, cert)
print(f"\nlog2 of the certificate value: {result.log2_magnitude:.12f}")
print("factor breakdown:")
for f in result.factors[:6]:
    print(f"  {f.kind:15s} {str(f.key):10s} value={f.value}")
print(f"  ... ({len(result.factors)} factors total)")

verdict = verify(prep, cert)
print(f"\nverdict: {'accept' if verdict.accept else 'reject'}")
print(f"threshold (log2): {verdict.log2_threshold}")

# the brute-force layer trace counts the joint ground states: 4 on a torus
print(f"\nbrute-force layer trace: {total_overlap(model):.6f}")
