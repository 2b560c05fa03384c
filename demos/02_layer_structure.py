"""How the per-vertex structure of one layer looks across model families.

At each vertex, the at-most-two same-color plaquette projectors either
leave the qubit alone (trivial vertex) or share a pair of rank-1 slices
(split vertex).  Random conjugated-diagonal models must rediscover the
conjugating single-qubit bases; open boundaries leave their corner
vertices trivial.
"""
import numpy as np

from commham import LatticeSpec, gen_ising, gen_toric, prepare
from commham.model import gen_rotated_classical


def show(name, prep):
    spec = prep.model.spec
    print(f"\n{name} ({spec.lx}x{spec.ly} {spec.boundary})")
    for color, layer in (("black", prep.black), ("white", prep.white)):
        split = sorted(layer.split_vertices)
        owners = int(np.sum(layer.owner >= 0))  # -1 at split vertices
        print(f"  {color}: {len(split)} split vertices, {owners} single-owner vertices")
        if split:
            print(f"    e.g. split at {split[0]}, basis columns:")
            x, y = split[0]
            print(np.round(layer.basis[layer.basis_row[y * spec.lx + x]], 4))


show("stabilizer model", prepare(gen_toric(LatticeSpec(3, 3))))
show("classical Ising ferromagnet", prepare(gen_ising(LatticeSpec(3, 4), 1.0, 0.0)))

model, units = gen_rotated_classical(LatticeSpec(3, 3), seed=11)
prep = prepare(model)
show("rotated classical (seed 11)", prep)

v = sorted(prep.black.split_vertices)[0]
b = prep.black.basis[prep.black.basis_row[v[1] * model.spec.lx + v[0]], :, 0]
pi0 = np.outer(b, b.conj())
u = units[v]
best = min(
    np.linalg.norm(pi0 - np.outer(u[:, k], u[:, k].conj())) for k in (0, 1)
)
print(f"\nrediscovered slice at {v} matches the generator's unitary: "
      f"distance {best:.2e}")
