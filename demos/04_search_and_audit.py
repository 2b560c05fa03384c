"""Certificate search plus the brute-force audits.

The exhaustive prover scans the certificate space with layer-wise
pruning; the greedy prover hill-climbs slice labels.  The oracle audits
tie everything together: the layer trace is a non-negative integer, it
equals the sum of certificate values over the whole space (evaluated only
where no plaquette is annihilated; elsewhere the value is 0), and a single
flipped stabilizer sign on the torus forces every certificate to zero.
"""
from commham import (
    LatticeSpec,
    certificate_sum,
    exhaustive_search,
    gen_signed_toric,
    gen_toric,
    greedy_search,
    total_overlap,
)
from commham import lattice

# searchable small model
model = gen_toric(LatticeSpec(3, 4))
result = exhaustive_search(model)
print("3x4 stabilizer model:")
print(f"  exhaustive: found={result.found}, log2 value {result.omega.log2_magnitude:.3f}")
print(f"  certificate alpha={result.certificate.alpha} beta={result.certificate.beta}")

total, evaluated = certificate_sum(model)
print(f"  certificate sum: {total:.6f} over {evaluated} certificates that annihilate no plaquette")
print(f"  brute-force layer trace: {total_overlap(model):.6f}")

# frustrated torus: flip exactly one black sign
spec = LatticeSpec(4, 4, "periodic")
plist = lattice.plaquettes(spec)
black_signs = {p: 1 for p in plist if lattice.is_black(p)}
black_signs[(0, 0)] = -1
white_signs = {p: 1 for p in plist if not lattice.is_black(p)}
frustrated = gen_signed_toric(spec, black_signs=black_signs, white_signs=white_signs)

print("\nfrustrated signed model (one black sign flipped on the torus):")
print(f"  layer trace: {total_overlap(frustrated):.6f}")
r = exhaustive_search(frustrated, cap=32)
print(f"  exhaustive (pruned): found={r.found}, pairs evaluated {r.evaluated}")
r = greedy_search(frustrated, seed=0, restarts=3)
print(f"  greedy: found={r.found}")
