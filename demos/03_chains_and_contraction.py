"""Effective states, the overlap graph, and chain contraction.

After slicing and tracing the split vertices, each plaquette leaves an
effective state on its remaining corners.  States of one color never
share a qubit and each state overlaps at most two states of the other
color, so the overlap graph is a disjoint union of isolated nodes, paths,
and cycles; the certificate value is the product of per-vertex slice
overlaps, per-component contraction traces, and 2 per untouched qubit.

The ferromagnet on 3x3 is a nice example: the four effective states form
a single 4-cycle around the center vertex.
"""
from commham import (
    Certificate,
    LatticeSpec,
    build_overlap_graph,
    compute_omega,
    contract_component,
    dense_omega,
    effective_states,
    gen_ising,
    prepare,
)

prep = prepare(gen_ising(LatticeSpec(3, 3), 1.0, 0.0))
cert = Certificate({v: 0 for v in prep.f_black}, {v: 0 for v in prep.f_white})

blacks, whites, overlaps = effective_states(prep, cert)
print("effective states:")
for s in blacks + whites:
    print(f"  {s.color:5s} plaquette {s.plaquette}: support {s.support}")

graph = build_overlap_graph(blacks, whites)
print(f"\noverlap graph: {len(graph.nodes)} nodes, max degree {graph.max_degree}")
for comp in graph.components:
    chain = " - ".join(str(graph.nodes[i].plaquette) for i in comp.node_ids)
    value = contract_component(comp, graph.nodes)
    print(f"  {comp.kind}: {chain}  ->  trace {value:.6f}")

result = compute_omega(prep, cert)
print(f"\nchain evaluation:  {2.0**result.log2_magnitude:.12f}")
print(f"dense evaluation:  {dense_omega(prep, cert):.12f}")

# flipping only the black slice at the center selects the all-down ground
# family, which the unsliced white layer accepts just as well
flipped = Certificate(dict(cert.alpha), dict(cert.beta))
v = sorted(prep.f_black)[0]
flipped.alpha[v] = 1
res = compute_omega(prep, flipped)
print(f"\nafter flipping the black slice at {v}: value {2.0**res.log2_magnitude:.6f}")

# a genuine cross-layer disagreement needs both layers split at a vertex;
# giving every plaquette all four of its edges does that at the center
import numpy as np

from commham import CommutingModel, lattice

signs = 1 - 2 * ((np.arange(16)[:, None] >> np.arange(3, -1, -1)[None, :]) & 1)
diag = -(signs[:, 0] * signs[:, 1] + signs[:, 1] * signs[:, 2]
         + signs[:, 2] * signs[:, 3] + signs[:, 3] * signs[:, 0])
term = np.diag(diag.astype(complex))
spec = LatticeSpec(3, 3)
both = prepare(CommutingModel(spec, {p: term for p in lattice.plaquettes(spec)}))
print(f"\nall-sides variant: black splits {sorted(both.f_black)}, "
      f"white splits {sorted(both.f_white)}")
agree = compute_omega(both, Certificate({(1, 1): 0}, {(1, 1): 0}))
clash = compute_omega(both, Certificate({(1, 1): 0}, {(1, 1): 1}))
print(f"agreeing slices:    value {2.0**agree.log2_magnitude:.6f}")
print(f"disagreeing slices: zero={clash.zero} "
      f"(dense check {dense_omega(both, Certificate({(1, 1): 0}, {(1, 1): 1})):.3e})")
