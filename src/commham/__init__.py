"""Verifier, prover, and exact oracle for commuting plaquette Hamiltonians
on a square lattice of qubits."""

from .lattice import (
    BLACK,
    OPEN,
    PERIODIC,
    WHITE,
    LatticeError,
    LatticeSpec,
    corners,
    incident_plaquettes,
    is_black,
    plaquette_color,
    plaquettes,
)
from .linalg import (
    BasisMismatch,
    CapExceeded,
    LabeledOp,
    NonHermitianError,
    herm_eig,
    trace_product_embedded,
)
from .model import (
    CommutingModel,
    ModelError,
    NonCommutingError,
    check_commuting,
    gen_ising,
    gen_random,
    gen_rotated_classical,
    gen_signed_toric,
    gen_toric,
    ground_projectors,
)
from .decompose import (
    ImpossibleAlgebraPair,
    LayerDecomposition,
    decompose_layers,
)
from .verifier import (
    Certificate,
    CertificateDomainError,
    DegreeViolation,
    EffectiveState,
    OmegaResult,
    OverlapGraph,
    PreparedModel,
    Verdict,
    apply_certificate,
    build_overlap_graph,
    compute_omega,
    contract_component,
    effective_states,
    prepare,
    verify,
)
from .oracle import (
    IntegralityError,
    certificate_sum,
    dense_omega,
    ground_dim,
    total_overlap,
)
from .prover import SearchResult, exhaustive_search, greedy_search
from .serialize import (
    load_certificate,
    load_model,
    save_certificate,
    save_model,
)

__version__ = "0.1.0"
