"""Finite-scale systems of leveled trees with based families, exact abelian
group presentations, witness-equation solving, and ladder-system
uniformization tables, all with re-verifiable certificates."""

from .abelian import (
    InfeasibilityCertificate,
    IntMatrix,
    NonfreeSpec,
    Presentation,
    SmithDecomposition,
    build_chain_group,
    divisibility_evidence,
    hnf,
    invariant_factors,
    is_free,
    rank,
    snf,
    solve_z,
)
from .core import (
    Atom,
    BasedFamily,
    Node,
    SystemSkeleton,
    Violation,
    candidate_heights,
    check_structure,
    derived_system,
    height,
    lex_compare,
    make_family,
    make_skeleton,
    restrict_to_height,
    transform_disjoint,
    transform_tree,
    validate_family,
    validate_system,
)
from .freeness import (
    HallCertificate,
    ReshufflingObstruction,
    ReshufflingOrder,
    ReshufflingResult,
    Transversal,
    find_reshuffling,
    find_transversal,
    k_free_check,
)
from .uniformization import (
    LadderInstance,
    LadderLevel,
    SimulationReport,
    power_table,
    prime_table,
    recode_ladder,
    shift_disjoint,
    simulate,
    threshold_exponents,
)
from .whitehead import (
    BasisCandidate,
    Witness,
    WhiteheadSystem,
    build_witness_group,
    enumerate_basis,
    solve_witness,
    validate_whitehead,
    verify_basis,
    verify_witness,
)

__version__ = "0.1.0"
