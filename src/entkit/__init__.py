"""entkit: multipartite entanglement structure of pure quantum states.

Submodules: states (dense states and spectra), invariants (three-qubit LU
invariants, tangles, SLOCC), stellar (symmetric states on the sphere and
binary forms), polytope (local-spectra inequalities), uniformity (Q_k and
AME checks), codes (classical codes and the error-correction condition),
mps (matrix product states and DMRG), cli (command-line front end).
"""

from .states import (
    PureState,
    DensityMatrix,
    SchmidtDecomposition,
    Bipartition,
    new_state,
    basis_state,
    ghz_state,
    w_state,
    dicke_state,
    product_state,
    apply_local,
    partial_trace,
    schmidt,
    spectra_report,
    random_state,
    page_expected_entropy,
    read_state_file,
    write_state_file,
)
from .invariants import (
    LuInvariants,
    TangleReport,
    SloccClass,
    CanonicalForm3,
    lu_invariants,
    hyperdeterminant3,
    kempe_invariant,
    concurrence_tangle_mixed,
    tangle_pure2,
    tangle_report,
    four_tangle,
    slocc_classify3,
    canonical_form3,
)
from .stellar import (
    SymmetricState,
    Constellation,
    MobiusMap,
    FormInvariants,
    symmetric_from_pure,
    symmetric_to_pure,
    to_constellation,
    from_constellation,
    apply_mobius,
    mobius_from_local_operator,
    degeneracy_type,
    cross_ratio,
    cross_ratio_orbit,
    orbit_canonical,
    classify_sym,
    resultant,
    form_invariants,
    partition_count,
    hardy_ramanujan,
)
from .polytope import (
    LocalSpectra,
    local_spectra,
    polygon_check,
    w_pyramid_test,
    realize_spectra3,
    polytope_vertices,
)
from .uniformity import (
    UniformityReport,
    PauliString,
    q_measure,
    k_uniform_level,
    uniformity_report,
    stabilizer_check,
    catalog_state,
    ame43_state,
    ame52_state,
)
from .codes import (
    LinearCode,
    hamming_code,
    repetition_code,
    hamming_distance,
    min_distance,
    parity_check_from_standard,
    encode,
    syndrome_decode_weight1,
    knill_laflamme_check,
)
from .mps import (
    MpsState,
    NnHamiltonian,
    GroundStateResult,
    from_dense,
    to_dense,
    check_canonical,
    canonicalize,
    truncate,
    overlap,
    norm,
    entanglement_entropy,
    random_mps,
    peps_1d,
    ising_hamiltonian,
    heisenberg_hamiltonian,
    dense_hamiltonian,
    dmrg_ground_state,
)

__version__ = "0.1.0"
