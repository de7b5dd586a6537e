"""cealg: exact verification of semifree differential bigraded algebras."""

# before the imports: `reporting` reads it while the package loads
__version__ = "0.1.0"

from .graded import (
    EVEN,
    ODD,
    AlgebraSignature,
    DuplicateName,
    Element,
    GeneratorDecl,
    GradedError,
    SignatureMismatch,
    UnknownGenerator,
    linear_combine,
    make_signature,
    transport,
)
from .dgca import (
    BidegreeMismatch,
    ChainHomotopy,
    ChainMapViolation,
    DGCAMorphism,
    InhomogeneousImage,
    NotClosed,
    Report,
    SemifreeDGCA,
    adjoin_generator,
    apply_d,
    by_name,
    check_chain_map,
    check_d_squared,
    check_homotopy,
    compose,
    identity_morphism,
    make_dgca,
    make_morphism,
    set_generators_to_zero,
)
from .linalg import (
    Capped,
    CoboundaryDecision,
    GradedBasis,
    SparseRationalMatrix,
    cohomology_dims,
    count_monomials,
    differential_matrix,
    is_coboundary,
    monomial_basis,
    rank,
    solve,
)
from .clifford import (
    BadIndices,
    CliffordRep,
    Unsupported,
    build_clifford,
    check_clifford,
    quartic_fierz_check,
)
from .catalog import (
    NotProportional,
    ZeroCocycle,
    brane_cocycle,
    coefficient_line,
    equivariant_lift,
    family_seven_cocycle,
    lorentz_trace,
    m2brane,
    m5_cocycle,
    measured_c,
    resolved_minkowski,
    resolved_poincare,
    super_minkowski,
    super_poincare,
    trace_power,
    verify_brane_scan_entry,
    verify_m5_relation,
)
from .rational_homotopy import (
    flat_form_check,
    forms_fiber_check,
    hopf_sequence_check,
    poincare_lemma_check,
    poly_de_rham,
    radial_contraction,
    sphere_model,
)
