"""Exact matrix algebra over commutative bipotent semirings.

The package provides the semiring families themselves (tropical, natural
max-plus, truncated, chains, explicit tables), square matrices over them in
three families (full, upper triangular, unitriangular), searches for
product-preserving permutations, constructive congruence quotients with
pigeonhole transposition finders, and the classification of truncated
tropical semirings up to isomorphism.  All arithmetic is exact.
"""

from .errors import BipermuteError
from .matrices import (
    FULL,
    UNI,
    UT,
    Matrix,
    mat_mul,
    pad_sequence,
    prefix_suffix_products,
    project_topleft,
    seq_product,
)
from .permutability import (
    Found,
    IdentityOnly,
    NoneFoundUnderPolicy,
    PathAssignment,
    SearchPolicy,
    apply_perm_product,
    exhaustive_identity_only,
    find_preserving_permutation,
    path_assignment,
    reconstruct_from_assignment,
    weak_bound,
)
from .quotients import (
    CongruenceQuotient,
    chain_congruence,
    kerperm_bound,
    kerperm_find_swap,
    protecting_congruence,
    trunc12_congruence,
    truncperm_bound,
    verify_congruence,
    xperm_bound,
    xperm_find,
)
from .scalars import ADJOINED_ID, NEG_INF, Atom, Scalar
from .semirings import (
    AxiomReport,
    FiniteSemiringTable,
    Semiring,
    adjoin_zero,
    boolean,
    chain,
    check_axioms,
    classify_monogenic,
    element_order,
    nat_max,
    neg_nat_max,
    noidentity_obstruction,
    noidentity_semiring,
    srk_add,
    srk_mul,
    table_semiring,
    tropical,
    trunc,
    trunc_nat,
    trunc_neg_nat,
)
from .trunciso import (
    IsoClassification,
    PiecewiseLinearMap,
    apply_iso,
    classify_truncated,
    max_element_order,
    verify_iso,
)
from .constructions import (
    BicyclicElement,
    bicyclic_mul,
    bicyclic_rho,
    default_epsilon,
    lift_scale_UT2,
    lift_to_full_Nmax,
    witness_M3_trunc,
    witness_M3_trunc_partial_product,
    witness_U3_Nmax,
    witness_U3_Nmax_partial_product,
    witness_U3_negNmax,
    witness_U3_negNmax_partial_product,
)

__version__ = "0.1.0"
