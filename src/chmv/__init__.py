"""Products of Lukasiewicz chains, their extended-multiset duals, and
executable checks of the structural theory connecting them."""

from .chain import (
    ChainError,
    ChainSize,
    LINF,
    NotInChainError,
    OutOfRangeError,
    chain_subset,
    mv_op,
)
from .algebra import (
    Element,
    ProductAlgebra,
    SupportIdeal,
    boolean_center_contains,
    brute_force_homs,
    brute_force_ideals,
    characteristic,
    enumerate_elements,
    ideal_membership,
    ideal_sup,
    leq_elem,
    make_algebra,
    make_element,
    maximal_ideals,
    pointwise_op,
    principal_ideal,
    prop21_report,
    unit,
    zero,
)
from .multiset import (
    EMMorphism,
    EMultiset,
    INF,
    Profile,
    compose_morphisms,
    enumerate_morphisms,
    identity_morphism,
    make_profile,
    profile_of,
)
from .duality import (
    ContinuousHom,
    F_mor,
    F_obj,
    H_mor,
    H_obj,
    apply_hom,
    check_naturality_eq1,
    check_naturality_eq2,
    compose_homs,
    enumerate_continuous_homs,
    epsilon,
    eta,
    identity_hom,
    make_hom,
    projection,
)
from .structure import (
    injective_in_EM,
    is_extremally_disconnected,
    is_hyperarchimedean,
    is_projective,
    is_stone,
    is_surjective_hom,
    lift,
    separate,
    urysohn_strauss_holds,
)
from .dsl import (
    ParseError,
    Term,
    eval_term,
    parse_algebra,
    parse_multiset,
    parse_term,
    render,
)

__version__ = "0.1.0"
