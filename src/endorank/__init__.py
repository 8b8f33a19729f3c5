"""Exact computer algebra for the semigroup of polynomial-algebra
endomorphisms: rank certificates, the divisibility-style order, rank-reducing
substitution chains, matrix-unit (Kronecker) families, and semi-linear
conjugation."""

from __future__ import annotations

from . import errors
from .autgroup import (
    ConjugationReport,
    SemiLinearAut,
    compose_semilinear,
    conjugate,
    map_coeffs,
    verify_automorphism_properties,
)
from .chains import (
    Chain,
    ChainPolicy,
    ChainStep,
    ChainVerification,
    SubstitutionRecord,
    build_full_chain,
    lift_endo,
    reduce_rank_once,
    verify_chain,
)
from .endo import (
    Comparison,
    Endomorphism,
    RankCertificate,
    Verdict,
    compare,
    compose,
    jacobian_rank_at,
    kronecker_endo,
    rank,
    relation_ideal,
)
from .fields import (
    GF2,
    GF3,
    GF4,
    GF9,
    QQ,
    FieldAutomorphism,
    FieldElement,
    FieldSpec,
    builtin_extension,
    enumerate_elements,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    clear_caches,
    eliminate,
    get_budget,
    groebner_basis,
    ideal_dimension,
    invert_poly_map,
    normal_form,
    set_budget,
    subalgebra_member,
)
from .kronecker import (
    BaseCertificate,
    BaseCheck,
    KroneckerSystem,
    NormalizationResult,
    RepresentationKind,
    SubbaseReport,
    classify_representation,
    image_generator,
    normalize_base,
    verify_base_external,
    verify_subbase,
)
from .mpoly import (
    GREVLEX,
    Block,
    MultiPoly,
    degree_cap,
    set_degree_cap,
)
from .parsing import (
    format_poly,
    load_automorphism,
    load_endomorphism,
    load_kronecker_system,
    parse_field_header,
    parse_polynomial,
)

__version__ = "0.1.0"
