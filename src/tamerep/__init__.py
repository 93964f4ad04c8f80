"""tamerep: tame self-dual local Galois representations over finite fields.

Pipeline: search admissible prime pairs (p, t), build the residual induced
representation as explicit matrices over F_{l^k}, solve for its invariant
bilinear form and commutant, enumerate and analyze the finite image group,
classify orthogonal data (Witt type, spinor norms, the four projective
quotients), and emit verifiable JSON certificates.
"""

from .arith import (
    PairCandidate,
    audit_adz,
    example21_check,
    factorize,
    is_prime,
    mult_order_mod,
    search_pairs,
)
from .chars import CharType, TameCharacter, classify_type, is_admissible, is_self_dual
from .errors import ToolkitError
from .ff import (
    FieldDescriptor,
    FieldElement,
    find_generator,
    is_square,
    make_field,
    mul_order,
)
from .groups import GroupHandle, closure, gamma_d, is_metacyclic_tn, normal_subgroups
from .induce import (
    FormKind,
    ResidualRep,
    build_residual_rep,
    commutant_dim,
    form_kind,
    image_group,
    invariant_forms,
)
from .linalg import Matrix, nullspace
from .ortho import (
    GroupFlavor,
    QuadraticSpace,
    SquareClass,
    SubgroupPlacement,
    TypeReport,
    classify_subgroup,
    group_order,
    scalars_in,
    spinor_norm,
    witt_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "CharType",
    "FieldDescriptor",
    "FieldElement",
    "FormKind",
    "GroupFlavor",
    "GroupHandle",
    "Matrix",
    "PairCandidate",
    "QuadraticSpace",
    "ResidualRep",
    "SquareClass",
    "SubgroupPlacement",
    "TameCharacter",
    "ToolkitError",
    "TypeReport",
    "audit_adz",
    "build_residual_rep",
    "classify_subgroup",
    "classify_type",
    "closure",
    "commutant_dim",
    "example21_check",
    "factorize",
    "find_generator",
    "form_kind",
    "gamma_d",
    "group_order",
    "image_group",
    "invariant_forms",
    "is_admissible",
    "is_metacyclic_tn",
    "is_prime",
    "is_self_dual",
    "is_square",
    "make_field",
    "mul_order",
    "mult_order_mod",
    "normal_subgroups",
    "nullspace",
    "scalars_in",
    "search_pairs",
    "spinor_norm",
    "witt_decompose",
]
