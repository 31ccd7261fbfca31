"""Exact computational algebra for corings built from entwining structures.

The package computes, over Q or a prime field, the coring attached to an
entwining structure, its dual ring, the coinvariant subring, the connecting
Morita context, and decides the Galois, cleft and structure-theorem
properties of the extension, cross-checking the equivalences clause by
clause.
"""

from .exactla import (
    QQ,
    GF,
    DenseMatrix,
    ExactLAError,
    FieldSpec,
    QuotientSpace,
    ShapeError,
    Subspace,
    image,
    kernel,
    kron,
    quotient,
)
from .algebra import (
    AlgebraPresentation,
    BimodulePresentation,
    ModulePresentation,
    balanced_tensor,
    hom_module,
    is_fg_projective,
    is_generator,
    verify_algebra,
    verify_module,
)
from .coalgebra import (
    CoalgebraPresentation,
    convolution,
    convolution_inverse,
    is_grouplike_C,
    verify_coalgebra,
)
from .entwining import (
    EntwinedContext,
    build_coring,
    comodule_algebra_from_unit,
    doi_koppinen,
    instance_from_json,
    verify_entwining,
)
from .coring import (
    ComoduleInstance,
    CoringPresentation,
    coinvariants,
    dual_action,
    hom_comodule,
    hom_from_A,
    hom_into_induced,
    verify_coring,
    x_invariants,
)
from .morita import (
    build_context,
    check_theorem_Cfinite,
    check_theorem_surj,
    compute_B,
    compute_Q,
    find_qhat,
    omega_and_lambda,
    psi_tilde_from_F,
    xi_M,
)
from .galois import (
    beta,
    phi_N,
    psi_M,
    psi_prime_M,
    structure_report,
)
from .cleft import (
    SearchResult,
    check_theorem_main,
    check_theorem_xcase,
    find_cleft,
    gamma_M,
    integral_space,
    lemma_coQ_check,
    normal_basis_check,
)
from .verdict import AxiomFailure, ClauseDisagreement, Verdict, VerificationError

__all__ = [
    "QQ", "GF", "DenseMatrix", "ExactLAError", "FieldSpec", "QuotientSpace",
    "ShapeError", "Subspace", "image", "kernel", "kron", "quotient",
    "AlgebraPresentation", "BimodulePresentation", "ModulePresentation",
    "balanced_tensor", "hom_module", "is_fg_projective", "is_generator",
    "verify_algebra", "verify_module",
    "CoalgebraPresentation", "convolution", "convolution_inverse",
    "is_grouplike_C", "verify_coalgebra",
    "EntwinedContext", "build_coring", "comodule_algebra_from_unit",
    "doi_koppinen", "instance_from_json", "verify_entwining",
    "ComoduleInstance", "CoringPresentation", "coinvariants", "dual_action",
    "hom_comodule", "hom_from_A", "hom_into_induced",
    "verify_coring", "x_invariants",
    "build_context", "check_theorem_Cfinite",
    "check_theorem_surj", "compute_B", "compute_Q", "find_qhat",
    "omega_and_lambda", "psi_tilde_from_F", "xi_M",
    "beta", "phi_N", "psi_M", "psi_prime_M", "structure_report",
    "SearchResult", "check_theorem_main", "check_theorem_xcase", "find_cleft",
    "gamma_M", "integral_space", "lemma_coQ_check", "normal_basis_check",
    "Fixture", "all_fixtures", "fixture",
    "AxiomFailure", "ClauseDisagreement", "Verdict", "VerificationError",
]

__version__ = "0.1.0"


def __getattr__(name):
    """The fixtures are imported on first access: no command reads them."""
    if name in ("Fixture", "all_fixtures", "fixture"):
        from . import fixtures
        return getattr(fixtures, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
