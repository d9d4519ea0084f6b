"""Exact computer algebra for finitely graded color Hom-Lie algebras.

Public names load on first use (PEP 562): importing the package runs no
submodule, and ``from colorhomlie import X`` imports only X's module.
"""
import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "scalars_grading": "BiCharacter CycloScalar FiniteAbelianGroup GroupElement cyclo_reduce "
                       "format_scalar parse_scalar reorder_sign",
    "algebra_core": "AxiomReport BracketTable CheckResult ColorHomAlgebra GradedBasis "
                    "HomAssociativeColorAlgebra StructureConstants check_color_hom_lie "
                    "commutator_algebra derived_algebra",
    "morphisms_twists": "BudgetExceededError enumerate_morphisms twist verify_morphism",
    "representations": "Representation adjoint alpha_s_adjoint check_coadjoint_condition "
                       "check_module check_representation dual_representation",
    "cohomology": "Cochain CochainSpace cochain_basis cohomology_group delta_matrix",
    "hls_bracket": "CommutativeColorAlgebra SigmaDerivation annihilator check_ann_invariance "
                   "check_hls_jacobi check_sigma_derivation hls_bracket",
    "structure_theory": "HomogeneousMapSpace check_hom_jordan check_inclusion_lattice "
                        "jordan_product quasi_centroid_jordan reverify_space solve_space",
    "deformations": "FormalAutomorphism TruncatedBracket check_deformation check_equivalence "
                    "composition_deformation first_order_class transport_bracket",
    "fileio": "parse_algebra_document parse_algebra_file serialize_algebra",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    """An exported name, or a submodule the package used to import eagerly."""
    if name in _MODULE_OF:
        module = import_module(f"{__name__}.{_MODULE_OF[name]}")
        value = globals()[name] = getattr(module, name)
        return value
    if name in _EXPORTS or name == "linalg":
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    # Importing a submodule binds it on the package.  An exported name spelt
    # like its module (the function hls_bracket) keeps its binding.
    def __setattr__(self, name, value):
        if not (isinstance(value, ModuleType) and name in _MODULE_OF):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
