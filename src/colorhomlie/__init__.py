"""Exact computer algebra for finitely graded color Hom-Lie algebras."""

from .scalars_grading import (BiCharacter, CycloScalar, FiniteAbelianGroup,
                              GroupElement, cyclo_reduce, format_scalar,
                              parse_scalar, reorder_sign)
from .algebra_core import (AxiomReport, BracketTable, CheckResult,
                           ColorHomAlgebra, GradedBasis,
                           HomAssociativeColorAlgebra, check_color_hom_lie,
                           commutator_algebra, derived_algebra)
from .morphisms_twists import (BudgetExceededError, LinearMap,
                               enumerate_morphisms, twist, verify_morphism)
from .representations import (ModuleStructure, Representation, adjoint,
                              alpha_s_adjoint, check_coadjoint_condition,
                              check_module, check_representation,
                              dual_representation)
from .cohomology import (Cochain, CochainSpace, cochain_basis, coboundary,
                         cohomology_group, delta_matrix)
from .hls_bracket import (CommutativeColorAlgebra, SigmaDerivation,
                          annihilator, check_ann_invariance, check_hls_jacobi,
                          check_sigma_derivation, hls_bracket)
from .structure_theory import (HomogeneousMapSpace, centroid_space,
                               check_hom_jordan, check_inclusion_lattice,
                               derivation_space, generalized_derivation_space,
                               jordan_product, quasi_centroid_jordan,
                               quasi_centroid_space, quasi_derivation_space)
from .deformations import (FormalAutomorphism, TruncatedBracket,
                           check_deformation, check_equivalence,
                           composition_deformation, first_order_class,
                           transport_bracket)
from .fileio import (parse_algebra_document, parse_algebra_file,
                     serialize_algebra)

__version__ = "0.1.0"
