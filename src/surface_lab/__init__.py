"""surface-lab: exact and numerical verification of the invariants of a
bidouble-cover surface of general type with K^2 = 7 and p_g = 0.

Subpackages split by machinery:

- integer_algebra: Smith normal form, cokernels and ranks over Z
- affine_groups: the five affine generators, commutators, abelianization
- orbifold_covers: branched (Z/2)^n covers, genus and subgroup counts
- product_threefold: triple products and Kuenneth dimensions
- picard_lattice: the blown-up plane configuration and tangent-sheaf chain
- character_calculus: sign characters, isotypic pieces, pencil invariants
- legendre_numerics: elliptic evaluators and functional-equation checks
- checks / cli: the named verification suite behind `surface-lab verify`
"""

from .affine_groups import abelianize_extension, standard_generators
from .checks import RunConfig, run
from .integer_algebra import FinAbGroup, IntMatrix, smith_normal_form
from .legendre_numerics import Tolerance, legendre_params, verify_identities
from .picard_lattice import theta_cohomology_report, verify_configuration
from .product_threefold import adjunction_chain, ks_squared

__all__ = [
    "FinAbGroup",
    "IntMatrix",
    "RunConfig",
    "Tolerance",
    "abelianize_extension",
    "adjunction_chain",
    "ks_squared",
    "legendre_params",
    "run",
    "smith_normal_form",
    "standard_generators",
    "theta_cohomology_report",
    "verify_configuration",
    "verify_identities",
]
