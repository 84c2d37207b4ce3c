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

from importlib import import_module

# public name -> defining submodule; each submodule is imported on first
# access (PEP 562), so `from surface_lab import legendre_numerics` loads the
# numerics alone and not the six algebra modules
_EXPORTS = {
    "FinAbGroup": "integer_algebra",
    "IntMatrix": "integer_algebra",
    "RunConfig": "checks",
    "Tolerance": "legendre_numerics",
    "abelianize_extension": "affine_groups",
    "adjunction_chain": "product_threefold",
    "ks_squared": "product_threefold",
    "legendre_params": "legendre_numerics",
    "run": "checks",
    "smith_normal_form": "integer_algebra",
    "standard_generators": "affine_groups",
    "theta_cohomology_report": "picard_lattice",
    "verify_configuration": "picard_lattice",
    "verify_identities": "legendre_numerics",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # not cached in the package namespace: a rebinding of the submodule
    # attribute (a monkeypatch, a tracer) is seen by the next lookup
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)
