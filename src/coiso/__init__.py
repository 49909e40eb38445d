"""coiso: exact-arithmetic cochain filling on subdivided complexes.

Core surface: simplicial and grid-cube complexes, edgewise subdivision,
exact (co)chain algebra, spanning/wrapping trees with gnarledness bounds,
ell-infinity minimal cofilling over Q and Z, and layered degree schedules
on prism complexes.

The exports are lazy (PEP 562): `import coiso` loads none of the package's
modules, and the first use of a name (or a submodule) loads its module.  A
name is looked up in its module on every use and never kept here, so a
patch to it there shows through `coiso.<name>` until it is undone.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in [
    ("exact", "RAT rat rat_str"),
    ("complexes", "SimplicialComplex GridCubeComplex build_complex build_grid_cube_complex "
                  "incidence_sign standard_simplex simplex_boundary cycle_complex "
                  "load_complex top_cells"),
    ("homalg", "Chain Cochain IntegerMatrix boundary_matrix coboundary_matrix "
               "apply_coboundary smith_normal_form betti_numbers solve_integral_linear "
               "norm_inf volume_norm pairing load_cochain"),
    ("subdivision", "SubdividedComplex edgewise_subdivide regularity_report"),
    ("trees", "SpanningTree WrappingTree greedy_spanning_tree wrapping_tree "
              "gnarledness_upper gnarledness_exact_tiny lifting_basis telescope_complex "
              "telescope_circles_tree BasisIntegralityError"),
    ("cubetree", "CubeTree cube_tree cube_tree_recursive verify_cube_tree"),
    ("filling", "FillingResult linf_fill_rational bounded_lift integral_fill estimate_cip "
                "coiso_constants_tiny sample_integral_coboundary trial_rng "
                "get_fill_context NotACoboundary NotIntegrallyFillable LiftError"),
    ("scheduler", "PrismComplex PrismSchedule build_prism_complex obstruction_cocycle "
                  "degree_schedule verify_schedule s2_null_demo"),
] for name in names.split()}
_SUBMODULES = {"cli", "linalg", "lp", *_EXPORTS.values()}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
