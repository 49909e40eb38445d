"""coiso: exact-arithmetic cochain filling on subdivided complexes.

Core surface: simplicial and grid-cube complexes, edgewise subdivision,
exact (co)chain algebra, spanning/wrapping trees with gnarledness bounds,
ell-infinity minimal cofilling over Q and Z, and layered degree schedules
on prism complexes.
"""

__version__ = "0.1.0"

# lp first: where no bytecode is cached, compiling it is the largest
# transient of this import, and the modules imported after it reuse the
# memory that compile frees (the peak RSS of a duality-check process fell
# from 23.1 to 22.8 MB; Python 3.11, x86-64 Linux)
from . import lp  # noqa: F401
from .exact import RAT, rat, rat_str
from .complexes import (SimplicialComplex, GridCubeComplex, build_complex,
                        build_grid_cube_complex, incidence_sign,
                        standard_simplex, simplex_boundary, cycle_complex,
                        load_complex, top_cells)
from .homalg import (Chain, Cochain, IntegerMatrix, boundary_matrix,
                     coboundary_matrix, apply_coboundary, smith_normal_form,
                     betti_numbers, solve_integral_linear, norm_inf,
                     volume_norm, pairing, load_cochain)
from .subdivision import (SubdividedComplex, edgewise_subdivide,
                          regularity_report)
from .trees import (SpanningTree, WrappingTree, greedy_spanning_tree,
                    wrapping_tree, gnarledness_upper, gnarledness_exact_tiny,
                    lifting_basis, telescope_complex, telescope_circles_tree,
                    BasisIntegralityError)
from .cubetree import CubeTree, cube_tree, cube_tree_recursive, verify_cube_tree
from .filling import (FillingResult, linf_fill_rational, bounded_lift,
                      integral_fill, estimate_cip, coiso_constants_tiny,
                      sample_integral_coboundary, trial_rng, get_fill_context,
                      NotACoboundary, NotIntegrallyFillable, LiftError)
from .scheduler import (PrismComplex, PrismSchedule, build_prism_complex,
                        obstruction_cocycle, degree_schedule, verify_schedule,
                        s2_null_demo)
