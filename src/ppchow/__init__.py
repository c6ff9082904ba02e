"""Exact piecewise-polynomial Chow calculus on polyhedral complexes.

The layers, bottom up: exact rational linear algebra (``qlinalg``),
homogeneous polynomials and factored rational functions (``polyring``), SCR
polyhedral complexes and fans (``polyhedra``), piecewise polynomials on fans
(``ppfan``), the special-fiber calculus with the restriction-difference and
pushforward maps and the model-level dd^c (``specialfiber``), truncated
limit towers with delta and Green currents (``limits``), and the arithmetic
cycle groups with their two limit descriptions (``arithchow``).
"""

from .qlinalg import Rat, rat, rat_str
from .polyring import HomogPoly, RatFun, equal_on_span, ratfun_sum_to_poly
from .polyhedra import (Cone, Fan, ModelMap, PolyComplex, Polyhedron,
                        build_complex, common_refinement, cone_over, edge_data,
                        horizontal_star, recession_fan, refines,
                        star_subdivision, vertex_chart)
from .ppfan import (PPFunction, equivariant_degree, graded_basis, make_pp,
                    phi_cone, phi_ray, pullback, pushforward)
from .specialfiber import (AffinePP, EdgeTuple, HomologyClass, VertexTuple,
                           alpha, beta, cap_fundamental, class_equal,
                           ddc_model, dim_affine_pp, from_vertex_tuple, gamma,
                           homology_presentation, iota_lower, iota_upper,
                           ker_coker_report, make_affine_pp, pullback_special,
                           rho, to_vertex_tuple, zeta)
from .cycles import InvariantCycle, closure_class, model_cycle_class
from .limits import (ClosedForm, CurrentTower, FormModDdbar, ModelChain,
                     ddc_current, ddc_form, degree_current, delta_current,
                     form_equal, green_from_lifting, is_green,
                     regularity_check, tower_stabilization)
from .arithchow import (ArithCycle, ExtendedArithCycle, LimitClass, LimitTower,
                        arith_product, div_nu, eigen_divisor, limit_equal,
                        module_action, poincare_lelong_check, theta,
                        theta_inverse, theta_prime, theta_prime_inverse)

__version__ = "0.1.0"
