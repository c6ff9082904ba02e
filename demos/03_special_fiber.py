#!/usr/bin/env python3
"""The special fiber: affine piecewise polynomials and the dd^c operator.

Components of the fiber match the vertices of the complex; classes on them
are chart-wise piecewise polynomials.  The restriction-difference map and
its signed adjoint compose to the model-level dd^c, whose kernel and
cokernel recover the generic fiber's Chow ring.
"""

from fractions import Fraction as Q

from ppchow import (HomogPoly, cap_fundamental, ddc_model, dim_affine_pp,
                    from_vertex_tuple, homology_presentation, iota_lower,
                    iota_upper, ker_coker_report, rho, to_vertex_tuple,
                    vertex_chart)
from ppchow.fixtures import f2_complex, f3s_complex, f6_complex
from ppchow.ppfan import constant_pp
from ppchow.specialfiber import AffinePP, VertexTuple

F2 = f2_complex()
x = HomogPoly.linear_form((1,))

print("== affine piecewise polynomials ==")
print("dimensions on the two-vertex model, k=0..2:",
      [dim_affine_pp(F2, k)[0] for k in range(3)])
aff = AffinePP(F2, 1, [x, x, x])
print("a global linear form is affine-PP; its restriction differences vanish:",
      rho(to_vertex_tuple(aff)).is_zero())

print()
print("== the model-level dd^c ==")
v0 = VertexTuple(F2, 0, {(Q(0),): constant_pp(vertex_chart(F2, (Q(0),)).fan, 1)})
dd = ddc_model(v0)  # cross-checked internally against the one-shot formula
print("dd^c of a component class, as an affine function:",
      from_vertex_tuple(dd).cell_polys)
print("the same class through the model:",
      iota_upper(F2, iota_lower(v0)).cell_polys)

print()
print("== kernel and cokernel recover the generic fiber ==")
for pc, name in ((F2, "two-vertex line model"), (f3s_complex(), "blown-up plane model")):
    for k in (1, 2):
        print(name, "degree", k, "->", ker_coker_report(pc, k))

print()
print("== homology of the fiber ==")
hp = homology_presentation(F2, 0)
print("two components, no relations in degree zero:", hp["dim"] == 2)

print()
print("== multiplicities enter through the cap product ==")
F6 = f6_complex()
one = AffinePP(F6, 0, {i: HomogPoly.constant(1, 1) for i in F6.maximal})
capped = cap_fundamental(one)
print("capping the unit with the fundamental class weights the half-integral "
      "vertex by 2:",
      {v: f.pieces[0] for v, f in capped.entries.items()})
