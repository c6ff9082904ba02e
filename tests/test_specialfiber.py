import random
from fractions import Fraction as Q

import pytest

from ppchow.errors import FacetMismatch, NotInKernel
from ppchow.fixtures import (f1_complex, f2_complex, f3_complex, f3s_complex,
                             f5_complex, f6_complex)
from ppchow.polyhedra import cone_over, refines, vertex_chart
from ppchow.polyring import HomogPoly
from ppchow.ppfan import constant_pp, phi_ray, zero_pp
from ppchow.specialfiber import (HomologyClass, VertexTuple, alpha, beta,
                                 cap_fundamental, class_equal, ddc_model,
                                 dim_affine_pp, flat_vertex,
                                 from_vertex_tuple, gamma, edge_layer_basis,
                                 homology_presentation, iota_lower, iota_upper,
                                 iota_upper_preimage, ker_coker_report,
                                 ddc_one_shot, make_affine_pp,
                                 pullback_special, rho, to_vertex_tuple,
                                 vertex_layer_basis, vertical_decompose,
                                 zero_vertex_tuple, zeta)


def lin(*coeffs):
    return HomogPoly.linear_form(coeffs)


def component_class(pc, v):
    """[V(v)]: the degree-zero tuple supported at one vertex."""
    return VertexTuple(pc, 0, {tuple(Q(x) for x in v):
                               constant_pp(vertex_chart(pc, tuple(Q(x) for x in v)).fan, 1)})


REDUCED = (f1_complex, f2_complex, f5_complex, f3_complex, f3s_complex)


def random_tuple(rng, pc, k):
    t = zero_vertex_tuple(pc, k)
    for b in vertex_layer_basis(pc, k):
        c = rng.randint(-3, 3)
        if c:
            t = t + b.scale(c)
    return t


def test_make_affine_pp_examples():
    F2 = f2_complex()
    x = lin(1)
    make_affine_pp(F2, [x, x, x], 1)          # the global linear form
    pieces = {i: (HomogPoly.zero(1, 1) if F2.cells[i].contains_point((-1,)) else x)
              for i in F2.maximal}
    make_affine_pp(F2, pieces, 1)             # 0 and x agree at the origin
    with pytest.raises(FacetMismatch):
        make_affine_pp(F2, [HomogPoly.constant(1, 1), HomogPoly.constant(1, 2),
                            HomogPoly.constant(1, 1)], 0)


def test_dim_affine_pp():
    F2 = f2_complex()
    assert [dim_affine_pp(F2, k)[0] for k in range(3)] == [1, 3, 3]
    F1 = f1_complex()
    assert dim_affine_pp(F1, 1)[0] == 2


def test_to_from_vertex_tuple():
    F2 = f2_complex()
    x = lin(1)
    a = make_affine_pp(F2, [x, x, x], 1)
    t = to_vertex_tuple(a)
    for v in F2.vertices:
        assert all(p == x for p in t.entries[v].pieces)
    assert from_vertex_tuple(t) == a
    # mismatched tuple is rejected
    ch0, ch1 = vertex_chart(F2, (Q(0),)), vertex_chart(F2, (Q(1),))
    f0 = phi_ray(ch0.fan, (1,))
    bad = VertexTuple(F2, 1, {(Q(0),): f0, (Q(1),): zero_pp(ch1.fan, 1)})
    with pytest.raises(NotInKernel):
        from_vertex_tuple(bad)
    assert from_vertex_tuple(zero_vertex_tuple(F2, 1)).is_zero()


def test_rho_examples():
    F2 = f2_complex()
    x = lin(1)
    t = to_vertex_tuple(make_affine_pp(F2, [x, x, x], 1))
    assert rho(t).is_zero()
    t0 = component_class(F2, (0,))
    e = F2.bounded_edges[0]
    r = rho(t0)
    (cell_b,) = r.entries[e]
    assert r.entries[e][cell_b] == HomogPoly.constant(1, -1)
    # sign: with f at the higher vertex only, rho reads +f on the edge cells
    ch1 = vertex_chart(F2, (Q(1),))
    a_x = phi_ray(ch1.fan, (-1,))  # a pp function on Pi(1)
    t1 = VertexTuple(F2, 1, {(Q(1),): a_x})
    r1 = rho(t1)
    bcell = next(i for i in F2.maximal if F2.cells[i].is_bounded())
    assert r1.entries[e][bcell] == a_x.pieces[
        ch1.fan.maximal.index(ch1.cell_to_cone[bcell])]


def test_gamma_examples():
    F2 = f2_complex()
    from ppchow.specialfiber import EdgeTuple
    e = F2.bounded_edges[0]
    bcell = next(i for i in F2.maximal if F2.cells[i].is_bounded())
    ones = EdgeTuple(F2, 0, {e: {bcell: HomogPoly.constant(1, 1)}})
    g = gamma(ones)
    # at v=1: -x on the chart cone of the bounded cell, 0 elsewhere
    ch1 = vertex_chart(F2, (Q(1),))
    pos = ch1.fan.maximal.index(ch1.cell_to_cone[bcell])
    assert g.entries[(Q(1),)].pieces[pos] == lin(-1)
    assert sum(1 for p in g.entries[(Q(1),)].pieces if not p.is_zero()) == 1
    ch0 = vertex_chart(F2, (Q(0),))
    pos0 = ch0.fan.maximal.index(ch0.cell_to_cone[bcell])
    assert g.entries[(Q(0),)].pieces[pos0] == lin(-1)
    assert gamma(EdgeTuple(F2, 0, {})).is_zero()


def test_gamma_projection_formula():
    # per edge and endpoint: u_*(u^* x . y) = x . u_*(y), where u^* restricts
    # a chart function to the star cells and u_* multiplies by the edge form
    # and extends by zero
    from ppchow.specialfiber import _edge_ray_form, _edge_star
    rng = random.Random(9)
    for make in (f2_complex, f5_complex, f3s_complex):
        pc = make()
        for e in pc.bounded_edges:
            star = _edge_star(pc, e)
            for v in (star.v1, star.v2):
                chart = vertex_chart(pc, v)
                pos = {i: chart.fan.maximal.index(chart.cell_to_cone[i])
                       for i in chart.max_cells}
                for _ in range(3):
                    x = random_tuple(rng, pc, 1).entries[v]
                    y = {i: HomogPoly(pc.rank, 1,
                                      {tuple(1 if s == 0 else 0 for s in range(pc.rank)):
                                       rng.randint(-3, 3)})
                         for i in star.cells}

                    def push(data):
                        pieces = [HomogPoly.zero(pc.rank, data[star.cells[0]].degree + 1)
                                  ] * len(chart.fan.maximal)
                        for i in star.cells:
                            pieces[pos[i]] = data[i] * _edge_ray_form(pc, v, star, i)
                        return pieces

                    lhs = push({i: x.pieces[pos[i]] * y[i] for i in star.cells})
                    rhs_push = push(y)
                    rhs = [x.pieces[j] * rhs_push[j] for j in range(len(rhs_push))]
                    assert lhs == rhs


def test_gamma_rho_gamma_zero():
    for make in REDUCED:
        pc = make()
        for k in range(2):
            for b in edge_layer_basis(pc, k):
                assert gamma(rho(gamma(b))).is_zero()


def test_ddc_examples():
    F1 = f1_complex()
    for k in range(3):
        for b in vertex_layer_basis(F1, k):
            assert ddc_model(b).is_zero()
    F2 = f2_complex()
    t0 = component_class(F2, (0,))
    dd = ddc_model(t0)
    aff = from_vertex_tuple(dd)
    bcell = next(i for i in F2.maximal if F2.cells[i].is_bounded())
    assert aff.cell_polys[bcell] == lin(-1)
    assert sum(1 for p in aff.cell_polys.values() if not p.is_zero()) == 1


def test_ddc_one_shot_matches():
    rng = random.Random(11)
    for make in (f2_complex, f5_complex, f6_complex, f3s_complex):
        pc = make()
        for k in range(2):
            t = random_tuple(rng, pc, k)
            assert -gamma(rho(t)) == ddc_one_shot(t)


def test_ddc_one_shot_single_vertex_branches():
    # a tuple supported at one vertex reproduces the two-branch formula
    F2 = f2_complex()
    t = component_class(F2, (1,))
    out = ddc_one_shot(t)
    e = F2.bounded_edges[0]
    from ppchow.specialfiber import _edge_star, _edge_ray_form
    star = _edge_star(F2, e)
    bcell = star.cells[0]
    # at the other endpoint: u_* u^* of the function; at the vertex itself:
    # -phi times the function
    ch0 = vertex_chart(F2, (Q(0),))
    pos0 = ch0.fan.maximal.index(ch0.cell_to_cone[bcell])
    assert out.entries[(Q(0),)].pieces[pos0] == _edge_ray_form(F2, (Q(0),), star, bcell)
    ch1 = vertex_chart(F2, (Q(1),))
    pos1 = ch1.fan.maximal.index(ch1.cell_to_cone[bcell])
    assert out.entries[(Q(1),)].pieces[pos1] == -_edge_ray_form(F2, (Q(1),), star, bcell)


def test_iota_upper_examples():
    F1 = f1_complex()
    co1 = cone_over(F1)
    from ppchow.ppfan import graded_basis
    for f in graded_basis(co1.fan, 1):
        up = iota_upper(F1, f)
        assert up.degree == 1
    F2 = f2_complex()
    co2 = cone_over(F2)
    up = iota_upper(F2, phi_ray(co2.fan, (0, 1)))
    bcell = next(i for i in F2.maximal if F2.cells[i].is_bounded())
    assert up.cell_polys[bcell] == lin(-1)
    assert up == from_vertex_tuple(ddc_model(component_class(F2, (0,))))
    # a pure power of the height coordinate slices to zero
    t_glob = HomogPoly.linear_form((0, 1))
    from ppchow.ppfan import PPFunction
    tk = PPFunction(co2.fan, 2, [t_glob * t_glob] * len(co2.fan.maximal))
    assert iota_upper(F2, tk).is_zero()


def test_iota_lower_examples():
    F2 = f2_complex()
    co = cone_over(F2)
    assert iota_lower(component_class(F2, (0,))) == phi_ray(co.fan, (0, 1))
    assert iota_lower(zero_vertex_tuple(F2, 1)).is_zero()


def test_composite_identity_on_samples():
    rng = random.Random(13)
    for make in REDUCED:
        pc = make()
        for k in range(2):
            t = random_tuple(rng, pc, k)
            assert iota_upper(pc, iota_lower(t)) == from_vertex_tuple(ddc_model(t))


def test_im_ddc_in_ker_rho():
    rng = random.Random(14)
    for make in REDUCED:
        pc = make()
        t = random_tuple(rng, pc, 1)
        assert rho(ddc_model(t)).is_zero()


def test_cap_fundamental():
    F2 = f2_complex()
    x = lin(1)
    a = make_affine_pp(F2, [x, x, x], 1)
    assert flat_vertex(cap_fundamental(a).tuple) == flat_vertex(to_vertex_tuple(a))
    F6 = f6_complex()
    one6 = make_affine_pp(F6, {i: HomogPoly.constant(1, 1) for i in F6.maximal}, 0)
    capped = cap_fundamental(one6).tuple
    assert capped.entries[(Q(1, 2),)].pieces[0] == HomogPoly.constant(1, 2)
    assert capped.entries[(Q(0),)].pieces[0] == HomogPoly.constant(1, 1)
    assert cap_fundamental(make_affine_pp(F2, {}, 1)).tuple.is_zero()


def test_homology_presentation_and_classes():
    F2 = f2_complex()
    hp = homology_presentation(F2, 0)
    assert hp["dim"] == 2
    t0, t1 = component_class(F2, (0,)), component_class(F2, (1,))
    assert not class_equal(HomologyClass(t0), HomologyClass(t1))
    assert not class_equal(HomologyClass(t0), HomologyClass(zero_vertex_tuple(F2, 0)))
    # gamma images are zero classes
    for b in edge_layer_basis(F2, 0):
        g = gamma(b)
        assert class_equal(HomologyClass(g), HomologyClass(zero_vertex_tuple(F2, 1)))
    F1 = f1_complex()
    for k in range(3):
        hp = homology_presentation(F1, k)
        assert hp["dim"] == hp["vertex_dim"]


def test_ker_coker_reports():
    assert ker_coker_report(f2_complex(), 1) == \
        {"ker": 2, "coker": 2, "pp": 2, "equal": True}
    assert ker_coker_report(f5_complex(), 1)["equal"]
    for k in range(3):
        rep = ker_coker_report(f1_complex(), k)
        assert rep["equal"]


def test_transfers():
    F2, F5 = f2_complex(), f5_complex()
    m = refines(F5, F2)
    x = lin(1)
    zero1 = HomogPoly.zero(1, 1)
    aff = make_affine_pp(F2, {i: (zero1 if F2.cells[i].contains_point((-1,)) else x)
                              for i in F2.maximal}, 1)
    pb = pullback_special(m, aff)
    for i in F5.maximal:
        cell = F5.cells[i]
        expect = zero1 if cell.contains_point((Q(-1, 2),)) or \
            cell.contains_point((-2,)) else x
        assert pb.cell_polys[i] == expect
    # alpha drops the class of the exceptional component
    tm1 = component_class(F5, (-1,))
    assert class_equal(HomologyClass(alpha(m, tm1)),
                       HomologyClass(zero_vertex_tuple(F2, 0)))
    # beta after pullback is the identity
    for k in range(3):
        _, basis = dim_affine_pp(F2, k)
        for a in basis:
            assert beta(m, pullback_special(m, a)) == a
    # alpha after zeta is the identity on classes
    for k in range(2):
        for b in vertex_layer_basis(F2, k):
            assert class_equal(HomologyClass(alpha(m, zeta(m, b))), HomologyClass(b))


def test_zeta_new_vertex_rule():
    F2, F5 = f2_complex(), f5_complex()
    m = refines(F5, F2)
    t = component_class(F2, (0,))
    zt = zeta(m, t)
    # the new vertex -1 lies in the interior of the cell (-oo, 0], whose only
    # vertex is 0, so it inherits that cell's reading of f_0
    entry = zt.entries[(Q(-1),)]
    ch = vertex_chart(F5, (Q(-1),))
    acell = next(i for i in ch.max_cells
                 if F5.cells[i].contains_point((Q(-1, 2),)))
    assert entry.pieces[ch.fan.maximal.index(ch.cell_to_cone[acell])] == \
        HomogPoly.constant(1, 1)


def test_vertical_expansion_residue_unique():
    # the residue component of the height-class expansion is well defined
    # modulo gamma images: any kernel element of the stacked lift has a
    # gamma-trivial degree-zero part
    from ppchow.polyring import monomial_exponents
    from ppchow.qlinalg import kernel_basis, mat
    from ppchow.specialfiber import iota_lower
    for make in (f1_complex, f2_complex):
        pc = make()
        co = cone_over(pc)
        n = pc.rank
        t_form = HomogPoly.linear_form((0,) * n + (1,))
        for deg in range(1, 4):
            monos = monomial_exponents(n + 1, deg)
            cols, info = [], []
            for j in range(deg):
                k = deg - 1 - j
                for bi, b in enumerate(vertex_layer_basis(pc, k)):
                    lifted = iota_lower(b)
                    for _ in range(j):
                        lifted = lifted * t_form
                    cols.append([p.coeffs.get(e, 0) for p in lifted.pieces
                                 for e in monos])
                    info.append((j, k, bi))
            if not cols:
                continue
            for kv in kernel_basis(mat([list(c) for c in zip(*cols)])):
                g0 = zero_vertex_tuple(pc, deg - 1)
                for c, (j, k, bi) in zip(kv, info):
                    if j == 0 and c != 0:
                        g0 = g0 + vertex_layer_basis(pc, k)[bi].scale(c)
                assert class_equal(HomologyClass(g0),
                                   HomologyClass(zero_vertex_tuple(pc, deg - 1)))


def test_vertical_decompose_and_preimage():
    F2 = f2_complex()
    co = cone_over(F2)
    g = vertical_decompose(F2, phi_ray(co.fan, (0, 1)))
    assert class_equal(HomologyClass(g), HomologyClass(component_class(F2, (0,))))
    # iota_lower of gamma images vanishes, so solutions are classes
    for b in edge_layer_basis(F2, 0):
        assert iota_lower(gamma(b)).is_zero()
    # slice preimage: iota_upper . preimage is the identity
    for k in range(3):
        _, basis = dim_affine_pp(F2, k)
        for a in basis:
            assert iota_upper(F2, iota_upper_preimage(F2, a)) == a
