import random
from fractions import Fraction as Q

import pytest

import route_oracle
from ppchow.errors import DegreeMismatch, FacetMismatch, NotInKernel
from ppchow.fixtures import (f1_complex, f2_complex, f3_complex, f3s_complex,
                             f5_complex, f6_complex)
from ppchow.polyhedra import cone_over, refines, vertex_chart
from ppchow.polyring import HomogPoly
from ppchow.ppfan import constant_pp, phi_ray, zero_pp
from ppchow.specialfiber import (AffinePP, EdgeTuple, VertexTuple, alpha,
                                 beta, cap_fundamental, class_equal, ddc_model,
                                 dim_affine_pp, flat_vertex,
                                 from_vertex_tuple, gamma, edge_layer_basis,
                                 homology_presentation, iota_lower, iota_upper,
                                 iota_upper_preimage, ker_coker_report,
                                 ddc_one_shot, pullback_special, rho, to_vertex_tuple,
                                 vertex_layer_basis, vertical_decompose,
                                 vertical_expand, zero_vertex_tuple, zeta)


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
    AffinePP(F2, 1, [x, x, x])             # the global linear form
    pieces = {i: (HomogPoly.zero(1, 1) if F2.cells[i].contains_point((-1,)) else x)
              for i in F2.maximal}
    AffinePP(F2, 1, pieces)                # 0 and x agree at the origin
    bad = [HomogPoly.constant(1, 1), HomogPoly.constant(1, 2), HomogPoly.constant(1, 1)]
    with pytest.raises(FacetMismatch) as info:
        AffinePP(F2, 0, bad)
    # one search for both carriers, against the validator it replaced
    a = AffinePP(F2, 0, dict(zip(F2.maximal, bad)), validate=False)
    witness = route_oracle.affine_offending_pair(a)
    assert repr(info.value.witness) == repr(a.offending_pair()) == repr(witness)
    assert str(info.value) == f"cells {witness[0]} and {witness[1]} disagree on the " \
        f"direction space of {witness[2]!r}"
    # F2 has 3 maximal cells: 2 or 4 pieces, or a piece on a cell that is not
    # maximal, are refused rather than zero-filled, dropped or ignored
    for short_or_long in ([x, x], [x, x, x, x]):
        with pytest.raises(ValueError, match="one piece per maximal cell"):
            AffinePP(F2, 1, short_or_long)
    face = next(i for i in range(len(F2.cells)) if i not in F2.maximal)
    with pytest.raises(ValueError, match=f"cell {face} is not a maximal cell"):
        AffinePP(F2, 1, {**dict(zip(F2.maximal, [x, x, x])), face: x})


def test_each_carrier_refuses_parts_off_its_layout():
    # a key or a count the layout does not have, a part of another degree and
    # a vertex entry on another chart are refused, not dropped, truncated or kept
    F2, F3s = f2_complex(), f3s_complex()
    f = constant_pp(vertex_chart(F2, (Q(0),)).fan, 1)
    one = HomogPoly.constant(1, 1)
    with pytest.raises(ValueError, match=r"vertex \(5,\) is not a vertex of the complex"):
        VertexTuple(F2, 0, {(5,): f})
    with pytest.raises(ValueError, match="need one piece per vertex of the complex"):
        VertexTuple(F2, 0, [f])
    with pytest.raises(DegreeMismatch, match="piece of degree 0 in a degree-1 function"):
        VertexTuple(F2, 1, {(Q(0),): f})
    v1, v2 = F3s.vertices
    with pytest.raises(ValueError, match=r"the entry at vertex \(.*\) is not on its chart"):
        VertexTuple(F3s, 0, {v2: constant_pp(vertex_chart(F3s, v1).fan, 1)})
    with pytest.raises(ValueError, match="cell 99 is not a maximal cell"):
        AffinePP(F2, 0, {99: one}, validate=False)
    with pytest.raises(DegreeMismatch, match="piece of degree 0 in a degree-1 function"):
        AffinePP(F2, 1, {F2.maximal[0]: one}, validate=False)
    (e,) = F3s.bounded_edges
    cells = route_oracle._edge_star(F3s, e).cells
    outside = next(i for i in F3s.maximal if i not in cells)
    const = HomogPoly.constant(2, 1)
    with pytest.raises(ValueError, match=f"cell {outside} is not a bounded edge"):
        EdgeTuple(F3s, 0, {outside: {}})
    with pytest.raises(ValueError, match=f"cell {outside} is not a maximal cell at edge {e}"):
        EdgeTuple(F3s, 0, {e: {outside: const}})
    with pytest.raises(DegreeMismatch, match="piece of degree 0 in a degree-1 function"):
        EdgeTuple(F3s, 1, {e: {cells[0]: const}})


def test_dim_affine_pp():
    F2 = f2_complex()
    assert [dim_affine_pp(F2, k)[0] for k in range(3)] == [1, 3, 3]
    F1 = f1_complex()
    assert dim_affine_pp(F1, 1)[0] == 2


def test_to_from_vertex_tuple():
    F2 = f2_complex()
    x = lin(1)
    a = AffinePP(F2, 1, [x, x, x])
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
    t = to_vertex_tuple(AffinePP(F2, 1, [x, x, x]))
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
    bcell = next(i for i in F2.maximal if not F2.cells[i].rays)
    assert r1.entries[e][bcell] == a_x.pieces[ch1.max_cells.index(bcell)]


def test_gamma_examples():
    F2 = f2_complex()
    from ppchow.specialfiber import EdgeTuple
    e = F2.bounded_edges[0]
    bcell = next(i for i in F2.maximal if not F2.cells[i].rays)
    ones = EdgeTuple(F2, 0, {e: {bcell: HomogPoly.constant(1, 1)}})
    g = gamma(ones)
    # at v=1: -x on the chart cone of the bounded cell, 0 elsewhere
    ch1 = vertex_chart(F2, (Q(1),))
    pos = ch1.max_cells.index(bcell)
    assert g.entries[(Q(1),)].pieces[pos] == lin(-1)
    assert sum(1 for p in g.entries[(Q(1),)].pieces if not p.is_zero()) == 1
    ch0 = vertex_chart(F2, (Q(0),))
    pos0 = ch0.max_cells.index(bcell)
    assert g.entries[(Q(0),)].pieces[pos0] == lin(-1)
    assert gamma(EdgeTuple(F2, 0, {})).is_zero()


def test_gamma_projection_formula():
    # per edge and endpoint: u_*(u^* x . y) = x . u_*(y), where u^* restricts
    # a chart function to the star cells and u_* multiplies by the edge form
    # and extends by zero
    from route_oracle import _edge_ray_form, _edge_star
    rng = random.Random(9)
    for make in (f2_complex, f5_complex, f3s_complex):
        pc = make()
        for e in pc.bounded_edges:
            star = _edge_star(pc, e)
            for v in (star.v1, star.v2):
                chart = vertex_chart(pc, v)
                pos = {i: p for p, i in enumerate(chart.max_cells)}
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
    bcell = next(i for i in F2.maximal if not F2.cells[i].rays)
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
    from route_oracle import _edge_ray_form, _edge_star
    star = _edge_star(F2, e)
    bcell = star.cells[0]
    # at the other endpoint: u_* u^* of the function; at the vertex itself:
    # -phi times the function
    ch0 = vertex_chart(F2, (Q(0),))
    pos0 = ch0.max_cells.index(bcell)
    assert out.entries[(Q(0),)].pieces[pos0] == _edge_ray_form(F2, (Q(0),), star, bcell)
    ch1 = vertex_chart(F2, (Q(1),))
    pos1 = ch1.max_cells.index(bcell)
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
    bcell = next(i for i in F2.maximal if not F2.cells[i].rays)
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
    a = AffinePP(F2, 1, [x, x, x])
    assert flat_vertex(cap_fundamental(a)) == flat_vertex(to_vertex_tuple(a))
    F6 = f6_complex()
    one6 = AffinePP(F6, 0, {i: HomogPoly.constant(1, 1) for i in F6.maximal})
    capped = cap_fundamental(one6)
    assert capped.entries[(Q(1, 2),)].pieces[0] == HomogPoly.constant(1, 2)
    assert capped.entries[(Q(0),)].pieces[0] == HomogPoly.constant(1, 1)
    assert cap_fundamental(AffinePP(F2, 1, {})).is_zero()


def test_homology_presentation_and_classes():
    F2 = f2_complex()
    hp = homology_presentation(F2, 0)
    assert hp["dim"] == 2
    # each representative is a class on F2, held by its vertex tuple
    assert all(c.model is F2 and c.tuple.complex is F2 and c.degree == 0
               for c in hp["basis"])
    t0, t1 = component_class(F2, (0,)), component_class(F2, (1,))
    assert not class_equal(t0, t1)
    assert not class_equal(t0, zero_vertex_tuple(F2, 0))
    # gamma images are zero classes
    for b in edge_layer_basis(F2, 0):
        g = gamma(b)
        assert class_equal(g, zero_vertex_tuple(F2, 1))
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
    aff = AffinePP(F2, 1, {i: (zero1 if F2.cells[i].contains_point((-1,)) else x)
                           for i in F2.maximal})
    pb = pullback_special(m, aff)
    for i in F5.maximal:
        cell = F5.cells[i]
        expect = zero1 if cell.contains_point((Q(-1, 2),)) or \
            cell.contains_point((-2,)) else x
        assert pb.cell_polys[i] == expect
    # alpha drops the class of the exceptional component
    tm1 = component_class(F5, (-1,))
    assert class_equal(alpha(m, tm1), zero_vertex_tuple(F2, 0))
    # beta after pullback is the identity
    for k in range(3):
        _, basis = dim_affine_pp(F2, k)
        for a in basis:
            assert beta(m, pullback_special(m, a)) == a
    # alpha after zeta is the identity on classes
    for k in range(2):
        for b in vertex_layer_basis(F2, k):
            assert class_equal(alpha(m, zeta(m, b)), b)


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
    assert entry.pieces[ch.max_cells.index(acell)] == HomogPoly.constant(1, 1)


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
                assert class_equal(g0, zero_vertex_tuple(pc, deg - 1))


def test_vertical_decompose_and_preimage():
    F2 = f2_complex()
    co = cone_over(F2)
    g = vertical_decompose(F2, phi_ray(co.fan, (0, 1)))
    assert class_equal(g, component_class(F2, (0,)))
    # iota_lower of gamma images vanishes, so solutions are classes
    for b in edge_layer_basis(F2, 0):
        assert iota_lower(gamma(b)).is_zero()
    # slice preimage: iota_upper . preimage is the identity
    for k in range(3):
        _, basis = dim_affine_pp(F2, k)
        for a in basis:
            assert iota_upper(F2, iota_upper_preimage(F2, a)) == a


def test_vertical_decompose_builds_the_expansion_system():
    # the lift is solved on the height expansion's matrix, so expanding a
    # degree-1 class after decomposing it builds nothing new on the model
    F5 = f5_complex()
    F = iota_lower(vertex_layer_basis(F5, 0)[-1])
    g = vertical_decompose(F5, F)
    before = set(F5._cache)
    assert vertical_expand(F5, F) == [g]
    assert set(F5._cache) == before
