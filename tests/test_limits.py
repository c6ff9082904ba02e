import random
from fractions import Fraction as Q

import pytest

import route_oracle
from ppchow.arithchow import LimitClass, LimitTower, limit_equal
from ppchow.cycles import InvariantCycle, closure_class
from ppchow.errors import (CompatibilityViolation, IncompleteInput, InputError,
                           NotALifting, NotStabilized)
from ppchow.fixtures import p1_chain, p2_chain
from ppchow.limits import (ClosedForm, CurrentTower, FormModDdbar, ModelChain,
                           _pulled_back, cap_current, cap_form, common_model,
                           ddc_current, ddc_form, ddc_plus_delta, degree_current,
                           delta_current, evaluate_tilde_degree_zero,
                           form_equal, form_mod_equal, green_from_lifting,
                           is_green, module_product_form, regularity_check,
                           tower_stabilization, zero_composition_suite)
from ppchow.polyhedra import build_complex, cone_over, vertex_chart
from ppchow.polyring import HomogPoly
from ppchow.ppfan import constant_pp, phi_ray, zero_pp
from ppchow.specialfiber import (AffinePP, VertexTuple, from_vertex_tuple, iota_upper,
                                 pullback_special, to_vertex_tuple, vertex_layer_basis,
                                 zero_vertex_tuple, zeta)


PLUS = InvariantCycle(1, 1, {((Q(1),),): 1})
MINUS = InvariantCycle(1, 1, {((Q(-1),),): 1})


def chain1():
    return ModelChain(p1_chain())


def lin(*coeffs):
    return HomogPoly.linear_form(coeffs)


def test_form_equal_via_refinement():
    chain = chain1()
    F2, F5 = chain.models[1], chain.models[2]
    x = lin(1)
    a = ClosedForm(F2, AffinePP(F2, 1, [x, x, x]))
    m = chain.maps[1]
    b = ClosedForm(F5, pullback_special(m, a.form))
    assert form_equal(a, b)
    perturbed = dict(b.form.cell_polys)
    cell = next(i for i in F5.maximal if F5.cells[i].contains_point((Q(-1, 2),)))
    perturbed[cell] = x.scale(2)
    c = ClosedForm(F5, AffinePP(F5, 1, perturbed))
    assert not form_equal(a, c)
    prod = route_oracle.closed_form_product(a, a)
    assert prod.form.degree == 2


def test_ddc_form():
    chain = chain1()
    F1, F2 = chain.models[0], chain.models[1]
    for b in vertex_layer_basis(F1, 1):
        assert ddc_form(FormModDdbar(F1, b)).form.is_zero()
    t0 = VertexTuple(F2, 0, {(Q(0),): constant_pp(vertex_chart(F2, (Q(0),)).fan, 1)})
    out = ddc_form(FormModDdbar(F2, t0))
    assert form_equal(out, ClosedForm(F2, iota_upper(F2, phi_ray(cone_over(F2).fan, (0, 1)))))
    # linearity
    b = vertex_layer_basis(F2, 0)
    s = b[0] + b[1].scale(3)
    lhs = ddc_form(FormModDdbar(F2, s)).form
    rhs = ddc_form(FormModDdbar(F2, b[0])).form + \
        ddc_form(FormModDdbar(F2, b[1])).form.scale(3)
    assert lhs == rhs


def test_ddc_current_and_towers():
    chain = chain1()
    z = route_oracle.zero_tower(chain, "tilde", 0)
    dz = ddc_current(z)
    assert all(dz.value(i).is_zero() for i in dz.indices())
    d = delta_current(chain, PLUS)
    d.check_compat()
    assert tower_stabilization(d) == 1
    d2 = delta_current(chain, MINUS)
    assert tower_stabilization(d2) is None
    bad_vals = {i: d.value(i) for i in range(3)}
    bad_vals[0] = d.value(0).scale(2)
    with pytest.raises(CompatibilityViolation):
        CurrentTower(chain, values=bad_vals)


def test_tower_constructor_refuses_values_off_its_positions():
    chain = chain1()
    d = delta_current(chain, PLUS)
    vals = {i: d.value(i) for i in d.indices()}
    # one value on a three-model chain, an extra position, a start past the end,
    # values of two carriers, values of none, and values off their models, a
    # lone one included
    for values, start in (({0: vals[0]}, 0), ({**vals, 5: vals[2]}, 0), (vals, 3),
                          ({**vals, 1: to_vertex_tuple(vals[1])}, 0),
                          ({i: ClosedForm(chain.models[i], v) for i, v in vals.items()}, 0),
                          ({**vals, 0: vals[1], 1: vals[0]}, 0), ({2: vals[1]}, 2)):
        with pytest.raises(InputError):
            CurrentTower(chain, values=values, start=start)
    # a limit tower is a "pp" tower: the affine values of delta are refused
    with pytest.raises(InputError, match="limit tower"):
        LimitTower(chain, vals)


def test_green_from_lifting_and_is_green():
    chain = chain1()
    F2 = chain.models[1]
    lift = closure_class(F2, PLUS)
    g = green_from_lifting(chain, 1, lift, PLUS)
    assert all(g.value(i).is_zero() for i in g.indices())
    w = is_green(g, PLUS)
    assert w is not None
    assert form_equal(w, ClosedForm(F2, iota_upper(F2, lift)))
    with pytest.raises(NotALifting):
        green_from_lifting(chain, 1, closure_class(F2, MINUS), PLUS)
    # zero current against a horizontal cycle whose delta stabilizes
    z = route_oracle.zero_tower(chain, "tilde", 0)
    w2 = is_green(z, PLUS)
    assert w2 is not None
    # and against one whose delta does not stabilize at this depth
    assert is_green(z, MINUS) is None
    # incompatible towers are refused when they are built
    F5 = chain.models[2]
    from ppchow.ppfan import constant_pp as _cpp
    with pytest.raises(CompatibilityViolation):
        CurrentTower(chain, values={
            0: zero_vertex_tuple(chain.models[0], 0),
            1: zero_vertex_tuple(chain.models[1], 0),
            2: VertexTuple(F5, 0, {(Q(0),): _cpp(vertex_chart(F5, (Q(0),)).fan, 1)})})


def test_green_from_lifting_refuses_an_incomplete_model():
    # F1's cell [0, +inf) alone: its recession fan is refused before the
    # closure of MINUS, whose ray lies outside the support, is attempted
    half = build_complex([([(0,)], [(1,)])], rank=1)
    chain = ModelChain([half])
    for cycle in (PLUS, MINUS):
        with pytest.raises(IncompleteInput):
            green_from_lifting(chain, 0, zero_pp(cone_over(half).fan, 1), cycle)


def test_green_property_all_models():
    for models in (p1_chain(), p2_chain()):
        chain = ModelChain(models)
        from ppchow.checks import prime_cycles
        for start in range(len(chain)):
            for eta in prime_cycles(chain):
                pc = chain.models[start]
                lift = closure_class(pc, eta)
                g = green_from_lifting(chain, start, lift, eta)
                omega = iota_upper(pc, lift)
                delta = delta_current(chain, eta)
                from ppchow.specialfiber import ddc_model
                for i in g.indices():
                    lhs = from_vertex_tuple(ddc_model(g.value(i))) + delta.value(i)
                    assert lhs == pullback_special(chain.map_between(i, start), omega)
                # the one pullback-system predicate on the one dd^c g + delta tower
                assert _pulled_back(ddc_plus_delta(g, eta), start, omega)


def test_regularity_check():
    chain = chain1()
    F2 = chain.models[1]
    # a pullback-system tower of a fixed tuple is recovered
    b = vertex_layer_basis(F2, 1)[0]
    vals = {1: b, 2: zeta(chain.maps[1], b)}
    t = CurrentTower(chain, values=vals, start=1)
    t.check_compat()
    out = regularity_check(t)
    assert out.model.same_as(F2)
    assert form_mod_equal(out, FormModDdbar(F2, b))
    # green tower from its own model
    g = green_from_lifting(chain, 1, closure_class(F2, PLUS), PLUS)
    assert regularity_check(g).model.same_as(F2)
    # insufficient depth is inconclusive
    shallow = CurrentTower(chain.truncate(1),
                           values={0: zero_vertex_tuple(chain.models[0], 0)})
    with pytest.raises(NotStabilized):
        regularity_check(shallow)


def test_cap_maps_and_zero_compositions():
    chain = chain1()
    F2 = chain.models[1]
    x = lin(1)
    c = ClosedForm(F2, AffinePP(F2, 1, [x, x, x]))
    capped = cap_form(c)
    assert capped.tuple == to_vertex_tuple(c.form)  # reduced fiber
    rng = random.Random(0)
    rep = zero_composition_suite(chain, [0, 1], rng, samples=2)
    assert not rep["failures"]


def test_delta_of_character_divisor():
    # the delta current of div(chi) is the difference of the two ray towers
    chain = chain1()
    div = PLUS - MINUS
    d = delta_current(chain, div)
    dp, dm = delta_current(chain, PLUS), delta_current(chain, MINUS)
    for i in d.indices():
        assert d.value(i) == dp.value(i) - dm.value(i)
    assert delta_current(chain, InvariantCycle(1, 1, {})).value(1).is_zero()


def test_degree_current():
    chain = chain1()
    d = delta_current(chain, PLUS)
    assert degree_current(d) == HomogPoly.constant(1, 1)
    z = route_oracle.zero_tower(chain, "closed", 1)
    assert degree_current(z).is_zero()
    # module product with a degree-zero form keeps the degree
    one = ClosedForm(chain.models[0],
                     AffinePP(chain.models[0], 0,
                              {i: HomogPoly.constant(1, 1)
                               for i in chain.models[0].maximal}))
    t = module_product_form(one, d)
    assert degree_current(t) == HomogPoly.constant(1, 1)
    # product-form sample: the degree of phi . delta localizes the character
    c = ClosedForm(chain.models[0],
                   iota_upper(chain.models[0],
                              closure_class(chain.models[0], PLUS)))
    prod = module_product_form(c, d)
    assert degree_current(prod) == HomogPoly.linear_form((1,))


def test_module_axioms():
    chain = chain1()
    F1 = chain.models[0]
    x = lin(1)
    c = ClosedForm(F1, AffinePP(F1, 1, [x, x]))
    d = delta_current(chain, PLUS)
    cd = module_product_form(c, d)
    cd.check_compat()
    ccd = module_product_form(c, cd)
    c2 = ClosedForm(F1, c.form * c.form)
    assert all(module_product_form(c2, d).value(i) == ccd.value(i)
               for i in d.indices())
    # dd^c is a module map over closed forms on the tilde side
    g = cap_current(d)
    cg = module_product_form(c, g)
    lhs = ddc_current(cg)
    rhs = module_product_form(c, ddc_current(g))
    for i in lhs.indices():
        assert lhs.value(i) == rhs.value(i)


def test_limit_equality_transitive():
    chain = chain1()
    F1, F2, F5 = chain.models
    for k in range(2):
        for b in vertex_layer_basis(F1, k):
            a1 = FormModDdbar(F1, b)
            a2 = FormModDdbar(F2, zeta(chain.maps[0], b))
            a3 = FormModDdbar(F5, zeta(chain.map_between(2, 0), b))
            assert form_mod_equal(a1, a2)
            assert form_mod_equal(a2, a3)
            assert form_mod_equal(a1, a3)
    # a chain position outside [0, 3) is refused, as chain.model refuses it
    for fine, coarse in ((-1, 0), (2, -1), (3, 0), (2, 3)):
        with pytest.raises(InputError, match="outside"):
            chain.map_between(fine, coarse)


def test_chain_position():
    chain = chain1()
    F1, F2, F5 = p1_chain()
    assert [chain.position(m) for m in (F1, F2, F5)] == [0, 1, 2]
    assert chain.position(chain.models[1]) == 1
    assert chain.truncate(2).position(F5) is None
    assert chain.position(p2_chain()[0]) is None


def test_common_model():
    F2, F5 = p1_chain()[1], p1_chain()[2]
    pc, m1, m2 = common_model(F2, F5)
    assert pc.same_as(F5)
    pc2, _, _ = common_model(F2, F2)
    assert pc2.same_as(F2)
    # two classes on one incomplete model have no common complete model
    seg = build_complex([([(0,), (1,)], [])], rank=1)
    a = ClosedForm(seg, AffinePP(seg, 0, {}))
    t = FormModDdbar(seg, zero_vertex_tuple(seg, 0))
    c = LimitClass(seg, constant_pp(cone_over(seg).fan, 1))
    for compare, x in ((form_equal, a), (route_oracle.closed_form_product, a),
                       (form_mod_equal, t), (limit_equal, c)):
        with pytest.raises(IncompleteInput):
            compare(x, x)


def test_evaluators():
    chain = chain1()
    # degree-zero tilde tower (a Green current of a point) evaluates at the
    # rational points that appear as chain vertices
    g = green_from_lifting(chain, 0, closure_class(chain.models[0], PLUS), PLUS)
    assert evaluate_tilde_degree_zero(g, (Q(1),)) == 1
    assert evaluate_tilde_degree_zero(g, (Q(0),)) == 0
