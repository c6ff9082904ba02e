"""The flavor table's routes against the per-group routes they replaced.

Closed forms, forms modulo dd^c, currents and both limit descriptions of the
arithmetic Chow groups are rows of one flavor table in ``limits``: a
``LimitTower`` is a ``CurrentTower`` of the ``"pp"`` flavor, the module
action of limit classes is ``module_product_form``, and the direct-limit
comparisons and products go through one common-model helper.
``eigen_divisor`` and ``horizontal_star`` share one quotient projection.
Stabilization and theta's Green certificate are one pullback-system
predicate, the certificate on the tower dd^c g + delta.
On the two fixture chains every decision and value must equal the old
routes kept in ``route_oracle``.
"""

import itertools

import pytest

import route_oracle
from ppchow.arithchow import (LimitClass, LimitTower, eigen_divisor,
                              limit_equal, limit_mul)
from ppchow.checks import prime_cycles
from ppchow.cycles import (InvariantCycle, closure_class, horizontal_part,
                           model_cycle_class)
from ppchow.errors import CompatibilityViolation
from ppchow.fixtures import (all_fixture_models, f1_fan, f3_fan, f6_complex,
                             p1_chain, p2_chain)
from ppchow.limits import (ClosedForm, CurrentTower, FormModDdbar, ModelChain,
                           _pulled_back, cap_current, ddc_plus_delta,
                           delta_current, form_equal, form_mod_equal,
                           green_from_lifting, module_product_form,
                           tower_stabilization)
from ppchow.polyhedra import (PolyComplex, Polyhedron, cone_over, horizontal_star,
                              quotient_projection, recession_fan, vertex_chart)
from ppchow.ppfan import constant_pp, graded_basis
from ppchow.qlinalg import kernel_basis, mat, mat_vec, transpose
from ppchow.specialfiber import (VertexTuple, dim_affine_pp, iota_upper,
                                 pullback_special, vertex_layer_basis,
                                 zero_vertex_tuple, zeta)

CHAINS = {"P1": p1_chain, "P2": p2_chain}


def _closure_towers(chain):
    """Closure-class values of every prime horizontal cycle."""
    return [{i: closure_class(m, eta) for i, m in enumerate(chain.models)}
            for eta in prime_cycles(chain)]


def _vertical_class(pc):
    """The class of the first vertex's component, a vertical cycle on c(Pi)."""
    v = pc.vertices[0]
    ray = tuple(v) + (1,)
    return model_cycle_class(pc, InvariantCycle(pc.rank + 1, 1, {(ray,): 1}))


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_limit_tower_accepts_and_rejects_like_the_old_loop(name):
    chain = ModelChain(CHAINS[name]())
    towers = _closure_towers(chain)
    assert towers
    for vals in towers:
        for start in range(len(chain)):
            part = {i: v for i, v in vals.items() if i >= start}
            assert route_oracle.tower_compat(chain, "pp", part, start)
            T = LimitTower(chain, part, start=start)
            assert T.flavor == "pp" and isinstance(T, CurrentTower)
            assert [T.value(i) for i in T.indices()] == [part[i] for i in T.indices()]
        # one value perturbed: both routes name the first pair it breaks
        for bad in range(len(chain)):
            wrong = {**vals, bad: vals[bad].scale(2)}
            with pytest.raises(CompatibilityViolation) as old:
                route_oracle.tower_compat(chain, "pp", wrong)
            with pytest.raises(CompatibilityViolation) as new:
                LimitTower(chain, wrong)
            assert new.value.witness == old.value.witness == (max(bad - 1, 0), max(bad, 1))
    zero = route_oracle.zero_tower(chain, "pp", 1)
    assert zero.check_compat()
    assert tower_stabilization(zero) == 0


def _theta_green(chain, start, cycle):
    """Theta's Green tower of a model-level cycle, the cycle's horizontal
    part and the slice of its class, before theta's certificate."""
    pc = chain.models[start]
    F = model_cycle_class(pc, cycle)
    eta = horizontal_part(cycle, pc.rank)
    return green_from_lifting(chain, start, F, eta), eta, iota_upper(pc, F)


def test_stabilization_and_the_green_certificate_match_the_old_loops():
    chain = ModelChain(p1_chain())
    plus, minus = (InvariantCycle(1, 1, {((s,),): 1}) for s in (1, -1))
    towers = [delta_current(chain, eta) for eta in (plus, minus)]
    towers += [green_from_lifting(chain, start, closure_class(chain.models[start], eta), eta)
               for eta in (plus, minus) for start in (0, 1)]
    # criterion 13's adversarial tower: a constant 1 at F5's last vertex
    F5 = chain.models[2]
    v = F5.vertices[-1]
    towers.append(CurrentTower(chain, values={
        0: zero_vertex_tuple(chain.models[0], 0),
        1: zero_vertex_tuple(chain.models[1], 0),
        2: VertexTuple(F5, 0, {v: constant_pp(vertex_chart(F5, v).fan, 1)})}))
    stable = [tower_stabilization(t) for t in towers]
    assert stable == [route_oracle.tower_stabilization(t) for t in towers]
    assert stable[:2] == [1, None] and stable[-1] is None
    # theta's certificate: it holds on P1, and both routes refuse it next to
    # F6's multiplicity-2 component
    cases = [(chain, start, InvariantCycle(2, 1, terms)) for start, terms in (
        (0, {((1, 0),): 1}), (1, {((0, 1),): 1, ((1, 0),): 2}),
        (2, {((1, 1),): 1, ((-1, 0),): -1}))]
    cases.append((ModelChain([f6_complex()]), 0, InvariantCycle(2, 1, {((0, 1),): 1})))
    held = []
    for ch, start, cycle in cases:
        g, eta, form = _theta_green(ch, start, cycle)
        held.append(_pulled_back(ddc_plus_delta(g, eta), start, form))
        assert held[-1] == route_oracle.green_certificate(ch, start, g, eta, form)
    assert held == [True, True, True, False]


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_module_action_matches_the_old_pullback_loop(name):
    chain = ModelChain(CHAINS[name]())
    pc0 = chain.models[0]
    actors = [LimitClass(pc0, _vertical_class(pc0))]
    actors += [LimitClass(pc0, f) for f in graded_basis(cone_over(pc0).fan, 1)[:3]]
    for vals in _closure_towers(chain)[:3]:
        for start in (0, 1):
            T = LimitTower(chain, {i: v for i, v in vals.items() if i >= start}, start=start)
            for c in actors:
                out = module_product_form(c, T)
                assert out.flavor == "pp" and out.check_compat()
                expected = route_oracle.module_action(c, T)
                assert {i: out.value(i) for i in out.indices()} == expected
            # a class on a model above the tower's start does not act
            if start == 0:
                above = LimitClass(chain.models[1], _vertical_class(chain.models[1]))
                with pytest.raises(CompatibilityViolation):
                    route_oracle.module_action(above, T)
                with pytest.raises(CompatibilityViolation):
                    module_product_form(above, T)


def test_module_product_form_matches_the_old_pullback_loop():
    chain = ModelChain(p1_chain())
    F1 = chain.models[0]
    eta = prime_cycles(chain)[0]
    d = delta_current(chain, eta)
    towers = [d, cap_current(d)]
    _, forms = dim_affine_pp(F1, 1)
    for tower in towers:
        for f in forms:
            c = ClosedForm(F1, f)
            out = module_product_form(c, tower)
            assert out.flavor == tower.flavor
            expected = route_oracle.module_product_form(c, tower)
            assert {i: out.value(i) for i in out.indices()} == expected
    with pytest.raises(CompatibilityViolation):
        module_product_form(ClosedForm(chain.models[1], dim_affine_pp(chain.models[1], 1)[1][0]), d)


def _presentations(chain, k, limit):
    """Classes of each kind on every chain model: the first basis elements
    of each model and the pullbacks of the first model's to the others."""
    def on(pc):
        return ([ClosedForm(pc, f) for f in dim_affine_pp(pc, k)[1][:limit]],
                [FormModDdbar(pc, t) for t in vertex_layer_basis(pc, k)[:limit]],
                [LimitClass(pc, f) for f in graded_basis(cone_over(pc).fan, k)[:limit]])

    closed, tilde, pp = on(chain.models[0])
    first = closed[:], tilde[:]
    for i, pc in enumerate(chain.models[1:], 1):
        more = on(pc)
        m = chain.map_between(i, 0)
        closed += more[0] + [ClosedForm(pc, pullback_special(m, c.form)) for c in first[0]]
        tilde += more[1] + [FormModDdbar(pc, zeta(m, t.tuple)) for t in first[1]]
        pp += more[2]
    return closed, tilde, pp


@pytest.mark.parametrize("name, k", [("P1", 0), ("P1", 1), ("P2", 1)])
def test_direct_limit_helpers_match_the_old_routes(name, k):
    chain = ModelChain(CHAINS[name]())
    closed, tilde, pp = _presentations(chain, k, 2)
    outcomes = set()
    for a, b in itertools.combinations_with_replacement(closed, 2):
        assert form_equal(a, b) == route_oracle.form_equal(a, b)
        outcomes.add(form_equal(a, b))
        prod = route_oracle.closed_form_product(a, b)
        model, form = route_oracle.form_product(a, b)
        assert prod.model is model and prod.form == form
    for a, b in itertools.combinations_with_replacement(tilde, 2):
        assert form_mod_equal(a, b) == route_oracle.form_mod_equal(a, b)
        outcomes.add(form_mod_equal(a, b))
    for a, b in itertools.combinations_with_replacement(pp, 2):
        assert limit_equal(a, b) == route_oracle.limit_equal(a, b)
        outcomes.add(limit_equal(a, b))
        prod = limit_mul(a, b)
        model, f = route_oracle.limit_mul(a, b)
        assert prod.model is model and prod.pp == f
    assert outcomes == {True, False}


def test_direct_limit_helpers_on_a_common_refinement():
    # [0, 1] and [-1, 0] refine neither each other: both helpers go through
    # the common refinement with vertices -1, 0, 1
    F2, other = p1_chain()[1], route_oracle.interval_model(-1, 0)
    closed = [ClosedForm(pc, f) for pc in (F2, other) for f in dim_affine_pp(pc, 1)[1][:2]]
    tilde = [FormModDdbar(pc, t) for pc in (F2, other) for t in vertex_layer_basis(pc, 0)[:2]]
    pp = [LimitClass(pc, f) for pc in (F2, other)
          for f in graded_basis(cone_over(pc).fan, 1)[:2]]
    for a, b in itertools.combinations_with_replacement(closed, 2):
        assert form_equal(a, b) == route_oracle.form_equal(a, b)
        assert route_oracle.closed_form_product(a, b).form == route_oracle.form_product(a, b)[1]
    for a, b in itertools.combinations_with_replacement(tilde, 2):
        assert form_mod_equal(a, b) == route_oracle.form_mod_equal(a, b)
    for a, b in itertools.combinations_with_replacement(pp, 2):
        assert limit_equal(a, b) == route_oracle.limit_equal(a, b)
        assert limit_mul(a, b).pp == route_oracle.limit_mul(a, b)[1]
    assert len(limit_mul(pp[0], pp[-1]).model.vertices) == 3


def _fixture_fans():
    fans = [f1_fan(), f3_fan()]
    for pc in (m for chain in CHAINS.values() for m in chain()):
        fans += [cone_over(pc).fan, recession_fan(pc)]
    return fans


def test_eigen_divisor_matches_the_two_branch_route():
    checked = 0
    for fan in _fixture_fans():
        for sigma in fan.cones:
            orth = kernel_basis(mat(sigma.rays)) if sigma.rays else [
                tuple(int(i == j) for j in range(fan.rank)) for i in range(fan.rank)]
            weights = list(orth) + [tuple(sum(w) for w in zip(*orth))] if orth else []
            for w in weights:
                assert eigen_divisor(fan, sigma, w) == route_oracle.eigen_divisor(fan, sigma, w)
                checked += 1
    assert checked > 50


def test_horizontal_star_matches_the_old_projection():
    """The star is the old one with its coordinates changed by T in GL(Z),
    the change between the two quotient projections."""
    assert quotient_projection(3, [])((1, 2, 3)) == (1, 2, 3)
    for pc in all_fixture_models().values():
        for sigma in recession_fan(pc).cones:
            star = horizontal_star(pc, sigma)
            if sigma.dim == 0:
                assert star is pc
                continue
            T = route_oracle.quotient_change(pc.rank, list(sigma.rays))
            assert route_oracle.fraction_det(T) in (1, -1)
            old, m = route_oracle.horizontal_star(pc, sigma), pc.rank - sigma.dim
            moved = PolyComplex(m, [Polyhedron(m, [mat_vec(transpose(T), v) for v in c.vertices],
                                               [mat_vec(transpose(T), r) for r in c.rays])
                                    for c in old.max_cells()])
            assert star.same_as(moved)
