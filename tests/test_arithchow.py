from fractions import Fraction as Q

import pytest

from ppchow.arithchow import (ExtendedArithCycle, LimitClass, LimitTower,
                              arith_product, div_nu, eigen_divisor,
                              extended_equal, limit_equal, limit_mul,
                              module_action, poincare_lelong_check,
                              rational_equivalence_class, theta, theta_inverse,
                              theta_prime, theta_prime_inverse)
from ppchow.cycles import (InvariantCycle, closure_class, cycle_from_pp,
                           model_cycle_class)
from ppchow.errors import (NoCertificate, NotCycleSupported,
                           WeightNotOrthogonal)
from ppchow.fixtures import p1_chain, p2_chain
from ppchow.limits import CurrentTower, ModelChain
from ppchow.polyhedra import Cone, cone_over
from ppchow.ppfan import constant_pp, phi_cone
from ppchow.specialfiber import HomologyClass, class_equal


def cyc(rank, codim, *terms):
    return InvariantCycle(rank, codim,
                          {tuple(tuple(r) for r in rays): c for rays, c in terms})


def chain1():
    return ModelChain(p1_chain())


def test_eigen_divisor_examples():
    chain = chain1()
    co1 = cone_over(chain.models[0])
    E = eigen_divisor(co1.fan, Cone(2, []), (1, 0))
    assert E == cyc(2, 1, ([(1, 0)], 1), ([(-1, 0)], -1))
    co2 = cone_over(chain.models[1])
    E2 = eigen_divisor(co2.fan, Cone(2, []), (0, 1))
    assert E2 == cyc(2, 1, ([(0, 1)], 1), ([(1, 1)], 1))
    assert eigen_divisor(co2.fan, Cone(2, []), (0, 0)).is_zero()
    with pytest.raises(WeightNotOrthogonal):
        eigen_divisor(co2.fan, Cone(2, [(0, 1)]), (0, 1))
    # multiplicity-weighted coefficient on the half-integral model
    from ppchow.fixtures import f6_complex
    co6 = cone_over(f6_complex())
    E6 = eigen_divisor(co6.fan, Cone(2, []), (0, 1))
    assert E6.terms[((Q(1), Q(2)),)] == 2


def test_div_nu_and_poincare_lelong():
    chain = chain1()
    nu = div_nu(chain, Cone(1, []), (1,))
    assert nu.value(0).is_zero()
    # on the two-vertex model the correction is minus the class of the
    # component at the higher vertex
    F2 = chain.models[1]
    from ppchow.polyhedra import vertex_chart
    minus_v1 = {(Q(1),): constant_pp(vertex_chart(F2, (Q(1),)).fan, -1)}
    from ppchow.specialfiber import VertexTuple
    assert class_equal(HomologyClass(nu.value(1)),
                       HomologyClass(VertexTuple(F2, 0, minus_v1)))
    assert poincare_lelong_check(chain, Cone(1, []), (1,))["all_equal"]
    chain2 = ModelChain(p2_chain())
    for u in ((1, 0), (0, 1)):
        assert poincare_lelong_check(chain2, Cone(2, []), u)["all_equal"]
    assert poincare_lelong_check(chain2, Cone(2, [(0, 1)]), (1, 0))["all_equal"]
    # zero weight gives zero on both sides
    zero_nu = div_nu(chain, Cone(1, []), (0,))
    assert all(zero_nu.value(i).is_zero() for i in zero_nu.indices())


def test_theta_examples_and_round_trips():
    chain = chain1()
    F1, F2, _ = chain.models
    horizontal = cyc(2, 1, ([(1, 0)], 1))
    a = theta(chain, 0, horizontal)
    assert a.green.value(0).is_zero()
    assert not a.eta.is_zero()
    assert limit_equal(theta_inverse(a),
                       LimitClass(F1, model_cycle_class(F1, horizontal)))
    vertical = cyc(2, 1, ([(0, 1)], 1))
    b = theta(chain, 1, vertical)
    assert b.eta.is_zero()
    assert limit_equal(theta_inverse(b),
                       LimitClass(F2, model_cycle_class(F2, vertical)))
    mixed = cyc(2, 1, ([(0, 1)], 1), ([(1, 0)], 2))
    c = theta(chain, 1, mixed)
    assert c.eta == cyc(1, 1, ([(1,)], 2))
    assert limit_equal(theta_inverse(c),
                       LimitClass(F2, model_cycle_class(F2, mixed)))


def test_limit_class_representatives_across_models():
    # one class, two representatives on different models
    chain = chain1()
    F2, F5 = chain.models[1], chain.models[2]
    cycle = cyc(2, 1, ([(1, 0)], 1))
    a = LimitClass(F2, model_cycle_class(F2, cycle))
    from ppchow.ppfan import pullback
    b = LimitClass(F5, pullback(chain.maps[1].fan_map, a.pp))
    assert limit_equal(a, b)
    assert not limit_equal(a, LimitClass(F5, model_cycle_class(F5, cyc(2, 1, ([(0, 1)], 1)))))


def test_no_certificate():
    chain = chain1()
    from ppchow.arithchow import ArithCycle
    bare = ArithCycle(chain, cyc(1, 1, ([(1,)], 1)), None, None)
    with pytest.raises(NoCertificate):
        theta_inverse(bare)


def test_arith_product():
    chain = chain1()
    F2 = chain.models[1]
    v0 = theta(chain, 1, cyc(2, 1, ([(0, 1)], 1)))
    v1 = theta(chain, 1, cyc(2, 1, ([(1, 1)], 1)))
    prod = arith_product(v0, v1)
    expected = LimitClass(F2, phi_cone(cone_over(F2).fan, Cone(2, [(0, 1), (1, 1)])))
    assert limit_equal(theta_inverse(prod), expected)
    one = theta(chain, 1, cyc(2, 0, ([], 1)))
    assert limit_equal(theta_inverse(arith_product(v0, one)), theta_inverse(v0))
    assert limit_equal(theta_inverse(arith_product(v1, v0)), theta_inverse(prod))


def test_rational_equivalence_classes_vanish():
    chain = chain1()
    for start, sigma, w in ((0, Cone(2, []), (1, 0)),
                            (1, Cone(2, []), (1, 0)),
                            (1, Cone(2, [(0, 1)]), (1, 0)),
                            (1, Cone(2, [(1, 1)]), (1, -1))):
        rc = rational_equivalence_class(chain, start, sigma, w)
        assert rc.pp.is_zero()
    chain2 = ModelChain(p2_chain())
    for sigma, w in ((Cone(3, []), (1, 0, 0)), (Cone(3, [(0, 1, 0)]), (1, 0, 0))):
        assert rational_equivalence_class(chain2, 1, sigma, w).pp.is_zero()


def test_theta_prime_round_trips():
    chain = chain1()
    eta = cyc(1, 1, ([(1,)], 1))
    vals = {i: closure_class(chain.models[i], eta) for i in range(3)}
    T = LimitTower(chain, vals)
    x = theta_prime(T)
    assert x.eta == eta
    assert all(x.green.value(i).is_zero() for i in range(3))
    T2 = theta_prime_inverse(x)
    assert all(T2.value(i) == T.value(i) for i in range(3))
    # vertical-lift towers come back as (0, g)
    b = theta(chain, 1, cyc(2, 1, ([(0, 1)], 1)))
    xb = ExtendedArithCycle(chain, cyc(1, 1), b.green)
    Tb = theta_prime_inverse(xb)
    yb = theta_prime(Tb)
    assert yb.eta.is_zero()
    assert extended_equal(xb, yb)
    # a tower whose restriction is not cycle-supported is rejected
    co = cone_over(chain.models[0])
    from ppchow.ppfan import graded_basis
    f = next(g for g in graded_basis(co.fan, 2)
             if cycle_from_pp(co.fan, g, 2) is None)
    with pytest.raises(NotCycleSupported):
        theta_prime(CurrentTower(chain, "pp", values={0: f}))


def test_module_action():
    chain = chain1()
    F1 = chain.models[0]
    eta = cyc(1, 1, ([(1,)], 1))
    T = LimitTower(chain, {i: closure_class(chain.models[i], eta) for i in range(3)})
    one = LimitClass(F1, constant_pp(cone_over(F1).fan, 1))
    MT = module_action(one, T)
    assert all(MT.value(i) == T.value(i) for i in MT.indices())
    c = LimitClass(F1, model_cycle_class(F1, cyc(2, 1, ([(1, 0)], 1))))
    CT = module_action(c, T)
    CT.check_compat()
    c2 = limit_mul(c, c)
    assert all(module_action(c2, T).value(i) == module_action(c, CT).value(i)
               for i in T.indices())


def test_exact_sequence_surjectivity():
    # every invariant cycle eta is hit by an arithmetic cycle, and cycles with
    # zero eta come from currents
    chain = chain1()
    from ppchow.checks import prime_cycles
    for eta in prime_cycles(chain):
        key, coeff = next(iter(eta.terms.items()))
        model_terms = {tuple(tuple(r) + (Q(0),) for r in key): coeff}
        a = theta(chain, 0, InvariantCycle(2, eta.codim, model_terms))
        assert a.eta == eta
    b = theta(chain, 1, cyc(2, 1, ([(0, 1)], 1)))
    assert b.eta.is_zero()
