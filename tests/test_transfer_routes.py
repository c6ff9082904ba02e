"""Cached transfer solvers against the per-call routes they replaced.

ppchow builds the systems of the vertical lift, the height expansion, the
slice and the gamma image once per model and degree, keeps each one's
elimination in the model's cache, and keeps a fan map's properness
certificates on the map.  On drawn rank-one chains, with degrees interleaved
on one model, alpha, beta, the three solvers, class equality and the
pushforward must give the results of the per-call routes in
``route_oracle``, or raise the same error.  The cache tests count the basis images a second call builds.
The pushforward and pullback, which build their results unchecked, give on
the drawn maps what the checked constructor builds from the results' pieces.
"""

import pytest
from hypothesis import given, settings, strategies as st

import route_oracle
from ppchow import ppfan, specialfiber
from ppchow.arithchow import theta
from ppchow.cycles import InvariantCycle
from ppchow.errors import NotProper
from ppchow.fixtures import (f1_fan, f2_complex, f3s_complex, f5_complex,
                             f6_complex)
from ppchow.limits import ModelChain
from ppchow.polyhedra import Cone, Fan, FanMap, cone_over
from ppchow.ppfan import PPFunction, constant_pp, graded_basis, pullback, pushforward
from ppchow.polyring import HomogPoly
from ppchow.specialfiber import (AffinePP, EdgeTuple, dim_affine_pp,
                                 edge_layer_basis, gamma, iota_lower,
                                 iota_upper_preimage, vertex_layer_basis,
                                 vertical_decompose, vertical_expand,
                                 zero_vertex_tuple)

KINDS = ("alpha", "beta", "decompose", "expand", "preimage", "pushforward", "class_equal")


def _height(pc):
    return HomogPoly.linear_form((0,) * pc.rank + (1,))


def _element(draw, zero, basis):
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    return zero.combine(basis, coeffs)


def _vertex_tuple(draw, pc, k):
    return _element(draw, zero_vertex_tuple(pc, k), vertex_layer_basis(pc, k))


def _cone_pp(draw, pc, k):
    fan = cone_over(pc).fan
    return _element(draw, ppfan.zero_pp(fan, k), graded_basis(fan, k))


def _affine(draw, pc, k):
    return _element(draw, AffinePP(pc, k, {}, validate=False), dim_affine_pp(pc, k)[1])


def _call(kind, draw, chain, pc):
    """One drawn call: (function name, arguments).  The solvers run on ``pc``
    and the maps start or end there, in a drawn degree."""
    at = chain.models.index(pc)
    fine = draw(st.sampled_from([at] if at else range(1, len(chain))))
    m = chain.map_between(fine, at if at < fine else draw(st.integers(0, fine - 1)))
    k = draw(st.integers(0, 2))
    if kind == "alpha":
        return "alpha", (m, _vertex_tuple(draw, m.source, k))
    if kind == "beta":
        return "beta", (m, _affine(draw, m.source, k))
    if kind == "preimage":
        return "iota_upper_preimage", (pc, _affine(draw, pc, k))
    if kind == "pushforward":
        f = _cone_pp(draw, m.source, k)
        down = pushforward(m.fan_map, f)
        for g in (down, pullback(m.fan_map, down)):
            assert PPFunction(g.fan, g.degree, g.pieces) == g
            assert all(p.degree == g.degree for p in g.pieces)
        return "pushforward", (m.fan_map, f)
    if kind == "class_equal":
        a = _vertex_tuple(draw, pc, k)
        if k and draw(st.booleans()):
            return "class_equal", (a, a + gamma(_element(draw, EdgeTuple(pc, k - 1, {}),
                                                         edge_layer_basis(pc, k - 1))))
        return "class_equal", (a, _vertex_tuple(draw, pc, k))
    # a vertical lift plus a height multiple of one, perhaps pushed down a map
    # or disturbed off the lifts
    F = iota_lower(_vertex_tuple(draw, pc, k))
    if k and draw(st.booleans()):
        F = F + iota_lower(_vertex_tuple(draw, pc, k - 1)) * _height(pc)
    if kind == "expand" and draw(st.booleans()):
        pc, F = m.target, pushforward(m.fan_map, iota_lower(_vertex_tuple(draw, m.source, k)))
    if draw(st.booleans()):
        F = F + _cone_pp(draw, pc, k + 1)
    return ("vertical_decompose" if kind == "decompose" else "vertical_expand"), (pc, F)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the routes must fail alike
        return "raised", type(exc), str(exc)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.data())
def test_cached_transfers_match_the_per_call_routes(data):
    chain = data.draw(route_oracle.rank_one_chains())
    pc = data.draw(st.sampled_from(chain.models))
    calls = [_call(kind, data.draw, chain, pc)
             for kind in data.draw(st.lists(st.sampled_from(KINDS), min_size=4, max_size=10))]
    got = [_outcome(getattr(specialfiber, name), *args) for name, args in calls]
    # repeated calls are served from the caches and must not change
    assert [_outcome(getattr(specialfiber, name), *args) for name, args in calls] == got
    with pytest.MonkeyPatch.context() as mp:
        route_oracle.install_transfers(mp)
        assert [_outcome(getattr(specialfiber, name), *args) for name, args in calls] == got


@pytest.mark.parametrize("names", [(f6_complex,), (f2_complex, f6_complex)])
def test_multiplicity_two_theta_fails_alike(names):
    vertical = InvariantCycle(2, 1, {((0, 1),): 1})
    got = _outcome(theta, ModelChain([make() for make in names]), 0, vertical)
    with pytest.MonkeyPatch.context() as mp:
        route_oracle.install_transfers(mp)
        old = _outcome(theta, ModelChain([make() for make in names]), 0, vertical)
    assert got[0] == "raised" and got == old


@pytest.mark.parametrize("make", [f5_complex, f3s_complex])
def test_degrees_interleaved_on_one_model(make):
    pc = make()
    calls = []
    for k in (1, 0, 2, 0, 1):
        t = _first_sum(zero_vertex_tuple(pc, k), vertex_layer_basis(pc, k))
        F = iota_lower(t)
        if k:
            e = _first_sum(EdgeTuple(pc, k - 1, {}), edge_layer_basis(pc, k - 1))
            calls.append(("class_equal", (t, t + gamma(e))))
            F = F + iota_lower(vertex_layer_basis(pc, k - 1)[-1]) * _height(pc)
        calls += [("class_equal", (t, t.scale(2))), ("vertical_decompose", (pc, iota_lower(t))),
                  ("vertical_decompose", (pc, F)), ("vertical_expand", (pc, F)),
                  ("iota_upper_preimage", (pc, _first_sum(AffinePP(pc, k, {}, validate=False),
                                                          dim_affine_pp(pc, k)[1])))]
    got = [_outcome(getattr(specialfiber, name), *args) for name, args in calls]
    assert ("value", True) in got and ("value", False) in got
    with pytest.MonkeyPatch.context() as mp:
        route_oracle.install_transfers(mp)
        assert [_outcome(getattr(specialfiber, name), *args) for name, args in calls] == got


def _first_sum(zero, basis):
    return zero.combine(basis, range(1, len(basis) + 1))


def _counting(mp, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(specialfiber, name)):
            counts[_name] += 1
            return _fn(*args)
        mp.setattr(specialfiber, name, counted)
    return counts


def test_a_second_call_builds_no_images():
    pc = f2_complex()
    lift = iota_lower(vertex_layer_basis(pc, 1)[0])
    a = dim_affine_pp(pc, 2)[1][-1]
    calls = [(vertical_decompose, (pc, lift)), (vertical_expand, (pc, lift)),
             (iota_upper_preimage, (pc, a))]
    with pytest.MonkeyPatch.context() as mp:
        counts = _counting(mp, ("iota_lower", "iota_upper"))
        first = [fn(*args) for fn, args in calls]
        assert counts["iota_lower"] and counts["iota_upper"]
        counts.update(iota_lower=0, iota_upper=0)
        assert [fn(*args) for fn, args in calls] == first
        assert counts == {"iota_lower": 0, "iota_upper": 0}
        # an equal model is another model: it builds its own entries
        twin = f2_complex()
        assert twin.same_as(pc) and twin is not pc
        assert [fn(twin, *args[1:]) for fn, args in calls] == first
        assert counts["iota_lower"] and counts["iota_upper"]


def test_a_failed_properness_certificate_is_kept():
    half = Fan(1, [Cone(1, [(1,)])])
    m = FanMap.from_subdivision(half, f1_fan())
    f = constant_pp(half, 1)
    with pytest.MonkeyPatch.context() as mp:
        runs = []
        check = ppfan._facets_paired
        mp.setattr(ppfan, "_facets_paired", lambda *args: runs.append(args) or check(*args))
        with pytest.raises(NotProper, match="do not cover target cone"):
            pushforward(m, f)
        first = len(runs)
        with pytest.raises(NotProper, match="do not cover target cone"):
            pushforward(m, f)
        assert first and len(runs) == first
    with pytest.raises(NotProper, match="do not cover target cone"):
        route_oracle.pushforward(m, f)


def test_a_lower_dimensional_part_covers_nothing():
    """A maximal source cone of lower dimension inside a target cone does
    not cover it, even beside cones that cover the rest of the support."""
    src = Fan(2, [Cone(2, [(1, 0), (0, 1)]), Cone(2, [(-1, 0)])])
    tgt = Fan(2, [Cone(2, [(1, 0), (0, 1)]), Cone(2, [(0, 1), (-1, -1)]),
                  Cone(2, [(-1, -1), (1, 0)])])
    m = FanMap.from_subdivision(src, tgt)
    with pytest.raises(NotProper, match="do not cover target cone"):
        pushforward(m, constant_pp(src, 1))
