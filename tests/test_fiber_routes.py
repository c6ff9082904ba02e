"""The special-fiber maps on per-model position tables, against the routes
they replaced.

ppchow runs rho, gamma, the one-pass dd^c, the chart read-outs, the vertical
lift, the cap with the fiber and zeta on a table of positions built once per
model, and touches only the vertices and edges of the input's support.  On
drawn refinements of F3C and rank-one chains (whose mediants give components
of multiplicity two, as on F6), and on every fixture model, each map must
give the result of the whole-model routes in ``route_oracle`` with equal
coordinates, or raise the same error, on a first and on a second, cached,
pass.  The inputs are the zero tuple, single-vertex basis tuples, and sparse
and dense combinations.
"""

import pytest
from hypothesis import given, settings, strategies as st

import route_oracle
from ppchow import specialfiber
from ppchow.errors import FaceMismatch
from ppchow.fixtures import all_fixture_models
from ppchow.limits import ModelChain
from ppchow.polyring import HomogPoly
from ppchow.specialfiber import (AffinePP, EdgeTuple, dim_affine_pp,
                                 edge_layer_basis, vertex_layer_basis,
                                 zero_vertex_tuple)

MAPS = ("rho", "gamma", "ddc_one_shot", "to_vertex_tuple", "from_vertex_tuple",
        "iota_lower", "cap_fundamental", "zeta")


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:  # the routes must fail alike
        return "raised", type(exc), str(exc)
    return "value", type(out), out, out.coords()


def _check(calls):
    """Both routes, each twice, give one outcome per call."""
    got = [_outcome(getattr(specialfiber, name), *args) for name, args in calls]
    assert [_outcome(getattr(specialfiber, name), *args) for name, args in calls] == got
    for _ in range(2):
        assert [_outcome(getattr(route_oracle, name), *args) for name, args in calls] == got


def _combination(draw, zero, basis):
    """The zero element, one basis element, or a sparse or dense combination."""
    kind = draw(st.sampled_from(("zero", "single", "sparse", "dense")))
    if kind == "zero" or not basis:
        return zero
    if kind == "single":
        return draw(st.sampled_from(basis))
    size = len(basis) if kind == "dense" else draw(st.integers(1, min(2, len(basis))))
    picks = draw(st.lists(st.integers(0, len(basis) - 1), min_size=size, max_size=size,
                          unique=True))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    return zero.combine([basis[i] for i in picks], coeffs)


def _vertex_tuple(draw, pc, k):
    return _combination(draw, zero_vertex_tuple(pc, k), vertex_layer_basis(pc, k))


def _edge_tuple(draw, pc, k):
    """A combination of star functions, or rho of a vertex tuple."""
    if draw(st.booleans()):
        return specialfiber.rho(_vertex_tuple(draw, pc, k))
    return _combination(draw, EdgeTuple(pc, k, {}), edge_layer_basis(pc, k))


def _affine(draw, pc, k):
    return _combination(draw, AffinePP(pc, k, {}), dim_affine_pp(pc, k)[1])


def _calls(draw, chain):
    """One call of each map on drawn models of the chain and degrees."""
    calls = []
    for name in MAPS:
        pc, k = draw(st.sampled_from(chain.models)), draw(st.integers(0, 2))
        if name == "gamma":
            args = (_edge_tuple(draw, pc, k),)
        elif name in ("to_vertex_tuple", "cap_fundamental"):
            args = (_affine(draw, pc, k),)
        elif name == "zeta":
            fine = draw(st.integers(0, len(chain) - 1))
            m = chain.map_between(fine, draw(st.integers(0, fine)))
            args = (m, _vertex_tuple(draw, m.target, k))
        elif name == "from_vertex_tuple" and draw(st.booleans()):
            args = (specialfiber.to_vertex_tuple(_affine(draw, pc, k)),)
        else:
            args = (_vertex_tuple(draw, pc, k),)
        calls.append((name, args))
    return calls


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_rank_one_chains_match_the_whole_model_routes(data):
    _check(_calls(data.draw, data.draw(route_oracle.rank_one_chains())))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.data())
def test_f3c_refinements_match_the_whole_model_routes(data):
    choices = data.draw(st.lists(st.integers(0, 20), min_size=1, max_size=2))
    chain = ModelChain([route_oracle.refined_f3c(choices[:i]) for i in range(len(choices) + 1)])
    _check(_calls(data.draw, chain))


@pytest.mark.parametrize("name", sorted(all_fixture_models()))
def test_fixture_basis_tuples_match_the_whole_model_routes(name):
    pc = all_fixture_models()[name]
    calls = []
    for k in range(2):
        for b in vertex_layer_basis(pc, k):
            calls += [(f, (b,)) for f in ("rho", "ddc_one_shot", "iota_lower",
                                         "from_vertex_tuple")]
        calls += [("gamma", (b,)) for b in edge_layer_basis(pc, k)]
        calls += [(f, (a,)) for a in dim_affine_pp(pc, k)[1]
                  for f in ("to_vertex_tuple", "cap_fundamental")]
    _check(calls)


@pytest.mark.parametrize("choices", [(), (0,), (3,), (0, 7)])
def test_a_star_function_that_does_not_glue_fails_on_both_routes(choices):
    # 1 on one cell of an edge's star and 0 on the other: pushed in, the two
    # pieces disagree on the edge's ray
    pc = route_oracle.refined_f3c([0, *choices])
    e, star = next((e, route_oracle._edge_star(pc, e)) for e in pc.bounded_edges)
    et = EdgeTuple(pc, 0, {e: {star.cells[0]: HomogPoly.constant(pc.rank, 1)}})
    got = _outcome(specialfiber.gamma, et)
    assert got[:2] == ("raised", FaceMismatch)
    _check([("gamma", (et,))])
    # the one search for disagreeing pieces names the pair and face that the
    # validator it replaced names
    with pytest.raises(FaceMismatch) as new:
        specialfiber.gamma(et)
    with pytest.MonkeyPatch.context() as mp:
        route_oracle.install(mp)
        with pytest.raises(FaceMismatch) as old:
            specialfiber.gamma(et)
    assert str(new.value) == str(old.value)
    assert repr(new.value.witness) == repr(old.value.witness)
