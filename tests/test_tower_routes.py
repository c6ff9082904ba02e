"""Tower operations without rebuilt work, against the routes they replaced.

ppchow passes the piece of a target cone that a fan map does not split
through the pushforward, keeps each cycle term's generator on the fan, and
finds the cone of c(Pi) above a recession cone by its rays.  On drawn
rank-one chains and refinements of F3C, the pushforward, both cycle classes
and the height-zero restriction must give the results of the routes in
``route_oracle``, or raise the same error, on a first and on a second,
cached pass; and pushing forward a pullback gives the function back.  The
map between any two models of the chain, which ``refines`` builds once and
keeps, is the composition of the consecutive maps between them.

``HomogPoly`` arithmetic builds its results without checking them again.
The last test draws polynomials and checks that each result is what the
checking constructor builds from the same coefficients.
"""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import route_oracle
from ppchow import cycles, ppfan
from ppchow.cycles import InvariantCycle
from ppchow.errors import NotPolynomial
from ppchow.fixtures import f1_complex, f2_complex, f5_complex
from ppchow.limits import ModelChain
from ppchow.polyhedra import cone_over, recession_fan, refines
from ppchow.polyring import HomogPoly, divide_exact, monomial_exponents
from ppchow.ppfan import PPFunction, graded_basis, pullback, zero_pp
from ppchow.qlinalg import vadd

KINDS = ("pushforward", "closure_class", "model_cycle_class", "restrict_to_height_zero")


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the routes must fail alike
        return "raised", type(exc), str(exc)


def _pp(draw, fan, k):
    basis = graded_basis(fan, k)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    return zero_pp(fan, k).combine(basis, coeffs)


def _cycle(draw, fan, codim):
    """A cycle on drawn cones of ``fan`` of dimension ``codim``, perhaps with
    a term of ``codim`` rays that is no cone of it: rays of the fan that
    span no cone, or the sum of two rays of a cone, which is no ray of the
    fan."""
    keys = [c.rays for c in fan.cones if c.dim == codim]
    rays = [c.rays[0] for c in fan.cones if c.dim == 1]
    cones = {frozenset(c.rays) for c in fan.cones}
    keys += [k for k in itertools.combinations(rays, codim) if frozenset(k) not in cones][:1]
    if codim == 1:
        keys += [(vadd(*c.rays[:2]),) for c in fan.cones if c.dim == 2][:1]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(chosen), max_size=len(chosen)))
    return InvariantCycle(fan.rank, codim, dict(zip(chosen, coeffs)))


def _call(kind, draw, chain):
    """One drawn call: (module, function name, arguments)."""
    pc = draw(st.sampled_from(chain.models))
    co = cone_over(pc)
    if kind == "pushforward":
        fine = draw(st.integers(0, len(chain) - 1))
        m = chain.map_between(fine, draw(st.integers(0, fine)))
        return ppfan, kind, (m.fan_map, _pp(draw, cone_over(m.source).fan, draw(st.integers(0, 2))))
    if kind == "closure_class":
        cycle = _cycle(draw, recession_fan(pc), draw(st.integers(0, pc.rank)))
        return cycles, kind, (pc, cycle)
    if kind == "model_cycle_class":
        return cycles, kind, (pc, _cycle(draw, co.fan, draw(st.integers(0, pc.rank + 1))))
    return ppfan, kind, (pc, _pp(draw, co.fan, draw(st.integers(0, 2))))


def _assert_maps_compose(chain):
    """map_between(i, j), on a first and on a second, memoized call, is the
    composition of the consecutive maps from i down to j."""
    for _ in range(2):
        for i, j in itertools.combinations_with_replacement(range(len(chain)), 2):
            m = chain.map_between(j, i)
            assert m.source is chain.models[j] and m.target is chain.models[i]
            assert (m.fan_map.max_map, m.cell_map) == route_oracle.composed_map(chain, j, i)
            assert chain.map_between(j, i) is m


def _check_routes(data, chain, max_calls):
    _assert_maps_compose(chain)
    calls = [_call(kind, data.draw, chain)
             for kind in data.draw(st.lists(st.sampled_from(KINDS), min_size=2,
                                            max_size=max_calls))]
    got = [_outcome(getattr(mod, name), *args) for mod, name, args in calls]
    # the second pass is served from the fans' and maps' caches
    assert [_outcome(getattr(mod, name), *args) for mod, name, args in calls] == got
    with pytest.MonkeyPatch.context() as mp:
        route_oracle.install_towers(mp)
        assert [_outcome(getattr(mod, name), *args) for mod, name, args in calls] == got
    # pi_* pi^* f = f along a drawn map of the chain
    fine = data.draw(st.integers(0, len(chain) - 1))
    m = chain.map_between(fine, data.draw(st.integers(0, fine)))
    f = _pp(data.draw, cone_over(m.target).fan, data.draw(st.integers(0, 2)))
    assert ppfan.pushforward(m.fan_map, pullback(m.fan_map, f)) == f


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.data())
def test_rank_one_towers_match_the_rebuilding_routes(data):
    _check_routes(data, data.draw(route_oracle.rank_one_chains()), 8)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.data())
def test_f3c_refinements_match_the_rebuilding_routes(data):
    choices = data.draw(st.lists(st.integers(0, 20), min_size=1, max_size=2))
    chain = ModelChain([route_oracle.refined_f3c(choices[:i]) for i in range(len(choices) + 1)])
    _check_routes(data, chain, 4)


@pytest.mark.parametrize("fine, coarse", [(f2_complex, f1_complex), (f5_complex, f2_complex),
                                          (f5_complex, f1_complex)])
def test_a_split_cone_that_does_not_glue_is_not_polynomial(fine, coarse):
    m = refines(fine(), coarse())
    src = m.fan_map.source
    # 1 on the first maximal cone inside a split target cone, 0 on the others
    t = next(t for t in range(len(m.fan_map.target.maximal))
             if list(m.fan_map.max_map).count(t) > 1)
    first = list(m.fan_map.max_map).index(t)
    f = PPFunction(src, 0, [HomogPoly.constant(src.rank, int(s == first))
                            for s in range(len(src.maximal))], validate=False)
    assert repr(f.offending_pair()) == repr(route_oracle.pp_offending_pair(f)) != "None"
    got = _outcome(ppfan.pushforward, m.fan_map, f)
    assert got[:2] == ("raised", NotPolynomial)
    assert _outcome(route_oracle.localized_pushforward, m.fan_map, f) == got


def test_the_localized_oracle_certifies_a_map_the_program_certified():
    """The oracle keeps its own volume verdicts on the map, apart from the
    program's facet-pairing ones, so it runs its certificate after the
    program's pushforward has certified every target cone."""
    m = refines(f2_complex(), f1_complex())
    f = ppfan.constant_pp(m.fan_map.source, 1)
    got = _outcome(ppfan.pushforward, m.fan_map, f)
    assert got[0] == "value"
    check = route_oracle.check_covers_by_volume
    with pytest.MonkeyPatch.context() as mp:
        runs = []
        mp.setattr(route_oracle, "check_covers_by_volume",
                   lambda *args: runs.append(args) or check(*args))
        assert _outcome(route_oracle.localized_pushforward, m.fan_map, f) == got
    assert len(runs) == len(m.fan_map.target.maximal)


def _well_formed(p):
    """p holds int exponent tuples summing to its degree and only nonzero
    Fraction coefficients, and is what the checking constructor builds."""
    for e, c in p.coeffs.items():
        assert type(e) is tuple and len(e) == p.dim and sum(e) == p.degree
        assert all(type(x) is int for x in e)
        assert type(c) is Q and c != 0
    assert p == HomogPoly(p.dim, p.degree, dict(p.coeffs))
    return p


@st.composite
def _polys(draw, dim, degree):
    monos = monomial_exponents(dim, degree)
    nums = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
    dens = draw(st.lists(st.integers(1, 3), min_size=len(monos), max_size=len(monos)))
    return HomogPoly(dim, degree, {e: Q(a, b) for e, a, b in zip(monos, nums, dens)})


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_arithmetic_builds_what_the_checking_constructor_builds(data):
    dim, k = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    p, q = data.draw(_polys(dim, k)), data.draw(_polys(dim, k))
    form = data.draw(_polys(dim, 1))
    c = Q(data.draw(st.integers(-2, 2)), data.draw(st.integers(1, 3)))
    for r in (p + q, p - q, p - p, -p, p * q, p * form, p.scale(c), p * 0,
              HomogPoly.zero(dim, k) - q):
        _well_formed(r)
    tdim = data.draw(st.integers(1, 3))
    images = [data.draw(_polys(tdim, 1)) for _ in range(dim)]
    image = _well_formed(p.substitute(images))
    assert image.degree == k and image.dim == tdim
    if not form.is_zero():
        quot, rem = divide_exact(p, form)
        assert _well_formed(quot) * form + _well_formed(rem) == p
        assert divide_exact(_well_formed(p * form), form) == (p, HomogPoly.zero(dim, k + 1))
