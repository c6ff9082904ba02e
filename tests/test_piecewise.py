"""The shared carrier base against the per-carrier routes it replaced.

PPFunction, AffinePP, VertexTuple and EdgeTuple take their arithmetic,
coordinates and linear combinations from ``polyring.Piecewise``.  On random
combinations of the graded bases of the fixtures and of random refinements
of F3C, ``coords()`` must equal the coordinates each carrier's own layout
gives (``route_oracle``) and be linear, ``combine`` must equal the sum built
one term at a time, and the product of vertex tuples the entry-wise one.
Every arithmetic result is one the checked constructors take back: built
from its keyed view or from its pieces, it is the carrier itself.  So is the
result of every map that builds its carrier unchecked.
"""

from hypothesis import given, settings, strategies as st

import route_oracle
from ppchow.cycles import InvariantCycle, closure_class
from ppchow.fixtures import all_fixture_models
from ppchow.polyhedra import cone_over, recession_fan
from ppchow.ppfan import (PPFunction, constant_pp, graded_basis, phi_ray,
                          restrict_to_height_zero, zero_pp)
from ppchow.specialfiber import (AffinePP, EdgeTuple, VertexTuple, ddc_one_shot,
                                 dim_affine_pp, edge_layer_basis, iota_lower,
                                 vertex_layer_basis, zero_vertex_tuple)

FIXTURES = sorted(all_fixture_models())


def _families(pc, k):
    """(zero in a given degree, degree-k basis, oracle coordinates, what the
    checked constructor builds from a carrier's keyed view and pieces) for
    each carrier."""
    fan = cone_over(pc).fan
    return [(lambda d: zero_pp(fan, d), graded_basis(fan, k), route_oracle.flat_pp,
             lambda f: [PPFunction(fan, f.degree, f.pieces)]),
            (lambda d: AffinePP(pc, d, {}, validate=False),
             dim_affine_pp(pc, k)[1], route_oracle.flat_affine,
             lambda a: [AffinePP(pc, a.degree, a.cell_polys), AffinePP(pc, a.degree, a.pieces)]),
            (lambda d: zero_vertex_tuple(pc, d), vertex_layer_basis(pc, k),
             route_oracle.flat_vertex,
             lambda t: [VertexTuple(pc, t.degree, t.entries), VertexTuple(pc, t.degree, t.pieces)]),
            (lambda d: EdgeTuple(pc, d, {}), edge_layer_basis(pc, k), route_oracle.flat_edge,
             lambda e: [EdgeTuple(pc, e.degree, e.entries)])]


def _taken_back(z, remake):
    """The checked constructor builds z itself from z's keyed view and
    pieces, and every polynomial of z has z's degree."""
    assert all(r == z and r.degree == z.degree for r in remake(z))
    assert all(p.degree == z.degree for p in z._polys())


def _remade(z):
    """What the checked constructor builds from z's pieces (a vertex tuple's
    entries each from theirs)."""
    if isinstance(z, VertexTuple):
        return VertexTuple(z.complex, z.degree,
                           [PPFunction(f.fan, f.degree, f.pieces) for f in z.pieces])
    return type(z)(z.domain, z.degree, z.pieces)


def _coeffs(data, n):
    return data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))


def _check_carriers(data, pc, k):
    for make_zero, basis, flat, remake in _families(pc, k):
        zero = make_zero(k)
        a, b = _coeffs(data, len(basis)), _coeffs(data, len(basis))
        x, y = zero.combine(basis, a), zero.combine(basis, b)
        # combine skips zero coefficients; the loop adds every term
        assert x == route_oracle.combination(zero, basis, a)
        for z in (zero, x, y, x - y, -x):
            assert z.coords() == flat(z)
            _taken_back(z, remake)
        # linear: coordinates of a combination combine the coordinates
        p, q = data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4))
        expect = [p * s + q * t for s, t in zip(x.coords(), y.coords())]
        assert list((x.scale(p) + y.scale(q)).coords()) == expect
        _taken_back(x.scale(p) + y.scale(q), remake)
        cols = [e.coords() for e in basis]
        assert list(x.coords()) == [sum(c * v[j] for c, v in zip(a, cols))
                                    for j in range(len(zero.coords()))]
        assert (x - x).is_zero() and x + zero == x and hash(x + zero) == hash(x)
        # the zero of another degree adds to x as zero
        other = make_zero(k + 1)
        assert other + x == x == x + other
        assert x.is_zero() or (other + x).degree == (x + other).degree == k
    # vertex tuples multiply entry by entry
    vbasis = vertex_layer_basis(pc, k)
    for j in (0, 1):
        other = vertex_layer_basis(pc, j)
        s = zero_vertex_tuple(pc, k).combine(vbasis, _coeffs(data, len(vbasis)))
        t = zero_vertex_tuple(pc, j).combine(other, _coeffs(data, len(other)))
        product = route_oracle.vertex_product(s, t)
        assert s * t == product and (s * t).degree == k + j
        _taken_back(s * t, lambda u: [VertexTuple(pc, u.degree, u.entries),
                                      VertexTuple(pc, u.degree, u.pieces)])
        assert (s * t).coords() == route_oracle.flat_vertex(product)
    # the maps that build their results unchecked
    fan = cone_over(pc).fan
    basis = graded_basis(fan, k)
    built = [*basis, *dim_affine_pp(pc, k)[1], constant_pp(fan, 2),
             route_oracle.zero_value("closed", pc, k), ddc_one_shot(s)]
    if fan.is_regular():
        built += [phi_ray(fan, c) for c in fan.cones if c.dim == 1] + [iota_lower(s)]
    if pc.is_complete():
        ray = next(c.rays for c in recession_fan(pc).cones if c.dim == 1)
        f = zero_pp(fan, k).combine(basis, _coeffs(data, len(basis)))
        built += [restrict_to_height_zero(pc, f),
                  closure_class(pc, InvariantCycle(pc.rank, 1, {ray: 1}))]
    for z in built:
        _taken_back(z, lambda u: [_remade(u)])


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.data(), st.sampled_from(FIXTURES), st.integers(0, 2))
def test_carriers_match_their_layouts_on_fixtures(data, name, k):
    _check_carriers(data, all_fixture_models()[name], k)


@settings(derandomize=True, max_examples=3, deadline=None)
@given(st.data(), st.lists(st.integers(0, 50), min_size=1, max_size=3), st.integers(0, 1))
def test_carriers_match_their_layouts_on_refined_f3c(data, choices, k):
    _check_carriers(data, route_oracle.refined_f3c(choices), k)
