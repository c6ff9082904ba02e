import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import route_oracle
from ppchow.errors import (InputError, NonSCR, NotAComplex, NotARecessionCone,
                           RecessionMismatch, UnboundedEdge)
from ppchow.fixtures import (all_fixture_models, f1_complex, f1_fan,
                             f2_complex, f3_complex, f3s_complex, f5_complex,
                             f6_complex)
from ppchow.polyhedra import (Cone, Fan, PolyComplex, Polyhedron, build_complex,
                              common_refinement, cone_over, edge_data,
                              horizontal_star, recession_fan, refines,
                              star_subdivision, vertex_chart)


def test_fixture_complexes_valid_and_complete():
    for pc in (f1_complex(), f2_complex(), f5_complex(), f6_complex(),
               f3_complex(), f3s_complex()):
        assert pc.is_complete()
        assert pc.is_regular()
        for c in pc.cells:
            assert len(c.vertices) >= 1
        for e in pc.bounded_edges:
            assert len(pc.cells[e].vertices) == 2


def test_build_complex_rejects_overlap():
    with pytest.raises(NotAComplex):
        build_complex([([(0,), (1,)], []), ([(Q(1, 2),), (2,)], [])], rank=1)


def test_build_complex_rejects_line():
    with pytest.raises(NonSCR):
        Polyhedron(1, [(0,)], [(1,), (-1,)])


def test_build_complex_rejects_a_cone_cell():
    # a cone is keyed by its rays, a cell by its vertices and rays
    cone = Cone(2, [(1, 0), (0, 1)])
    for data in ([cone], [Polyhedron(2, [(1, 1)]), cone]):
        with pytest.raises(InputError, match=r"Cone\(\[\(Fraction\(0, 1\), Fraction\(1, 1\)\)"):
            build_complex(data)
    plain = build_complex([Polyhedron(2, cone.vertices, cone.rays)])
    assert plain.same_as(build_complex([([(0, 0)], [(1, 0), (0, 1)])], rank=2))


def test_cone_over_examples():
    co1 = cone_over(f1_complex())
    keys = {c.rays for c in co1.fan.max_cones()}
    assert keys == {((Q(0), Q(1)), (Q(1), Q(0))), ((Q(-1), Q(0)), (Q(0), Q(1)))}
    co2 = cone_over(f2_complex())
    keys = {c.rays for c in co2.fan.max_cones()}
    assert ((Q(0), Q(1)), (Q(1), Q(1))) in keys
    assert ((Q(1), Q(0)), (Q(1), Q(1))) in keys
    assert ((Q(-1), Q(0)), (Q(0), Q(1))) in keys
    point = build_complex([([(3,)], [])], rank=1)
    cop = cone_over(point)
    assert [c.rays for c in cop.fan.max_cones()] == [((Q(3), Q(1)),)]


def test_cone_over_slice_recovers_cells():
    for pc in (f2_complex(), f5_complex(), f3s_complex()):
        co = cone_over(pc)
        n = pc.rank
        for i, cone in zip(co.max_cells, co.fan.max_cones()):
            verts = [tuple(x / r[n] for x in r[:n]) for r in cone.rays if r[n] > 0]
            rays = [r[:n] for r in cone.rays if r[n] == 0]
            cell = Polyhedron(n, verts, rays)
            assert cell.same_as(pc.cells[i])


def test_recession_examples():
    assert recession_fan(f2_complex()).same_as(f1_fan())
    assert recession_fan(f1_complex()).same_as(f1_fan())
    assert recession_fan(f5_complex()).same_as(f1_fan())


def test_regularity_examples():
    assert cone_over(f2_complex()).fan.is_regular()
    assert cone_over(f1_complex()).fan.is_regular()
    from ppchow.polyhedra import Fan
    assert not Fan(2, [Cone(2, [(1, 0), (1, 2)])]).is_regular()


def test_vertex_charts():
    F2 = f2_complex()
    ch0 = vertex_chart(F2, (0,))
    assert ch0.multiplicity == 1
    assert {c.rays for c in ch0.fan.max_cones()} == {((Q(1),),), ((Q(-1),),)}
    assert ch0.fan.is_complete()
    ch1 = vertex_chart(F2, (1,))
    cell_b = next(i for i in F2.maximal if F2.cells[i].is_bounded())
    cone_b = ch1.fan.max_cones()[ch1.max_cells.index(cell_b)]
    assert cone_b.rays == ((Q(-1),),)
    ch6 = vertex_chart(f6_complex(), (Q(1, 2),))
    assert ch6.multiplicity == 2


def test_edge_data():
    F2 = f2_complex()
    e = F2.cells[F2.bounded_edges[0]]
    v1, v2, r1, r2 = edge_data(F2, e)
    assert v1 == (Q(1),) and v2 == (Q(0),)
    assert r1 == (Q(-1),) and r2 == (Q(1),)
    F5 = f5_complex()
    seg = next(F5.cells[i] for i in F5.bounded_edges
               if set(F5.cells[i].vertices) == {(Q(-1),), (Q(0),)})
    v1, v2, _, _ = edge_data(F5, seg)
    assert v1 == (Q(0),) and v2 == (Q(-1),)
    F1 = f1_complex()
    assert F1.bounded_edges == ()
    ray_cell = next(c for c in F1.cells if c.dim == 1)
    with pytest.raises(UnboundedEdge):
        edge_data(F1, ray_cell)


def test_horizontal_star():
    F2 = f2_complex()
    assert horizontal_star(F2, Cone(1, [])).same_as(F2)
    pt = horizontal_star(F2, Cone(1, [(1,)]))
    assert pt.rank == 0 and len(pt.max_cells()) == 1
    hs = horizontal_star(f3_complex(), Cone(2, [(1, 0)]))
    assert hs.rank == 1 and hs.is_complete()


def test_horizontal_star_not_a_recession_cone():
    with pytest.raises(NotARecessionCone):
        horizontal_star(f3_complex(), Cone(2, [(1, 1)]))


def test_refines_partial_order():
    F1, F2, F5 = f1_complex(), f2_complex(), f5_complex()
    assert refines(F5, F2) is not None
    assert refines(F2, F5) is None
    assert refines(F2, F2).cell_map == {i: i for i in F2.maximal}
    assert refines(F5, F1) is not None  # transitivity of the order
    m = refines(F5, F2)
    assert all(m.target.cells[m.cell_map[i]].contains_poly(m.source.cells[i])
               for i in m.source.maximal)
    assert refines(F5, F2) is m     # kept in F5's cache


def test_star_subdivision_examples():
    assert star_subdivision(f1_complex(), point=(1,)).same_as(f2_complex())
    assert star_subdivision(f2_complex(), point=(-1,)).same_as(f5_complex())
    assert star_subdivision(f2_complex(), point=(0,)).same_as(f2_complex())
    sub = star_subdivision(f3_complex(), point=(1, 0))
    assert sub.same_as(f3s_complex())
    assert refines(sub, f3_complex()) is not None
    # a point of the wrong length is refused
    with pytest.raises(InputError, match="has 2 coordinates, the complex needs 1"):
        star_subdivision(f2_complex(), point=(1, 2))


def test_common_refinement():
    F2, F5 = f2_complex(), f5_complex()
    assert common_refinement(F2, F5).same_as(F5)
    assert common_refinement(F2, F2).same_as(F2)
    shift = PolyComplex(1, [
        Polyhedron(1, [(Q(1, 2),)], [(-1,)]),
        Polyhedron(1, [(Q(1, 2),), (Q(3, 2),)], []),
        Polyhedron(1, [(Q(3, 2),)], [(1,)])])
    cr = common_refinement(F2, shift)
    assert cr.vertices == ((Q(3, 2),), (Q(1),), (Q(1, 2),), (Q(0),))
    assert not cr.is_regular()  # the unbounded cone over [3/2, oo) has index 2
    with pytest.raises(RecessionMismatch):
        common_refinement(F2, f3_complex())


def test_chart_fans_complete():
    for pc in (f2_complex(), f5_complex(), f3s_complex()):
        for v in pc.vertices:
            assert vertex_chart(pc, v).fan.is_complete()


# ---------------------------------------------------------------------------
# meets from face combinatorics against the all-pairs intersection oracle
# ---------------------------------------------------------------------------


def _assert_same_adjacency(closure):
    """The one adjacency of a fan or complex, on a rebuilt closure's first
    call and on its second, cached one, against the intersection oracle and
    the route it replaced, both by position; one Span object per span."""
    if isinstance(closure, Fan):
        fresh = Fan(closure.rank, closure.max_cones(), validate=False)
        kept = route_oracle.max_pair_spans(closure)
    else:
        fresh = PolyComplex(closure.rank, closure.max_cells(), validate=False)
        pos = {i: p for p, i in enumerate(closure.maximal)}
        kept = tuple((pos[i], pos[j], span, meet)
                     for i, j, span, meet in route_oracle.cell_adjacency(closure))
    want = route_oracle.positioned_adjacency(closure)
    assert kept == want
    first = fresh.adjacency()
    assert first == want and fresh.adjacency() is first
    assert closure.adjacency() == want
    spans = {}
    assert all(spans.setdefault(tuple(span), span) is span for _, _, span, _ in first)


def _assert_same_route(pc):
    from ppchow.specialfiber import _edge_star
    _assert_same_adjacency(pc)
    co = cone_over(pc)
    # every cell's cone is a cone of c(Pi), and each maximal cell stands at
    # the position of its cone among the maximal ones
    to_cone = route_oracle.cell_to_cone(pc)
    assert sorted(co.max_cells) == list(pc.maximal)
    assert [to_cone[i] for i in co.max_cells] == list(co.fan.maximal)
    fans = [co.fan]
    if pc.is_complete():
        fans.append(recession_fan(pc))
    for e in pc.bounded_edges:
        assert _edge_star(pc, e).cells == route_oracle.star_cells(pc, e)
    for v in pc.vertices:
        chart = vertex_chart(pc, v)
        assert sorted(chart.max_cells) == route_oracle.chart_cells(pc, v)
        to_cone = route_oracle.chart_cell_to_cone(pc, chart)
        assert [to_cone[i] for i in chart.max_cells] == list(chart.fan.maximal)
        fans.append(chart.fan)
    for fan in fans:
        _assert_same_adjacency(fan)
        assert fan.same_as(Fan(fan.rank, fan.max_cones(), validate=False))
        # every face of a fan, cone over a cell and chart cone is a cone
        # keyed by its rays
        assert all(type(c) is Cone and c.key() == c.rays for c in fan.cones)
        # two cones meet in the intersected polyhedron, as built from its rays
        for c, d in itertools.combinations(fan.max_cones(), 2):
            meet, old = c.intersect(d), route_oracle.cone_intersect(c, d)
            assert type(meet) is Cone and meet.key() == meet.rays
            assert (meet.rays, meet.dim, meet.eqs, meet.ineqs, meet._on) == \
                (old.rays, old.dim, old.eqs, old.ineqs, old._on)
    # shared and derived faces carry what a build from scratch gives
    for members in [pc.cells] + [fan.cones for fan in fans]:
        for p in members:
            fresh = Polyhedron(p.dim_ambient, p.vertices, p.rays)
            assert ((p.vertices, p.rays), p.dim, p.eqs, p.ineqs) == \
                (fresh.key(), fresh.dim, fresh.eqs, fresh.ineqs)


def test_meets_match_intersection_oracle_on_fixtures():
    models = list(all_fixture_models().values())
    models += [route_oracle.interval_model(lo, hi) for lo, hi in ((-1, 2), (-3, 4))]
    models.append(build_complex([([(3,)], [])], rank=1))
    for pc in models:
        _assert_same_route(pc)


@settings(derandomize=True, max_examples=4, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=4))
def test_meets_match_intersection_oracle_on_refined_f3c(choices):
    pc = route_oracle.refined_f3c(choices)
    assert len(pc.maximal) == 3 + 2 * len(choices)
    assert pc.is_complete() and pc.is_regular()
    _assert_same_route(pc)
