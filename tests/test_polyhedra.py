import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import route_oracle
from ppchow import polyhedra, specialfiber
from ppchow.errors import (FaceMismatch, InputError, NonSCR, NotAComplex,
                           NotARecessionCone, RecessionMismatch, UnboundedEdge)
from ppchow.fixtures import (all_fixture_models, f1_complex, f1_fan,
                             f2_complex, f3_complex, f3s_complex, f5_complex,
                             f6_complex)
from ppchow.polyhedra import (Cone, Fan, PolyComplex, Polyhedron, build_complex,
                              common_refinement, cone_over, edge_data,
                              horizontal_star, recession_fan, refines,
                              star_subdivision, vertex_chart)
from ppchow.polyring import HomogPoly, gluing_kernel
from ppchow.ppfan import PPFunction
from ppchow.specialfiber import AffinePP


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
    cell_b = next(i for i in F2.maximal if not F2.cells[i].rays)
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
    assert all(route_oracle.contains_poly(m.target.cells[m.cell_map[i]], m.source.cells[i])
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


def _generators(key, fan):
    vertices, rays = ((), key) if fan else key
    return frozenset([(0, v) for v in vertices] + [(1, r) for r in rays])


def _components(members, links):
    """The number of classes of ``members`` under the pairs ``links``."""
    label = {p: p for p in members}
    for p, q in links:
        old, new = label[p], label[q]
        label = {x: new if y == old else y for x, y in label.items()}
    return len(set(label.values()))


def _assert_forest_adjacency(closure):
    """The adjacency of a fan or complex, on a rebuilt closure's first call
    and on its second, cached one, against the pairs of maximal members that
    meet, by the intersection oracle and by the route it replaced: each kept
    pair is such a pair with its span and meet, one Span object per span;
    every pair meeting in a codimension-one face is kept; for each meet F,
    the kept pairs meeting in faces containing F link F's star, with no pair
    meeting in F to spare; and the gluing kernels of the kept pairs and of
    all pairs agree in degrees 0-3."""
    fan = isinstance(closure, Fan)
    if fan:
        fresh = Fan(closure.rank, closure.max_cones(), validate=False)
        every = route_oracle.max_pair_spans(closure)
    else:
        fresh = PolyComplex(closure.rank, closure.max_cells(), validate=False)
        pos = {i: p for p, i in enumerate(closure.maximal)}
        every = tuple((pos[i], pos[j], span, meet)
                      for i, j, span, meet in route_oracle.cell_adjacency(closure))
    want = route_oracle.positioned_adjacency(closure)
    assert every == want
    first = fresh.adjacency()
    assert fresh.adjacency() is first and closure.adjacency() == first
    spans = {}
    assert all(spans.setdefault(tuple(span), span) is span for _, _, span, _ in first)
    meets = {(p, q): (span, meet) for p, q, span, meet in want}
    assert all(meets.get((p, q)) == (span, meet) for p, q, span, meet in first)
    kept = [(p, q) for p, q, _, _ in first]
    assert {(p, q) for p, q, span, _ in want if len(span) == closure.rank - 1} <= set(kept)
    gens = [_generators(m.key(), fan)
            for m in (fresh.max_cones() if fan else fresh.max_cells())]
    for meet in {meet for _, _, _, meet in want}:
        f = _generators(meet, fan)
        star = [p for p, g in enumerate(gens) if f <= g]
        above = [(p, q) for p, q in kept if f < gens[p] & gens[q]]
        at = [(p, q) for p, q in kept if f == gens[p] & gens[q]]
        assert _components(star, above + at) == 1
        assert len(at) == _components(star, above) - 1
    n = len(closure.maximal)
    for k in range(4):
        got = gluing_kernel([(p, q, span) for p, q, span, _ in first], n, closure.rank, k)
        full = gluing_kernel([(p, q, span) for p, q, span, _ in every], n, closure.rank, k)
        assert [[list(f.coeffs.items()) for f in b] for b in got] == \
            [[list(f.coeffs.items()) for f in b] for b in full]


def _assert_same_route(pc):
    _assert_forest_adjacency(pc)
    co = cone_over(pc)
    # every cell's cone is a cone of c(Pi), and each maximal cell stands at
    # the position of its cone among the maximal ones
    to_cone = route_oracle.cell_to_cone(pc)
    assert sorted(co.max_cells) == list(pc.maximal)
    assert [to_cone[i] for i in co.max_cells] == list(co.fan.maximal)
    fans = [co.fan]
    if pc.is_complete():
        fans.append(recession_fan(pc))
    for e, star in zip(pc.bounded_edges, specialfiber._table(pc).stars):
        assert star.cells == route_oracle.star_cells(pc, e)
    for v in pc.vertices:
        chart = vertex_chart(pc, v)
        assert sorted(chart.max_cells) == route_oracle.chart_cells(pc, v)
        to_cone = route_oracle.chart_cell_to_cone(pc, chart)
        assert [to_cone[i] for i in chart.max_cells] == list(chart.fan.maximal)
        fans.append(chart.fan)
    for fan in fans:
        _assert_forest_adjacency(fan)
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


# two members that share no facet, so only the pair itself links them
NON_HEREDITARY = {
    "2-cones meeting at the origin":
        lambda: Fan(2, [Cone(2, [(1, 0), (1, 1)]), Cone(2, [(-1, 0), (-1, -1)])]),
    "triangles meeting at a vertex":
        lambda: build_complex([([(0, 0), (1, 0), (0, 1)], []),
                               ([(0, 0), (-1, 0), (0, -1)], [])], rank=2),
    "3-cones sharing a ray":
        lambda: Fan(3, [Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                        Cone(3, [(-1, 0, 0), (0, -1, 0), (0, 0, 1)])]),
}


def _verdict(domain):
    """The outcome of validating constants 1 and 2 on the two members."""
    pieces = [HomogPoly.constant(domain.rank, c) for c in (1, 2)]
    try:
        if isinstance(domain, Fan):
            PPFunction(domain, 0, pieces)
        else:
            AffinePP(domain, 0, pieces)
    except FaceMismatch as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", sorted(NON_HEREDITARY))
def test_linking_pairs_survive_on_non_hereditary_domains(name, monkeypatch):
    domain = NON_HEREDITARY[name]()
    _assert_forest_adjacency(domain)
    assert [(p, q) for p, q, _, _ in domain.adjacency()] == [(0, 1)]
    # the constants agree across every facet, as there is none, but not at
    # the shared face, on both routes
    got = _verdict(domain)
    assert got is not None
    with monkeypatch.context() as mp:
        route_oracle.install(mp)
        assert _verdict(NON_HEREDITARY[name]()) == got


def test_completeness_matches_the_recession_fan_route():
    """Each model, with each maximal cell dropped in turn, its fans, the
    non-hereditary domains and the edges of a triangle, whose facets are
    paired but which is not full-dimensional."""
    domains = [build() for build in NON_HEREDITARY.values()]
    domains.append(build_complex([([(0, 0), (1, 0)], []), ([(1, 0), (0, 1)], []),
                                  ([(0, 1), (0, 0)], [])], rank=2))
    models = list(all_fixture_models().values())
    models += [route_oracle.refined_f3c([3, 7]), route_oracle.interval_model(-1, 2)]
    for pc in models:
        domains += _closures(pc)
    got = [d.is_complete() for d in domains]
    assert got == [route_oracle.is_complete(d) for d in domains]
    assert any(got) and not all(got)


def _closures(pc):
    """A complete model, the model with each maximal cell dropped, and of each
    its c(Pi) fan and its chart fans; the recession fan of the model."""
    cells = pc.max_cells()
    parts = [PolyComplex(pc.rank, cells[:i] + cells[i + 1:], validate=False)
             for i in range(len(cells))]
    out = [recession_fan(pc)]
    for model in [pc] + parts:
        out += [model, cone_over(model).fan] + [vertex_chart(model, v).fan for v in model.vertices]
    return out


def _assert_complete_and_adjacent(pc):
    """On each closure, completeness read off the face walk's id keys equals
    the oracle's, on a rebuilt closure's first call and on the cached call,
    and the adjacency read off them matches the oracle's pairs."""
    for closure in _closures(pc):
        want = route_oracle.is_complete(closure)
        members = closure.max_cones() if isinstance(closure, Fan) else closure.max_cells()
        fresh = type(closure)(closure.rank, members, validate=False)
        assert [fresh.is_complete(), fresh.is_complete(), closure.is_complete()] == [want] * 3
        _assert_forest_adjacency(closure)


@settings(derandomize=True, max_examples=3, deadline=None)
@given(route_oracle.rank_one_chains(), st.lists(st.integers(0, 50), min_size=1, max_size=2))
def test_completeness_and_adjacency_read_the_generator_numbers(chain, choices):
    for pc in chain.models + [route_oracle.refined_f3c(choices)]:
        _assert_complete_and_adjacent(pc)


def test_validation_and_completeness_share_one_tiling_run(monkeypatch):
    """A complete complex validated through ``build_complex`` is certified by
    ``_tiles`` once, and ``is_complete`` reads that verdict; an unvalidated
    closure runs ``_tiles`` on its first ``is_complete`` only."""
    tiles, runs = polyhedra._tiles, []
    monkeypatch.setattr(polyhedra, "_tiles", lambda *args: runs.append(args) or tiles(*args))
    for pc in [route_oracle.refined_f3c([3, 7]), route_oracle.rank_one_model([0, Q(1, 2), 1])]:
        runs.clear()
        built = build_complex(pc.max_cells())
        assert len(runs) == 1
        assert built.is_complete() and built.is_complete() and len(runs) == 1
        runs.clear()
        unchecked = PolyComplex(pc.rank, pc.max_cells(), validate=False)
        assert not runs
        assert unchecked.is_complete() and unchecked.is_complete() and len(runs) == 1
