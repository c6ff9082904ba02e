"""The face lattice read off masks, and H-descriptions built on first read.

A face, a cone over a cell, a chart cone and a recession cone keep each
facet's generator mask and an unprojected normal; their equations, facets
and ``_on`` are built the first time one of them is read.  Closing a
complex, c(Pi) or a chart must build none of them below the maximal
members, and once read, in any order and again on a second pass, they must
equal those of the polyhedron built from scratch.  ``find_cell`` reads the
smallest cell holding a point off the facets of a maximal cell tight at it;
``route_oracle.find_cell`` tests every cell.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import route_oracle
from ppchow.fixtures import f3_complex
from ppchow.polyhedra import (PolyComplex, Polyhedron, build_complex, cone_over,
                              recession_fan, vertex_chart)
from ppchow.qlinalg import vadd, vscale
from test_conversion_routes import MANY_FACETS


def _built(p):
    """Has p's H-description been built?  The slot's own descriptor reads
    it without building it."""
    try:
        Polyhedron.ineqs.__get__(p)
    except AttributeError:
        return False
    return True


def _members(closure):
    return closure.cells if isinstance(closure, PolyComplex) else closure.cones


def _assert_lazy_and_equal(pc, vertices):
    """Close pc's c(Pi), its charts at ``vertices`` and, if it is complete,
    its recession fan; then read every member's fields in two orders and on
    two passes."""
    closures = [pc, cone_over(pc).fan] + [vertex_chart(pc, v).fan for v in vertices]
    if pc.is_complete():
        closures.append(recession_fan(pc))
    for c in closures:
        maximal = set(c.maximal)
        assert not any(_built(m) for i, m in enumerate(_members(c)) if i not in maximal)
    kept, fresh_of = {}, {}
    for second in (False, True):
        for c in closures:
            for i, m in enumerate(_members(c)):
                if id(m) not in fresh_of:
                    fresh_of[id(m)] = Polyhedron(m.dim_ambient, m.vertices, m.rays)
                fresh = fresh_of[id(m)]
                # the first read is _on for every other member, ineqs for the rest
                first = m._on if i % 2 else m.ineqs
                got = (m.eqs, m.ineqs, m._on)
                assert first is got[2 if i % 2 else 1]
                assert ((m.vertices, m.rays), m.dim) + got == \
                    ((fresh.vertices, fresh.rays), fresh.dim, fresh.eqs, fresh.ineqs, fresh._on)
                assert sorted(m._masks) == sorted(fresh._on)
                if second:
                    assert all(x is y for x, y in zip(got, kept[id(m)]))
                kept[id(m)] = got


@settings(derandomize=True, max_examples=5, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=4))
def test_h_descriptions_wait_for_their_first_read_on_refined_f3c(choices):
    pc = route_oracle.refined_f3c(choices)
    _assert_lazy_and_equal(pc, pc.vertices)


@settings(derandomize=True, max_examples=5, deadline=None)
@given(route_oracle.rank_one_chains())
def test_h_descriptions_wait_for_their_first_read_on_rank_one_chains(chain):
    for pc in chain.models:
        _assert_lazy_and_equal(pc, pc.vertices)


@pytest.mark.parametrize("vertices, rays", MANY_FACETS)
def test_h_descriptions_wait_for_their_first_read_on_many_facets(vertices, rays):
    # one chart: the charts of these polytopes hold hundreds of faces
    pc = build_complex([Polyhedron(len(vertices[0]), vertices, rays)])
    _assert_lazy_and_equal(pc, pc.vertices[:1])


@pytest.mark.parametrize("vertices, rays", [
    ([(1, Q(1, 2))], [(1, 1)]), ([(0, 0), (1, 2)], []),
    ([(0, 0, 1), (1, 0, 1), (0, 1, 2)], [(1, 1, 1)])])
def test_h_descriptions_wait_for_their_first_read_below_full_dimension(vertices, rays):
    pc = build_complex([Polyhedron(len(vertices[0]), vertices, rays)])
    _assert_lazy_and_equal(pc, pc.vertices)


def _points(pc):
    """A relative interior point of each cell: the mean of its vertices plus
    the sum of its rays, so each vertex and each bounded edge's midpoint."""
    out = []
    for c in pc.cells:
        x = vscale(Q(1, len(c.vertices)), c.vertices[0])
        for v in c.vertices[1:]:
            x = vadd(x, vscale(Q(1, len(c.vertices)), v))
        for r in c.rays:
            x = vadd(x, r)
        out.append(x)
    return out


def _assert_find_cell_matches(pc, drop):
    """On pc and on the complex of the maximal cells that ``drop`` keeps,
    at the points of pc's cells and a far point; the dropped cells' points
    lie outside the second."""
    maxs = pc.max_cells()
    kept = [c for k, c in enumerate(maxs) if not drop >> k & 1] or maxs[:1]
    far = (Q(7),) * pc.rank
    for c in (pc, PolyComplex(pc.rank, kept, validate=False)):
        for x in _points(pc) + [far, vscale(-1, far)]:
            assert c.find_cell(x) is route_oracle.find_cell(c, x)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=4), st.integers(0, 2 ** 12))
def test_find_cell_matches_the_scan_of_every_cell_on_refined_f3c(choices, drop):
    _assert_find_cell_matches(route_oracle.refined_f3c(choices), drop)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(route_oracle.rank_one_chains(), st.integers(0, 2 ** 12))
def test_find_cell_matches_the_scan_of_every_cell_on_rank_one_chains(chain, drop):
    _assert_find_cell_matches(chain.models[-1], drop)


def test_a_vector_of_the_wrong_length_is_refused():
    pc = f3_complex()
    cell = pc.max_cells()[0]
    face = next(f for f in pc.cells if f.dim == 1)
    for x in [(1, 1, 99), (0, 0, 5), (1,), ()]:
        want = f"has length {len(x)} but dim_ambient is 2"
        with pytest.raises(ValueError, match=want):
            pc.find_cell(x)
        for p in (cell, face):
            with pytest.raises(ValueError, match=want):
                p.contains_point(x)
            with pytest.raises(ValueError, match=want):
                p.recession_contains(x)
