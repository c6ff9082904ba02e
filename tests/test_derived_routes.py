"""Faces, cones over cells, chart cones and recession cones against builds
from scratch.

ppchow builds a face of a polyhedron, the cone over a cell and the cone of a
cell at a vertex from the facet normals and generator masks of the
polyhedron they come from, and a recession cone from the cone over its
cell.  ``route_oracle`` builds each of them from its generators by double
description.  Both routes must give the same key, dimension, equations,
facets and facet masks, on a first pass and on a second pass that shares
the faces already built.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

import route_oracle
from ppchow.errors import NonSCR
from ppchow.fixtures import f6_complex
from ppchow.polyhedra import (Polyhedron, _chart_cone, _cone_over_cell, build_complex,
                              cone_over, recession_fan, vertex_chart)
from test_conversion_routes import MANY_FACETS, _generators


def _fields(p):
    return (p.vertices, p.rays), p.dim, p.eqs, p.ineqs, p._on


def _assert_faces_match(polys):
    """Faces of each polyhedron by both routes, each route sharing its faces
    across all of them, in two passes: the second pass must hand back the
    faces the first one built, under the same id keys."""
    ours, theirs, first = ({}, {}), {}, {}
    for second in (False, True):
        for i, p in enumerate(polys):
            walk = p.faces(*ours)
            got = sorted(walk.values(), key=lambda f: (f.dim, f.key()))
            expected = route_oracle.faces(p, theirs)
            assert [_fields(f) for f in got] == [_fields(f) for f in expected]
            assert all(ours[1][key] is f for key, f in walk.items() if f is not p)
            assert not second or walk == first[i]     # faces compare by identity
            first[i] = walk


def _polyhedron(vertices, rays):
    try:
        return Polyhedron(len(vertices[0]), vertices, rays)
    except NonSCR:
        return None


def _assert_cells_match(p):
    """Faces of p, the cone over p and the cone of p at each vertex."""
    _assert_faces_match([p])
    assert _fields(_cone_over_cell(p)) == _fields(route_oracle.cone_over_cell(p))
    for v in p.vertices:
        assert _fields(_chart_cone(v, p)) == _fields(route_oracle.chart_cone(v, p))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(_generators))
def test_faces_and_cones_match_builds_from_scratch(gens):
    p = _polyhedron(*gens)
    assume(p is not None)
    _assert_cells_match(p)


@pytest.mark.parametrize("vertices, rays", MANY_FACETS)
def test_non_simplicial_faces_and_cones_match_builds_from_scratch(vertices, rays):
    _assert_cells_match(_polyhedron(vertices, rays))


def _assert_cones_match(pc):
    """The cone over each maximal cell, each chart cone and each maximal
    recession cone equal the cones built from their rays, and so do all
    faces of the fans they span."""
    co = cone_over(pc)
    for i, cone in zip(co.max_cells, co.fan.max_cones()):
        assert _fields(cone) == _fields(route_oracle.cone_over_cell(pc.cells[i]))
    fans = [co.fan]
    for v in pc.vertices:
        chart = vertex_chart(pc, v)
        for i, cone in zip(chart.max_cells, chart.fan.max_cones()):
            assert _fields(cone) == _fields(route_oracle.chart_cone(v, pc.cells[i]))
        fans.append(chart.fan)
    if pc.is_complete():
        rec = recession_fan(pc)
        want = {c.rays: route_oracle.recession_cone(c) for c in pc.max_cells()}
        assert [_fields(c) for c in rec.max_cones()] == [_fields(want[c.rays])
                                                       for c in rec.max_cones()]
        fans.append(rec)
    for fan in fans:
        for c in fan.cones:
            fresh = Polyhedron(c.dim_ambient, c.vertices, c.rays)
            assert _fields(c) == _fields(fresh)
        _assert_faces_match(fan.max_cones())


def test_cones_match_on_f6_and_a_point():
    # the cells of all but F6 are not full-dimensional, nor are their cones
    for pc in (f6_complex(), build_complex([([(3,)], [])], rank=1),
               build_complex([([(1, Q(1, 2))], [(1, 1)])], rank=2),
               build_complex([([(0, 0), (1, 2)], [])], rank=2)):
        _assert_cones_match(pc)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=4))
def test_cones_match_on_refined_f3c(choices):
    _assert_cones_match(route_oracle.refined_f3c(choices))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(route_oracle.rank_one_chains())
def test_cones_match_on_rank_one_chains(chain):
    for pc in chain.models:
        _assert_cones_match(pc)
