"""The double description conversions against the subset routes they replaced.

ppchow builds every polyhedron's facets, and every intersection's vertices
and rays, with one extreme-ray routine, and keeps the generators that no
other generator beats on the facets they lie on.  ``route_oracle`` keeps
the subset enumerations and the rank filter.  On drawn generator sets in
ambient dimensions 1 to 4, with repeated points, interior points, redundant
rays and hulls of lower dimension, both routes must give the same
equations, facets, vertices and rays, and the same intersections; on sets
whose hull contains a line both must raise ``NonSCR``.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

import route_oracle
from ppchow.errors import NonSCR
from ppchow.polyhedra import Polyhedron

_COEFF = st.sampled_from([Q(1), Q(-1), Q(1, 2), Q(2), Q(0)])
_ENTRY = st.sampled_from([1, -1, 2, 0, -2])


def _combo(coeffs, dirs, base):
    out = list(base)
    for c, d in zip(coeffs, dirs):
        out = [x + c * y for x, y in zip(out, d)]
    return tuple(out)


@st.composite
def _generators(draw, dim):
    """(vertices, rays) spanning base + span(dirs), with some repeats,
    midpoints of two vertices and sums of two rays added."""
    k = draw(st.integers(0, dim).map(lambda j: dim - j))     # full hulls first
    dirs = draw(st.lists(st.tuples(*[_ENTRY] * dim), min_size=k, max_size=k))
    base = draw(st.tuples(*[st.integers(-1, 1).map(Q)] * dim))
    combos = st.lists(_COEFF, min_size=k, max_size=k)
    vertices = [_combo(c, dirs, base)
                for c in draw(st.lists(combos, min_size=2, max_size=5, unique_by=tuple))]
    rays = [_combo(c, dirs, (Q(0),) * dim) for c in draw(st.lists(combos, max_size=3))]
    pairs = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    vertices += [tuple((x + y) / 2 for x, y in zip(u, v))
                 for u, v in draw(st.lists(pairs, max_size=2))]
    vertices += draw(st.lists(st.sampled_from(vertices), max_size=2))
    if rays:
        pairs = st.tuples(st.sampled_from(rays), st.sampled_from(rays))
        rays += [tuple(x + y for x, y in zip(u, v))
                 for u, v in draw(st.lists(pairs, max_size=2))]
    return vertices, rays


def _both(dim, vertices, rays):
    """The oracle's tuple and the Polyhedron, or (None, None) when both raise
    NonSCR."""
    try:
        expected = route_oracle.polyhedron(dim, vertices, rays)
    except NonSCR:
        with pytest.raises(NonSCR):
            Polyhedron(dim, vertices, rays)
        return None, None
    return expected, Polyhedron(dim, vertices, rays)


def _as_tuple(p):
    return p.eqs, p.ineqs, p.vertices, p.rays


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(1, 4).flatmap(_generators))
def test_polyhedron_matches_the_subset_route(gens):
    vertices, rays = gens
    dim = len(vertices[0])
    expected, p = _both(dim, vertices, rays)
    if p is not None:
        assert _as_tuple(p) == expected


_CUBE = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
_CROSS = [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
_PRISM = [(t,) + v for t in (0, 1)
          for v in ((1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1))]


# non-simplicial cases, where the double description step must combine only
# adjacent rays
MANY_FACETS = [
    (_CUBE, []),
    (_CUBE + [(Q(1, 2), Q(1, 2), 1)], [(1, 1, 1), (0, 0, 1)]),
    ([(1, 1, 0), (-1, 1, 0), (1, -1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)], []),
    ([(0, 0, 0)], [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
    (_CROSS, []),
    ([(t, t * t, t ** 3, t ** 4) for t in range(6)], []),
    ([v + (0,) for v in _CUBE] + [(0, 0, 0, 1)], [(1, 1, 1, 1)]),
    # [0, 1] times a square pyramid, the midpoint of the edge over the apex,
    # and last a point on two opposite side facets of the pyramid: in the
    # polar, the two other side facets share the edge's three rows, but only
    # the facets on the last point's hyperplanes show they are not adjacent
    (_PRISM + [(Q(1, 2), 0, 0, 1), (2, 0, 1, 1)], []),
]


@pytest.mark.parametrize("vertices, rays", MANY_FACETS)
def test_polytopes_with_many_facets_match_the_subset_route(vertices, rays):
    assert _as_tuple(Polyhedron(len(vertices[0]), vertices, rays)) == \
        route_oracle.polyhedron(len(vertices[0]), vertices, rays)


def test_a_line_is_refused_by_both_routes():
    for dim, vertices, rays in ((1, [(0,)], [(1,), (-1,)]),
                                (2, [(0, 0), (1, 1)], [(1, 0), (-1, 1), (0, -1)]),
                                (3, [(0, 0, 0)], [(1, 0, 0), (0, 1, 0), (-1, -1, 0)])):
        with pytest.raises(NonSCR):
            route_oracle.polyhedron(dim, vertices, rays)
        with pytest.raises(NonSCR):
            Polyhedron(dim, vertices, rays)


@st.composite
def _pair(draw, dim):
    """Two generator sets that mostly overlap: the second is a cross-polytope
    around a point of the first, a shifted part of the first, or drawn
    afresh."""
    v1, r1 = draw(_generators(dim))
    center = draw(st.sampled_from(v1))
    radius = draw(st.sampled_from([Q(1), Q(1, 2), Q(3, 2)]))
    cross = [tuple(x + s * radius * (i == j) for j, x in enumerate(center))
             for i in range(dim) for s in (1, -1)]
    shift = draw(st.tuples(*[st.sampled_from([Q(0), Q(1, 2), Q(-1, 2)])] * dim))
    part = st.lists(st.sampled_from(v1), min_size=1, max_size=len(v1))
    moved = [tuple(x + y for x, y in zip(v, shift)) for v in draw(part)]
    other = (st.just((cross, [])) | st.just((moved, r1[:draw(st.integers(0, len(r1)))]))
             | _generators(dim))
    return (v1, r1), draw(other)


# The subset route's cost grows fast with the facets it starts from: drawn
# pairs in dimension 4 with 21 or more facets between them ran for seconds
# to minutes, those with 20 or fewer for under one second.
MAX_PAIR_FACETS = 20


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(_pair))
def test_intersections_match_the_subset_route(pair):
    (v1, r1), (v2, r2) = pair
    dim = len(v1[0])
    e1, p = _both(dim, v1, r1)
    e2, q = _both(dim, v2, r2)
    assume(p is not None and q is not None)
    assume(len(e1[1]) + len(e2[1]) <= MAX_PAIR_FACETS)
    expected = route_oracle.intersect(dim, e1, e2)
    meet = p.intersect(q)
    assert (None if meet is None else _as_tuple(meet)) == expected
