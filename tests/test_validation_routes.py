"""Validation by facets and maximal pairs against the all-pairs route it
replaced.

ppchow certifies a complete complex or fan by its facets (a tiling
certificate), tests only pairs of maximal members of any other one, settles
most of them with a separating facet, reads the maximal members off the face
walk, builds stellar subdivisions and common refinements without validating
them, and reads a refinement's cell map off the fan map.  On valid inputs
both routes must close to the same members with the same maximal ones, and
on complete ones the certificate must decide without testing a pair; on
invalid ones, including families whose facets all pair, both must raise
``NotAComplex``, and the families whose facets all pair keep the message the
pairwise test gives; and every complex built by construction must pass the
all-pairs test of ``route_oracle``.  Covering
is decided by pairing facets and faces are tested by facet masks; both must
agree with the volume count and the dot-product face test they replaced, on
covers and non-covers, faces and non-faces.
"""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import route_oracle
from ppchow import polyhedra
from ppchow.errors import NotAComplex
from ppchow.fixtures import all_fixture_models, f1_fan, f3_fan
from ppchow.polyhedra import (Cone, Fan, PolyComplex, Polyhedron,
                              _close_and_validate, _facets_paired, _is_face,
                              _meet_certified, common_refinement, cone_over,
                              rec_fan_as_complex, recession_fan, refines,
                              star_subdivision, vertex_chart)

FIXTURES = all_fixture_models()


def _members(pc_or_fan):
    if isinstance(pc_or_fan, Fan):
        return pc_or_fan.max_cones(), "fan"
    return pc_or_fan.max_cells(), "complex"


def _complete_sources(pc):
    """(items, kind) of a complete model, its recession fan and its vertex
    charts."""
    return ([_members(pc), _members(recession_fan(pc))]
            + [_members(vertex_chart(pc, v).fan) for v in pc.vertices])


def _valid_sources():
    """(items, kind, complete?) of every fixture, its cone over, recession
    fan and vertex charts, the fixture fans and two interval models."""
    out = [_members(f) + (True,) for f in (f1_fan(), f3_fan())]
    models = list(FIXTURES.values()) + [route_oracle.interval_model(-2, 3)]
    for pc in models:
        out += [src + (True,) for src in _complete_sources(pc)]
        out.append(_members(cone_over(pc).fan) + (False,))
    return out


VALID = _valid_sources()


def _keys(cells):
    return [(c.dim, c.key()) for c in cells]


def _no_pair(p, q):
    raise AssertionError(f"the pair {p!r}, {q!r} was tested")


def _assert_same_closure(items, kind, complete=False):
    """Both routes close the items alike; on a complete input the tiling
    certificate decides, so no pair of members is tested."""
    with pytest.MonkeyPatch.context() as mp:
        if complete:
            mp.setattr(polyhedra, "_meet_certified", _no_pair)
        new_cells, new_max = _close_and_validate(items, kind)
    old_cells, old_max = route_oracle.close_and_validate(items, kind)
    assert _keys(new_cells) == _keys(old_cells)
    assert new_max == old_max
    unchecked_cells, unchecked_max = _close_and_validate(items, kind, validate=False)
    assert _keys(unchecked_cells) == _keys(new_cells) and unchecked_max == new_max


@st.composite
def _padded(draw, items):
    """The items plus some of their faces and repeats, in a drawn order."""
    faces = [f for it in items
             for f in sorted(it.faces().values(), key=lambda f: (f.dim, f.key()))
             if f.key() != it.key()]
    extra = draw(st.lists(st.sampled_from(faces), max_size=4)) if faces else []
    repeats = draw(st.lists(st.sampled_from(items), max_size=2))
    return draw(st.permutations(list(items) + extra + repeats))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.data())
def test_valid_inputs_close_alike(data):
    items, kind, complete = data.draw(st.sampled_from(VALID))
    _assert_same_closure(data.draw(_padded(items)), kind, complete)


@settings(derandomize=True, max_examples=4, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=4), st.data())
def test_refined_f3c_closes_alike(choices, data):
    pc = route_oracle.refined_f3c(choices)
    _assert_same_closure(data.draw(_padded(pc.max_cells())), "complex", True)


def test_the_last_walk_reaching_a_key_gives_its_member():
    """Each key's member is the object the last face walk reaching it
    returned: an item on its own walk, and otherwise the face first built
    or given with that key."""
    p, q, again = (Polyhedron(1, [(0,), (1,)]), Polyhedron(1, [(1,), (2,)]),
                   Polyhedron(1, [(0,), (1,)]))
    point = Polyhedron(1, [(1,)])
    for items, point_kept in (([p, q, point, again], False), ([point, p, q, again], True)):
        members = {c.key(): c for c in _close_and_validate(items, "complex")[0]}
        assert members[p.key()] is again and members[q.key()] is q
        assert (members[point.key()] is point) == point_kept


@settings(derandomize=True, max_examples=4, deadline=None)
@given(route_oracle.rank_one_chains(), st.data())
def test_rank_one_chains_are_certified(chain, data):
    for pc in chain.models:
        for items, kind in _complete_sources(pc):
            _assert_same_closure(data.draw(_padded(items)), kind, True)


# the P^3 fan: the cones on three of e1, e2, e3 and -(e1 + e2 + e3)
P3_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]


@settings(derandomize=True, max_examples=3, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=2))
def test_stellar_subdivisions_of_p3_are_certified(points):
    """Stellar subdivisions of the P^3 model at lattice points, read back
    cell by cell."""
    pc = rec_fan_as_complex(Fan(3, [Cone(3, rays) for rays in itertools.combinations(P3_RAYS, 3)]))
    for point in points:
        pc = star_subdivision(pc, point)
    _assert_same_closure(pc.max_cells(), "complex", True)


# ---------------------------------------------------------------------------
# invalid inputs: every family is drawn under a lattice map x -> k.A.x + s
# ---------------------------------------------------------------------------

# (vertices, rays) per cell, before the map
INVALID_COMPLEXES = {
    "overlapping intervals": [([(0,), (2,)], []), ([(1,), (3,)], [])],
    "nested intervals": [([(0,), (3,)], []), ([(1,), (2,)], [])],
    "interval on a ray": [([(0,)], [(1,)]), ([(1,), (2,)], [])],
    "opposite rays overlapping": [([(1,)], [(-1,)]), ([(0,)], [(1,)])],
    "point inside an interval": [([(1,)], []), ([(0,), (2,)], [])],
    "overlapping squares": [([(0, 0), (2, 0), (0, 2), (2, 2)], []),
                            ([(1, 1), (3, 1), (1, 3), (3, 3)], [])],
    "nested triangles": [([(0, 0), (4, 0), (0, 4)], []),
                         ([(1, 1), (2, 1), (1, 2)], [])],
    "T-junction": [([(0, 0), (1, 0), (0, 1), (1, 1)], []),
                   ([(1, 0), (2, 0), (1, 1), (2, 1)], []),
                   ([(0, 1), (2, 1), (0, 2), (2, 2)], [])],
    "mismatched facets": [([(0, 0), (2, 0), (0, 2), (2, 2)], []),
                          ([(2, 1), (4, 1), (2, 3), (4, 3)], [])],
    "vertex inside an edge": [([(0, 0), (2, 0), (0, 2), (2, 2)], []),
                              ([(2, 1), (3, 0), (3, 2)], [])],
    "overlapping quadrants": [([(0, 0)], [(1, 0), (0, 1)]),
                              ([(1, 0)], [(0, 1), (1, 1)])],
    "unbounded strip on a square": [([(0, 0), (2, 0)], [(0, 1)]),
                                    ([(1, 0), (3, 0), (1, 2), (3, 2)], [])],
    # a triangle's vertex inside another's edge, the triangle with the edge
    # first in the canonical order, then second
    "triangle's vertex inside an edge": [([(0, 0), (2, 0), (0, 2)], []),
                                         ([(1, 1), (3, 1), (1, 3)], [])],
    "triangle's vertex inside an edge, reversed": [([(0, 0), (-2, 0), (0, -2)], []),
                                                   ([(-1, -1), (-3, -1), (-1, -3)], [])],
    # every facet lies in two cells, on opposite sides, and the cover has
    # degree 2: the generic point of the tiling certificate refuses them
    "double cover F2 and F2 + 1/2": [([(0,)], [(-1,)]), ([(0,), (1,)], []), ([(1,)], [(1,)]),
                                     ([(Q(1, 2),)], [(-1,)]), ([(Q(1, 2),), (Q(3, 2),)], []),
                                     ([(Q(3, 2),)], [(1,)])],
    "double cover F3C and F3C + (1, 1)": [([(0, 0)], [(1, 0), (0, 1)]),
                                          ([(0, 0)], [(0, 1), (-1, -1)]),
                                          ([(0, 0)], [(-1, -1), (1, 0)]),
                                          ([(1, 1)], [(1, 0), (0, 1)]),
                                          ([(1, 1)], [(0, 1), (-1, -1)]),
                                          ([(1, 1)], [(-1, -1), (1, 0)])],
    # every facet lies in two cells, but 1 and 3 in two on the same side:
    # the degree is 1 at -1 and 3 at 3/2, so orientation refuses it
    "F1 and the same-side triple [1, 2], [1, 3], [2, 3]": [
        ([(0,)], [(-1,)]), ([(0,)], [(1,)]), ([(1,), (2,)], []), ([(1,), (3,)], []),
        ([(2,), (3,)], [])],
    # full-dimensional cells that tile, and a maximal point that is no face
    "F1 and a point inside a ray": [([(0,)], [(-1,)]), ([(0,)], [(1,)]), ([(1,)], [])],
}

INVALID_FANS = {
    "overlapping cones": [[(1, 0), (1, 2)], [(1, 1), (0, 1)]],
    "nested cones": [[(1, 0), (0, 1)], [(1, 1), (1, 2)]],
    "cone across a ray": [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 1), (1, 1)]],
    "ray inside a cone": [[(1, 0), (0, 1)], [(1, 1)]],
    "double cover F3 and -F3": [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)],
                                [(-1, 0), (0, -1)], [(0, -1), (1, 1)], [(1, 1), (-1, 0)]],
    "F3 and a ray inside a cone": [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)],
                                   [(1, 1)]],
}

# the refusals of the families whose facets all pair, under the identity map,
# as (cell, cell, meet), each cell (vertices, rays) or a cone's rays: the
# pairwise test runs as it did before the tiling certificate, and names the
# same pair
PAIRED_REFUSALS = {
    "double cover F2 and F2 + 1/2": (
        ([(0,)], [(-1,)]), ([(Q(1, 2),)], [(-1,)]), ([(0,)], [(-1,)])),
    "double cover F3C and F3C + (1, 1)": (
        ([(0, 0)], [(-1, -1), (0, 1)]), ([(1, 1)], [(-1, -1), (0, 1)]),
        ([(0, 0)], [(-1, -1), (0, 1)])),
    "F1 and the same-side triple [1, 2], [1, 3], [2, 3]": (
        ([(0,)], [(1,)]), ([(1,), (2,)], []), ([(1,), (2,)], [])),
    "F1 and a point inside a ray": (([(1,)], []), ([(0,)], [(1,)]), ([(1,)], [])),
    "double cover F3 and -F3": ([(-1, -1), (0, 1)], [(-1, 0), (0, -1)], [(-1, -1), (-1, 0)]),
    "F3 and a ray inside a cone": ([(1, 1)], [(0, 1), (1, 0)], [(1, 1)]),
}


def _refusal_text(name):
    """The message of ``NotAComplex`` for a family in PAIRED_REFUSALS, with
    each coordinate written as ``Fraction(p, q)``."""
    def point(x):
        entries = [f"Fraction({Q(c).numerator}, {Q(c).denominator})" for c in x]
        return "(" + ", ".join(entries) + ("," if len(entries) == 1 else "") + ")"

    def member(m):
        if name in INVALID_FANS:
            return f"Cone([{', '.join(map(point, m))}])"
        return (f"Polyhedron(V=[{', '.join(map(point, m[0]))}], "
                f"R=[{', '.join(map(point, m[1]))}])")
    p, q, meet = map(member, PAIRED_REFUSALS[name])
    kind = "fan" if name in INVALID_FANS else "complex"
    return f"{kind} cells {p} and {q} meet in {meet}, not a common face"


def _lattice_map(rank, shear, k, shift):
    """x -> k.A.x + shift with A unimodular upper triangular (shear above
    the diagonal)."""
    def apply(x, linear_only=False):
        y = [k * (x[i] + sum(shear * x[j] for j in range(i + 1, rank)))
             for i in range(rank)]
        return tuple(y) if linear_only else tuple(a + b for a, b in zip(y, shift))
    return apply


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.sampled_from(sorted(INVALID_COMPLEXES)), st.integers(-2, 2),
       st.integers(1, 3), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_invalid_complexes_rejected_by_both(name, shear, k, shift):
    _assert_rejected_by_both(name, shear, k, shift)


@pytest.mark.parametrize("name", sorted(INVALID_COMPLEXES))
def test_each_invalid_complex_is_rejected_by_both(name):
    _assert_rejected_by_both(name, 0, 2, (0, 0))    # the identity map


def _assert_rejected_by_both(name, shear, k, shift):
    raw = INVALID_COMPLEXES[name]
    rank = len(raw[0][0][0])
    f = _lattice_map(rank, shear, Q(k, 2), [Q(s) for s in shift[:rank]])
    cells = [Polyhedron(rank, [f(v) for v in vs], [f(r, True) for r in rs])
             for vs, rs in raw]
    with pytest.raises(NotAComplex):
        route_oracle.close_and_validate(cells, "complex")
    with pytest.raises(NotAComplex):
        PolyComplex(rank, cells)


@pytest.mark.parametrize("name", sorted(PAIRED_REFUSALS))
def test_paired_families_keep_their_refusals(name):
    if name in INVALID_FANS:
        members = [Cone(2, rays) for rays in INVALID_FANS[name]]
        closure = lambda: Fan(2, members)                    # noqa: E731
    else:
        raw = INVALID_COMPLEXES[name]
        rank = len(raw[0][0][0])
        members = [Polyhedron(rank, vs, rs) for vs, rs in raw]
        closure = lambda: PolyComplex(rank, members)         # noqa: E731
    with pytest.raises(NotAComplex) as refusal:
        closure()
    assert str(refusal.value) == _refusal_text(name)


def test_triangle_on_a_square_facet_is_rejected_by_both():
    """A tetrahedron on three corners of a square pyramid's base: the facet
    plane z = 1 holds all the common vertices, but they span a face of the
    tetrahedron only, so both sides' generators on it must be checked."""
    pyramid = Polyhedron(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 0)])
    tetrahedron = Polyhedron(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 0, 2)])
    for cells in ([pyramid, tetrahedron], [tetrahedron, pyramid]):
        with pytest.raises(NotAComplex):
            route_oracle.close_and_validate(cells, "complex")
        with pytest.raises(NotAComplex):
            PolyComplex(3, cells)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.sampled_from(sorted(INVALID_FANS)), st.integers(-2, 2), st.booleans())
def test_invalid_fans_rejected_by_both(name, shear, flip):
    f = _lattice_map(2, shear, -1 if flip else 1, (0, 0))
    cones = [Cone(2, [f(r, True) for r in rays]) for rays in INVALID_FANS[name]]
    with pytest.raises(NotAComplex):
        route_oracle.close_and_validate(cones, "fan")
    with pytest.raises(NotAComplex):
        Fan(2, cones)


# ---------------------------------------------------------------------------
# complexes by construction pass the all-pairs test
# ---------------------------------------------------------------------------


def _assert_valid_as_built(pc, oracle):
    """The complex built without validation has the members and maximal
    members of the old route, which ran the all-pairs test on them."""
    cells, maximal = oracle
    assert _keys(pc.cells) == _keys(cells) and pc.maximal == maximal


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.lists(st.integers(0, 50), max_size=2),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 2)))
def test_star_subdivision_of_refined_f3c_is_a_complex(choices, point):
    pc = route_oracle.refined_f3c(choices)
    x = (Q(point[0], point[2]), Q(point[1], point[2]))
    _assert_valid_as_built(star_subdivision(pc, point=x),
                           route_oracle.star_subdivision(pc, x))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.sampled_from(["F1", "F2", "F5", "F6"]), st.integers(-9, 9), st.integers(1, 4))
def test_star_subdivision_in_rank_one_is_a_complex(name, num, den):
    pc = FIXTURES[name]
    x = (Q(num, den),)
    _assert_valid_as_built(star_subdivision(pc, point=x),
                           route_oracle.star_subdivision(pc, x))


@settings(derandomize=True, max_examples=4, deadline=None)
@given(st.lists(st.integers(0, 50), max_size=2), st.lists(st.integers(0, 50), max_size=2))
def test_common_refinement_of_refined_f3c_is_a_complex(first, second):
    pc1, pc2 = route_oracle.refined_f3c(first), route_oracle.refined_f3c(second)
    _assert_valid_as_built(common_refinement(pc1, pc2),
                           route_oracle.common_refinement(pc1, pc2))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1, max_size=3, unique=True),
       st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1, max_size=3, unique=True))
def test_common_refinement_in_rank_one_is_a_complex(first, second):
    def line(points):
        pts = sorted(points)
        cells = [Polyhedron(1, [(pts[0],)], [(-1,)]), Polyhedron(1, [(pts[-1],)], [(1,)])]
        cells += [Polyhedron(1, [(a,), (b,)]) for a, b in zip(pts, pts[1:])]
        return PolyComplex(1, cells)
    pc1, pc2 = line(first), line(second)
    _assert_valid_as_built(common_refinement(pc1, pc2),
                           route_oracle.common_refinement(pc1, pc2))


@settings(derandomize=True, max_examples=5, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=4))
def test_refines_reads_the_cell_map_off_the_fan_map(choices):
    chain = [route_oracle.refined_f3c(choices[:k]) for k in range(len(choices) + 1)]
    for i, finer in enumerate(chain):
        for coarser in chain[:i + 1]:
            m = refines(finer, coarser)
            assert m is not None
            assert m.cell_map == route_oracle.refinement_cell_map(finer, coarser)
            assert all(route_oracle.contains_poly(coarser.cells[m.cell_map[j]], finer.cells[j])
                       for j in finer.maximal)


@settings(derandomize=True, max_examples=4, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=4))
def test_certified_meets_are_the_intersections_on_refined_f3c(choices):
    """Every pair of maximal cells that a facet settles meets in the
    certified face, by the subset oracle's intersection; every pair the
    earlier certificate settled is settled, and some that it did not settle
    are."""
    pc = route_oracle.refined_f3c(choices)
    newly = 0
    for p, q in itertools.combinations(pc.max_cells(), 2):
        got, before = _meet_certified(p, q), route_oracle.meet_certified(p, q)
        if got is None:
            assert not before
            continue
        meet = route_oracle.intersect(2, route_oracle.polyhedron(2, p.vertices, p.rays),
                                      route_oracle.polyhedron(2, q.vertices, q.rays))
        assert got == (((), ()) if meet is None else meet[2:])
        newly += not before
    assert newly


# ---------------------------------------------------------------------------
# covering by facet pairing and faces by masks, against volumes and dot
# products
# ---------------------------------------------------------------------------


def _face_verdicts(p, q):
    """The mask verdict on p & q as a face of p and of q, each asserted
    equal to the dot-product one."""
    inter = p.intersect(q)
    if inter is None:
        return set()
    got = [_is_face(one, (inter.vertices, inter.rays)) for one in (p, q)]
    assert got == [route_oracle.is_face_of(inter, one) for one in (p, q)]
    return set(got)


def _assert_certificates_agree(models):
    """On every target cone of the maps between the models, the facet-pairing
    verdict equals the volume verdict with all the parts inside it and with
    each one dropped; on every pair of maximal cells of each model, the face
    verdicts agree."""
    covers = set()
    for j, coarser in enumerate(models):
        for finer in models[j + 1:]:
            fm = refines(finer, coarser).fan_map
            src, rank = fm.source.max_cones(), fm.target.rank
            for t, sigma in enumerate(fm.target.max_cones()):
                parts = [c for c, u in zip(src, fm.max_map) if u == t]
                for some in [parts] + [parts[:k] + parts[k + 1:] for k in range(len(parts))]:
                    got = _facets_paired(some, rank, sigma)
                    assert got == route_oracle.check_covers_by_volume(sigma, some, rank)
                    covers.add(got)
    assert covers == {True, False}
    for pc in models:
        for p, q in itertools.combinations(pc.max_cells(), 2):
            assert _face_verdicts(p, q) <= {True}


@settings(derandomize=True, max_examples=4, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=3), route_oracle.rank_one_chains())
def test_facet_pairing_and_face_masks_match_volumes_and_dot_products(choices, chain):
    _assert_certificates_agree([route_oracle.refined_f3c(choices[:k])
                                for k in range(len(choices) + 1)])
    _assert_certificates_agree(chain.models)


def test_face_masks_match_dot_products_on_invalid_complexes():
    verdicts = set()
    for raw in INVALID_COMPLEXES.values():
        cells = [Polyhedron(len(raw[0][0][0]), vs, rs) for vs, rs in raw]
        for p, q in itertools.combinations(cells, 2):
            verdicts |= _face_verdicts(p, q)
    assert verdicts == {True, False}
