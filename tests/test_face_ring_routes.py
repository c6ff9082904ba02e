"""Graded bases from the face ring, against the gluing system.

On a fan whose maximal cones are full-dimensional and simplicial,
``graded_basis`` builds the products of Courant functions over each cone
and eliminates them once with the columns reversed; any other fan solves its
gluing system.  On c(Pi), every vertex chart and the recession fan of drawn
refinements of F3C, of rank-one chains and of F3C subdivided at a
half-integral point, and on random complete rank-two fans, the bases must be
the ones the gluing route in ``route_oracle`` gives, coefficient for
coefficient, on a first and on a second, cached, pass.  Fans that are not
simplicial must take the gluing route, and a dependent face monomial must
be refused.
"""

import functools
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

import route_oracle
from test_ppfan import _PRIMITIVE, _counterclockwise, _cross
from ppchow import ppfan
from ppchow.errors import InternalIdentityError
from ppchow.fixtures import f3_complex, f3_fan
from ppchow.polyhedra import (Cone, Fan, PolyComplex, Polyhedron, cone_over, recession_fan,
                              star_subdivision, vertex_chart)
from ppchow.ppfan import graded_basis


def _fans(pc):
    fans = [cone_over(pc).fan] + [vertex_chart(pc, v).fan for v in pc.vertices]
    return fans + [recession_fan(pc)] if pc.is_complete() else fans


def _coefficients(basis):
    return [[list(p.coeffs.items()) for p in f.pieces] for f in basis]


def _assert_routes_agree(fans, degrees=range(4)):
    want = [_coefficients(route_oracle.gluing_graded_basis(fan, k))
            for fan in fans for k in degrees]
    for _ in range(2):
        assert [_coefficients(graded_basis(fan, k)) for fan in fans for k in degrees] == want


@settings(derandomize=True, max_examples=3, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=2))
def test_face_ring_matches_gluing_on_refined_f3c(choices):
    _assert_routes_agree(_fans(route_oracle.refined_f3c(choices)), range(3))


@settings(derandomize=True, max_examples=4, deadline=None)
@given(route_oracle.rank_one_chains())
def test_face_ring_matches_gluing_on_rank_one_chains(chain):
    _assert_routes_agree([fan for pc in chain.models for fan in _fans(pc)])


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.lists(_PRIMITIVE, min_size=3, max_size=7, unique=True))
def test_face_ring_matches_gluing_on_complete_rank_two_fans(rays):
    rays.sort(key=functools.cmp_to_key(_counterclockwise))
    pairs = [(rays[i], rays[(i + 1) % len(rays)]) for i in range(len(rays))]
    assume(all(_cross(u, v) > 0 for u, v in pairs))
    _assert_routes_agree([Fan(2, [Cone(2, list(pair)) for pair in pairs])])


def test_face_ring_matches_gluing_on_a_non_regular_chart():
    """F3C subdivided at (1, 0), (0, 1) and (1/2, 1/2): 9 cells, and the
    chart at (1/2, 1/2) is simplicial but not regular, so its dual forms
    have denominators."""
    pc = f3_complex()
    for point in ((1, 0), (0, 1), (Q(1, 2), Q(1, 2))):
        pc = star_subdivision(pc, point=point)
    assert len(pc.maximal) == 9
    assert not vertex_chart(pc, (Q(1, 2), Q(1, 2))).fan.is_regular()
    _assert_routes_agree(_fans(pc))


def _cube_fan():
    """The fan over the faces of [-1, 1]^3: six cones on four rays each."""
    cones = []
    for axis in range(3):
        for sign in (1, -1):
            rays = []
            for a in (1, -1):
                for b in (1, -1):
                    ray = [a, b]
                    ray.insert(axis, sign)
                    rays.append(tuple(ray))
            cones.append(Cone(3, rays))
    return Fan(3, cones)


def _two_squares_fan():
    """c(Pi) of two unit squares sharing an edge: two cones on four rays."""
    pc = PolyComplex(2, [Polyhedron(2, [(0, 0), (1, 0), (1, 1), (0, 1)]),
                         Polyhedron(2, [(1, 0), (2, 0), (2, 1), (1, 1)])])
    return cone_over(pc).fan


def test_fans_that_are_not_simplicial_solve_the_gluing_system(monkeypatch):
    def refused(fan, k):
        raise AssertionError("a fan that is not simplicial took the face-ring route")
    monkeypatch.setattr(ppfan, "_face_ring_basis", refused)
    for fan in (_cube_fan(), _two_squares_fan()):
        for k in range(3):
            want = route_oracle.graded_basis(fan, k)
            for _ in range(2):
                got = graded_basis(fan, k)
                assert got == want
                assert _coefficients(got) == _coefficients(want)


def test_a_dependent_face_monomial_is_refused(monkeypatch):
    build = ppfan._face_monomials

    def planted(fan, k, monos):
        rows = list(build(fan, k, monos))
        return rows + [[2 * x for x in rows[0]]]
    monkeypatch.setattr(ppfan, "_face_monomials", planted)
    with pytest.raises(InternalIdentityError):
        graded_basis(f3_fan(), 2)
