"""Gluing on cached vanishing conditions, against restriction on every call.

ppchow keeps, on each distinct span of the adjacency of a fan or a complex,
the rows of the conditions for a polynomial to vanish on it, per (dimension,
degree); ``gluing_kernel`` and ``equal_on_span`` read them.  On drawn
polynomials and spans, and on the gluing systems of every fan, complex,
vertex chart and edge star of the fixture models, of drawn refinements of
F3C and of rank-one chains, both must give what the routes in
``route_oracle`` give by restricting on every call, on a first and on a
second, cached, pass over the same span objects.
"""

import itertools
import random
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

import route_oracle
from ppchow.fixtures import all_fixture_models
from ppchow.polyhedra import cone_over, recession_fan, vertex_chart
from ppchow.polyring import HomogPoly, Span, equal_on_span, gluing_kernel, monomial_exponents
from ppchow.qlinalg import kernel_basis, mat, span_basis


def _rational(rng, size):
    return Q(rng.randint(-size, size), rng.choice((1, 1, 2, 3, 4)))


def _poly(rng, dim, k):
    return HomogPoly(dim, k, {e: _rational(rng, 3) for e in monomial_exponents(dim, k)})


def _vanishing(rng, span, dim, k):
    """A degree-k polynomial vanishing on the span: a combination of the
    linear forms that vanish there, with random degree k - 1 cofactors."""
    out = HomogPoly.zero(dim, k)
    if k == 0:
        return out
    forms = kernel_basis(mat(span)) if span else [
        tuple(Q(int(i == j)) for j in range(dim)) for i in range(dim)]
    for form in forms:
        out = out + HomogPoly.linear_form(form) * _poly(rng, dim, k - 1)
    return out


def _spans(rng):
    """(dimension, spanning vectors) in dimensions 1-3: one empty Span shared
    by every dimension, a random line, the RREF basis of two random vectors
    (fractional entries), the full space, and a dependent list that is no
    Span."""
    empty = Span(())
    out = []
    for dim in (1, 2, 3):
        def vector():
            return [_rational(rng, 2) for _ in range(dim)]
        line = span_basis([next(v for v in iter(vector, None) if any(v))])
        plane = span_basis([vector(), vector()])
        full = [tuple(Q(int(i == j)) for j in range(dim)) for i in range(dim)]
        dependent = [tuple(range(1, dim + 1)), tuple(range(2, 2 * dim + 2, 2))]
        out += [(dim, empty), (dim, Span(tuple(line))), (dim, Span(tuple(plane))),
                (dim, Span(tuple(full))), (dim, dependent)]
    return out


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_equal_on_span_matches_restriction_on_every_call(seed):
    """p against itself, against p plus a polynomial vanishing on the span,
    and against an independent polynomial, in degrees 0-3."""
    rng = random.Random(seed)
    cases = []
    for dim, span in _spans(rng):
        for k in range(4):
            p = _poly(rng, dim, k)
            for q in (p, p + _vanishing(rng, span, dim, k), _poly(rng, dim, k)):
                cases.append((p, q, span, route_oracle.equal_on_span(p, q, span)))
    assert any(want for *_, want in cases) and not all(want for *_, want in cases)
    for _ in range(2):
        assert [equal_on_span(p, q, span) for p, q, span, _ in cases] == [
            want for *_, want in cases]


def _systems(pc):
    """(pairs, blocks, dimension) of every gluing system on the model: the
    fans over it and at its vertices, its recession fan when it is
    complete, the model itself and the star of each bounded edge, on every
    pair of the star's cells."""
    fans = [cone_over(pc).fan] + [vertex_chart(pc, v).fan for v in pc.vertices]
    if pc.is_complete():
        fans.append(recession_fan(pc))
    out = [([(p, q, span) for p, q, span, _ in c.adjacency()], len(c.maximal), c.rank)
           for c in fans + [pc]]
    spans = {(i, j): span for i, j, span, _ in route_oracle.cell_adjacency(pc)}
    for e in pc.bounded_edges:
        cells = route_oracle._edge_star(pc, e).cells
        out.append(([(a, b, spans[cells[a], cells[b]])
                     for a, b in itertools.combinations(range(len(cells)), 2)],
                    len(cells), pc.rank))
    return out


def _coefficients(basis):
    return [[list(p.coeffs.items()) for p in polys] for polys in basis]


def _assert_kernels_match(models, degrees=range(4)):
    systems = [s for pc in models for s in _systems(pc)]
    calls = [(s, k) for s in systems for k in degrees]
    want = [_coefficients(route_oracle.gluing_kernel(*s, k)) for s, k in calls]
    for _ in range(2):
        assert [_coefficients(gluing_kernel(*s, k)) for s, k in calls] == want


def test_gluing_kernel_matches_restriction_on_every_call_on_fixtures():
    _assert_kernels_match(all_fixture_models().values())


@settings(derandomize=True, max_examples=4, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=3))
def test_gluing_kernel_matches_restriction_on_every_call_on_refined_f3c(choices):
    _assert_kernels_match([route_oracle.refined_f3c(choices)])


@settings(derandomize=True, max_examples=6, deadline=None)
@given(route_oracle.rank_one_chains())
def test_gluing_kernel_matches_restriction_on_every_call_on_rank_one_chains(chain):
    _assert_kernels_match(chain.models)
