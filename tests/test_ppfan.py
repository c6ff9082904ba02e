import functools
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import route_oracle
from ppchow import io as pio
from ppchow.errors import DegreeMismatch, FaceMismatch, NotARay, NotRegular
from ppchow.fixtures import (all_fixture_models, f1_complex, f1_fan,
                             f2_complex, f3_complex, f3_fan, f5_complex)
from ppchow.polyhedra import (Cone, Fan, PolyComplex, cone_over, recession_fan,
                              refines, vertex_chart)
from ppchow.polyring import HomogPoly
from ppchow.ppfan import (PPFunction, constant_pp, equivariant_degree,
                          graded_basis, phi_cone, phi_ray, pullback,
                          pushforward)
from ppchow.specialfiber import (dim_affine_pp, edge_layer_basis,
                                 edge_star_basis, flat_vertex,
                                 gamma_image_matrix, homology_presentation,
                                 vertex_layer_basis)


def lin(*coeffs):
    return HomogPoly.linear_form(coeffs)


def test_pp_function_examples():
    fan = f1_fan()
    # on F1, fan order is (negative ray, positive ray)
    PPFunction(fan, 1, [HomogPoly.zero(1, 1), lin(1)])
    with pytest.raises(DegreeMismatch):
        PPFunction(fan, 1, [HomogPoly.constant(1, 1), lin(1)])
    co = cone_over(f2_complex())
    # cones sorted: <(-1,0),(0,1)>, <(0,1),(1,1)>, <(1,0),(1,1)>
    PPFunction(co.fan, 1, [lin(0, 1), lin(-1, 1), HomogPoly.zero(2, 1)])
    bad = [lin(0, 1), lin(1, 0), HomogPoly.zero(2, 1)]
    with pytest.raises(FaceMismatch) as info:
        PPFunction(co.fan, 1, bad)
    # one search for both carriers, against the validator it replaced
    f = PPFunction(co.fan, 1, bad, validate=False)
    witness = route_oracle.pp_offending_pair(f)
    assert repr(info.value.witness) == repr(f.offending_pair()) == repr(witness)
    assert str(info.value) == f"pieces on cones {witness[0]} and {witness[1]} disagree " \
        f"on their common face {witness[2]!r}"


def test_phi_ray_examples():
    fan = f1_fan()
    f = phi_ray(fan, (1,))
    assert list(f.pieces) == [HomogPoly.zero(1, 1), lin(1)]
    co = cone_over(f2_complex())
    pr = phi_ray(co.fan, (0, 1))
    by_cone = {co.fan.cones[i].rays: p for i, p in zip(co.fan.maximal, pr.pieces)}
    assert by_cone[((Q(0), Q(1)), (Q(1), Q(1)))] == lin(-1, 1)
    assert by_cone[((Q(-1), Q(0)), (Q(0), Q(1)))] == lin(0, 1)
    assert by_cone[((Q(1), Q(0)), (Q(1), Q(1)))].is_zero()
    pr2 = phi_ray(co.fan, (1, 1))
    by_cone = {co.fan.cones[i].rays: p for i, p in zip(co.fan.maximal, pr2.pieces)}
    assert by_cone[((Q(0), Q(1)), (Q(1), Q(1)))] == lin(1, 0)
    assert by_cone[((Q(1), Q(0)), (Q(1), Q(1)))] == lin(0, 1)
    with pytest.raises(NotARay):
        phi_ray(co.fan, (1, 2))
    irregular = __import__("ppchow.polyhedra", fromlist=["Fan"]).Fan(
        2, [Cone(2, [(1, 0), (1, 2)])])
    with pytest.raises(NotRegular):
        phi_ray(irregular, (1, 0))


def test_phi_cone_examples():
    fan = f1_fan()
    assert phi_cone(fan, Cone(1, [])) == constant_pp(fan, 1)
    assert phi_cone(fan, Cone(1, [(1,)])) == phi_ray(fan, (1,))
    co = cone_over(f2_complex())
    prod = phi_ray(co.fan, (0, 1)) * phi_ray(co.fan, (1, 1))
    assert prod == phi_cone(co.fan, Cone(2, [(0, 1), (1, 1)]))


def test_ring_ops():
    fan = f1_fan()
    plus, minus = phi_ray(fan, (1,)), phi_ray(fan, (-1,))
    assert (plus * minus).is_zero()
    assert plus + plus == plus.scale(2)


def test_graded_basis_dims():
    assert [len(graded_basis(f1_fan(), k)) for k in range(4)] == [1, 2, 2, 2]
    dims = [len(graded_basis(f3_fan(), k)) for k in range(4)]
    # Hilbert series (1 + t + t^2) / (1 - t)^2
    series = []
    for k in range(4):
        series.append(sum(max(k - j + 1, 0) for j in range(3)))
    assert dims == series == [1, 3, 6, 9]
    for pc in (f2_complex(), f3_complex()):
        assert len(graded_basis(cone_over(pc).fan, 0)) == 1


def test_pp_cone_basis_dimension_example():
    # 3 horizontal rays plus the vertical ray of the canonical plane model
    assert len(graded_basis(cone_over(f3_complex()).fan, 1)) == 4


def test_pullback_and_pushforward():
    F2, F1c = f2_complex(), f1_complex()
    m = refines(F2, F1c)
    fm = m.fan_map
    co2 = cone_over(F2)
    pr0 = phi_ray(co2.fan, (0, 1))
    pr1 = phi_ray(co2.fan, (1, 1))
    # identity pullback
    ident = refines(F2, F2).fan_map
    assert pullback(ident, pr0) == pr0
    # Prop-style pushforward branches
    assert pushforward(fm, pr1).is_zero()
    assert pushforward(fm, pr0) == phi_ray(fm.target, (0, 1))
    # pullback is a ring map on sampled pairs
    for a in graded_basis(fm.target, 1):
        for b in graded_basis(fm.target, 1):
            assert pullback(fm, a * b) == pullback(fm, a) * pullback(fm, b)
    # birational projection: push after pull is the identity
    for k in range(3):
        for b in graded_basis(fm.target, k):
            assert pushforward(fm, pullback(fm, b)) == b
    # projection formula
    for x in graded_basis(fm.target, 1):
        for y in graded_basis(fm.source, 1):
            assert pushforward(fm, pullback(fm, x) * y) == x * pushforward(fm, y)


def test_functoriality_tower():
    F1c, F2, F5 = f1_complex(), f2_complex(), f5_complex()
    m52, m21, m51 = refines(F5, F2), refines(F2, F1c), refines(F5, F1c)
    for b in graded_basis(m21.fan_map.target, 2):
        assert pullback(m52.fan_map, pullback(m21.fan_map, b)) == \
            pullback(m51.fan_map, b)
    for b in graded_basis(m52.fan_map.source, 2):
        assert pushforward(m21.fan_map, pushforward(m52.fan_map, b)) == \
            pushforward(m51.fan_map, b)


def test_degree_examples():
    fan = f1_fan()
    assert equivariant_degree(fan, phi_ray(fan, (1,))) == HomogPoly.constant(1, 1)
    assert equivariant_degree(fan, constant_pp(fan, 1)).is_zero()
    f3 = f3_fan()
    for c in f3.max_cones():
        assert equivariant_degree(f3, phi_cone(f3, c)) == HomogPoly.constant(2, 1)


def test_outputs_pass_validation():
    co = cone_over(f2_complex())
    for f in (phi_ray(co.fan, (0, 1)), phi_ray(co.fan, (1, 1)),
              phi_ray(co.fan, (0, 1)) * phi_ray(co.fan, (1, 1))):
        assert f.offending_pair() is None


def test_basis_dims_refinement_monotone():
    from ppchow.qlinalg import mat, rank
    from ppchow.polyring import monomial_exponents
    F2, F5 = f2_complex(), f5_complex()
    m = refines(F5, F2)
    for k in range(3):
        basis = graded_basis(cone_over(F2).fan, k)
        monos = monomial_exponents(2, k)
        flat = []
        for b in basis:
            pb = pullback(m.fan_map, b)
            flat.append([p.coeffs.get(e, 0) for p in pb.pieces for e in monos])
        if flat:
            assert rank(mat(flat)) == len(basis)
        assert len(graded_basis(cone_over(F5).fan, k)) >= len(basis)


# ---------------------------------------------------------------------------
# bases from face combinatorics against the all-pairs intersection oracle
# ---------------------------------------------------------------------------


def _outputs(pc, degrees):
    """Serialised bases on c(Pi), rec(Pi) and every vertex chart, affine
    bases, edge-star bases and homology presentations."""
    fans = [cone_over(pc).fan] + [vertex_chart(pc, v).fan for v in pc.vertices]
    if pc.is_complete():
        fans.append(recession_fan(pc))
    out = {"pp": [[pio.pp_to_json(b) for b in graded_basis(fan, k)]
                  for fan in fans for k in degrees]}
    out["affine"] = [[pio.affine_to_json(a) for a in dim_affine_pp(pc, k)[1]]
                     for k in degrees]
    out["edge"] = [[et.entries for et in edge_layer_basis(pc, k)] for k in degrees]
    out["homology"] = []
    for k in degrees:
        hp = homology_presentation(pc, k)
        reps = [flat_vertex(c.tuple) for c in hp["basis"]]
        out["homology"].append((hp["dim"], hp["vertex_dim"], hp["gamma_rank"], reps))
    return out


def _assert_same_outputs(pc, degrees):
    new = _outputs(pc, degrees)
    with pytest.MonkeyPatch.context() as mp:
        route_oracle.install(mp)
        old = _outputs(PolyComplex(pc.rank, pc.max_cells(), validate=False), degrees)
    assert new == old
    # the representatives are the ones a rank test per candidate picks
    for k in degrees:
        flat = [flat_vertex(b) for b in vertex_layer_basis(pc, k)]
        keep = route_oracle.homology_reps(flat, gamma_image_matrix(pc, k))
        assert [flat[i] for i in keep] == new["homology"][degrees.index(k)][3]


def test_bases_match_intersection_oracle_on_fixtures():
    models = list(all_fixture_models().values())
    models += [route_oracle.interval_model(lo, hi) for lo, hi in ((-1, 2), (-3, 4))]
    for pc in models:
        _assert_same_outputs(pc, [0, 1, 2] if pc.rank == 1 else [0, 1])


@settings(derandomize=True, max_examples=3, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=3))
def test_bases_match_intersection_oracle_on_refined_f3c(choices):
    _assert_same_outputs(route_oracle.refined_f3c(choices), [1])


# ---------------------------------------------------------------------------
# the one gluing solver against the per-basis assemblies it replaced
# ---------------------------------------------------------------------------


def _assert_gluing_matches_assemblies(pc, degrees):
    fans = [cone_over(pc).fan] + [vertex_chart(pc, v).fan for v in pc.vertices]
    if pc.is_complete():
        fans.append(recession_fan(pc))
    for k in degrees:
        for fan in fans:
            new, old = graded_basis(fan, k), route_oracle.graded_basis(fan, k)
            assert new == old
            assert [pio.pp_to_json(f) for f in new] == [pio.pp_to_json(f) for f in old]
        new, old = dim_affine_pp(pc, k)[1], route_oracle.affine_basis(pc, k)
        assert new == old
        assert [pio.affine_to_json(a) for a in new] == [pio.affine_to_json(a) for a in old]
        for e in pc.bounded_edges:
            new, old = edge_star_basis(pc, e, k), route_oracle.edge_star_basis(pc, e, k)
            assert [et.entries for et in new] == [et.entries for et in old]


def test_gluing_kernel_matches_assemblies_on_fixtures():
    models = list(all_fixture_models().values())
    models += [route_oracle.interval_model(lo, hi) for lo, hi in ((-1, 2), (-3, 4))]
    for pc in models:
        _assert_gluing_matches_assemblies(pc, [0, 1, 2])


@settings(derandomize=True, max_examples=3, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=3))
def test_gluing_kernel_matches_assemblies_on_refined_f3c(choices):
    _assert_gluing_matches_assemblies(route_oracle.refined_f3c(choices), [1, 2])


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _counterclockwise(u, v):
    """Order by angle in [0, 2 pi): upper half-plane first, then by the
    sign of the cross product."""
    def half(w):
        return 0 if w[1] > 0 or (w[1] == 0 and w[0] > 0) else 1
    return half(u) - half(v) or (-1 if _cross(u, v) > 0 else 1)


_PRIMITIVE = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda w: gcd(*w) == 1)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.lists(_PRIMITIVE, min_size=3, max_size=7, unique=True))
def test_pp_dimensions_of_complete_rank_two_fans_follow_the_hilbert_series(rays):
    """r rays in counterclockwise order, each cyclically consecutive pair
    less than pi apart, span a complete simplicial fan, unimodular or not.
    Its h-vector is (1, r - 2, 1), so the Hilbert series of PP is
    (1 + (r - 2) t + t^2) / (1 - t)^2 (Billera 1989; Brion 1996): dim PP^0
    is 1 and dim PP^k is (k + 1) + (r - 2) k + (k - 1) = r k for k >= 1."""
    rays.sort(key=functools.cmp_to_key(_counterclockwise))
    r = len(rays)
    pairs = [(rays[i], rays[(i + 1) % r]) for i in range(r)]
    assume(all(_cross(u, v) > 0 for u, v in pairs))
    fan = Fan(2, [Cone(2, list(pair)) for pair in pairs])
    assert [len(graded_basis(fan, k)) for k in range(4)] == [1, r, 2 * r, 3 * r]
