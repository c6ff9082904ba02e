"""Cones read off the fan, against the containment routes they replaced.

ppchow decides, in a subdivision map, a source ray that is a ray of the
target fan by membership in the target cone's rays, takes as the cofaces of
sigma in an eigenfunction divisor the cones whose rays include sigma's, and
reads a cycle term's cone and the cone of c(Pi) above a recession cone off
the fan by key.  On drawn refinements of F3C and rank-one chains, the fan
map of every ordered pair of models, and of their charts at common vertices,
must be the containment scan's, or None alike; each divisor must have the
terms of the two-branch ``route_oracle.eigen_divisor``, in order; the
generators and cones above recession cones must be the fans' own members,
and a key that no member has must give what a ``Cone`` built from it gives.
Once a chain's fans exist, ``div_nu`` and ``theta`` build no polyhedron.
"""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import route_oracle
from ppchow import cycles
from ppchow.arithchow import div_nu, eigen_divisor, horizontal_cone_in_model, theta
from ppchow.cycles import InvariantCycle, horizontal_lift_key
from ppchow.errors import PPChowError
from ppchow.limits import ModelChain
from ppchow.polyhedra import (Cone, FanMap, Polyhedron, cone_over, recession_fan,
                              vertex_chart)
from ppchow.ppfan import phi_cone
from ppchow.qlinalg import kernel_basis, mat, vadd

_CHOICES = st.lists(st.integers(0, 50), min_size=1, max_size=2)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the routes must fail alike
        return "raised", type(exc), str(exc)


def _f3c_chain(choices):
    return ModelChain([route_oracle.refined_f3c(choices[:k]) for k in range(len(choices) + 1)])


def _chains():
    return st.one_of(route_oracle.rank_one_chains(), _CHOICES.map(_f3c_chain))


def _assert_same_map(source, target):
    fm = FanMap.from_subdivision(source, target)
    assert (None if fm is None else fm.max_map) == \
        route_oracle.subdivision_max_map(source, target)
    return fm is not None


@settings(derandomize=True, max_examples=6, deadline=None)
@given(_chains())
def test_subdivision_maps_match_the_containment_scan(chain):
    refinements = 0
    for a, b in itertools.product(chain.models, repeat=2):
        refinements += _assert_same_map(cone_over(a).fan, cone_over(b).fan)
        for v in set(a.vertices) & set(b.vertices):
            _assert_same_map(vertex_chart(a, v).fan, vertex_chart(b, v).fan)
    # every model refines itself and the coarser ones, and no finer one
    assert refinements == len(chain) * (len(chain) + 1) // 2


def _weight(draw, sigma, rank):
    """A nonzero integer combination of a basis of sigma's orthogonal
    complement, or None when sigma spans the space."""
    comp = kernel_basis(mat(sigma.rays)) if sigma.rays else \
        [tuple(Q(int(i == j)) for j in range(rank)) for i in range(rank)]
    if not comp:
        return None
    coeffs = draw(st.lists(st.sampled_from((-2, -1, 1, 2)), min_size=len(comp),
                           max_size=len(comp)))
    return tuple(sum(c * u[i] for c, u in zip(coeffs, comp)) for i in range(rank))


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.data())
def test_eigen_divisors_match_the_coface_scan(data):
    pc = data.draw(_chains()).models[-1]
    for fan in (cone_over(pc).fan, recession_fan(pc)):
        for member in fan.cones:
            sigma = Cone(fan.rank, list(member.rays))
            weight = _weight(data.draw, sigma, fan.rank)
            if weight is None:
                continue
            got = eigen_divisor(fan, sigma, weight)
            want = route_oracle.eigen_divisor(fan, sigma, weight)
            assert got.codim == want.codim
            assert list(got.terms.items()) == list(want.terms.items())


def _non_member_keys(fan):
    """Keys of as many rays as a member has that no member has: rays of the
    fan that span no cone, and the sum of two rays of a cone, no ray."""
    rays = [c.rays[0] for c in fan.cones if c.dim == 1]
    cones = {frozenset(c.rays) for c in fan.cones}
    keys = [k for size in (2, 3) for k in itertools.combinations(rays, size)
            if frozenset(k) not in cones]
    return keys + [(vadd(*c.rays[:2]),) for c in fan.cones if c.dim == 2]


def _built(fan, key):
    f = phi_cone(fan, Cone(fan.rank, list(key)))
    return f.degree, f.pieces


@settings(derandomize=True, max_examples=6, deadline=None)
@given(_chains())
def test_generators_and_horizontal_cones_are_the_fans_members(chain):
    pc = chain.models[-1]
    fan = cone_over(pc).fan
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "phi_cone", lambda f, cone: seen.append(cone) or phi_cone(f, cone))
        for member in fan.cones:
            del seen[:]
            assert cycles._generator(fan, member.rays) == _built(fan, member.rays)
            assert seen[0] is member
    for key in _non_member_keys(fan):
        assert fan.index(key) is None
        assert _outcome(cycles._generator, fan, key) == _outcome(_built, fan, key)
    for sigma in recession_fan(pc).cones:
        cone = horizontal_cone_in_model(pc, Cone(pc.rank, list(sigma.rays)))
        assert cone is fan.cones[fan.index(horizontal_lift_key(sigma.rays))]


@settings(derandomize=True, max_examples=4, deadline=None)
@given(route_oracle.rank_one_chains())
def test_div_nu_and_theta_build_no_polyhedron_once_the_fans_exist(chain):
    for pc in chain.models:
        cone_over(pc), recession_fan(pc)
    fan = cone_over(chain.models[0]).fan
    cycle = InvariantCycle(2, 1, {c.rays: k for k, c in enumerate(fan.cones, 1)
                                  if c.dim == 1})
    apex, builds = Cone(1, []), []
    init = Polyhedron.__init__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polyhedron, "__init__",
                   lambda self, *args: builds.append(args) or init(self, *args))
        div_nu(chain, apex, (1,))
        try:
            theta(chain, 0, cycle)
        except PPChowError:   # theta next to a component of multiplicity 2
            pass
    assert builds == []
