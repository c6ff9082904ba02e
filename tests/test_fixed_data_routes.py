"""Solves and pushforwards on data kept once, against the per-call routes.

ppchow eliminates each transfer system once, as [A | I], and reads every
solve off that elimination; the solution must be the one ``qlinalg.solve``
gives on the system's matrix, or None alike, on drawn rational systems that
are consistent, inconsistent, zero, wide, a single row or of deficient rank.
The pushforward keeps, per fan map and split target cone, the lcm of the
localization denominators and one multiplier per source cone; on drawn maps
of rank-one chains and refinements of F3C it must give the results of the
per-call ``RatFun`` route in ``route_oracle``, or raise the same error with
the same remainder.  Both run a first pass and a second, cached, pass.
"""

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

import route_oracle
from ppchow import ppfan
from ppchow.limits import ModelChain
from ppchow.polyhedra import cone_over
from ppchow.polyring import HomogPoly, monomial_exponents
from ppchow.ppfan import PPFunction, _preimage, _system, graded_basis, zero_pp
from ppchow.qlinalg import mat, mat_vec, solve, transpose

SHAPES = ("consistent", "inconsistent", "zero", "wide", "single_row", "rank_deficient")
_RATS = st.sampled_from(sorted({Q(a, b) for a in range(-3, 4) for b in (1, 2, 3)}))


@st.composite
def _columns(draw):
    """(shape, the columns of a system): an inconsistent system's last
    coordinate is zero in every column, and a rank-deficient one's columns
    after the first few are integer combinations of those."""
    shape = draw(st.sampled_from(SHAPES))
    m = 1 if shape == "single_row" else draw(st.integers(2, 4))
    n = m + draw(st.integers(1, 2)) if shape == "wide" else draw(st.integers(1, m))
    drawn = m - 1 if shape == "inconsistent" else m
    cols = [draw(st.lists(_RATS, min_size=drawn, max_size=drawn)) + [Q(0)] * (m - drawn)
            for _ in range(n)]
    if shape == "zero":
        cols = [[Q(0)] * m for _ in range(n)]
    if shape == "rank_deficient":
        free = draw(st.integers(0, n - 1))
        for j in range(free, n):
            weights = draw(st.lists(st.integers(-2, 2), min_size=free, max_size=free))
            cols[j] = [sum((w * c[i] for w, c in zip(weights, cols)), Q(0)) for i in range(m)]
    return shape, cols


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_columns(), st.data())
def test_a_kept_elimination_solves_as_solve_does(system, data):
    shape, cols = system
    m, A = len(cols[0]), transpose(mat(cols))
    x = data.draw(st.lists(_RATS, min_size=len(cols), max_size=len(cols)))
    targets = [mat_vec(A, x), data.draw(st.lists(_RATS, min_size=m, max_size=m)),
               [0] * m, [0] * (m - 1) + [1]]
    kept = _system(cols, lambda c: c)
    expected = [solve(A, b) for b in targets]
    assert expected[0] is not None and expected[2] == (Q(0),) * len(cols)
    if shape == "inconsistent":
        assert expected[3] is None
    for order in (targets, targets[::-1]):
        got = [_preimage(kept, b) for b in order]
        assert all(basis is cols for basis, _ in got)
        assert [sol for _, sol in got] == [solve(A, b) for b in order]


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the routes must fail alike, with one witness
        return "raised", type(exc), str(exc), getattr(exc, "remainder", None)


def _function(draw, fan):
    """A PP function of a drawn degree, or pieces drawn apart that need not
    glue, so that a split cone's sum may leave a remainder."""
    k = draw(st.integers(0, 2))
    if draw(st.booleans()):
        basis = graded_basis(fan, k)
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
        return zero_pp(fan, k).combine(basis, coeffs)
    monos = monomial_exponents(fan.rank, k)
    pieces = [HomogPoly(fan.rank, k, dict(zip(monos, draw(st.lists(
        st.integers(-2, 2), min_size=len(monos), max_size=len(monos)))))) for _ in fan.maximal]
    return PPFunction(fan, k, pieces, validate=False)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.data())
def test_pushforward_matches_the_per_call_localization(data):
    draw = data.draw
    if draw(st.booleans()):
        chain = draw(route_oracle.rank_one_chains())
    else:
        choices = draw(st.lists(st.integers(0, 20), min_size=1, max_size=2))
        chain = ModelChain([route_oracle.refined_f3c(choices[:i])
                            for i in range(len(choices) + 1)])
    calls = []
    for _ in range(draw(st.integers(2, 5))):
        fine = draw(st.integers(1, len(chain) - 1))
        m = chain.map_between(fine, draw(st.integers(0, fine - 1)))
        calls.append((m.fan_map, _function(draw, cone_over(m.source).fan)))
    got = [_outcome(ppfan.pushforward, *call) for call in calls]
    assert [_outcome(ppfan.pushforward, *call) for call in calls] == got
    assert [_outcome(route_oracle.ratfun_pushforward, *call) for call in calls] == got
    # the kept data holds ints and polynomials, nothing that reaches a model
    for fan_map, _ in calls:
        for t in range(len(fan_map.target.maximal)):
            factors, multipliers = ppfan._localization(fan_map, t)
            assert all(type(f) is HomogPoly and type(k) is int for f, k in factors)
            assert all(type(p) is HomogPoly for p in multipliers)
