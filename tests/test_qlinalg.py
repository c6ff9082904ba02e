import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

import route_oracle
from ppchow.polyhedra import Cone, Fan, quotient_projection
from ppchow.qlinalg import (RowEchelon, _reduce, column_echelon, kernel_basis,
                            mat, mat_inverse, mat_vec, primitive, rank, rat,
                            rat_str, rref, solve, span_basis, transpose, vdot,
                            vec)
from route_oracle import integer_kernel_basis, rays_extend_to_basis, smith_normal_form


def test_rat_parsing():
    assert rat("3/4") == Q(3, 4)
    assert rat(5) == Q(5)
    assert rat_str(Q(3, 4)) == "3/4"
    assert rat_str(Q(4, 2)) == "2"
    # JSON true is no rational
    with pytest.raises(TypeError):
        rat(True)


def test_solve_identity_scaled():
    assert solve([[1]], [2]) == (Q(2),)


def test_solve_two_by_two():
    assert solve([[1, 1], [1, -1]], [0, 2]) == (Q(1), Q(-1))


def test_solve_random_by_substitution():
    rng = random.Random(0)
    for _ in range(5):
        while True:
            A = mat([[Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)]
                     for _ in range(6)])
            if route_oracle.fraction_det(A) != 0:
                break
        x_true = vec([rng.randint(-5, 5) for _ in range(6)])
        b = mat_vec(A, x_true)
        x = solve(A, b)
        assert mat_vec(A, x) == tuple(b)


def test_solve_inconsistent():
    assert solve([[1, 1], [1, 1]], [0, 1]) is None


def test_kernel_identity_and_rank_one():
    assert kernel_basis([[1, 0], [0, 1]]) == []
    basis = kernel_basis([[1, 1]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != (0, 0)


def test_kernel_of_rho_degree_one_on_f2_by_brute_force():
    # unknowns: slopes (a-, a+) at vertex 0 and (b-, b+) at vertex 1; the
    # single gluing constraint on the shared segment forces b- = a+
    A = [[0, 1, -1, 0]]
    assert len(kernel_basis(A)) == 3


def test_kernel_substitution():
    A = [[2, 3, 5], [1, -1, 0]]
    for v in kernel_basis(A):
        assert all(x == 0 for x in mat_vec(mat(A), v))


def test_snf_examples():
    _, D, _ = smith_normal_form([[2]])
    assert D[0][0] == 2
    _, D, _ = smith_normal_form([[1, 0], [0, 1]])
    assert D[0][0] == 1 and D[1][1] == 1
    U, D, V = smith_normal_form([[2, 4], [6, 8]])
    assert (D[0][0], D[1][1]) == (2, 4)


def test_snf_random_properties():
    rng = random.Random(1)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        U, D, V = smith_normal_form(A)
        assert all(route_oracle.fraction_det(M) in (1, -1) for M in (U, V))
        UA = [[sum(U[i][k] * A[k][j] for k in range(m)) for j in range(n)]
              for i in range(m)]
        UAV = [[sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)]
               for i in range(m)]
        assert all(UAV[i][j] == D[i][j] for i in range(m) for j in range(n))
        diag = [D[i][i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0


def test_primitive():
    assert primitive([Q(1, 2), Q(1)]) == (Q(1), Q(2))
    assert primitive([-2, -4]) == (Q(-1), Q(-2))


def test_lattice_and_kernel_helpers():
    ker = integer_kernel_basis([[1, -2]])
    assert len(ker) == 1 and ker[0][0] - 2 * ker[0][1] == 0
    assert rays_extend_to_basis([(1, 0)])
    assert rays_extend_to_basis([(1, 0), (1, 1)])
    assert not rays_extend_to_basis([(1, 0), (1, 2)])


# ---------------------------------------------------------------------------
# the integer elimination kernel against rational Gauss-Jordan elimination
# ---------------------------------------------------------------------------

_entries = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.builds(Q, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)),
)


@st.composite
def _matrices(draw, square=False):
    """Rational matrices up to 6 x 6 with mixed int and Fraction entries,
    some rows copied from others, zeroed or rescaled."""
    m = draw(st.integers(0, 6))
    n = m if square else draw(st.integers(0, 6))
    rows = [draw(st.lists(_entries, min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        scale = draw(st.sampled_from([0, 1, -2, Q(3, 7)]))
        rows[i] = [scale * x for x in rows[j]]
    return rows


_edge_cases = ([], [[]], [[], []], [[0, 0], [0, 0]], [[0, 3, Q(1, 2)]], [[2], [0], [-4]],
               [[1, 2], [1, 2]], [[Q(1, 10 ** 20), 1], [1, Q(10 ** 20, 3)]])


@pytest.mark.parametrize("A", [[[1, 2], [3]], [[3], [1, 2]]])
def test_ragged_rows_are_refused(A):
    for call in (rank, rref, kernel_basis, RowEchelon, lambda A: solve(A, [0, 0])):
        with pytest.raises(ValueError, match="ragged matrix"):
            call(A)
    # the first vector fixes the width, and a copy keeps it
    first, other = A
    for echelon in (RowEchelon([first]), RowEchelon([first]).copy()):
        for method in (echelon.extend, echelon.contains):
            with pytest.raises(ValueError, match="ragged matrix"):
                method(other)
    empty = RowEchelon([])
    assert not empty.contains(first)
    with pytest.raises(ValueError, match="ragged matrix"):
        empty.extend(other)


def _examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_matrices())
@_examples(_edge_cases)
def test_rref_matches_rational_elimination(A):
    rows, pivots = rref(A)
    assert (rows, pivots) == route_oracle.fraction_rref(A)
    assert all(type(x) is Q for row in rows for x in row)
    assert rank(A) == len(pivots)
    assert span_basis(A) == list(rows[:len(pivots)])
    echelon = RowEchelon(A[:1])
    assert [echelon.extend(r) for r in A[1:]] == [
        len(route_oracle.fraction_rref(A[:i + 1])[1]) > len(route_oracle.fraction_rref(A[:i])[1])
        for i in range(1, len(A))]
    # after every extend the rows, in pivot order and divided by their pivot
    # entries, are the RREF of the rows added so far; a copy extends alone
    echelon = RowEchelon([])
    for i, row in enumerate(A):
        before = [tuple(r) for r in echelon.rows], list(echelon.pivots)
        echelon.copy().extend(row)
        assert ([tuple(r) for r in echelon.rows], list(echelon.pivots)) == before
        echelon.extend(row)
        red, pivots = route_oracle.fraction_rref(A[:i + 1])
        pairs = sorted(zip(echelon.pivots, echelon.rows))
        assert [tuple(Q(x, r[c]) for x in r) for c, r in pairs] == list(red[:len(pivots)])
        assert tuple(c for c, _ in pairs) == pivots
    # the row-by-row elimination gives the column sweep's rows up to sign
    assert _positive(*_reduce(A)) == _positive(*route_oracle.integer_reduce(A))


def _positive(rows, pivots):
    """The rows scaled to a positive pivot entry, and the pivots."""
    return [[-x for x in r] if r[c] < 0 else list(r) for r, c in zip(rows, pivots)], list(pivots)


@st.composite
def _systems(draw):
    """A matrix, a vector x to make a consistent right-hand side A x, and a
    right-hand side c drawn freely."""
    A = draw(_matrices())
    n = len(A[0]) if A else 0
    return (A, draw(st.lists(_entries, min_size=n, max_size=n)),
            draw(st.lists(_entries, min_size=len(A), max_size=len(A))))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_systems())
@_examples([(A, [1] * len(A[0]), list(range(len(A)))) for A in _edge_cases if A and A[0]])
def test_kernel_and_solutions_satisfy_the_system(system):
    A, x, c = system
    kernel = kernel_basis(A)
    if A:
        assert kernel == route_oracle.fraction_kernel(A, len(x))
        assert all(mat_vec(mat(A), v) == (0,) * len(A) for v in kernel)
    b = mat_vec(mat(A), vec(x))
    assert mat_vec(mat(A), solve(A, b)) == b
    c = vec(c)
    y = solve(A, c)
    grows = len(route_oracle.fraction_rref([list(r) + [ci] for r, ci in zip(A, c)])[1]) \
        > len(route_oracle.fraction_rref(A)[1])
    assert (y is None) == grows
    if y is not None:
        assert mat_vec(mat(A), y) == c


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_matrices(square=True))
@_examples([[], [[0]], [[Q(1, 3)]], [[1, 2], [2, 4]], [[0, 1], [1, 0]],
            [[Q(10 ** 25, 7), 1], [1, Q(1, 10 ** 25)]]])
def test_det_and_inverse_match_rational_elimination(A):
    """The inverse is refused exactly when the determinant by rational
    elimination is 0, and is the inverse otherwise."""
    n = len(A)
    if route_oracle.fraction_det(A) == 0:
        with pytest.raises(ValueError):
            mat_inverse(A)
        return
    inv = mat_inverse(A)
    assert [[vdot(row, col) for col in transpose(inv)] for row in mat(A)] == \
        [[int(i == j) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# the column reduction against the Smith normal form routes
# ---------------------------------------------------------------------------


@st.composite
def _integer_rows(draw):
    """(n, rows): 1 to n + 2 integer rows of length n = 1..4, some of them
    copies, negatives or combinations of others."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n + 2))
    rows = [draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        a, b = draw(st.sampled_from([(1, 0), (-1, 0), (1, 1), (2, -1)]))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return n, rows


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_integer_rows())
@_examples([(1, [[0]]), (2, [[-1, -1]]), (2, [[0, 1]]), (2, [[1, 0], [1, 2]]),
            (2, [[1, 2], [1, 2], [0, 0]]), (3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
            (3, [[2, 4, 6]]), (4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])])
def test_column_echelon_matches_the_smith_normal_form_routes(case):
    n, R = case
    s, M, V = column_echelon(R, n)
    assert route_oracle.fraction_det(V) in (1, -1)
    assert s == rank(R)
    assert M == [[sum(r[k] * V[k][j] for k in range(n)) for j in range(n)] for r in R]
    # the k-th row that adds to the rank is nonzero in column k and zero
    # past it, and every other row is zero from column k on
    k = 0
    for i, row in enumerate(M):
        if rank(R[:i + 1]) > k:
            assert row[k] != 0 and not any(row[k + 1:])
            k += 1
        else:
            assert not any(row[k:])
    # the regularity verdict that Fan.is_regular reads off the reduction
    verdict = s == len(R) and all(abs(M[i][i]) == 1 for i in range(s))
    assert verdict == rays_extend_to_basis(R)
    if s == len(R):
        rays = [primitive(r) for r in R]
        assert Fan(n, [Cone(n, rays)]).is_regular() == rays_extend_to_basis(rays)
    # the quotient map differs from the old one by T in GL(Z): new = old T
    new = quotient_projection(n, R)
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if s == 0:
        assert [new(e) for e in basis] == basis
        return
    old = route_oracle.quotient_projection(n, R)[1]
    T = route_oracle.quotient_change(n, R)
    assert all(x.denominator == 1 for row in T for x in row)
    assert route_oracle.fraction_det(T) in (1, -1)
    assert [mat_vec(transpose(T), old(e)) for e in basis] == [vec(new(e)) for e in basis]

