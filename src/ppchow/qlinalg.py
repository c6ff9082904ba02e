"""Exact rational and lattice linear algebra.

Everything here is dense and exact: vectors are tuples of
:class:`fractions.Fraction`, matrices are tuples of row tuples.  There is one
elimination, :class:`RowEchelon`, row by row on integers: each row is scaled
to a primitive integer vector, a row update cross-multiplies two rows and
divides out the content of the result, and only the reader divides a row by
its pivot, which returns the RREF over Q.  The RREF of a matrix is unique,
so every result equals the one rational Gauss-Jordan elimination gives.
Solutions and kernels verify by substitution with no tolerance.  There is
one integer reduction, :func:`column_echelon`, a unimodular column
reduction; from it ``polyhedra`` decides whether rays extend to a basis of
Z^n and takes coordinates on Z^n modulo the lattice points of their span.
"""

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x):
    """Coerce ints (not bools), Fractions and "p/q" strings to a rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def rat_str(q):
    """Serialize a rational as "p/q", omitting the denominator when 1."""
    q = rat(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def vec(entries):
    return tuple(rat(e) for e in entries)


def mat(rows):
    rows = tuple(vec(r) for r in rows)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def zero_vec(n):
    return (Fraction(0),) * n


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, u):
    c = rat(c)
    return tuple(c * a for a in u)


def vdot(u, v):
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def is_zero_vec(u):
    return all(a == 0 for a in u)


def mat_vec(A, x):
    return tuple(vdot(row, x) for row in A)


def transpose(A):
    return tuple(zip(*A)) if A else ()


def primitive_ints(row):
    """The primitive integer vector on the ray of a rational row, as a list of
    ints (zero stays zero)."""
    d = lcm(*[x.denominator for x in row])
    ints = [x.numerator * (d // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _combine(row, b, prow, a):
    """The primitive integer vector on a*row - b*prow."""
    g = gcd(a, b)
    a, b = a // g, b // g
    new = [a * x - b * y for x, y in zip(row, prow)]
    h = gcd(*new)
    return [x // h for x in new] if h > 1 else new


def _reduce(A):
    """(rows, pivots): the rows of a :class:`RowEchelon` of A in pivot order,
    so row i of the RREF over Q is rows[i] divided by rows[i][pivots[i]]."""
    echelon = RowEchelon(A)
    pairs = sorted(zip(echelon.pivots, echelon.rows))
    return [row for _, row in pairs], [c for c, _ in pairs]


def rref(A):
    """Reduced row echelon form over Q.  Returns (rows, pivot column indices);
    zero rows follow the pivot rows."""
    rows, pivots = _reduce(A)
    red = [tuple(Fraction(x, row[c]) if x else _ZERO for x in row)
           for row, c in zip(rows, pivots)]
    red += [(_ZERO,) * (len(A[0]) if A else 0)] * (len(A) - len(pivots))
    return tuple(red), tuple(pivots)


def rank(A):
    return len(RowEchelon(A).pivots)


def solve(A, b):
    """One exact solution of A x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the returned solution is deterministic.
    """
    A = mat(A)
    b = vec(b)
    if len(A) != len(b):
        raise ValueError("dimension mismatch between matrix and right-hand side")
    if not A:
        return ()
    n = len(A[0])
    rows, pivots = _reduce([row + (bi,) for row, bi in zip(A, b)])
    if n in pivots:
        return None
    x = [_ZERO] * n
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[n], row[c])
    return tuple(x)


def kernel_basis(A):
    """Basis of the exact null space of A (rows of ints or Fractions, not
    coerced); empty list iff A is injective."""
    if not A:
        return []
    n = len(A[0])
    rows, pivots = _reduce(A)
    basis = []
    for f in [c for c in range(n) if c not in pivots]:
        v = [_ZERO] * n
        v[f] = _ONE
        for row, c in zip(rows, pivots):
            v[c] = Fraction(-row[f], row[c])
        basis.append(tuple(v))
    return basis


def span_basis(vectors):
    """Subset-free basis of the span, as the nonzero rows of the RREF."""
    red, pivots = rref(mat(vectors))
    return list(red[:len(pivots)])


class RowEchelon:
    """The package's one Gauss-Jordan elimination: the RREF of a growing row
    space, on primitive integer rows kept in the order they were added.

    A vector is added as its remainder against the rows, zero at every
    pivot, with a positive leading entry at its new pivot, which is then
    eliminated from the earlier rows.  So each row is zero at every other
    pivot, and the rows sorted by pivot, each divided by its pivot entry,
    are the RREF of the rows added so far; a vector lies in the span iff
    its remainder is zero.  The RREF is unique, and every reader divides a
    row by its pivot entry or reads only the pivots and whether a vector was
    added, so no result depends on the order of the elimination.  The first
    vector given fixes the width; a vector of any other length is refused.
    """

    __slots__ = ("rows", "pivots", "width")

    def __init__(self, rows):
        self.rows, self.pivots, self.width = [], [], None
        for row in rows:
            self.extend(row)

    def copy(self):
        """An echelon of the same span that extends independently."""
        out = RowEchelon([])
        out.rows, out.pivots, out.width = list(self.rows), list(self.pivots), self.width
        return out

    def _remainder(self, v):
        """v reduced against the rows, on a primitive integer vector."""
        self.width = len(v) if self.width is None else self.width
        if len(v) != self.width:
            raise ValueError("ragged matrix")
        v = primitive_ints(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                v = _combine(v, v[p], row, row[p])
        return v

    def contains(self, v):
        """Does v lie in the span?  The echelon does not change."""
        return not any(self._remainder(v))

    def extend(self, v):
        """Add v unless it lies in the span; True when it was added."""
        v = self._remainder(v)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        if v[p] < 0:
            v = [-x for x in v]
        rows = self.rows
        for i, row in enumerate(rows):
            if row[p]:
                rows[i] = _combine(row, row[p], v, v[p])
        rows.append(v)
        self.pivots.append(p)
        return True


# ---------------------------------------------------------------------------
# integer lattice algorithms
# ---------------------------------------------------------------------------


def column_echelon(rows, n):
    """(s, M, V) for integer rows R of length n: a unimodular n x n integer
    matrix V and M = R V, where s = rank R, every column of M past s is zero
    and the first s columns are lower-triangular: the k-th row that adds to
    the rank is nonzero in column k and zero past it.

    Row by row, each entry of the row past column s, the next pivot column,
    is folded into column s by the extended Euclidean algorithm run on the
    pair of columns: 2 x 2 steps (c_s, c_j) -> (c_j, c_s - t c_j), each of
    determinant -1, applied to M and V alike, until the row is zero past s;
    a row that is then zero at s too lies in the span of the rows before it.
    The steps touch only columns s and up, where the rows already reduced
    are zero.  Matrices are lists of int rows.
    """
    M = [[int(x) for x in row] for row in rows]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    s = 0
    for row in M:
        if s == n:
            break
        for j in range(s + 1, n):
            while row[j]:
                t = row[s] // row[j]
                for r in M + V:
                    r[s], r[j] = r[j], r[s] - t * r[j]
        s += row[s] != 0
    return s, M, V


def primitive(direction):
    """Primitive integer vector on the ray through a rational direction."""
    d = vec(direction)
    if is_zero_vec(d):
        raise ValueError("zero vector has no primitive representative")
    return tuple(Fraction(x) for x in primitive_ints(d))


def mat_inverse(A):
    """Exact inverse of a square rational matrix."""
    A = mat(A)
    n = len(A)
    aug = mat([list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
               for i, row in enumerate(A)])
    red, pivots = rref(aug)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in red)
