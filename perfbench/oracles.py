"""Arithmetic the benchmark checks ppchow's outputs with.

Nothing here calls ppchow: polynomials are plain ``{exponent: coefficient}``
dicts, ranks are taken modulo a large prime, and dimensions come from the
Hilbert series of the face ring of a simplicial fan (Billera 1989: the
piecewise polynomials on a simplicial fan form its face ring).
"""

import itertools
import math
from fractions import Fraction

PRIME = (1 << 61) - 1


def monomials(dim, degree):
    """Exponent tuples of total degree ``degree`` in ``dim`` variables."""
    return [e for e in itertools.product(range(degree + 1), repeat=dim)
            if sum(e) == degree]


def evaluate(coeffs, point):
    """Value of the polynomial ``{exponent: coefficient}`` at ``point``."""
    total = Fraction(0)
    for expo, c in coeffs.items():
        term = Fraction(c)
        for x, k in zip(point, expo):
            if k:
                term *= Fraction(x) ** k
        total += term
    return total


def _mod_p(x):
    x = Fraction(x)
    return x.numerator % PRIME * pow(x.denominator % PRIME, -1, PRIME) % PRIME


def rank_mod_p(rows):
    """Rank modulo PRIME of rational row vectors.

    It never exceeds the rank over Q, so rank_mod_p(rows) == len(rows)
    certifies that the rows are linearly independent over Q.
    """
    work = [[_mod_p(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, PRIME)
        prow = [x * inv % PRIME for x in work[rank]]
        work[rank] = prow
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f:
                work[i] = [(a - f * b) % PRIME for a, b in zip(work[i], prow)]
        rank += 1
    return rank


def independent_subset(vectors):
    """A maximal linearly independent subset, in the given order."""
    chosen = []
    for v in vectors:
        if rank_mod_p(chosen + [list(v)]) > len(chosen):
            chosen.append(list(v))
    return chosen


def grid_points(directions, degree):
    """Points sum(l_i d_i), l in {0..degree}^m, over independent directions.

    A polynomial of degree <= ``degree`` on the span of the directions is
    zero exactly when it vanishes at all of these points.
    """
    dim = len(directions[0]) if directions else 0
    points = []
    for lam in itertools.product(range(degree + 1), repeat=len(directions)):
        points.append(tuple(sum(l * d[i] for l, d in zip(lam, directions))
                            for i in range(dim)))
    return points or [()]


def gluing_faults(pieces, shared, degree, dim):
    """Pairs whose pieces disagree on their shared face.

    ``pieces`` maps a cell key to its polynomial dict; ``shared`` lists
    (key a, key b, spanning directions of the common face).  Returns the
    offending (a, b) pairs.
    """
    bad = []
    for a, b, directions in shared:
        basis = independent_subset(directions)
        for point in grid_points(basis, degree) if basis else [(0,) * dim]:
            if evaluate(pieces[a], point) != evaluate(pieces[b], point):
                bad.append((a, b))
                break
    return bad


def hilbert_disk_cone(n_vertices, n_boundary, k):
    """dim PP^k of the cone over a complete rank-2 simplicial complex.

    c(Pi) is a simplicial fan whose cones form a triangulated disk with
    f0 = V + b rays.  Euler's relation for the disk gives its h-vector
    (1, V + b - 3, V), so the Hilbert series is
    (1 + (V + b - 3) t + V t^2) / (1 - t)^3.
    """
    h = (1, n_vertices + n_boundary - 3, n_vertices)
    return sum(hj * math.comb(k - j + 2, 2) for j, hj in enumerate(h) if j <= k)


def flatten(polys, dim, degree):
    """Coefficient vector of a list of polynomial dicts, in a fixed order."""
    monos = monomials(dim, degree)
    out = []
    for p in polys:
        out.extend(p.get(e, 0) for e in monos)
    return out
