"""Earlier routes kept as oracles for the ones ppchow runs.

ppchow reads the meets of cells and cones of a validated complex or fan off
their common vertices and rays.  The first group of functions computes the
same data the way it used to be computed, by H-to-V conversion
(``intersect``) and point containment, so the two routes share no code beyond
the polyhedra themselves.  ``install`` swaps the oracle into the program for
a monkeypatch context, and the model generators give the complexes both
routes run on.

ppchow eliminates on primitive integer rows and solves every gluing system
with one routine.  The second group is the rational Gauss-Jordan elimination
and determinant, and the three per-basis assemblies of the gluing systems,
as they were before; they use no ppchow linear algebra.

The four piecewise carriers share one base for their arithmetic,
coordinates and linear combinations.  The third group reads coordinates off
each carrier's own layout, forms combinations one term at a time and
multiplies vertex tuples entry by entry, as each carrier used to.
"""

import itertools
from fractions import Fraction

from ppchow import ppfan, specialfiber
from ppchow.polyhedra import (Cone, PolyComplex, Polyhedron, cone_over,
                              direction_space)
from ppchow.polyring import HomogPoly, monomial_exponents
from ppchow.qlinalg import mat, primitive, rank


def adjacency(pc):
    """Meeting pairs of maximal cells, with direction space and meet key."""
    if "oracle_adj" not in pc._cache:
        out = []
        for i, j in itertools.combinations(pc.maximal, 2):
            inter = pc.cells[i].intersect(pc.cells[j])
            if inter is not None:
                out.append((i, j, tuple(direction_space(*inter.key())), inter.key()))
        pc._cache["oracle_adj"] = tuple(out)
    return pc._cache["oracle_adj"]


def pair_spans(fan):
    """Every pair of maximal cones with the span and rays of their meet."""
    if "oracle_spans" not in fan._cache:
        out = []
        for (i, ci), (j, cj) in itertools.combinations(enumerate(fan.max_cones()), 2):
            inter = ci.intersect(cj)
            if inter is not None:
                out.append((i, j, tuple(inter.span()), inter.rays))
        fan._cache["oracle_spans"] = tuple(out)
    return fan._cache["oracle_spans"]


def star_cells(pc, e):
    """Maximal cells containing the bounded edge e."""
    return tuple(i for i in pc.maximal if pc.cells[i].contains_poly(pc.cells[e]))


def chart_cells(pc, v):
    """Maximal cells containing the point v."""
    return [i for i in pc.maximal if pc.cells[i].contains_point(v)]


def _position(fan, cone):
    return next(i for i, c in enumerate(fan.cones) if c.same_as(cone))


def cell_to_cone(pc):
    """Cell index -> index of the cone over it in c(Pi), by a linear scan."""
    n = pc.rank
    fan = cone_over(pc).fan
    out = {}
    for ci, cell in enumerate(pc.cells):
        rays = [primitive(tuple(v) + (Fraction(1),)) for v in cell.vertices]
        rays += [tuple(r) + (Fraction(0),) for r in cell.rays]
        out[ci] = _position(fan, Cone(n + 1, rays))
    return out


def chart_cell_to_cone(chart):
    """Maximal cell index -> index of its cone at the chart's vertex."""
    v = chart.vertex
    out = {}
    for i in chart.max_cells:
        cell = chart.complex.cells[i]
        rays = [tuple(a - b for a, b in zip(u, v)) for u in cell.vertices if u != v]
        rays += list(cell.rays)
        out[i] = _position(chart.fan, Cone(cell.dim_ambient, [primitive(r) for r in rays]))
    return out


def homology_reps(vbasis_flat, gamma_cols):
    """Positions of the representatives: a rank test per candidate."""
    seen = [list(c) for c in gamma_cols]
    keep = []
    for pos, candidate in enumerate(vbasis_flat):
        before = rank(mat(seen)) if seen else 0
        if rank(mat(seen + [list(candidate)])) > before:
            seen.append(list(candidate))
            keep.append(pos)
    return keep


def install(mp):
    """Route adjacency, pairwise spans, edge stars and vertex-chart cells
    through the oracle for the life of the monkeypatch context ``mp``."""
    mp.setattr(PolyComplex, "adjacency", adjacency)
    mp.setattr(PolyComplex, "max_cells_containing_vertex", chart_cells)
    mp.setattr(ppfan, "_max_pair_spans", pair_spans)
    star_init = specialfiber._EdgeStar.__init__

    def edge_star_init(self, pc, e):
        star_init(self, pc, e)
        self.cells = star_cells(pc, e)

    mp.setattr(specialfiber._EdgeStar, "__init__", edge_star_init)


# ---------------------------------------------------------------------------
# rational elimination and the per-basis gluing assemblies
# ---------------------------------------------------------------------------


def fraction_rref(A):
    """Reduced row echelon form by rational Gauss-Jordan elimination."""
    rows = [[Fraction(x) for x in r] for r in A]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def fraction_det(A):
    """Determinant by rational Gaussian elimination."""
    A = [[Fraction(x) for x in r] for r in A]
    n = len(A)
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if A[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            A[c], A[pivot] = A[pivot], A[c]
            d = -d
        d *= A[c][c]
        inv = 1 / A[c][c]
        for i in range(c + 1, n):
            if A[i][c] != 0:
                f = A[i][c] * inv
                for j in range(c, n):
                    A[i][j] -= f * A[c][j]
    return d


def fraction_kernel(A, width):
    """Null space basis of A (``width`` columns) from ``fraction_rref``."""
    if not A:
        return [tuple(Fraction(int(c == f)) for c in range(width)) for f in range(width)]
    red, pivots = fraction_rref(A)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(tuple(v))
    return basis


def _restrict(p, subspace):
    """p in parameters of the RREF basis of the subspace."""
    red, pivots = fraction_rref(subspace) if subspace else ((), ())
    basis = red[:len(pivots)]
    images = [HomogPoly.linear_form([b[i] for b in basis]) if basis else HomogPoly.zero(0, 1)
              for i in range(p.dim)]
    return p.substitute(images)


def _assemble(pairs, nblocks, dim, k):
    """Kernel of the gluing system: per pair, block and monomial, the
    coefficients of the restricted monomial, as it was built per basis."""
    monos = monomial_exponents(dim, k)
    rows = []
    for i, j, span in pairs:
        for col, e in enumerate(monos):
            restricted = _restrict(HomogPoly(dim, k, {e: 1}), span)
            for pm in monomial_exponents(len(span), k):
                coeff = restricted.coeffs.get(pm, 0)
                if coeff:
                    rows.append(((i, j, pm), i * len(monos) + col, coeff))
                    rows.append(((i, j, pm), j * len(monos) + col, -coeff))
    keys = sorted({rk for rk, _, _ in rows}, key=repr)
    key_pos = {rk: t for t, rk in enumerate(keys)}
    matrix = [[0] * (len(monos) * nblocks) for _ in keys]
    for rk, col, coeff in rows:
        matrix[key_pos[rk]][col] += coeff
    return [[HomogPoly(dim, k, {e: v[b * len(monos) + col] for col, e in enumerate(monos)})
             for b in range(nblocks)]
            for v in fraction_kernel(matrix, len(monos) * nblocks)]


def graded_basis(fan, k):
    pairs = [(i, j, span) for i, j, span, _ in ppfan._max_pair_spans(fan)]
    return [ppfan.PPFunction(fan, k, pieces, validate=False)
            for pieces in _assemble(pairs, len(fan.maximal), fan.rank, k)]


def affine_basis(pc, k):
    pos = {i: p for p, i in enumerate(pc.maximal)}
    pairs = [(pos[i], pos[j], span) for i, j, span, _ in pc.adjacency()]
    return [specialfiber.AffinePP(pc, k, dict(zip(pc.maximal, polys)), validate=False)
            for polys in _assemble(pairs, len(pc.maximal), pc.rank, k)]


def edge_star_basis(pc, e, k):
    cells = specialfiber._edge_star(pc, e).cells
    spans = {(i, j): span for i, j, span, _ in pc.adjacency()}
    pairs = [(a, b, spans[cells[a], cells[b]])
             for a, b in itertools.combinations(range(len(cells)), 2)]
    return [specialfiber.EdgeTuple(pc, k, {e: dict(zip(cells, polys))})
            for polys in _assemble(pairs, len(cells), pc.rank, k)]


# ---------------------------------------------------------------------------
# carrier coordinates, combinations and products, written out per carrier
# ---------------------------------------------------------------------------


def flat_pp(f):
    """Coefficients of a PPFunction, cone by cone."""
    monos = monomial_exponents(f.fan.rank, f.degree)
    return tuple(p.coeffs.get(e, 0) for p in f.pieces for e in monos)


def flat_affine(a):
    """Coefficients of an AffinePP, maximal cell by maximal cell."""
    monos = monomial_exponents(a.complex.rank, a.degree)
    return tuple(a.cell_polys[i].coeffs.get(e, 0) for i in a.complex.maximal for e in monos)


def flat_vertex(t):
    """Coefficients of a vertex tuple, vertex by vertex and cone by cone."""
    pc = t.complex
    monos = monomial_exponents(pc.rank, t.degree)
    return tuple(p.coeffs.get(e, 0) for v in pc.vertices for p in t.entries[v].pieces
                 for e in monos)


def flat_edge(et):
    """Coefficients of an edge tuple, edge by edge and star cell by star cell."""
    pc = et.complex
    monos = monomial_exponents(pc.rank, et.degree)
    return tuple(et.entries[e][i].coeffs.get(m, 0) for e in pc.bounded_edges
                 for i in specialfiber._edge_star(pc, e).cells for m in monos)


def combination(zero, basis, coeffs):
    """zero + sum of c * b, one term at a time."""
    out = zero
    for c, b in zip(coeffs, basis):
        out = out + b.scale(c)
    return out


def vertex_product(s, t):
    """The entry-wise product of two vertex tuples on one complex."""
    pc = s.complex
    return specialfiber.VertexTuple(pc, s.degree + t.degree,
                                    {v: s.entries[v] * t.entries[v] for v in pc.vertices})


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def interval_model(lo, hi):
    """The rank-one model with vertices lo, lo + 1, ..., hi."""
    cells = [Polyhedron(1, [(lo,)], [(-1,)]), Polyhedron(1, [(hi,)], [(1,)])]
    cells += [Polyhedron(1, [(a,), (a + 1,)]) for a in range(lo, hi)]
    return PolyComplex(1, cells)


def refined_f3c(choices):
    """F3C after one stellar subdivision of c(Pi) per entry of ``choices``.

    c(Pi) is kept as sets of primitive rays in Z^3, height last.  Each step
    picks, by the entry modulo their number, a face of dimension at least
    two with exactly one ray at height one, and subdivides every maximal
    cone containing it at the sum of its rays.  The new vertex is a lattice
    point and c(Pi) stays regular.  The cells form a complex by
    construction, so the costly pairwise validation is skipped.
    """
    top, rec = (0, 0, 1), [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]
    cones = [frozenset((top, a, b)) for a, b in itertools.combinations(rec, 2)]
    for choice in choices:
        faces = sorted({tuple(sorted(f)) for c in cones for size in (2, 3)
                        for f in itertools.combinations(c, size)
                        if sum(r[2] for r in f) == 1})
        tau = frozenset(faces[choice % len(faces)])
        w = tuple(sum(r[i] for r in tau) for i in range(3))
        cones = [part for c in cones
                 for part in ([(c - {r}) | {w} for r in tau] if tau <= c else [c])]
    cells = [Polyhedron(2, [r[:2] for r in c if r[2] == 1], [r[:2] for r in c if r[2] == 0])
             for c in cones]
    return PolyComplex(2, cells, validate=False)
