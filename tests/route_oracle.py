"""The all-pairs intersection route, kept as an oracle for the combinatorial one.

ppchow reads the meets of cells and cones of a validated complex or fan off
their common vertices and rays.  The functions here compute the same data the
way it used to be computed, by H-to-V conversion (``intersect``) and point
containment, so the two routes share no code beyond the polyhedra
themselves.  ``install`` swaps the oracle into the program for a monkeypatch
context, and the model generators give the complexes both routes run on.
"""

import itertools
from fractions import Fraction

from ppchow import ppfan, specialfiber
from ppchow.polyhedra import (Cone, PolyComplex, Polyhedron, cone_over,
                              direction_space)
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
