"""Earlier routes kept as oracles for the ones ppchow runs.

ppchow reads the meets of cells and cones of a validated complex or fan off
their common vertices and rays.  The first group of functions computes the
same data the way it used to be computed, by H-to-V conversion
(``intersect``) and point containment, so the two routes share no code beyond
the polyhedra themselves.  ``install`` swaps the oracle into the program for
a monkeypatch context, and the model generators give the complexes both
routes run on.

ppchow eliminates on primitive integer rows, row by row in one echelon that
reduces each new row into the earlier ones, and solves every gluing system
with one routine.  The second group is the rational Gauss-Jordan elimination
and determinant, the integer column sweep that ``qlinalg._reduce`` ran
before, and the three per-basis assemblies of the gluing systems, as they
were before; they use no ppchow linear algebra.

The four piecewise carriers share one base for their arithmetic,
coordinates and linear combinations.  The third group reads coordinates off
each carrier's own layout, forms combinations one term at a time and
multiplies vertex tuples entry by entry, as each carrier used to.

Every limit group is one row of the flavor table in ``limits``, read by one
tower class, one module action and one common-model helper.  The fourth
group is the routes each group had of its own: the compatibility loop that
pushed every tower value down by its flavor's per-call map (for "pp" the
loop of the old ``LimitTower``), the pullback loops of ``module_action``
and of the old ``module_product_form``, the five direct-limit comparisons
and products, and the quotient projection that ``eigen_divisor`` and
``horizontal_star`` each carried, with the two-branch ``eigen_divisor``.
ppchow writes the Green identity once, as the tower dd^c g + delta of
``ddc_plus_delta``, and tests it and every stabilization with one
pullback-system predicate; the group also keeps the old
``tower_stabilization`` loop and theta's certificate loop, model by model.

ppchow certifies a complete complex or fan by its facets and validates any
other one on pairs of maximal members, most of them certified by a
separating facet, reads the maximal members off the face walk, builds
stellar subdivisions and common refinements without validating them again,
reads a refinement's cell map off its fan map, and takes the map between
two models of a chain from ``refines``.  The fifth group is the
routes these replaced: the exact common-face test on every pair of members,
faces included, with maximality by containment; the separating-facet
certificate that settled only pairs whose generators on the facet are their
common ones on both sides; the stellar subdivision that joins the new ray
to the facets of the face list; the common refinement from all pairwise
intersections, validated; the cell map by containment of cells; and the map
between two chain models composed from the consecutive ones.

ppchow converts between V- and H-descriptions with one double description
routine, reads a polyhedron's extreme generators off the facets each lies
on, and keeps the intersected polyhedron of two cones as their meet.  The
sixth group is the routes these replaced: facets from every subset of
generators spanning a hyperplane, vertices from every square subsystem of
the inequalities and rays from every subsystem one row short, the extreme
generators as those whose tight rows have full rank, and the meet of two
cones built again from its rays.

ppchow builds the systems of the height expansion, the slice and the gamma
image once per model and degree, eliminates each once, solves the vertical
lift on the height expansion's system, whose first block is the lift, and
certifies a fan map's properness once per target cone.  The seventh group
is the routes these replaced, which build and solve every system, the lift
on its own columns, and run every certificate on each call, and
``install_transfers``, which swaps them into the program.

ppchow passes the piece of a target cone that a fan map does not split
through the pushforward, keeps each cycle term's generator on the fan, and
finds the cone of c(Pi) above a recession cone by its rays.  The eighth
group is the routes these replaced: the localization sum on every target
cone, a ``Cone`` built for every term of every cycle class, and the cone
above a recession cone by containment; ``install_towers`` swaps them
into the program.

ppchow runs rho, gamma and the one-pass dd^c on a table of positions built
once per model, and touches only the vertices and edges of the input's
support.  The ninth group is the routes these replaced, which walk every
vertex and edge of the model on each call and look every chart up by its
vertex's coordinates: ``rho``, ``gamma``, ``ddc_one_shot``,
``to_vertex_tuple``, ``from_vertex_tuple``, ``iota_lower``,
``cap_fundamental`` and ``zeta``.

ppchow builds a face, the cone over a cell and the cone of a cell at a
vertex from the facet normals and generator masks of the polyhedron they
come from, with no double description, reads a recession cone off the cone
over its cell, and tests completeness on the facets of the maximal members
alone.  The tenth group is the routes these replaced, which build each one
from its generators: ``faces``, the face walk with every face built from its
key and the facets found by dot products, ``cone_over_cell``,
``chart_cone`` and ``recession_cone``, and ``is_complete``, which also asked
a complex for a complete fan of recession cones built that way.

ppchow keeps, on each distinct span of a fan's pairs of maximal cones or of
a complex's adjacency, the rows of the conditions for a polynomial to vanish
there, per (dimension, degree), and reads the gluing systems and the
validators off them.  The eleventh group is the routes these replaced:
``equal_on_span`` and ``gluing_kernel`` restricting to the span through
``restrict_to_span`` on every call, with ``kernel_basis`` on Fraction rows.

ppchow lists the pairs of maximal members whose gluing conditions are
needed, a spanning forest of each meet's star, with one routine for fans and
complexes, by position, and validates PP functions and affine PP functions
with one search over them that takes its witness face from the domain.  The
twelfth group is the routes these replaced: every pair of a fan's maximal
cones by position, every meeting pair of a complex's maximal cells by cell
index, each meet read off the common vertices and rays by set lookups
(``common_face``), and the two validators over all those pairs, each
building its witness face from the meet's generators.

ppchow decides whether members cover a region, for completeness and for a
pushforward's properness, by pairing their facets, tests whether an
intersection is a face by the facet masks, and reads the cell map of c(Pi)
off the cones over the maximal cells.  The thirteenth group is the routes
these replaced: ``check_covers_by_volume``, which compares truncated volumes
through ``fraction_det``, ``is_face_of`` by dot products with the facets,
and ``_cone_over_rays``, the key of the cone over a cell from its
generators.

ppchow eliminates each transfer system once, as [A | I], and reads every
solve off that elimination; and it keeps, per fan map and split target
cone, the lcm of the localization denominators and each source cone's
multiplier, so a pushforward multiplies, adds and divides.  The
fourteenth group is the route the second replaced: ``ratfun_pushforward``,
which multiplies sigma's dual forms into each piece, canonicalizes every
source cone's denominators into a ``RatFun`` and takes the lcm on every
call.  The route the first replaced is ``qlinalg.solve`` on the system's
matrix, which the tests call as it is.

ppchow builds a derived polyhedron's H-description only when it is read,
and finds the smallest cell holding a point through a maximal cell that
holds it and the facets of that cell tight at the point.  The fifteenth
group is the route the second replaced: ``find_cell``, which tests every
cell of the complex; the tests build polyhedra from scratch for the first.

ppchow builds the graded bases of a fan whose maximal cones are
full-dimensional and simplicial from the face ring: the products of Courant
functions over each cone, eliminated once with the columns reversed.  The
sixteenth group is the route this replaced on those fans, and the one the
others still take: ``gluing_graded_basis``, the kernel of the fan's gluing
system.

ppchow reads cones and containment off the members and rays of a fan: a
cycle term's generator and the cone above a recession cone are looked up by
key, an eigenfunction divisor takes as cofaces the cones whose rays include
sigma's, and a subdivision map decides a source ray that is a ray of the
target fan by membership in the target cone's rays.  The seventeenth group
is the test these replaced, ``contains_poly`` on the inequalities of the
containing polyhedron, with ``subdivision_max_map``, the containment scan
of every maximal source cone against every maximal target cone; the
two-branch ``eigen_divisor`` of the fourth group finds its cofaces with it.

Every routine of ppchow has a caller in the program
(``tests/test_program_callers.py``).  The eighteenth group is the routines
that only tests called and that tests still use as fixtures or reference
routes: ``zero_tower`` with the zero value of each flavor (``zero_value``),
``closed_form_product``, which multiplies closed forms on the model
``limits.on_common_model`` finds and was ``limits.form_product``,
``rational_equivalence_class`` and ``cycle_to_json``.  The tests that
called the program's ``restrict_to_span`` and ``_edge_star`` call those of
the eleventh and ninth groups, and the first builds its own substitution.

ppchow answers both of its lattice questions, whether a cone's rays extend
to a basis of the lattice and coordinates on the quotient by the lattice
points of a cone's span, with one unimodular column reduction,
``qlinalg.column_echelon``.  The nineteenth group is the routes it
replaced: the Smith normal form, the saturated integer kernel read off it,
and the test that the rays' invariant factors are all 1.  The quotient
projection of the fourth group is built from the first two.
"""

import itertools
import sys
from fractions import Fraction
from math import gcd, lcm

from hypothesis import strategies as st

from ppchow import (arithchow, checks, cycles, limits, polyhedra, polyring, ppfan,
                    specialfiber)
from ppchow.cycles import InvariantCycle, horizontal_lift_key
from ppchow.errors import (CompatibilityViolation, DecompositionFailed,
                           InternalIdentityError, NonSCR, NotAComplex,
                           NotInKernel, NotProper, NotRegular)
from ppchow.io import vector_to_json
from ppchow.limits import ModelChain, common_model
from ppchow.polyhedra import (Cone, Fan, PolyComplex, Polyhedron, _Closure,
                              cone_over, direction_space, recession_fan,
                              refines, vertex_chart)
from ppchow.ppfan import PPFunction, dual_forms, phi_ray, pullback, zero_pp
from ppchow.specialfiber import AffinePP, EdgeTuple, VertexTuple
from ppchow.polyring import HomogPoly, RatFun, Span, monomial_exponents, ratfun_sum_to_poly
from ppchow.qlinalg import (is_zero_vec, kernel_basis, mat, primitive, rank,
                            rat_str, solve, span_basis, transpose, vadd, vec,
                            vscale, vsub, zero_vec)


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
            inter = cone_intersect(ci, cj)
            if inter is not None:
                out.append((i, j, tuple(inter.span()), inter.rays))
        fan._cache["oracle_spans"] = tuple(out)
    return fan._cache["oracle_spans"]


def positioned_adjacency(closure):
    """``adjacency`` or ``pair_spans``, with pairs of maximal cells named by
    their positions in ``maximal``: what the program's adjacency gives."""
    if isinstance(closure, Fan):
        return pair_spans(closure)
    pos = {i: p for p, i in enumerate(closure.maximal)}
    return tuple((pos[i], pos[j], span, meet) for i, j, span, meet in adjacency(closure))


def star_cells(pc, e):
    """Maximal cells containing the bounded edge e."""
    return tuple(i for i in pc.maximal if contains_poly(pc.cells[i], pc.cells[e]))


def chart_cells(pc, v):
    """Maximal cells containing the point v."""
    return [i for i in pc.maximal if pc.cells[i].contains_point(v)]


def _position(fan, cone):
    return next(i for i, c in enumerate(fan.cones) if c.same_as(cone))


def cell_to_cone(pc):
    """Cell index -> index of the cone over it in c(Pi), by a linear scan."""
    fan = cone_over(pc).fan
    return {ci: _position(fan, cone_over_cell(cell)) for ci, cell in enumerate(pc.cells)}


def chart_cell_to_cone(pc, chart):
    """Maximal cell index -> index of its cone at the chart's vertex."""
    v = chart.vertex
    out = {}
    for i in chart.max_cells:
        cell = pc.cells[i]
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
    """Route the adjacency of fans and complexes, edge stars, vertex-chart
    cells and both validators through the oracle for the life of the
    monkeypatch context ``mp``."""
    mp.setattr(_Closure, "adjacency", positioned_adjacency)
    mp.setattr(PolyComplex, "max_cells_containing_vertex", chart_cells)
    mp.setattr(PPFunction, "offending_pair", pp_offending_pair)
    mp.setattr(specialfiber.AffinePP, "offending_pair", affine_offending_pair)
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


def _primitive_ints(row):
    """The primitive integer vector on the ray of a rational row."""
    d = lcm(*[Fraction(x).denominator for x in row])
    ints = [int(Fraction(x) * d) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def integer_reduce(A):
    """Gauss-Jordan elimination on primitive integer rows, one pivot column
    at a time: (rows, pivots) with rows[i] nonzero at pivots[i] and zero at
    every other pivot column, so row i of the RREF over Q is rows[i] divided
    by rows[i][pivots[i]]."""
    rows = [_primitive_ints(r) for r in A]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        for i, row in enumerate(rows):
            if row[c] and i != r:
                g = gcd(prow[c], row[c])
                a, b = prow[c] // g, row[c] // g
                rows[i] = _primitive_ints([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
        if r + 1 == len(rows):
            break
    return rows[:len(pivots)], pivots


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
    pairs = [(p, q, span) for p, q, span, _ in fan.adjacency()]
    return [ppfan.PPFunction(fan, k, pieces, validate=False)
            for pieces in _assemble(pairs, len(fan.maximal), fan.rank, k)]


def affine_basis(pc, k):
    pairs = [(p, q, span) for p, q, span, _ in pc.adjacency()]
    return [specialfiber.AffinePP(pc, k, dict(zip(pc.maximal, polys)), validate=False)
            for polys in _assemble(pairs, len(pc.maximal), pc.rank, k)]


def edge_star_basis(pc, e, k):
    cells = _edge_star(pc, e).cells
    spans = {(i, j): span for i, j, span, _ in cell_adjacency(pc)}
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
                 for i in _edge_star(pc, e).cells for m in monos)


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
# towers, module actions, direct-limit helpers and quotient projections
# ---------------------------------------------------------------------------


# each flavor's name for its pushforward, the per-call map and equality of values
_PUSH_EQUAL = {
    "closed": ("pushforward", lambda m, a: specialfiber.beta(m, a), lambda a, b: a == b),
    "tilde": ("vertex pushforward", lambda m, t: specialfiber.alpha(m, t),
              lambda s, t: specialfiber.class_equal(s, t)),
    "pp": ("model pushforward", lambda m, f: ppfan.pushforward(m.fan_map, f),
           lambda a, b: a == b),
}


def tower_compat(chain, flavor, values, start=0):
    """The compatibility loop the towers ran before they read the transfers
    off columns: push each value down by its flavor's per-call map and
    compare with the value below (the old ``LimitTower`` loop for "pp")."""
    name, push, equal = _PUSH_EQUAL[flavor]
    for i in range(start, len(chain) - 1):
        if not equal(push(chain.maps[i], values[i + 1]), values[i]):
            raise CompatibilityViolation(f"{name} from model {i + 1} to {i} mismatches",
                                         witness=(i, i + 1))
    return True


# each flavor's pullback along a model map and equality of values
_PULL_EQUAL = {
    "closed": (specialfiber.pullback_special, lambda a, b: a == b),
    "tilde": (specialfiber.zeta, specialfiber.class_equal),
    "pp": (lambda m, f: ppfan.pullback(m.fan_map, f), lambda a, b: a == b),
}


def tower_stabilization(tower):
    """The old ``tower_stabilization``: the earliest position whose value,
    pulled back to every later model, equals the value there, with at least
    one later model to confirm; None when there is none."""
    chain = tower.chain
    pull, equal = _PULL_EQUAL[tower.flavor]
    last = len(chain) - 1
    for s in tower.indices():
        if s == last:
            return None
        if all(equal(pull(chain.map_between(j, s), tower.value(s)), tower.value(j))
               for j in range(s + 1, len(chain))):
            return s
    return None


def green_certificate(chain, start, green, cycle, form):
    """Theta's old certificate loop: on every model of the Green tower,
    dd^c of its value plus the delta current against the pullback of
    ``form`` from model ``start``."""
    delta = limits.delta_current(chain, cycle)
    dd = limits.ddc_current(green)
    return all(dd.value(i) + delta.value(i)
               == specialfiber.pullback_special(chain.map_between(i, start), form)
               for i in green.indices())


def _acting_index(chain, model, start):
    idx = next((i for i, m in enumerate(chain.models) if m.same_as(model)), None)
    if idx is None or idx > start:
        raise CompatibilityViolation("acting class must live below the tower")
    return idx


def module_action(c, T):
    """The values of the old ``module_action``: the limit class pulled back
    to each model times the tower's value, compatibility re-verified."""
    chain = T.chain
    idx = _acting_index(chain, c.model, T.start)
    vals = {}
    for i in T.indices():
        m = chain.map_between(i, idx)
        vals[i] = ppfan.pullback(m.fan_map, c.pp) * T.value(i)
    tower_compat(chain, "pp", vals, T.start)
    return vals


def module_product_form(c, tower):
    """The values of the old ``module_product_form`` on a closed or tilde
    tower: the form pulled back, as a vertex tuple on a tilde tower."""
    chain = tower.chain
    idx = _acting_index(chain, c.model, tower.start)
    vals = {}
    for i in tower.indices():
        form = specialfiber.pullback_special(chain.map_between(i, idx), c.form)
        if tower.flavor == "tilde":
            form = specialfiber.to_vertex_tuple(form)
        vals[i] = form * tower.value(i)
    return vals


def form_equal(a, b):
    pc, ma, mb = common_model(a.model, b.model)
    return specialfiber.pullback_special(ma, a.form) == specialfiber.pullback_special(mb, b.form)


def form_product(a, b):
    """(model, product form) on the common model."""
    pc, ma, mb = common_model(a.model, b.model)
    return pc, specialfiber.pullback_special(ma, a.form) * specialfiber.pullback_special(mb, b.form)


def form_mod_equal(a, b):
    pc, ma, mb = common_model(a.model, b.model)
    return specialfiber.class_equal(specialfiber.zeta(ma, a.tuple),
                                    specialfiber.zeta(mb, b.tuple))


def limit_equal(a, b):
    pc, ma, mb = common_model(a.model, b.model)
    return ppfan.pullback(ma.fan_map, a.pp) == ppfan.pullback(mb.fan_map, b.pp)


def limit_mul(a, b):
    """(model, product class) on the common model."""
    pc, ma, mb = common_model(a.model, b.model)
    return pc, ppfan.pullback(ma.fan_map, a.pp) * ppfan.pullback(mb.fan_map, b.pp)


def quotient_projection(rank_, rays):
    """(None, project) quotient coordinates modulo the saturated span of the
    rays; (identity coordinates, None) when there are no rays."""
    if not rays:
        return list(range(rank_)), None
    comp = kernel_basis(mat(rays))
    C = [primitive(u) for u in comp] if comp else []
    if C:
        sat = integer_kernel_basis([[int(x) for x in row] for row in C])
    else:
        sat = [tuple(Fraction(1 if i == j else 0) for j in range(rank_)) for i in range(rank_)]
    s = len(sat)
    _, _, V = smith_normal_form([[int(x) for x in row] for row in sat])

    def project(x):
        return tuple(sum(x[i] * V[i][j] for i in range(rank_)) for j in range(s, rank_))

    return None, project


def quotient_change(rank_, rays):
    """T with ``polyhedra.quotient_projection(rank_, rays)(x)`` equal to the
    old projection of x times T, for nonzero rays, solved on the images of
    the unit vectors.  Both maps are onto Z^(rank_ - s) with kernel the
    lattice points of span(rays), so T is in GL(Z)."""
    _, old = quotient_projection(rank_, rays)
    new = polyhedra.quotient_projection(rank_, rays)
    basis = [tuple(int(i == j) for j in range(rank_)) for i in range(rank_)]
    images = [old(e) for e in basis]
    return transpose([solve(images, col) for col in transpose([new(e) for e in basis])])


def eigen_divisor(fan, sigma, weight):
    """The two-branch ``eigen_divisor``: primitive generators of the cofaces'
    rays with no rays in sigma, quotient images otherwise."""
    weight = vec(weight)
    _, project = quotient_projection(fan.rank, list(sigma.rays))
    terms = {}
    for c in fan.cones:
        if c.dim != sigma.dim + 1 or not contains_poly(c, sigma):
            continue
        u = next(r for r in c.rays if not sigma.contains_point(r))
        w_pair = sum(weight[i] * u[i] for i in range(fan.rank))
        if project is None:
            img = primitive(u)
            g = next(u[i] / img[i] for i in range(fan.rank) if img[i] != 0)
        else:
            img = project(u)
            pimg = primitive(img)
            g = next(img[i] / pimg[i] for i in range(len(img)) if pimg[i] != 0)
        coeff = w_pair / g
        if coeff != 0:
            terms[c.rays] = terms.get(c.rays, Fraction(0)) + coeff
    return InvariantCycle(fan.rank, sigma.dim + 1, terms)


def horizontal_star(pc, sigma):
    """Pi(sigma) through the old projection, for a nonzero recession cone."""
    n = pc.rank
    _, project = quotient_projection(n, list(sigma.rays))
    cells = []
    for i in pc.maximal:
        cell = pc.cells[i]
        if all(cell.recession_contains(r) for r in sigma.rays):
            rays = [r for r in map(project, cell.rays) if not is_zero_vec(r)]
            cells.append(Polyhedron(n - sigma.dim, [project(v) for v in cell.vertices], rays))
    return PolyComplex(n - sigma.dim, cells)


# ---------------------------------------------------------------------------
# validation, subdivision and refinement
# ---------------------------------------------------------------------------


def contains_poly(p, q):
    """Does p contain q: every vertex of q a point of p, every ray of q a
    direction of p's recession cone, both tested on p's inequalities."""
    return (all(p.contains_point(v) for v in q.vertices)
            and all(p.recession_contains(r) for r in q.rays))


def subdivision_max_map(source, target):
    """``FanMap.from_subdivision``'s ``max_map`` by containment: each maximal
    source cone to the first maximal target cone containing it, apex
    included, or None if some cone has none."""
    tmax = target.max_cones()
    out = tuple(next((pos for pos, t in enumerate(tmax) if contains_poly(t, c)), None)
                for c in source.max_cones())
    return None if None in out else out


def close_and_validate(items, kind):
    """Face closure, the common-face test on every pair of members, and the
    members contained in no other one as the maximal ones."""
    closed = {}
    for it in items:
        for f in it.faces({}, {}).values():
            closed[f.key()] = f
    cells = sorted(closed.values(), key=lambda p: (p.dim, p.key()))
    for p, q in itertools.combinations(cells, 2):
        inter = p.intersect(q)
        if inter is None:
            continue
        if not (is_face_of(inter, p) and is_face_of(inter, q)):
            raise NotAComplex(
                f"{kind} cells {p!r} and {q!r} meet in {inter!r}, not a common face")
    maximal = [i for i, p in enumerate(cells)
               if not any(i != j and contains_poly(cells[j], p) for j in range(len(cells)))]
    return tuple(cells), tuple(maximal)


def is_face_of(face, other):
    """Is ``face`` a face of ``other``: contained in it, and the generators
    of other on every facet tight on face exactly face's generators?"""
    if not contains_poly(other, face):
        return False
    n = other.dim_ambient
    tight = [(a, bb) for a, bb in other.ineqs
             if all(sum(a[i] * v[i] for i in range(n)) == bb for v in face.vertices)
             and all(sum(a[i] * r[i] for i in range(n)) == 0 for r in face.rays)]
    gv = tuple(v for v in other.vertices
               if all(sum(a[i] * v[i] for i in range(n)) == bb for a, bb in tight))
    gr = tuple(r for r in other.rays
               if all(sum(a[i] * r[i] for i in range(n)) == 0 for a, bb in tight))
    return (gv, gr) == (face.vertices, face.rays)


def meet_certified(p, q):
    """Does a facet of p or of q, with the other on its far side, show p and
    q disjoint, or carry the common generators of both and no other
    generator of either?"""
    meet = common_face(p, q)
    for one, other in ((p, q), (q, p)):
        n = one.dim_ambient
        for a, bb in one.ineqs:
            if not (all(sum(a[i] * v[i] for i in range(n)) >= bb for v in other.vertices)
                    and all(sum(a[i] * r[i] for i in range(n)) >= 0 for r in other.rays)):
                continue
            far, near = [(tuple(v for v in c.vertices if sum(a[i] * v[i] for i in range(n)) == bb),
                          tuple(r for r in c.rays if sum(a[i] * r[i] for i in range(n)) == 0))
                         for c in (other, one)]
            if not far[0] or far == near == meet:
                return True
    return False


def star_subdivision(pc, point):
    """Stellar subdivision of c(Pi) at (point, 1) through the face list of
    each cone containing it, validated on every pair of cells."""
    n = pc.rank
    w = primitive(tuple(vec(point)) + (Fraction(1),))
    fan = cone_over(pc).fan
    if any(c.dim == 1 and c.rays == (w,) for c in fan.cones):
        return close_and_validate(pc.max_cells(), "complex")
    new_max = []
    for c in fan.max_cones():
        if not c.contains_point(w):
            new_max.append(c)
            continue
        for f in sorted(c.faces({}, {}).values(), key=lambda f: (f.dim, f.key())):
            if f.dim == c.dim - 1 and not f.contains_point(w):
                new_max.append(Cone(n + 1, list(f.rays) + [w]))
    cells = [Polyhedron(n, [tuple(x / r[n] for x in r[:n]) for r in c.rays if r[n] > 0],
                        [r[:n] for r in c.rays if r[n] == 0])
             for c in new_max]
    return close_and_validate(cells, "complex")


def common_refinement(pc1, pc2):
    """Full-dimensional intersections of every pair of maximal cells,
    validated on every pair of cells."""
    cells = []
    for i in pc1.maximal:
        for j in pc2.maximal:
            inter = pc1.cells[i].intersect(pc2.cells[j])
            if inter is not None and inter.dim == pc1.rank:
                cells.append(inter)
    return close_and_validate(cells, "complex")


def find_cell(pc, point):
    """Smallest cell containing the point, or None: every cell tested."""
    best = None
    for c in pc.cells:
        if c.contains_point(point):
            if best is None or c.dim < best.dim:
                best = c
    return best


def refinement_cell_map(finer, coarser):
    """Each maximal cell of ``finer`` to the first maximal cell of
    ``coarser`` containing it."""
    return {i: next(j for j in coarser.maximal
                    if contains_poly(coarser.cells[j], finer.cells[i]))
            for i in finer.maximal}


def composed_map(chain, fine, coarse):
    """(max_map, cell_map) of models[fine] -> models[coarse], composed from
    the consecutive maps of the chain, each step applied after the next."""
    if fine == coarse:
        m = refines(chain.models[fine], chain.models[coarse])
        return m.fan_map.max_map, m.cell_map
    m = chain.maps[coarse]
    max_map, cell_map = m.fan_map.max_map, m.cell_map
    for step in chain.maps[coarse + 1:fine]:
        max_map = tuple(max_map[q] for q in step.fan_map.max_map)
        cell_map = {i: cell_map[j] for i, j in step.cell_map.items()}
    return max_map, cell_map


# ---------------------------------------------------------------------------
# V- and H-descriptions by subset enumeration, extreme generators by rank
# ---------------------------------------------------------------------------


def _hrep_from_generators(dim, vertices, rays):
    """(equations, inequalities) cutting out conv(vertices) + cone(rays).

    Equations are pairs (a, b) with a.x = b on the affine hull;
    inequalities are facet pairs (a, b) with a.x <= b, canonicalized to a
    primitive integer normal.
    """
    base = vertices[0]
    dirs = [vsub(v, base) for v in vertices[1:]] + list(rays)
    dirs = [d for d in dirs if not is_zero_vec(d)]
    dir_basis = span_basis(dirs)
    m = len(dir_basis)

    eqs = []
    for a in (kernel_basis(mat(dir_basis)) if dir_basis else
              kernel_basis(mat([zero_vec(dim)]))):
        a = primitive(a) if not is_zero_vec(a) else a
        eqs.append((a, sum(x * y for x, y in zip(a, base))))

    if m == 0:
        return tuple(eqs), ()

    ineqs = {}
    for w in vertices:
        pool = [vsub(v, w) for v in vertices if v != w] + list(rays)
        for subset in itertools.combinations(range(len(pool)), m - 1):
            chosen = [pool[i] for i in subset]
            if len(span_basis(chosen)) != m - 1:
                continue
            # normals inside the direction space vanishing on the chosen set
            rows = [[sum(b[i] * d[i] for i in range(dim)) for b in dir_basis] for d in chosen]
            if rows:
                null = kernel_basis(mat(rows))
            else:
                null = [(Fraction(1),)] if m == 1 else kernel_basis(
                    mat([[Fraction(0)] * m]))
            if len(null) != 1:
                continue
            a = zero_vec(dim)
            for c, b in zip(null[0], dir_basis):
                a = vadd(a, vscale(c, b))
            for aa in (a, vscale(-1, a)):
                ok = all(sum(x * y for x, y in zip(aa, vsub(v, w))) <= 0 for v in vertices)
                ok = ok and all(sum(x * y for x, y in zip(aa, r)) <= 0 for r in rays)
                if ok:
                    aa_p = primitive(aa)
                    ineqs[aa_p] = sum(x * y for x, y in zip(aa_p, w))
                    break
    return tuple(eqs), tuple(sorted(ineqs.items()))


def _vrep_from_hrep(dim, eqs, ineqs):
    """Vertices and extreme rays of {x : eqs hold, a.x <= b}; None if empty.

    The result is only meaningful for pointed solution sets, which is all
    this library ever intersects.
    """
    A = [e[0] for e in eqs]
    b = [e[1] for e in eqs]
    if A:
        x0 = solve(mat(A), vec(b))
        if x0 is None:
            return None
        B = kernel_basis(mat(A))
    else:
        x0 = zero_vec(dim)
        B = [tuple(Fraction(1 if i == j else 0) for j in range(dim)) for i in range(dim)]
    m = len(B)

    rows = []
    for a, bb in ineqs:
        alpha = tuple(sum(a[i] * Bj[i] for i in range(dim)) for Bj in B)
        beta = bb - sum(a[i] * x0[i] for i in range(dim))
        if is_zero_vec(alpha):
            if beta < 0:
                return None
            continue
        rows.append((alpha, beta))

    verts = set()
    for subset in itertools.combinations(range(len(rows)), m):
        Asub = [rows[i][0] for i in subset]
        bsub = [rows[i][1] for i in subset]
        if m and rank(mat(Asub)) != m:
            continue
        s = solve(mat(Asub), vec(bsub)) if m else ()
        if s is None:
            continue
        if all(sum(a[i] * s[i] for i in range(m)) <= bb for a, bb in rows):
            x = x0
            for c, Bj in zip(s, B):
                x = vadd(x, vscale(c, Bj))
            verts.add(x)
    if not verts and m > 0:
        if not rows:
            return None  # whole subspace, not pointed
        return None
    if m == 0:
        if any(bb < 0 for _, bb in rows):
            return None
        return (tuple(sorted(verts | {x0})), ())

    rays_out = set()
    hom = [a for a, _ in rows]
    for subset in itertools.combinations(range(len(hom)), m - 1):
        Asub = [hom[i] for i in subset]
        if Asub and rank(mat(Asub)) != m - 1:
            continue
        null = kernel_basis(mat(Asub)) if Asub else [
            tuple(Fraction(1 if i == j else 0) for j in range(m)) for i in range(m)]
        if len(null) != 1:
            continue
        for d in (null[0], vscale(-1, null[0])):
            if all(sum(a[i] * d[i] for i in range(m)) <= 0 for a in hom):
                tight = [a for a in hom if sum(a[i] * d[i] for i in range(m)) == 0]
                if (rank(mat(tight)) if tight else 0) == m - 1:
                    amb = zero_vec(dim)
                    for c, Bj in zip(d, B):
                        amb = vadd(amb, vscale(c, Bj))
                    if not is_zero_vec(amb):
                        rays_out.add(primitive(amb))
                break
    return (tuple(sorted(verts)), tuple(sorted(rays_out)))


def polyhedron(dim_ambient, vertices, rays=()):
    """(eqs, ineqs, vertices, rays) of conv(vertices) + cone(rays), with the
    extreme generators kept by the rank of their tight rows; NonSCR on the
    same inputs as ``Polyhedron``."""
    vertices = sorted({vec(v) for v in vertices})
    rays = sorted({primitive(r) for r in rays if not is_zero_vec(vec(r))})
    if not vertices:
        raise NonSCR("a pointed polyhedron needs at least one vertex")
    eqs, ineqs = _hrep_from_generators(dim_ambient, vertices, rays)
    # lineality check: directions satisfying every constraint both ways
    lin_rows = [a for a, _ in ineqs] + [a for a, _ in eqs]
    lin = kernel_basis(mat(lin_rows)) if lin_rows else \
        ([tuple(Fraction(1 if i == j else 0) for j in range(dim_ambient))
          for i in range(dim_ambient)] if dim_ambient else [])
    if lin:
        raise NonSCR(f"polyhedron contains a line in direction {lin[0]}")
    n = dim_ambient
    keep_v = []
    for v in vertices:
        tight = [a for a, bb in ineqs if sum(x * y for x, y in zip(a, v)) == bb]
        tight += [a for a, _ in eqs]
        if (rank(mat(tight)) if tight else 0) == n:
            keep_v.append(v)
    keep_r = []
    for r in rays:
        tight = [a for a, _ in ineqs if sum(x * y for x, y in zip(a, r)) == 0]
        tight += [a for a, _ in eqs]
        if (rank(mat(tight)) if tight else 0) == n - 1:
            keep_r.append(r)
    if not keep_v:
        raise NonSCR("generators have no extreme point")
    return eqs, ineqs, tuple(keep_v), tuple(keep_r)


def intersect(dim_ambient, p, q):
    """The ``polyhedron`` tuple of the meet of two such tuples, or None."""
    out = _vrep_from_hrep(dim_ambient, list(p[0]) + list(q[0]), list(p[1]) + list(q[1]))
    if out is None or not out[0]:
        return None
    return polyhedron(dim_ambient, out[0], out[1])


def _plain(cone):
    """The cone as a plain polyhedron with the same fields."""
    p = Polyhedron.__new__(Polyhedron)
    for name in Polyhedron.__slots__:
        setattr(p, name, getattr(cone, name))
    return p


def cone_intersect(c, d):
    """The meet of two cones, built again from the rays of the meet of the
    two cones read as plain polyhedra."""
    meet = _plain(c).intersect(_plain(d))
    return None if meet is None else Cone(c.dim_ambient, meet.rays)


# ---------------------------------------------------------------------------
# transfer solvers and the properness certificate, run per call
# ---------------------------------------------------------------------------


def iota_upper_preimage(pc, a):
    """A class on c(Pi) slicing to ``a``: the slice images of a graded basis
    are built and solved on every call."""
    co = cone_over(pc)
    basis = ppfan.graded_basis(co.fan, a.degree)
    cols = [specialfiber.iota_upper(pc, b).coords() for b in basis]
    sol = solve(transpose(mat(cols)), vec(a.coords())) if cols else None
    if sol is None:
        raise InternalIdentityError("slice map is not onto this class")
    return ppfan.zero_pp(co.fan, a.degree).combine(basis, sol)


def vertical_expand(pc, F):
    """F = sum_j t^j . iota_lower(g_j), the lifted columns built per call."""
    t_form = HomogPoly.linear_form((0,) * pc.rank + (1,))
    bases = [specialfiber.vertex_layer_basis(pc, F.degree - 1 - j) for j in range(F.degree)]
    cols = []
    for j, basis in enumerate(bases):
        for b in basis:
            lifted = specialfiber.iota_lower(b)
            for _ in range(j):
                lifted = lifted * t_form
            cols.append(lifted.coords())
    target = F.coords()
    if not cols:
        if any(x != 0 for x in target):
            raise DecompositionFailed("no vertical basis but nonzero target")
        return [specialfiber.zero_vertex_tuple(pc, F.degree - 1)]
    sol = solve(transpose(mat(cols)), vec(target))
    if sol is None:
        raise DecompositionFailed("target class admits no vertical expansion")
    out = []
    for j, basis in enumerate(bases):
        out.append(specialfiber.zero_vertex_tuple(pc, F.degree - 1 - j).combine(
            basis, sol[:len(basis)]))
        sol = sol[len(basis):]
    return out


def vertical_decompose(pc, F):
    """Solve iota_lower(g) = F, the lifted columns built per call."""
    k = F.degree - 1
    basis = specialfiber.vertex_layer_basis(pc, k)
    cols = [specialfiber.iota_lower(b).coords() for b in basis]
    target = F.coords()
    if not cols:
        if any(x != 0 for x in target):
            raise DecompositionFailed("no vertical basis but nonzero target")
        return specialfiber.zero_vertex_tuple(pc, k)
    sol = solve(transpose(mat(cols)), vec(target))
    if sol is None:
        raise DecompositionFailed("target class is not a vertical lift")
    return specialfiber.zero_vertex_tuple(pc, k).combine(basis, sol)


def class_equal(ta, tb):
    """Equality of the homology classes of two vertex tuples by one
    elimination of the gamma image per call."""
    pc = ta.complex
    diff = (ta - tb).coords()
    if all(x == 0 for x in diff):
        return True
    gcols = specialfiber.gamma_image_matrix(pc, ta.degree)
    if not gcols:
        return False
    return solve(transpose(mat(gcols)), vec(diff)) is not None


def _truncated_volume(cone, functional):
    """n! times the volume of the cone cut off at functional <= 1."""
    scaled = []
    for r in cone.rays:
        h = functional.evaluate(r)
        if h <= 0:
            raise NotProper("functional not positive on a covering cone")
        scaled.append([x / h for x in r])
    return abs(fraction_det(scaled))


def check_covers_by_volume(sigma, parts, rank_):
    """Do the full-dimensional cones cover sigma?  Compares the volume of
    sigma truncated by a functional positive on it against the sum over the
    parts; the parts sit inside sigma and meet along faces, so equality is
    equivalent to covering."""
    c = ppfan.dual_forms(sigma, rank_)
    functional = c[0]
    for form in c[1:]:
        functional = functional + form
    total = _truncated_volume(sigma, functional)
    return sum(_truncated_volume(p, functional) for p in parts) == total


def pushforward(fan_map, f):
    """Pushforward with the volume certificate of properness run on every
    call, for every target cone."""
    src, tgt = fan_map.source, fan_map.target
    if not f.fan.same_as(src):
        raise ValueError("function does not live on the map's source")
    if not (src.is_regular() and tgt.is_regular()):
        raise NotRegular("pushforward needs regular fans")
    rank_ = tgt.rank
    pieces = []
    for t, tmax in enumerate(tgt.maximal):
        sigma = tgt.cones[tmax]
        parts = [src.cones[src.maximal[s]] for s in range(len(src.maximal))
                 if fan_map.max_map[s] == t]
        if not check_covers_by_volume(sigma, parts, rank_):
            raise NotProper(f"source cones do not cover target cone {sigma!r}")
        numf = ppfan.dual_forms(sigma, rank_)
        terms = []
        for s in range(len(src.maximal)):
            if fan_map.max_map[s] != t:
                continue
            num = f.pieces[s]
            for form in numf:
                num = num * form
            terms.append(RatFun(num, ppfan.dual_forms(src.cones[src.maximal[s]], rank_)))
        pieces.append(ratfun_sum_to_poly(terms, dim=rank_, degree=f.degree))
    return ppfan.PPFunction(tgt, f.degree, pieces, validate=False)


def install_transfers(mp):
    """Route the four solvers and ``pushforward`` through the per-call routes
    at every binding in the program, for the life of ``mp``; ``alpha`` and
    ``beta`` then run on them."""
    swaps = {id(getattr(mod, f.__name__)): f
             for mod, f in ((ppfan, pushforward), (specialfiber, iota_upper_preimage),
                            (specialfiber, vertical_expand), (specialfiber, vertical_decompose),
                            (specialfiber, class_equal))}
    for mod in (ppfan, specialfiber, limits, arithchow, checks):
        for name, obj in list(vars(mod).items()):
            if id(obj) in swaps:
                mp.setattr(mod, name, swaps[id(obj)])


# ---------------------------------------------------------------------------
# pushforward, cycle classes and the height-zero restriction, rebuilt per call
# ---------------------------------------------------------------------------


def localized_pushforward(fan_map, f):
    """Pushforward with the localization sum on every target cone, split by
    the map or not; properness is certified once per target cone, kept on
    the map."""
    src, tgt = fan_map.source, fan_map.target
    if not f.fan.same_as(src):
        raise ValueError("function does not live on the map's source")
    if not (src.is_regular() and tgt.is_regular()):
        raise NotRegular("pushforward needs regular fans")
    rank_ = tgt.rank
    pieces = []
    for t, tmax in enumerate(tgt.maximal):
        sigma = tgt.cones[tmax]
        if ("oracle_covering", t) not in fan_map._cache:
            inside = tuple(s for s, u in enumerate(fan_map.max_map) if u == t)
            covers = check_covers_by_volume(
                sigma, [src.cones[src.maximal[s]] for s in inside], rank_)
            fan_map._cache["oracle_covering", t] = inside if covers else None
        if fan_map._cache["oracle_covering", t] is None:
            raise NotProper(f"source cones do not cover target cone {sigma!r}")
        numf = ppfan.dual_forms(sigma, rank_)
        terms = []
        for s in fan_map._cache["oracle_covering", t]:
            num = f.pieces[s]
            for form in numf:
                num = num * form
            terms.append(RatFun(num, ppfan.dual_forms(src.cones[src.maximal[s]], rank_)))
        pieces.append(ratfun_sum_to_poly(terms, dim=rank_, degree=f.degree))
    return ppfan.PPFunction(tgt, f.degree, pieces, validate=False)


def closure_class(pc, cycle):
    """The closure class, a ``Cone`` built for each term on every call."""
    fan = cone_over(pc).fan
    n = pc.rank
    return ppfan.zero_pp(fan, cycle.codim).combine(
        [ppfan.phi_cone(fan, Cone(n + 1, list(horizontal_lift_key(key))))
         for key in cycle.terms],
        cycle.terms.values())


def model_cycle_class(pc, cycle):
    """The class of a model-level cycle, a ``Cone`` built for each term on
    every call."""
    fan = cone_over(pc).fan
    return ppfan.zero_pp(fan, cycle.codim).combine(
        [ppfan.phi_cone(fan, Cone(pc.rank + 1, list(key))) for key in cycle.terms],
        cycle.terms.values())


def restrict_to_height_zero(pc, f):
    """The restriction to rec(Pi), the cone above each recession cone found
    by building the lifted cone and testing containment."""
    cone_over_ = cone_over(pc)
    rec = recession_fan(pc)
    n = pc.rank
    images = [HomogPoly.variable(n, i) for i in range(n)] + [HomogPoly.zero(n, 1)]
    pieces = []
    for rmax in rec.maximal:
        sigma = rec.cones[rmax]
        lift = Cone(n + 1, [tuple(r) + (0,) for r in sigma.rays])
        pos = next(p for p, i in enumerate(cone_over_.fan.maximal)
                   if contains_poly(cone_over_.fan.cones[i], lift))
        pieces.append(f.pieces[pos].substitute(images))
    return ppfan.PPFunction(rec, f.degree, pieces, validate=False)


def install_towers(mp):
    """Route ``pushforward``, the two cycle classes and the height-zero
    restriction through the routes above at every binding in ppchow, for the
    life of ``mp``."""
    swaps = {id(ppfan.pushforward): localized_pushforward,
             id(cycles.closure_class): closure_class,
             id(cycles.model_cycle_class): model_cycle_class,
             id(ppfan.restrict_to_height_zero): restrict_to_height_zero}
    for name, mod in list(sys.modules.items()):
        if name == "ppchow" or name.startswith("ppchow."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swaps:
                    mp.setattr(mod, attr, swaps[id(obj)])


# ---------------------------------------------------------------------------
# the special-fiber maps, walking the whole model by vertex coordinates
# ---------------------------------------------------------------------------


def _chart_positions(pc, v):
    """Map maximal cell index -> position in the chart fan's maximal list."""
    chart = vertex_chart(pc, v)
    key = ("oracle_chart_pos", v)
    if key not in pc._cache:
        pc._cache[key] = {cell_idx: p for p, cell_idx in enumerate(chart.max_cells)}
    return pc._cache[key]


def _piece_at(pc, t, v, cell_idx):
    """The ambient polynomial of the vertex entry at v on a maximal cell."""
    return t.entries[v].pieces[_chart_positions(pc, v)[cell_idx]]


def _edge_star(pc, e):
    key = ("oracle_estar", e)
    if key not in pc._cache:
        pc._cache[key] = specialfiber._EdgeStar(pc, e)
    return pc._cache[key]


def _edge_ray_form(pc, v, edge_star, cell_idx):
    """The linear form of the edge direction on the chart cone of the cell."""
    chart = vertex_chart(pc, v)
    r = edge_star.ray1 if v == edge_star.v1 else edge_star.ray2
    cone = chart.fan.max_cones()[chart.max_cells.index(cell_idx)]
    idx = cone.rays.index(r)
    return dual_forms(cone, pc.rank)[idx]


def rho(t):
    """Restriction difference to the bounded-edge strata.

    On each maximal cell containing the edge the value is the higher
    endpoint's reading minus the lower endpoint's reading.
    """
    pc = t.complex
    entries = {}
    for e in pc.bounded_edges:
        star = _edge_star(pc, e)
        entries[e] = {i: _piece_at(pc, t, star.v1, i) - _piece_at(pc, t, star.v2, i)
                      for i in star.cells}
    return EdgeTuple(pc, t.degree, entries)


def gamma(et):
    """Signed pushforward from edge strata into the components, degree +1.

    Each star function is multiplied by the dual form of the edge direction
    and extended by zero into the endpoint chart, with sign +1 at the higher
    endpoint and -1 at the lower one.
    """
    pc = et.complex
    n = pc.rank
    acc = {v: {} for v in pc.vertices}  # vertex -> cell -> poly
    for e in pc.bounded_edges:
        star = _edge_star(pc, e)
        for v, sign in ((star.v1, 1), (star.v2, -1)):
            for i in star.cells:
                form = _edge_ray_form(pc, v, star, i)
                contrib = et.entries[e][i] * form
                if sign < 0:
                    contrib = -contrib
                cur = acc[v].get(i)
                acc[v][i] = contrib if cur is None else cur + contrib
    entries = {}
    for v in pc.vertices:
        chart = vertex_chart(pc, v)
        pos = _chart_positions(pc, v)
        pieces = [HomogPoly.zero(n, et.degree + 1)] * len(chart.fan.maximal)
        for cell_idx, p in acc[v].items():
            pieces[pos[cell_idx]] = p
        f = PPFunction(chart.fan, et.degree + 1, pieces, validate=True)
        entries[v] = f
    return VertexTuple(pc, et.degree + 1, entries)


def ddc_one_shot(t):
    """-gamma.rho in a single pass: at each vertex, the sum over incident
    bounded edges of (transport of the other endpoint's function, pushed in)
    minus (the edge generator times the own function)."""
    pc = t.complex
    n = pc.rank
    entries = {}
    for v in pc.vertices:
        chart = vertex_chart(pc, v)
        pos = _chart_positions(pc, v)
        total = zero_pp(chart.fan, t.degree + 1)
        for e in pc.bounded_edges:
            star = _edge_star(pc, e)
            if v not in (star.v1, star.v2):
                continue
            other = star.v2 if v == star.v1 else star.v1
            pieces = [HomogPoly.zero(n, t.degree + 1)] * len(chart.fan.maximal)
            for i in star.cells:
                form = _edge_ray_form(pc, v, star, i)
                pieces[pos[i]] = _piece_at(pc, t, other, i) * form
            pushed = PPFunction(chart.fan, t.degree + 1, pieces, validate=False)
            r = star.ray1 if v == star.v1 else star.ray2
            phi = phi_ray(chart.fan, r)
            total = total + (pushed - phi * t.entries[v])
        entries[v] = total
    return VertexTuple(pc, t.degree + 1, entries)


def to_vertex_tuple(a):
    """Read an AffinePP as its tuple of chart restrictions (always in ker rho)."""
    pc = a.complex
    entries = {}
    for v in pc.vertices:
        chart = vertex_chart(pc, v)
        pos = _chart_positions(pc, v)
        pieces = [None] * len(chart.fan.maximal)
        for cell_idx in chart.max_cells:
            pieces[pos[cell_idx]] = a.cell_polys[cell_idx]
        entries[v] = PPFunction(chart.fan, a.degree, pieces, validate=False)
    return VertexTuple(pc, a.degree, entries)


def from_vertex_tuple(t):
    """Assemble a vertex tuple in ker rho into the AffinePP it represents.

    Raises :class:`NotInKernel` when two endpoint charts read different
    polynomials on a shared maximal cell.
    """
    pc = t.complex
    cell_polys = {}
    for i in pc.maximal:
        cell = pc.cells[i]
        readings = [(v, _piece_at(pc, t, v, i)) for v in pc.vertices if v in cell.vertices]
        first = readings[0][1]
        for v, p in readings[1:]:
            if p != first:
                raise NotInKernel(
                    f"cell {i}: chart at {readings[0][0]} reads {first!r}, chart at {v} reads {p!r}")
        cell_polys[i] = first
    return AffinePP(pc, t.degree, cell_polys)


def iota_lower(t):
    """Lift special-fiber homology into the model, degree +1.

    Each vertex entry is pulled back along a - t v and multiplied by the
    generator of the vertex's ray in c(Pi), then summed over the vertices.
    """
    pc = t.complex
    co = cone_over(pc)
    n = pc.rank
    fan = co.fan
    out = zero_pp(fan, t.degree + 1)
    for v in pc.vertices:
        lift_images = [HomogPoly.linear_form(
            tuple(1 if i == j else 0 for j in range(n)) + (-v[i],)) for i in range(n)]
        ray_v = primitive(tuple(v) + (1,))
        phi_v = phi_ray(fan, ray_v)
        pos_of_cell = {i: p for p, i in enumerate(co.max_cells)}
        pieces = [HomogPoly.zero(n + 1, t.degree)] * len(fan.maximal)
        for cell_idx in vertex_chart(pc, v).max_cells:
            p = _piece_at(pc, t, v, cell_idx)
            pieces[pos_of_cell[cell_idx]] = p.substitute(lift_images)
        lifted = PPFunction(fan, t.degree, pieces, validate=False)
        out = out + lifted * phi_v
    bad = out.offending_pair()
    if bad is not None:  # pragma: no cover - would be a library bug
        raise InternalIdentityError(f"vertical lift failed validation at {bad}")
    return out


def cap_fundamental(a):
    """Cap with the fundamental class of the special fiber: the vertex tuple
    of chart restrictions weighted by the component multiplicities."""
    pc = a.complex
    t = to_vertex_tuple(a)
    entries = {v: t.entries[v].scale(vertex_chart(pc, v).multiplicity)
               for v in pc.vertices}
    return VertexTuple(pc, a.degree, entries)


def zeta(m, t):
    """Pullback of vertex tuples along a refinement.

    Old vertices re-read their function on the finer chart; a new vertex
    interior to a cell of the coarse complex receives the sum of that cell's
    vertex functions, read off on its own chart.  Validity of the new entries
    is checked, not assumed.
    """
    if t.complex is not m.target and not t.complex.same_as(m.target):
        raise NotARefinement("tuple does not live on the map's target")
    src, tgt = m.source, m.target
    entries = {}
    old = set(tgt.vertices)
    for v in src.vertices:
        if v in old:
            entries[v] = pullback(m.chart_map(v), t.entries[v])
            continue
        sigma = find_cell(tgt, v)
        chart = vertex_chart(src, v)
        pos = _chart_positions(src, v)
        pieces = [None] * len(chart.fan.maximal)
        for cell_idx in chart.max_cells:
            parent = m.cell_map[cell_idx]
            total = HomogPoly.zero(src.rank, t.degree)
            for w in sigma.vertices:
                total = total + _piece_at(tgt, t, w, parent)
            pieces[pos[cell_idx]] = total
        entries[v] = PPFunction(chart.fan, t.degree, pieces, validate=True)
    return VertexTuple(src, t.degree, entries)


# ---------------------------------------------------------------------------
# faces, cones over cells and chart cones, each built from its generators
# ---------------------------------------------------------------------------


def _facet_keys(p):
    """(vertices, rays) of p on each facet hyperplane."""
    n = p.dim_ambient
    out = []
    for a, bb in p.ineqs:
        vs = tuple(v for v in p.vertices if sum(a[i] * v[i] for i in range(n)) == bb)
        rs = tuple(r for r in p.rays if sum(a[i] * r[i] for i in range(n)) == 0)
        if vs:
            out.append((vs, rs))
    return out


def faces(p, built=None):
    """All nonempty faces of p, sorted like ``Polyhedron.faces``; faces
    missing from ``built`` are built from their keys and added."""
    built = {} if built is None else built
    built.setdefault(p.key(), p)
    seen = {}
    stack = [p]
    while stack:
        f = stack.pop()
        if f.key() in seen:
            continue
        seen[f.key()] = f
        for key in _facet_keys(f):
            if key not in built:
                built[key] = Polyhedron(p.dim_ambient, *key)
            stack.append(built[key])
    return sorted(seen.values(), key=lambda f: (f.dim, f.key()))


def _cone_over_rays(cell):
    """Sorted primitive rays of the cone over a cell, which is its key: the
    vertices and extreme rays of a pointed cell are all extreme."""
    rays = {primitive(tuple(v) + (Fraction(1),)) for v in cell.vertices}
    rays.update(tuple(r) + (Fraction(0),) for r in cell.rays)
    return tuple(sorted(rays))


def cone_over_cell(cell):
    """The cone over a cell, built from its rays."""
    return Cone(cell.dim_ambient + 1, _cone_over_rays(cell))


def recession_cone(cell):
    """The recession cone of a cell, built from the cell's rays."""
    return Cone(cell.dim_ambient, cell.rays)


def is_complete(closure):
    """Completeness as it was tested: full-dimensional maximal members, each
    facet (found by dot products) in exactly two of them, and for a complex
    also a complete fan of the recession cones built from the cells' rays."""
    fan = isinstance(closure, Fan)
    maxs = closure.max_cones() if fan else closure.max_cells()
    if closure.rank == 0 or not maxs:
        return bool(maxs)
    count = {}
    for p in maxs:
        for key in _facet_keys(p):
            count[key] = count.get(key, 0) + 1
    if any(p.dim != closure.rank for p in maxs) or any(v != 2 for v in count.values()):
        return False
    return fan or is_complete(Fan(closure.rank, [recession_cone(p) for p in maxs],
                                  validate=False))


def chart_cone(v, cell):
    """The cone at the vertex v of a cell containing it."""
    rays = [vsub(u, v) for u in cell.vertices if u != v] + list(cell.rays)
    return Cone(cell.dim_ambient, [primitive(r) for r in rays])


# ---------------------------------------------------------------------------
# vanishing on a span and the gluing kernel, restricting on every call
# ---------------------------------------------------------------------------


def restrict_to_span(p, basis):
    """p as a polynomial in the parameters s of the span of ``basis``: the
    substitution x_i = sum_j s_j basis[j][i], in ``len(basis)`` variables."""
    units = [tuple(int(i == j) for j in range(len(basis))) for i in range(len(basis))]
    return p.substitute([HomogPoly(len(basis), 1, {u: b[i] for u, b in zip(units, basis)})
                         for i in range(p.dim)])


def equal_on_span(p, q, subspace):
    """Do p and q agree as functions on the linear subspace spanned by the
    given vectors?"""
    if p.dim != q.dim:
        raise ValueError("ambient dimension mismatch")
    diff = p - q
    if diff.is_zero():
        return True
    return restrict_to_span(diff, subspace).is_zero()


def gluing_kernel(pairs, nblocks, dim, k):
    """Basis of the tuples of ``nblocks`` degree-k polynomials that agree on
    the span of each (a, b, span) in ``pairs``: each coefficient of a
    restricted difference is one condition, the monomials restricted once
    per distinct span of the call."""
    monos = monomial_exponents(dim, k)
    width = len(monos) * nblocks
    conditions = {}
    rows = []
    for a, b, span in pairs:
        if span not in conditions:
            restricted = [restrict_to_span(HomogPoly(dim, k, {e: 1}), span).coeffs
                          for e in monos]
            conditions[span] = [[(col, r[pm]) for col, r in enumerate(restricted) if pm in r]
                                for pm in monomial_exponents(len(span), k)]
        for terms in conditions[span]:
            row = [0] * width
            for col, c in terms:
                row[a * len(monos) + col] = c
                row[b * len(monos) + col] = -c
            rows.append(row)
    # with no conditions every tuple glues; one zero row carries the width
    return [tuple(HomogPoly(dim, k, {e: v[blk * len(monos) + col]
                                     for col, e in enumerate(monos)})
                  for blk in range(nblocks))
            for v in kernel_basis(mat(rows or [[0] * width]))]


# ---------------------------------------------------------------------------
# the meeting pairs of fans and of complexes, and the two validators
# ---------------------------------------------------------------------------


def common_face(p, q):
    """(vertices, rays) of the common face of two cells of one complex, read
    off their common vertices and rays; None when they share no vertex."""
    qv = set(q.vertices)
    vs = tuple(v for v in p.vertices if v in qv)
    if not vs:
        return None
    qr = set(q.rays)
    return vs, tuple(r for r in p.rays if r in qr)


def max_pair_spans(fan):
    """For every pair of maximal cones, by position, the span of their
    intersection and its rays: two cones of a fan meet in the cone on their
    common rays.  Pairs with one span share one :class:`Span`."""
    if "oracle_pair_spans" not in fan._cache:
        out, spans = [], {}
        maxs = fan.max_cones()
        for (i, ci), (j, cj) in itertools.combinations(enumerate(maxs), 2):
            _, rays = common_face(ci, cj)
            span = tuple(span_basis(rays))
            out.append((i, j, spans.setdefault(span, Span(span)), rays))
        fan._cache["oracle_pair_spans"] = tuple(out)
    return fan._cache["oracle_pair_spans"]


def cell_adjacency(pc):
    """Pairs of maximal cells that meet, by cell index, with the direction
    space of their common face (a shared :class:`Span`) and its (vertices,
    rays)."""
    if "oracle_cell_adj" not in pc._cache:
        out, spans = [], {}
        for i, j in itertools.combinations(pc.maximal, 2):
            meet = common_face(pc.cells[i], pc.cells[j])
            if meet is not None:
                span = tuple(direction_space(*meet))
                out.append((i, j, spans.setdefault(span, Span(span)), meet))
        pc._cache["oracle_cell_adj"] = tuple(out)
    return pc._cache["oracle_cell_adj"]


def pp_offending_pair(f):
    """(i, j, common face) for the first pair of pieces that disagree."""
    for i, j, span, rays in max_pair_spans(f.fan):
        if not equal_on_span(f.pieces[i], f.pieces[j], span):
            return (i, j, Cone(f.fan.rank, rays))
    return None


def affine_offending_pair(a):
    """(i, j, common face) for the first pair of cells that disagree."""
    pc = a.complex
    for i, j, dirspan, meet in cell_adjacency(pc):
        if not equal_on_span(a.cell_polys[i], a.cell_polys[j], dirspan):
            return (i, j, Polyhedron(pc.rank, *meet))
    return None


# ---------------------------------------------------------------------------
# the localization sum of a split cone, built per call
# ---------------------------------------------------------------------------


def ratfun_pushforward(fan_map, f):
    """Pushforward with the localization sum of each split target cone built
    on every call, as ``RatFun`` terms summed by ``ratfun_sum_to_poly``; a
    cone the map does not split keeps its piece."""
    src, tgt = fan_map.source, fan_map.target
    if not f.fan.same_as(src):
        raise ValueError("function does not live on the map's source")
    if not (src.is_regular() and tgt.is_regular()):
        raise NotRegular("pushforward needs regular fans")
    rank_ = tgt.rank
    pieces = []
    for t, tmax in enumerate(tgt.maximal):
        sigma = tgt.cones[tmax]
        numf = ppfan.dual_forms(sigma, rank_)
        inside = ppfan._covering(fan_map, t)
        if inside is None:
            raise NotProper(f"source cones do not cover target cone {sigma!r}")
        if len(inside) == 1 and src.cones[src.maximal[inside[0]]].rays == sigma.rays:
            pieces.append(f.pieces[inside[0]])
            continue
        terms = []
        for s in inside:
            num = f.pieces[s]
            for form in numf:
                num = num * form
            terms.append(RatFun(num, ppfan.dual_forms(src.cones[src.maximal[s]], rank_)))
        pieces.append(ratfun_sum_to_poly(terms, dim=rank_, degree=f.degree))
    return ppfan.PPFunction(tgt, f.degree, pieces, validate=False)


# ---------------------------------------------------------------------------
# graded bases from the gluing system on every fan
# ---------------------------------------------------------------------------


def gluing_graded_basis(fan, k):
    """``graded_basis`` as it was on every fan: the kernel of the gluing
    system on the fan's adjacency, read off its RREF."""
    return [PPFunction._of(fan, k, pieces)
            for pieces in polyring.gluing_kernel(fan.adjacency(), len(fan.maximal), fan.rank, k)]


# ---------------------------------------------------------------------------
# fixtures, products and writers that only tests call
# ---------------------------------------------------------------------------


def zero_value(flavor, pc, k):
    """The zero value of degree k on the model pc of a flavor's towers."""
    if flavor == "closed":
        return AffinePP._of(pc, k, (HomogPoly.zero(pc.rank, k),) * len(pc.maximal))
    if flavor == "tilde":
        return specialfiber.zero_vertex_tuple(pc, k)
    return zero_pp(cone_over(pc).fan, k)


def zero_tower(chain, flavor, degree):
    return limits.CurrentTower(chain, {i: zero_value(flavor, pc, degree)
                                       for i, pc in enumerate(chain.models)})


def closed_form_product(a, b):
    """The product of two closed forms on the common model that
    ``limits.on_common_model`` finds."""
    pc, x, y = limits.on_common_model("closed", a, b)
    return limits.ClosedForm(pc, x * y)


def rational_equivalence_class(chain, start, sigma_t, weight_t):
    """The limit class of a rational-equivalence generator.

    For an eigenfunction of the given weight on V(sigma_t) this is the
    character action on the closure minus the model-level divisor; the class
    is zero in the limit, which is the well-definedness of theta.
    """
    pc = chain.models[start]
    fan = cone_over(pc).fan
    weight_t = vec(weight_t)
    E = arithchow.eigen_divisor(fan, sigma_t, weight_t)
    chi_w = ppfan.phi_cone(fan, sigma_t) * HomogPoly.linear_form(weight_t)
    return arithchow.LimitClass(pc, chi_w - cycles.model_cycle_class(pc, E))


def cycle_to_json(z):
    """The JSON data of a cycle file, which ``io.read(path, "cycle")`` reads."""
    return {"codim": z.codim,
            "terms": [{"cone": [vector_to_json(r) for r in rays], "coeff": rat_str(c)}
                      for rays, c in sorted(z.terms.items())]}


# ---------------------------------------------------------------------------
# the Smith normal form and the lattice routes built on it
# ---------------------------------------------------------------------------


def _swap_rows(M, i, j):
    M[i], M[j] = M[j], M[i]


def _swap_cols(M, i, j):
    for row in M:
        row[i], row[j] = row[j], row[i]


def _add_row(M, dst, src, q):
    # row_dst += q * row_src
    M[dst] = [a + q * b for a, b in zip(M[dst], M[src])]


def _add_col(M, dst, src, q):
    for row in M:
        row[dst] += q * row[src]


def smith_normal_form(A):
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U*A*V = D, U and V unimodular, and the diagonal
    of D a divisibility chain d1 | d2 | ... with nonnegative entries.
    """
    M = [[int(x) for x in row] for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def min_entry(s):
        best = None
        for i in range(s, m):
            for j in range(s, n):
                if M[i][j] != 0 and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        return best

    s = 0
    while True:
        pos = min_entry(s)
        if pos is None:
            break
        while True:
            i, j = min_entry(s)
            _swap_rows(M, s, i), _swap_rows(U, s, i)
            _swap_cols(M, s, j), _swap_cols(V, s, j)
            dirty = False
            for r in range(s + 1, m):
                if M[r][s] != 0:
                    q = -(M[r][s] // M[s][s])
                    _add_row(M, r, s, q), _add_row(U, r, s, q)
                    dirty = dirty or M[r][s] != 0
            for c in range(s + 1, n):
                if M[s][c] != 0:
                    q = -(M[s][c] // M[s][s])
                    _add_col(M, c, s, q), _add_col(V, c, s, q)
                    dirty = dirty or M[s][c] != 0
            if not dirty:
                # pivot must divide the whole remaining block
                bad = next(((r, c) for r in range(s + 1, m) for c in range(s + 1, n)
                            if M[r][c] % M[s][s] != 0), None)
                if bad is None:
                    break
                _add_row(M, s, bad[0], 1), _add_row(U, s, bad[0], 1)
        if M[s][s] < 0:
            M[s] = [-x for x in M[s]]
            U[s] = [-x for x in U[s]]
        s += 1
        if s == min(m, n):
            break

    Ut = tuple(tuple(r) for r in U)
    Vt = tuple(tuple(r) for r in V)
    Dt = tuple(tuple(r) for r in M)
    return Ut, Dt, Vt


def integer_kernel_basis(A):
    """Saturated basis of {x in Z^n : A x = 0} for an integer matrix A.

    Uses the Smith normal form: with U A V = D, the kernel is spanned by the
    columns of V matching zero diagonal entries, and V unimodular makes the
    result saturated.
    """
    A = [[int(x) for x in row] for row in A]
    if not A:
        raise ValueError("need explicit column count; pass a zero row instead")
    n = len(A[0])
    _, D, V = smith_normal_form(A)
    cols = []
    for j in range(n):
        dj = D[j][j] if j < len(D) and j < len(D[0]) else 0
        if dj == 0:
            cols.append(tuple(Fraction(V[i][j]) for i in range(n)))
    return cols


def rays_extend_to_basis(rays):
    """Do the (primitive) rays extend to a basis of Z^n?

    The test is the Smith normal form one: the coordinate matrix of the rays
    must have all invariant factors equal to 1.
    """
    rays = [vec(r) for r in rays]
    if not rays:
        return True
    if any(x.denominator != 1 for r in rays for x in r):
        return False
    coord_rows = [tuple(int(x) for x in r) for r in rays]
    _, D, _ = smith_normal_form(coord_rows)
    k = len(coord_rows)
    invariants = [D[i][i] for i in range(min(k, len(D[0]) if D else 0))]
    return len([d for d in invariants if d != 0]) == k and all(d == 1 for d in invariants if d != 0)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def interval_model(lo, hi):
    """The rank-one model with vertices lo, lo + 1, ..., hi."""
    cells = [Polyhedron(1, [(lo,)], [(-1,)]), Polyhedron(1, [(hi,)], [(1,)])]
    cells += [Polyhedron(1, [(a,), (a + 1,)]) for a in range(lo, hi)]
    return PolyComplex(1, cells)


def rank_one_model(vertices):
    """The rank-one model with these vertices, in increasing order."""
    cells = [Polyhedron(1, [(vertices[0],)], [(-1,)]), Polyhedron(1, [(vertices[-1],)], [(1,)])]
    cells += [Polyhedron(1, [(a,), (b,)]) for a, b in zip(vertices, vertices[1:])]
    return PolyComplex(1, cells)


@st.composite
def rank_one_chains(draw):
    """A rank-one chain of length 2-5 from F1: each step adds the next lattice
    point on one side, or the mediant of two neighbours, which keeps c(Pi)
    regular and gives a component of multiplicity its denominator."""
    vertices = [Fraction(0)]
    models = [rank_one_model(vertices)]
    for _ in range(draw(st.integers(1, 4))):
        step = draw(st.integers(0, len(vertices)))
        if step == 0:
            vertices = [vertices[0] - 1] + vertices
        elif step == len(vertices):
            vertices = vertices + [vertices[-1] + 1]
        else:
            a, b = vertices[step - 1], vertices[step]
            mediant = Fraction(a.numerator + b.numerator, a.denominator + b.denominator)
            vertices = vertices[:step] + [mediant] + vertices[step:]
        models.append(rank_one_model(vertices))
    return ModelChain(models)


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
