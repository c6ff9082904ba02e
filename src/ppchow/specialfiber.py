"""Equivariant Chow data of the special fiber of a toric model.

Components of the special fiber correspond to vertices of the complex,
codimension-one strata to bounded edges.  Classes on the component V(v) are
piecewise polynomials on the vertex chart Pi(v); classes on an edge stratum
are piecewise polynomials on the closed star of the edge direction,
represented by one ambient polynomial per maximal cell containing the edge.
Under the fixed chart identification (a, t) -> a - t v, transport between the
two endpoint charts of an edge leaves those ambient polynomials unchanged,
which turns the kernel condition for the restriction-difference map into a
literal coefficient comparison.

The carriers are laid out in the complex's fixed orders: an AffinePP has one
polynomial per maximal cell, a VertexTuple one piecewise polynomial per
vertex chart, an EdgeTuple one polynomial per maximal cell of each bounded
edge's star.  Like PPFunction they are :class:`~ppchow.polyring.Piecewise`
objects, so sums, scalings, part-wise products, equality, the coordinates
``coords()`` and linear combinations (``combine``) are defined once, on the
base.  A HomologyClass is a vertex tuple taken modulo the image of gamma.

The maps here are the restriction-difference rho, its signed pushforward
adjoint gamma (one degree up), their composite -gamma.rho (the model-level
dd^c), the slice map from classes on the model and the vertical lift back,
the cap with the fundamental class of the fiber, homology presentations, and
the four transfer maps between models.
"""

import itertools

from .errors import (FaceMismatch, FacetMismatch, InternalIdentityError,
                     NotInKernel, NotARefinement)
from .polyhedra import (Polyhedron, cone_over, edge_data, recession_fan,
                        vertex_chart)
from .polyring import HomogPoly, Piecewise, equal_on_span, gluing_kernel
from .ppfan import (PPFunction, dual_forms, graded_basis, phi_ray, pullback,
                    pushforward, zero_pp)
from .qlinalg import RowEchelon, mat, primitive, rank, solve, transpose, vec


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------


class AffinePP(Piecewise):
    """An affine piecewise polynomial: one ambient homogeneous polynomial per
    maximal cell, agreeing on the direction space of every shared face."""

    __slots__ = ("complex", "degree", "cell_polys", "_pieces")

    def __init__(self, pc, degree, cell_polys, validate=True):
        self.complex = pc
        self.degree = degree
        self._pieces = tuple(cell_polys.get(i, HomogPoly.zero(pc.rank, degree))
                             for i in pc.maximal)
        for i, p in zip(pc.maximal, self._pieces):
            if not p.is_zero() and p.degree != degree:
                raise FaceMismatch(f"cell {i} piece has degree {p.degree}, expected {degree}")
        self.cell_polys = dict(zip(pc.maximal, self._pieces))
        if validate:
            bad = self.offending_pair()
            if bad is not None:
                i, j, inter = bad
                raise FacetMismatch(
                    f"cells {i} and {j} disagree on the direction space of {inter!r}",
                    witness=bad)

    def offending_pair(self):
        """(i, j, common face) for the first pair of cells that disagree."""
        pc = self.complex
        for i, j, dirspan, meet in pc.adjacency():
            if not equal_on_span(self.cell_polys[i], self.cell_polys[j], dirspan):
                return (i, j, Polyhedron(pc.rank, *meet))
        return None

    def _domain(self):
        return self.complex

    def _parts(self):
        return self._pieces

    def _rebuild(self, parts, degree):
        return AffinePP(self.complex, degree, dict(zip(self.complex.maximal, parts)),
                        validate=False)

    def __repr__(self):
        return f"AffinePP(deg={self.degree}, {self.cell_polys})"


def make_affine_pp(pc, cell_polys, degree):
    """Validated AffinePP from per-maximal-cell polynomials.

    ``cell_polys`` may be a dict keyed by maximal cell index or a sequence
    parallel to ``pc.maximal``.
    """
    if not isinstance(cell_polys, dict):
        cell_polys = {i: p for i, p in zip(pc.maximal, cell_polys)}
    return AffinePP(pc, degree, cell_polys, validate=True)


class VertexTuple(Piecewise):
    """One piecewise polynomial per vertex chart, all of one degree."""

    __slots__ = ("complex", "degree", "entries", "_pieces")

    def __init__(self, pc, degree, entries):
        self.complex = pc
        self.degree = degree
        self._pieces = tuple(entries[v] if entries.get(v) is not None
                             else zero_pp(vertex_chart(pc, v).fan, degree)
                             for v in pc.vertices)
        self.entries = dict(zip(pc.vertices, self._pieces))

    def _domain(self):
        return self.complex

    def _parts(self):
        return self._pieces

    def _rebuild(self, parts, degree):
        return VertexTuple(self.complex, degree, dict(zip(self.complex.vertices, parts)))

    def __repr__(self):
        return f"VertexTuple(deg={self.degree}, {self.entries})"


def zero_vertex_tuple(pc, degree):
    return VertexTuple(pc, degree, {})


class EdgeTuple(Piecewise):
    """One star function per bounded edge: ambient polynomials indexed by the
    maximal cells containing the edge (read in the higher endpoint's chart)."""

    __slots__ = ("complex", "degree", "entries", "_pieces")

    def __init__(self, pc, degree, entries):
        self.complex = pc
        self.degree = degree
        self.entries = {}
        for e in pc.bounded_edges:
            given = entries.get(e, {})
            self.entries[e] = {i: given.get(i, HomogPoly.zero(pc.rank, degree))
                               for i in _edge_star(pc, e).cells}
        self._pieces = tuple(p for star in self.entries.values() for p in star.values())

    def _domain(self):
        return self.complex

    def _parts(self):
        return self._pieces

    def _rebuild(self, parts, degree):
        parts = iter(parts)
        return EdgeTuple(self.complex, degree, {e: {i: next(parts) for i in star}
                                                for e, star in self.entries.items()})

    def __repr__(self):
        return f"EdgeTuple(deg={self.degree}, {self.entries})"


class _EdgeStar:
    """Combinatorial star of a bounded edge: ordered endpoints and the
    maximal cells containing the edge."""

    __slots__ = ("edge", "v1", "v2", "ray1", "ray2", "cells")

    def __init__(self, pc, e):
        cell = pc.cells[e]
        self.edge = e
        self.v1, self.v2, self.ray1, self.ray2 = edge_data(pc, cell)
        # the maximal cells having both endpoints as vertices
        self.cells = tuple(i for i in pc.maximal
                           if self.v1 in pc.cells[i].vertices and self.v2 in pc.cells[i].vertices)


def _edge_star(pc, e):
    key = ("estar", e)
    if key not in pc._cache:
        pc._cache[key] = _EdgeStar(pc, e)
    return pc._cache[key]


class HomologyClass:
    """A Chow homology class of the special fiber: a vertex tuple considered
    modulo the image of gamma in its degree."""

    __slots__ = ("complex", "degree", "tuple")

    def __init__(self, t):
        self.complex = t.complex
        self.degree = t.degree
        self.tuple = t

    def __repr__(self):
        return f"HomologyClass({self.tuple!r})"


# ---------------------------------------------------------------------------
# chart bookkeeping
# ---------------------------------------------------------------------------


def _chart_positions(pc, v):
    """Map maximal cell index -> position in the chart fan's maximal list."""
    chart = vertex_chart(pc, v)
    key = ("chart_pos", v)
    if key not in pc._cache:
        pos = {}
        for cell_idx in chart.max_cells:
            cone_idx = chart.cell_to_cone[cell_idx]
            pos[cell_idx] = chart.fan.maximal.index(cone_idx)
        pc._cache[key] = pos
    return pc._cache[key]


def _piece_at(pc, t, v, cell_idx):
    """The ambient polynomial of the vertex entry at v on a maximal cell."""
    return t.entries[v].pieces[_chart_positions(pc, v)[cell_idx]]


def _edge_ray_form(pc, v, edge_star, cell_idx):
    """The linear form of the edge direction on the chart cone of the cell.

    This is the dual form of the primitive edge direction inside the chart
    cone at v, i.e. the piece of phi_{v,gamma} on that cone.
    """
    chart = vertex_chart(pc, v)
    r = edge_star.ray1 if v == edge_star.v1 else edge_star.ray2
    cone = chart.fan.cones[chart.cell_to_cone[cell_idx]]
    idx = cone.rays.index(r)
    return dual_forms(cone, pc.rank)[idx]


# ---------------------------------------------------------------------------
# the maps
# ---------------------------------------------------------------------------


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
    return make_affine_pp(pc, cell_polys, t.degree)


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


def ddc_model(t):
    """The model-level dd^c, computed as -gamma.rho.

    The independent one-pass formula is evaluated as well and any
    disagreement raises :class:`InternalIdentityError`.
    """
    out = -gamma(rho(t))
    if out != ddc_one_shot(t):
        raise InternalIdentityError("-gamma.rho disagrees with its one-pass form")
    return out


def iota_upper(pc, F):
    """Slice a class on c(Pi) to the special fiber: substitute height zero
    cell by cell.  The result is certified affine piecewise polynomial."""
    co = cone_over(pc)
    n = pc.rank
    images = [HomogPoly.variable(n, i) for i in range(n)] + [HomogPoly.zero(n, 1)]
    cell_polys = {}
    for i in pc.maximal:
        pos = co.fan.maximal.index(co.cell_to_cone[i])
        cell_polys[i] = F.pieces[pos].substitute(images)
    try:
        return make_affine_pp(pc, cell_polys, F.degree)
    except FaceMismatch as exc:  # pragma: no cover - would be a library bug
        raise InternalIdentityError(f"slice of a valid class failed validation: {exc}")


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
        pos_of_cell = {i: fan.maximal.index(co.cell_to_cone[i]) for i in pc.maximal}
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
    return HomologyClass(VertexTuple(pc, a.degree, entries))


# ---------------------------------------------------------------------------
# graded presentations and dimensions
# ---------------------------------------------------------------------------


def vertex_layer_basis(pc, k):
    """Basis of the degree-k vertex layer as single-vertex tuples."""
    key = ("vlb", k)
    if key not in pc._cache:
        out = []
        for v in pc.vertices:
            chart = vertex_chart(pc, v)
            for b in graded_basis(chart.fan, k):
                out.append(VertexTuple(pc, k, {v: b}))
        pc._cache[key] = out
    return pc._cache[key]


def edge_star_basis(pc, e, k):
    """Basis of degree-k star functions on a bounded edge.

    Unknown polynomials per maximal cell containing the edge, subject to
    agreement on the direction space of pairwise intersections.
    """
    cells = _edge_star(pc, e).cells
    # cells of the star meet pairwise (in the edge at least)
    spans = {(i, j): span for i, j, span, _ in pc.adjacency()}
    pairs = [(a, b, spans[cells[a], cells[b]])
             for a, b in itertools.combinations(range(len(cells)), 2)]
    return [EdgeTuple(pc, k, {e: dict(zip(cells, polys))})
            for polys in gluing_kernel(pairs, len(cells), pc.rank, k)]


def edge_layer_basis(pc, k):
    key = ("elb", k)
    if key not in pc._cache:
        out = []
        for e in pc.bounded_edges:
            out.extend(edge_star_basis(pc, e, k))
        pc._cache[key] = out
    return pc._cache[key]


# the coordinates of a vertex tuple, under the name callers outside the
# package read them by
flat_vertex = VertexTuple.coords


def dim_affine_pp(pc, k):
    """Dimension (with basis) of the degree-k affine piecewise polynomials.

    Computed by solving the facet conditions directly; the kernel of rho is
    computed independently and the dimensions compared.
    """
    pos = {i: p for p, i in enumerate(pc.maximal)}
    pairs = [(pos[i], pos[j], span) for i, j, span, _ in pc.adjacency()]
    basis = [AffinePP(pc, k, dict(zip(pc.maximal, polys)), validate=False)
             for polys in gluing_kernel(pairs, len(pc.maximal), pc.rank, k)]
    if len(basis) != dim_ker_rho(pc, k):
        raise InternalIdentityError(
            f"facet-condition dimension {len(basis)} != dim ker rho {dim_ker_rho(pc, k)}")
    return len(basis), basis


def dim_ker_rho(pc, k):
    """Dimension of ker rho in degree k, solved on the vertex layer."""
    basis = vertex_layer_basis(pc, k)
    return len(basis) - rank([rho(b).coords() for b in basis])


def gamma_image_matrix(pc, k):
    """Columns: flattened gamma images of the degree-(k-1) edge basis."""
    key = ("gammaim", k)
    if key not in pc._cache:
        cols = []
        if k >= 1:
            for b in edge_layer_basis(pc, k - 1):
                cols.append(gamma(b).coords())
        pc._cache[key] = cols
    return pc._cache[key]


def homology_presentation(pc, k):
    """coker(gamma) in vertex degree k: dimension plus representative basis.

    The representatives are the vertex-basis elements outside the span of
    the gamma image and of the representatives chosen before them.
    """
    vbasis = vertex_layer_basis(pc, k)
    span = RowEchelon(gamma_image_matrix(pc, k))
    grank = len(span.rows)
    reps = [HomologyClass(b) for b in vbasis if span.extend(b.coords())]
    return {"dim": len(vbasis) - grank, "basis": reps,
            "vertex_dim": len(vbasis), "gamma_rank": grank}


def class_equal(a, b):
    """Equality of homology classes: difference lies in the image of gamma."""
    ta = a.tuple if isinstance(a, HomologyClass) else a
    tb = b.tuple if isinstance(b, HomologyClass) else b
    pc = ta.complex
    diff = (ta - tb).coords()
    if all(x == 0 for x in diff):
        return True
    gcols = gamma_image_matrix(pc, ta.degree)
    if not gcols:
        return False
    return solve(transpose(mat(gcols)), vec(diff)) is not None


def ker_coker_report(pc, k):
    """The three dimensions of the kernel/cokernel comparison in degree k.

    ker: the induced map out of coker(gamma) in vertex degree k;
    coker: the induced map into ker(rho) in vertex degree k;
    pp: the degree-k piecewise polynomials on the recession fan.
    All three are computed by independent linear algebra.
    """
    vb_k = vertex_layer_basis(pc, k)
    grank = rank(gamma_image_matrix(pc, k))
    r_from = rank([ddc_model(b).coords() for b in vb_k])
    dim_ker = len(vb_k) - grank - r_from

    vb_prev = vertex_layer_basis(pc, k - 1) if k >= 1 else []
    r_into = rank([ddc_model(b).coords() for b in vb_prev])
    dim_coker = dim_ker_rho(pc, k) - r_into

    dim_pp = len(graded_basis(recession_fan(pc), k))
    return {"ker": dim_ker, "coker": dim_coker, "pp": dim_pp,
            "equal": dim_ker == dim_coker == dim_pp}


# ---------------------------------------------------------------------------
# transfer maps between models
# ---------------------------------------------------------------------------


def iota_upper_preimage(pc, a):
    """A class on c(Pi) slicing to the given affine piecewise polynomial.

    The slice map is onto on the shipped geometry; failure to solve would
    mean the model cannot see the fiber class and is raised as an internal
    error.  The preimage is the deterministic least-free-variable solution.
    """
    co = cone_over(pc)
    basis = graded_basis(co.fan, a.degree)
    cols = [iota_upper(pc, b).coords() for b in basis]
    sol = solve(transpose(mat(cols)), vec(a.coords())) if cols else None
    if sol is None:
        raise InternalIdentityError("slice map is not onto this class")
    return zero_pp(co.fan, a.degree).combine(basis, sol)


def vertical_expand(pc, F):
    """Expand a vertically supported class on c(Pi) in powers of the height
    class: F = sum_j t^j . iota_lower(g_j).

    The base-class direction separates the S-level groups from their
    residue-level part; the j = 0 component is the honest residue-level
    class.  Returns the list [g_0, g_1, ...]; raises
    :class:`~ppchow.errors.DecompositionFailed` when no expansion exists.
    """
    from .errors import DecompositionFailed
    t_form = HomogPoly.linear_form((0,) * pc.rank + (1,))
    bases = [vertex_layer_basis(pc, F.degree - 1 - j) for j in range(F.degree)]
    cols = []
    for j, basis in enumerate(bases):
        for b in basis:
            lifted = iota_lower(b)
            for _ in range(j):
                lifted = lifted * t_form
            cols.append(lifted.coords())
    target = F.coords()
    if not cols:
        if any(x != 0 for x in target):
            raise DecompositionFailed("no vertical basis but nonzero target")
        return [zero_vertex_tuple(pc, F.degree - 1)]
    sol = solve(transpose(mat(cols)), vec(target))
    if sol is None:
        raise DecompositionFailed("target class admits no vertical expansion")
    out = []
    for j, basis in enumerate(bases):
        out.append(zero_vertex_tuple(pc, F.degree - 1 - j).combine(basis, sol[:len(basis)]))
        sol = sol[len(basis):]
    return out


def alpha(m, t):
    """Pushforward of homology classes along a refinement.

    Realized through the model: lift vertically, push forward on the cone
    fans, expand in powers of the height class and keep the residue-level
    component.  This is forced by the orientation-class identity (pushing to
    the model commutes with pushing between models).  Dropping the entries
    at new vertices, as a literal reading of the transfer display would do,
    sends gamma images outside gamma images and breaks the delta-tower
    compatibility, so it cannot be the pushforward.
    """
    if t.complex is not m.source and not t.complex.same_as(m.source):
        raise NotARefinement("tuple does not live on the map's source")
    pushed = pushforward(m.fan_map, iota_lower(t))
    return vertical_expand(m.target, pushed)[0]


def beta(m, a):
    """Pushforward of affine piecewise polynomials along a refinement.

    Realized as slice-preimage, model pushforward, slice: the base-change
    identity for the special-fiber inclusion makes this the cohomological
    pushforward.  Failures of the final validation are surfaced as
    :class:`FacetMismatch` diagnostics.
    """
    if a.complex is not m.source and not a.complex.same_as(m.source):
        raise NotARefinement("function does not live on the map's source")
    lifted = iota_upper_preimage(m.source, a)
    try:
        return iota_upper(m.target, pushforward(m.fan_map, lifted))
    except NotInKernel as exc:  # pragma: no cover
        raise FacetMismatch(f"pushforward left the kernel of rho: {exc}")


def pullback_special(m, a):
    """Pullback of affine piecewise polynomials: re-read the cell polynomials
    on the subdivided cells, coefficients unchanged."""
    if a.complex is not m.target and not a.complex.same_as(m.target):
        raise NotARefinement("function does not live on the map's target")
    cell_polys = {i: a.cell_polys[m.cell_map[i]] for i in m.source.maximal}
    return AffinePP(m.source, a.degree, cell_polys, validate=False)


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
        sigma = tgt.find_cell(v)
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
# the vertical decomposition solver
# ---------------------------------------------------------------------------


def vertical_decompose(pc, F):
    """Express a vertically supported class on c(Pi) as a vertical lift.

    Solves iota_lower(g) = F for a vertex tuple g of one degree less; the
    solution exists whenever F vanishes on the height-zero slice and is
    unique modulo the image of gamma.  Raises
    :class:`~ppchow.errors.DecompositionFailed` when no solution exists,
    which for a height-zero-vanishing input is a bug, not a data problem.
    """
    from .errors import DecompositionFailed
    k = F.degree - 1
    basis = vertex_layer_basis(pc, k)
    cols = [iota_lower(b).coords() for b in basis]
    target = F.coords()
    if not cols:
        if any(x != 0 for x in target):
            raise DecompositionFailed("no vertical basis but nonzero target")
        return zero_vertex_tuple(pc, k)
    sol = solve(transpose(mat(cols)), vec(target))
    if sol is None:
        raise DecompositionFailed("target class is not a vertical lift")
    return zero_vertex_tuple(pc, k).combine(basis, sol)
