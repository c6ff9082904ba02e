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
objects, which keep the parts in one ``pieces`` tuple in that order, so
sums, scalings, part-wise products, equality, the coordinates ``coords()``
and linear combinations (``combine``) are defined once, on the base.  Each
constructor is the carrier's checked way in, taking parts by key or in
layout order; ``cell_polys`` and ``entries`` are dicts by key built from
``pieces`` when read.  The maps that lay out parts themselves (rho, gamma,
the edge-star basis, the chart restrictions, the cap, the pullback, the
zero tuple, the one-pass dd^c, the vertical lift and the affine basis) build
through the unchecked :meth:`~ppchow.polyring.Piecewise._of`.  A
FormModDdbar is a vertex tuple on one model taken modulo the image of gamma,
and class equality compares vertex tuples modulo that image.

The maps here are the restriction-difference rho, its signed pushforward
adjoint gamma (one degree up), their composite -gamma.rho (the model-level
dd^c), the slice map from classes on the model and the vertical lift back,
the cap with the fundamental class of the fiber, homology presentations, and
the four transfer maps between models.  The height expansion and the slice
are each solved on one matrix per model and degree by ppfan's basis solver,
and the vertical lift on the expansion's matrix, whose first block is the
lift's own.  The gamma image is eliminated once per model and degree, for
class equality, homology presentations and the gamma rank alike.  Like all
derived data, they are memoized by one routine, :func:`~ppchow.polyring._memo`,
keyed by builder and arguments, on the model they derive from.
"""

from itertools import accumulate

from .errors import (DecompositionFailed, FaceMismatch, FacetMismatch,
                     InternalIdentityError, NotInKernel, NotARefinement,
                     NotRegular)
from .polyhedra import cone_over, edge_data, recession_fan, vertex_chart
from .polyring import (HomogPoly, Piecewise, _graded_polys, _layout, _memo,
                       _regraded, gluing_kernel)
from .ppfan import (PPFunction, _preimage, _system, dual_forms, graded_basis,
                    phi_ray, pullback, pushforward, zero_pp)
from .qlinalg import RowEchelon, primitive, rank


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------


class AffinePP(Piecewise):
    """An affine piecewise polynomial: one ambient homogeneous polynomial per
    maximal cell, agreeing on the direction space of every shared face.

    The polynomials are given by maximal cell, a missing one reading zero,
    or parallel to ``pc.maximal``; ``pieces[p]`` is the one on the cell
    ``pc.maximal[p]``.  ``validate=False`` skips the facet check.  The
    program builds its unchecked results through
    :meth:`~ppchow.polyring.Piecewise._of`; the switch stays because
    ``perfbench/selftest.py`` plants faulty functions through it.
    """

    __slots__ = ()
    complex = Piecewise.domain

    def __init__(self, pc, degree, cell_polys, validate=True):
        zeros = [HomogPoly.zero(pc.rank, degree)] * len(pc.maximal)
        parts = _layout(cell_polys, _cell_pos(pc), zeros, "cell", "maximal cell")
        self.complex, self.degree = pc, degree
        self.pieces = _graded_polys(parts, pc.rank, degree)
        if validate:
            bad = self.offending_pair()
            if bad is not None:
                i, j, inter = bad
                raise FacetMismatch(
                    f"cells {i} and {j} disagree on the direction space of {inter!r}",
                    witness=bad)

    @property
    def cell_polys(self):
        """The polynomials by maximal cell, as a new dict."""
        return dict(zip(self.complex.maximal, self.pieces))

    def offending_pair(self):
        """(i, j, common face) for the first pair of cells that disagree, the
        cells named by their index in the complex."""
        pc, bad = self.complex, self._disagreement()
        if bad is None:
            return None
        return pc.maximal[bad[0]], pc.maximal[bad[1]], pc.cells[bad[2]]

    def __repr__(self):
        return f"AffinePP(deg={self.degree}, {self.cell_polys})"


@_memo
def _cell_pos(pc):
    """The position of each maximal cell in ``pc.maximal``."""
    return {i: p for p, i in enumerate(pc.maximal)}


class VertexTuple(Piecewise):
    """One piecewise polynomial per vertex chart, all of one degree, given by
    vertex or parallel to ``pc.vertices``; a missing one is the shared zero.
    ``pieces[p]`` is the function on the chart of ``pc.vertices[p]``."""

    __slots__ = ()
    complex = Piecewise.domain

    def __init__(self, pc, degree, entries):
        tab = _table(pc)
        zeros = tab.zeros(degree)
        parts = _layout(entries, tab.vpos, zeros, "vertex", "vertex of the complex")
        for p, (f, chart) in enumerate(zip(parts, tab.charts)):
            if not f.fan.same_as(chart.fan):
                raise ValueError(f"the entry at vertex {chart.vertex} is not on its chart")
            parts[p] = _regraded(f, degree, zeros[p])
        self.complex, self.degree, self.pieces = pc, degree, tuple(parts)

    @property
    def entries(self):
        """The functions by vertex, as a new dict."""
        return dict(zip(self.complex.vertices, self.pieces))

    def __repr__(self):
        return f"VertexTuple(deg={self.degree}, {self.entries})"


def zero_vertex_tuple(pc, degree):
    return VertexTuple._of(pc, degree, _table(pc).zeros(degree))


class EdgeTuple(Piecewise):
    """One star function per bounded edge: ambient polynomials indexed by the
    maximal cells containing the edge (read in the higher endpoint's chart),
    given as a dict from edge to a dict from cell to polynomial, a missing
    one reading zero.  ``pieces`` runs edge by edge, each edge's star cells
    in order; edge q's are ``pieces[offsets[q]:offsets[q + 1]]`` with the
    ``offsets`` of its :class:`_FiberTable`."""

    __slots__ = ()
    complex = Piecewise.domain

    def __init__(self, pc, degree, entries):
        tab = _table(pc)
        cut = tab.offsets
        parts = [HomogPoly.zero(pc.rank, degree)] * cut[-1]
        for e, polys in entries.items():
            q = tab.epos.get(e)
            if q is None:
                raise ValueError(f"cell {e!r} is not a bounded edge")
            cells = tab.stars[q].cells
            parts[cut[q]:cut[q + 1]] = _layout(polys, dict(zip(cells, range(len(cells)))),
                                               parts[cut[q]:cut[q + 1]], "cell",
                                               f"maximal cell at edge {e}")
        self.complex, self.degree = pc, degree
        self.pieces = _graded_polys(parts, pc.rank, degree)

    @property
    def entries(self):
        """The star functions by edge and cell, as new dicts."""
        parts = iter(self.pieces)
        return {e: {i: next(parts) for i in s.cells}
                for e, s in zip(self.complex.bounded_edges, _table(self.complex).stars)}

    def __repr__(self):
        return f"EdgeTuple(deg={self.degree}, {self.entries})"


class _EdgeStar:
    """Combinatorial star of a bounded edge: ordered endpoints and the
    maximal cells containing the edge."""

    __slots__ = ("v1", "v2", "ray1", "ray2", "cells")

    def __init__(self, pc, e):
        cell = pc.cells[e]
        self.v1, self.v2, self.ray1, self.ray2 = edge_data(pc, cell)
        # the maximal cells having both endpoints as vertices
        self.cells = tuple(i for i in pc.maximal
                           if self.v1 in pc.cells[i].vertices and self.v2 in pc.cells[i].vertices)


class _FiberTable:
    """The positions the special-fiber maps read, built once per model.

    Vertex p and edge q are ``pc.vertices[p]`` and ``pc.bounded_edges[q]``;
    ``vpos`` and ``epos`` map a vertex and an edge to its position.
    ``cell_pos[p]`` inverts ``charts[p].max_cells``: it maps a maximal cell
    at p to its position among the chart's maximal cones.  Edge q has the
    star ``stars[q]`` and the endpoints ``ends[q]``, higher first, and its
    parts in an :class:`EdgeTuple` run from ``offsets[q]`` to
    ``offsets[q + 1]``.  Edge forms need simplicial charts and phi_ray
    regular ones, so both are built on first use, for the whole model:
    ``sides()[q]`` holds, per endpoint, the (cell, position there, position
    at the other end, edge form) of each star cell, and ``incident()[p]``
    the other endpoint, those cells and p's phi_ray pieces for each edge at
    p.
    """

    __slots__ = ("charts", "cell_pos", "vpos", "epos", "stars", "ends", "offsets", "_cache")

    def __init__(self, pc):
        self.charts = tuple(vertex_chart(pc, v) for v in pc.vertices)
        self.cell_pos = tuple({i: j for j, i in enumerate(c.max_cells)} for c in self.charts)
        self.vpos = {v: p for p, v in enumerate(pc.vertices)}
        self.epos = {e: q for q, e in enumerate(pc.bounded_edges)}
        self.stars = tuple(_EdgeStar(pc, e) for e in pc.bounded_edges)
        self.ends = tuple((self.vpos[s.v1], self.vpos[s.v2]) for s in self.stars)
        self.offsets = tuple(accumulate((len(s.cells) for s in self.stars), initial=0))
        self._cache = {}

    @_memo
    def zeros(self, k):
        """The zero function of degree k on every chart, one object each."""
        return tuple(zero_pp(c.fan, k) for c in self.charts)

    @_memo
    def sides(self):
        out = []
        for s, ends in zip(self.stars, self.ends):
            pair = []
            for p, o, r in ((*ends, s.ray1), (*ends[::-1], s.ray2)):
                fan = self.charts[p].fan
                cells = []
                for i in s.cells:
                    cone = fan.cones[fan.maximal[self.cell_pos[p][i]]]
                    form = dual_forms(cone, fan.rank)[cone.rays.index(r)]
                    cells.append((i, self.cell_pos[p][i], self.cell_pos[o][i], form))
                pair.append((p, tuple(cells)))
            out.append(tuple(pair))
        return tuple(out)

    @_memo
    def incident(self):
        out = [[] for _ in self.charts]
        for s, ((p1, c1), (p2, c2)) in zip(self.stars, self.sides()):
            out[p1].append((p2, c1, phi_ray(self.charts[p1].fan, s.ray1).pieces))
            out[p2].append((p1, c2, phi_ray(self.charts[p2].fan, s.ray2).pieces))
        return tuple(map(tuple, out))


@_memo
def _table(pc):
    return _FiberTable(pc)


class FormModDdbar:
    """A vertex tuple on one model, taken modulo the image of gamma: a Chow
    homology class of that model's special fiber, and, compared after
    pullback to a common model, a form modulo dd^c in the direct limit."""

    __slots__ = ("model", "tuple")

    def __init__(self, model, t):
        self.model = model
        self.tuple = t

    @property
    def degree(self):
        return self.tuple.degree

    def __repr__(self):
        return f"FormModDdbar(deg={self.tuple.degree} on {self.model!r})"


# ---------------------------------------------------------------------------
# the maps
# ---------------------------------------------------------------------------


def to_vertex_tuple(a):
    """Read an AffinePP as its tuple of chart restrictions (always in ker rho)."""
    pc, pos = a.complex, _cell_pos(a.complex)
    return VertexTuple._of(pc, a.degree, tuple(
        PPFunction._of(chart.fan, a.degree, tuple(a.pieces[pos[i]] for i in chart.max_cells))
        for chart in _table(pc).charts))


def from_vertex_tuple(t):
    """Assemble a vertex tuple in ker rho into the AffinePP it represents.

    Raises :class:`NotInKernel` when two endpoint charts read different
    polynomials on a shared maximal cell.
    """
    pc = t.complex
    readings = {i: [] for i in pc.maximal}
    for v, f, chart in zip(pc.vertices, t.pieces, _table(pc).charts):
        for i, g in zip(chart.max_cells, f.pieces):
            readings[i].append((v, g))
    for i, ((v0, first), *rest) in readings.items():
        for v, p in rest:
            if p != first:
                raise NotInKernel(
                    f"cell {i}: chart at {v0} reads {first!r}, chart at {v} reads {p!r}")
    return AffinePP(pc, t.degree, {i: r[0][1] for i, r in readings.items()})


def rho(t):
    """Restriction difference to the bounded-edge strata.

    On each maximal cell containing the edge the value is the higher
    endpoint's reading minus the lower endpoint's reading.  Both readings
    vanish on an edge with no endpoint in t's support, so only the edges at
    that support are computed.
    """
    pc = t.complex
    tab = _table(pc)
    live = [not f.is_zero() for f in t.pieces]
    parts = [HomogPoly.zero(pc.rank, t.degree)] * tab.offsets[-1]
    for q, (star, (p1, p2)) in enumerate(zip(tab.stars, tab.ends)):
        if live[p1] or live[p2]:
            f1, f2 = t.pieces[p1].pieces, t.pieces[p2].pieces
            pos1, pos2 = tab.cell_pos[p1], tab.cell_pos[p2]
            parts[tab.offsets[q]:tab.offsets[q + 1]] = [f1[pos1[i]] - f2[pos2[i]]
                                                        for i in star.cells]
    return EdgeTuple._of(pc, t.degree, tuple(parts))


def gamma(et):
    """Signed pushforward from edge strata into the components, degree +1.

    Each star function is multiplied by the dual form of the edge direction
    and extended by zero into the endpoint chart, with sign +1 at the higher
    endpoint and -1 at the lower one.  An edge whose star function is zero
    adds nothing and is skipped.  Every vertex entry that receives a
    contribution is validated; a vertex that receives none gets the zero
    function, which glues on every fan, so its check could not fail.
    """
    pc = et.complex
    tab = _table(pc)
    k = et.degree + 1
    zero = HomogPoly.zero(pc.rank, k)
    acc = {}  # vertex position -> pieces on its chart
    for q, sides in enumerate(tab.sides()):
        fn = et.pieces[tab.offsets[q]:tab.offsets[q + 1]]
        if all(p.is_zero() for p in fn):
            continue
        for (p, cells), sign in zip(sides, (1, -1)):
            pieces = acc.setdefault(p, [zero] * len(tab.charts[p].fan.maximal))
            for (_, j, _, form), f in zip(cells, fn):
                contrib = f * form
                pieces[j] = pieces[j] + (contrib if sign > 0 else -contrib)
    entries = list(tab.zeros(k))
    for p in sorted(acc):
        entries[p] = PPFunction(tab.charts[p].fan, k, acc[p])
    return VertexTuple._of(pc, k, tuple(entries))


def ddc_one_shot(t):
    """-gamma.rho in a single pass: at each vertex, the sum over incident
    bounded edges of (transport of the other endpoint's function, pushed in)
    minus (the edge generator times the own function).  Both terms vanish at
    a vertex outside t's support with no neighbour in it, which stays zero."""
    pc = t.complex
    tab = _table(pc)
    k = t.degree + 1
    zero = HomogPoly.zero(pc.rank, k)
    live = [not f.is_zero() for f in t.pieces]
    entries = []
    for p, (f, incident) in enumerate(zip(t.pieces, tab.incident())):
        if not live[p] and not any(live[o] for o, _, _ in incident):
            entries.append(tab.zeros(k)[p])
            continue
        pieces = [zero] * len(f.pieces)
        for o, cells, phi in incident:
            if live[o]:
                g = t.pieces[o].pieces
                for _, j, jo, form in cells:
                    pieces[j] = pieces[j] + g[jo] * form
            if live[p]:
                pieces = [x - y * z for x, y, z in zip(pieces, phi, f.pieces)]
        entries.append(PPFunction._of(tab.charts[p].fan, k, tuple(pieces)))
    return VertexTuple(pc, k, entries)


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
    cell_polys = {i: f.substitute(images) for i, f in zip(co.max_cells, F.pieces)}
    try:
        return AffinePP(pc, F.degree, cell_polys)
    except FaceMismatch as exc:  # pragma: no cover - would be a library bug
        raise InternalIdentityError(f"slice of a valid class failed validation: {exc}")


def iota_lower(t):
    """Lift special-fiber homology into the model, degree +1.

    Each vertex entry is pulled back along a - t v and multiplied by the
    generator of the vertex's ray in c(Pi), then summed over the vertices
    where t is nonzero.
    """
    pc = t.complex
    co = cone_over(pc)
    n = pc.rank
    fan = co.fan
    if not fan.is_regular():
        raise NotRegular("phi generators need a regular fan")
    pos_of_cell = {i: p for p, i in enumerate(co.max_cells)}
    out = zero_pp(fan, t.degree + 1)
    for v, f, chart in zip(pc.vertices, t.pieces, _table(pc).charts):
        if f.is_zero():
            continue
        lift_images = [HomogPoly.linear_form(
            tuple(1 if i == j else 0 for j in range(n)) + (-v[i],)) for i in range(n)]
        phi_v = phi_ray(fan, primitive(tuple(v) + (1,)))
        pieces = [HomogPoly.zero(n + 1, t.degree)] * len(fan.maximal)
        for i, g in zip(chart.max_cells, f.pieces):
            pieces[pos_of_cell[i]] = g.substitute(lift_images)
        out = out + PPFunction._of(fan, t.degree, tuple(pieces)) * phi_v
    bad = out.offending_pair()
    if bad is not None:  # pragma: no cover - would be a library bug
        raise InternalIdentityError(f"vertical lift failed validation at {bad}")
    return out


def cap_fundamental(a):
    """Cap with the fundamental class of the special fiber: the vertex tuple
    of chart restrictions weighted by the component multiplicities, a
    representative of the capped homology class."""
    pc = a.complex
    t = to_vertex_tuple(a)
    return VertexTuple._of(pc, a.degree, tuple(
        f.scale(chart.multiplicity) for f, chart in zip(t.pieces, _table(pc).charts)))


# ---------------------------------------------------------------------------
# graded presentations and dimensions
# ---------------------------------------------------------------------------


@_memo
def vertex_layer_basis(pc, k):
    """Basis of the degree-k vertex layer as single-vertex tuples."""
    return [VertexTuple(pc, k, {v: b}) for v, chart in zip(pc.vertices, _table(pc).charts)
            for b in graded_basis(chart.fan, k)]


def edge_star_basis(pc, e, k):
    """Basis of degree-k star functions on a bounded edge.

    Unknown polynomials per maximal cell containing the edge, subject to
    agreement on the direction space of pairwise intersections.
    """
    tab = _table(pc)
    at = tab.epos[e]
    cells = tab.stars[at].cells
    # the star's cells come in the order of pc.maximal, and the adjacency's
    # pairs inside the star glue it: block b is the b-th position in it
    block = {p: b for b, p in enumerate(q for q, i in enumerate(pc.maximal) if i in cells)}
    pairs = [(block[p], block[q], span) for p, q, span, _ in pc.adjacency()
             if p in block and q in block]
    zeros = (HomogPoly.zero(pc.rank, k),) * tab.offsets[-1]
    start, end = tab.offsets[at], tab.offsets[at + 1]
    return [EdgeTuple._of(pc, k, zeros[:start] + polys + zeros[end:])
            for polys in gluing_kernel(pairs, len(cells), pc.rank, k)]


def edge_layer_basis(pc, k):
    return [b for e in pc.bounded_edges for b in edge_star_basis(pc, e, k)]


# the coordinates of a vertex tuple, under the name callers outside the
# package read them by
flat_vertex = VertexTuple.coords


def dim_affine_pp(pc, k):
    """Dimension (with basis) of the degree-k affine piecewise polynomials.

    Computed by solving the facet conditions directly; the kernel of rho is
    computed independently, on the vertex charts' face-ring bases, and the
    dimensions compared.
    """
    basis = [AffinePP._of(pc, k, polys)
             for polys in gluing_kernel(pc.adjacency(), len(pc.maximal), pc.rank, k)]
    if len(basis) != dim_ker_rho(pc, k):
        raise InternalIdentityError(
            f"facet-condition dimension {len(basis)} != dim ker rho {dim_ker_rho(pc, k)}")
    return len(basis), basis


def dim_ker_rho(pc, k):
    """Dimension of ker rho in degree k, solved on the vertex layer."""
    basis = vertex_layer_basis(pc, k)
    return len(basis) - rank([rho(b).coords() for b in basis])


@_memo
def gamma_image_matrix(pc, k):
    """Columns: flattened gamma images of the degree-(k-1) edge basis."""
    return [gamma(b).coords() for b in edge_layer_basis(pc, k - 1)] if k >= 1 else []


@_memo
def _gamma_span(pc, k):
    """The span of the gamma image in vertex degree k, eliminated once per
    model and degree."""
    return RowEchelon(gamma_image_matrix(pc, k))


def homology_presentation(pc, k):
    """coker(gamma) in vertex degree k: dimension plus representative basis.

    The representatives are the vertex-basis elements outside the span of
    the gamma image and of the representatives chosen before them, each
    wrapped as a :class:`FormModDdbar` on ``pc``.
    """
    vbasis = vertex_layer_basis(pc, k)
    span = _gamma_span(pc, k).copy()
    grank = len(span.rows)
    reps = [FormModDdbar(pc, b) for b in vbasis if span.extend(b.coords())]
    return {"dim": len(vbasis) - grank, "basis": reps,
            "vertex_dim": len(vbasis), "gamma_rank": grank}


def class_equal(s, t):
    """Equality of the homology classes of two vertex tuples of one model and
    degree, or of a tuple and a zero: their difference lies in the image of
    gamma in its own degree."""
    diff = s - t
    coords = diff.coords()
    return not any(coords) or _gamma_span(diff.complex, diff.degree).contains(coords)


def ker_coker_report(pc, k):
    """The three dimensions of the kernel/cokernel comparison in degree k.

    ker: the induced map out of coker(gamma) in vertex degree k;
    coker: the induced map into ker(rho) in vertex degree k;
    pp: the degree-k piecewise polynomials on the recession fan.
    All three are computed by independent linear algebra.
    """
    vb_k = vertex_layer_basis(pc, k)
    grank = len(_gamma_span(pc, k).rows)
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


@_memo
def _slice_system(pc, k):
    """The slice map on degree-k classes on c(Pi)."""
    return _system(graded_basis(cone_over(pc).fan, k), lambda b: iota_upper(pc, b).coords())


def iota_upper_preimage(pc, a):
    """A class on c(Pi) slicing to the given affine piecewise polynomial.

    The slice map is onto on the shipped geometry; failure to solve would
    mean the model cannot see the fiber class and is raised as an internal
    error.  The preimage is the deterministic least-free-variable solution.
    """
    fan = cone_over(pc).fan
    basis, sol = _preimage(_slice_system(pc, a.degree), a.coords())
    if sol is None:
        raise InternalIdentityError("slice map is not onto this class")
    return zero_pp(fan, a.degree).combine(basis, sol)


def _expand_blocks(pc, d):
    # at least one block: below degree 1 the expansion is [0], or none exists
    return [vertex_layer_basis(pc, d - 1 - j) for j in range(max(d, 1))]


@_memo
def _expand_system(pc, d):
    """The height expansion on degree-d classes: the block of degree d-1-j
    is lifted and multiplied by t^j."""
    t_form = HomogPoly.linear_form((0,) * pc.rank + (1,))

    def image(b):
        lifted = iota_lower(b)
        for _ in range(d - 1 - b.degree):
            lifted = lifted * t_form
        return lifted.coords()

    return _system(sum(_expand_blocks(pc, d), []), image)


def vertical_expand(pc, F):
    """Expand a vertically supported class on c(Pi) in powers of the height
    class: F = sum_j t^j . iota_lower(g_j).

    The base-class direction separates the S-level groups from their
    residue-level part; the j = 0 component is the honest residue-level
    class.  Returns the list [g_0, g_1, ...]; raises
    :class:`~ppchow.errors.DecompositionFailed` when no expansion exists.
    """
    flat, sol = _preimage(_expand_system(pc, F.degree), F.coords())
    if sol is None:
        raise DecompositionFailed("target class admits no vertical expansion" if flat
                                  else "no vertical basis but nonzero target")
    out = []
    for j, basis in enumerate(_expand_blocks(pc, F.degree)):
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
    if not t.complex.same_as(m.source):
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
    if not a.complex.same_as(m.source):
        raise NotARefinement("function does not live on the map's source")
    lifted = iota_upper_preimage(m.source, a)
    try:
        return iota_upper(m.target, pushforward(m.fan_map, lifted))
    except NotInKernel as exc:  # pragma: no cover
        raise FacetMismatch(f"pushforward left the kernel of rho: {exc}")


def pullback_special(m, a):
    """Pullback of affine piecewise polynomials: re-read the cell polynomials
    on the subdivided cells, coefficients unchanged."""
    if not a.complex.same_as(m.target):
        raise NotARefinement("function does not live on the map's target")
    pos = _cell_pos(m.target)
    return AffinePP._of(m.source, a.degree,
                        tuple(a.pieces[pos[m.cell_map[i]]] for i in m.source.maximal))


def zeta(m, t):
    """Pullback of vertex tuples along a refinement.

    Old vertices re-read their function on the finer chart; a new vertex
    interior to a cell of the coarse complex receives the sum of that cell's
    vertex functions, read off on its own chart.  Validity of the new entries
    is checked, not assumed.
    """
    if not t.complex.same_as(m.target):
        raise NotARefinement("tuple does not live on the map's target")
    src, tgt = m.source, m.target
    old = _table(tgt)
    entries = []
    for v, chart in zip(src.vertices, _table(src).charts):
        if v in old.vpos:
            entries.append(pullback(m.chart_map(v), t.pieces[old.vpos[v]]))
            continue
        readers = [(t.pieces[old.vpos[w]].pieces, old.cell_pos[old.vpos[w]])
                   for w in tgt.find_cell(v).vertices]
        pieces = []
        for i in chart.max_cells:
            total = HomogPoly.zero(src.rank, t.degree)
            for g, gpos in readers:
                total = total + g[gpos[m.cell_map[i]]]
            pieces.append(total)
        entries.append(PPFunction(chart.fan, t.degree, pieces))
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

    Solved on the height expansion's matrix, whose first block is the lift.
    With free variables at zero this is exact: the pivots of a column prefix
    are the prefix's own, and coordinates on independent columns are unique,
    so a target in the span of the first block gets zero on every later
    pivot and the lift's own coefficients.  So the lift fails exactly when
    there is no solution or a later coefficient is nonzero.
    """
    k = F.degree - 1
    basis = _expand_blocks(pc, F.degree)[0]
    _, sol = _preimage(_expand_system(pc, F.degree), F.coords())
    if sol is None or any(sol[len(basis):]):
        raise DecompositionFailed("target class is not a vertical lift" if basis
                                  else "no vertical basis but nonzero target")
    return zero_vertex_tuple(pc, k).combine(basis, sol[:len(basis)])
