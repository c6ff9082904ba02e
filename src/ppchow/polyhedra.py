"""SCR polyhedral complexes, fans and the directed set of models.

All geometry is exact over Q.  Polyhedra are pointed (strongly convex
rational), and a cone is the polyhedron whose one vertex is the origin;
complexes and fans are face-closed lists of cells or cones meeting along
common faces.  The cone over a complete complex, vertex charts, recession
fans, stellar subdivisions and common refinements are the raw material for
the piecewise-polynomial Chow calculus in the higher layers.

Both conversions between V- and H-descriptions are one routine,
:func:`_extreme_rays`, the double description method on a pointed cone: the
facets of a polyhedron are the extreme rays of the cone of inequalities
valid on it, and the vertices and rays of {x : a.x <= b} are the extreme
rays of its homogenization.  A generator is extreme when no other one lies
on a strict superset of its facets.  Conversions run only on user input and
bare rays (building a polyhedron), on the pairs of cells that validation
cannot settle by a facet, in :func:`common_refinement` (cells of two
unrelated complexes meet in new polyhedra), and in the check suite's grid
oracle, which must share no code with the bases.  Each polyhedron keeps the
mask of its generators on each facet, so faces, cones over cells and chart
cones are read off the parent's facets and the face lattice.  Validation
tests pairs of maximal cells only, which proves every pair of cells meets in
a common face; a facet of one cell with the other on its far side certifies
most pairs without intersecting them.  The maximal cells are read off the
face walk, stellar subdivisions and common refinements are complexes by
construction and are not validated again, and a refinement's cell map is
read off the fan map.  Once a complex or fan is validated, two of its cells
meet in the convex hull of their common vertices plus the cone on their
common rays, and are disjoint exactly when they share no vertex; two cones
meet in the cone on their common rays.  One adjacency serves fans and
complexes alike: the pairs of maximal members that meet, by position, with
the span and key of each meet.  Stars and cell/cone correspondences are read
off the same vertex and ray sets, and each face is built once per complex or
fan.
"""

from fractions import Fraction
from math import gcd
import itertools

from .errors import (IncompleteInput, InputError, NonSCR, NotAComplex,
                     NotARecessionCone, NotARefinement, NotAVertex,
                     PointOutsideSupport, RecessionMismatch, UnboundedEdge)
from .polyring import Span
from .qlinalg import (RowEchelon, integer_kernel_basis, is_zero_vec,
                      kernel_basis, mat, mat_inverse, mat_vec, primitive,
                      primitive_ints, rays_extend_to_basis, smith_normal_form,
                      solve, span_basis, transpose, vadd, vdot, vec, vscale,
                      vsub, zero_vec)


def _extreme_rays(rows, dim):
    """Extreme rays of the cone {y in Q^dim : r.y <= 0 for every row r}.

    The double description method (Motzkin, Raiffa, Thompson and Thrall
    1953; Fukuda and Prodon 1996).  The cone cut out by ``dim`` independent
    rows is simplicial, with the columns of minus their inverse as rays.
    Each further row r keeps the rays with r.y <= 0 and replaces those with
    r.y > 0 by their combinations on r.y = 0 with the adjacent rays having
    r.y < 0.  Two extreme rays are adjacent when no third one vanishes on
    every row so far that vanishes on both: the face those rows cut out is
    then two-dimensional.

    Returns (ray, tight) pairs: the ray a primitive integer tuple, and tight
    a bitmask with bit k set when row k vanishes on it.  Returns None when
    the rows have rank below ``dim``, so the cone contains a line.
    """
    rows = [primitive_ints(r) for r in rows]
    echelon = RowEchelon([])
    basis = [k for k, r in enumerate(rows)
             if len(echelon.pivots) < dim and echelon.extend(r)]
    if len(basis) < dim:
        return None
    inv = mat_inverse([rows[k] for k in basis])
    chosen = sum(1 << k for k in basis)
    rays = [(primitive_ints([-row[i] for row in inv]), chosen & ~(1 << k))
            for i, k in enumerate(basis)]
    for k, row in enumerate(rows):
        if chosen >> k & 1:
            continue
        bit = 1 << k
        vals = [sum(a * y for a, y in zip(row, ray)) for ray, _ in rays]
        out = [(ray, tight | bit if v == 0 else tight)
               for (ray, tight), v in zip(rays, vals) if v <= 0]
        for i, vi in enumerate(vals):
            if vi <= 0:
                continue
            for j, vj in enumerate(vals):
                if vj >= 0:
                    continue
                common = rays[i][1] & rays[j][1]
                if common.bit_count() < dim - 2 or any(
                        common & ~t == 0 for l, (_, t) in enumerate(rays)
                        if l != i and l != j):
                    continue
                y = [vi * b - vj * a for a, b in zip(rays[i][0], rays[j][0])]
                g = gcd(*y)
                out.append(([x // g for x in y], common | bit))
        rays = out
    return [(tuple(ray), tight) for ray, tight in rays]


def _facets(dim, vertices, rays):
    """(equations, facets) of conv(vertices) + cone(rays).

    Equations are pairs (a, b) with a.x = b on the affine hull.  Facets are
    triples (a, b, on): the inequality a.x <= b with a the primitive integer
    normal inside the direction space, and ``on`` the bitmask of the
    generators on the facet, vertices first.  With D the RREF basis of the
    direction space, the inequalities c.(D x) <= s valid on the polyhedron
    form the polar cone {(c, s) : c.(D v) <= s, c.(D r) <= 0}.  It is
    pointed, because D maps the direction space onto Q^m, and its extreme
    rays other than (0, 1) are the facets.
    """
    dir_basis = direction_space(vertices, rays)
    eqs = _equations(dim, vertices, dir_basis)
    if not dir_basis:
        return eqs, []
    m = len(dir_basis)
    polar = [[vdot(d, g) for d in dir_basis] + [s]
             for gens, s in ((vertices, -1), (rays, 0)) for g in gens]
    facets = []
    for y, on in _extreme_rays(polar, m + 1):
        if not any(y[:m]):
            continue
        a = zero_vec(dim)
        for c, d in zip(y, dir_basis):
            a = vadd(a, vscale(c, d))
        a = primitive(a)
        v = next(v for i, v in enumerate(vertices) if on >> i & 1)
        facets.append((a, vdot(a, v), on))
    return eqs, sorted(facets)


def _equations(dim, vertices, dir_basis):
    """Primitive equations (a, b) of the affine hull: vertices[0] + span."""
    return tuple((a, vdot(a, vertices[0])) for a in map(
        primitive, kernel_basis(mat(dir_basis if dir_basis else [zero_vec(dim)]))))


def _vrep_from_hrep(dim, eqs, ineqs):
    """Vertices and extreme rays of {x : eqs hold, a.x <= b}; None if the set
    is empty or contains a line.

    With x = x0 + B y on the solutions of the equations, the homogenization
    {(y, t) : a.(x0 t + B y) <= b t, t >= 0} has the vertices as its
    extreme rays with t > 0, and the extreme rays as those with t = 0.
    """
    A = [a for a, _ in eqs]
    x0 = solve(mat(A), vec([b for _, b in eqs])) if A else zero_vec(dim)
    if x0 is None:
        return None
    B = kernel_basis(mat(A if A else [zero_vec(dim)]))
    m = len(B)
    rows = [tuple(vdot(a, Bj) for Bj in B) + (vdot(a, x0) - b,) for a, b in ineqs]
    rays = _extreme_rays(rows + [(0,) * m + (-1,)], m + 1)
    if rays is None:
        return None
    verts, rays_out = [], []
    for y, _ in rays:
        amb = zero_vec(dim)
        for c, Bj in zip(y, B):
            amb = vadd(amb, vscale(c, Bj))
        if y[m]:
            verts.append(vadd(x0, vscale(Fraction(1, y[m]), amb)))
        else:
            rays_out.append(primitive(amb))
    if not verts:
        return None
    return tuple(sorted(verts)), tuple(sorted(rays_out))


class Polyhedron:
    """A pointed rational polyhedron conv(vertices) + cone(rays).

    Construction canonicalizes the generators to the extreme ones and
    precomputes an exact H-description, with ``_on`` parallel to ``ineqs``:
    each facet's mask of generators, vertices first.  Raises :class:`NonSCR`
    for inputs with no vertex or with a lineality direction.  ``_cache``
    holds data derived from the polyhedron, such as a cone's dual forms.
    """

    __slots__ = ("dim_ambient", "vertices", "rays", "eqs", "ineqs", "dim", "_on", "_cache")

    def __init__(self, dim_ambient, vertices, rays=()):
        vertices, rays = [vec(v) for v in vertices], [vec(r) for r in rays]
        for kind, g in [("vertex", v) for v in vertices] + [("ray", r) for r in rays]:
            if len(g) != dim_ambient:
                raise ValueError(f"{kind} ({', '.join(map(str, g))}) has length {len(g)} "
                                 f"but dim_ambient is {dim_ambient}")
        vertices = sorted(set(vertices))
        rays = sorted({primitive(r) for r in rays if not is_zero_vec(r)})
        if not vertices:
            raise NonSCR("a pointed polyhedron needs at least one vertex")
        self.dim_ambient = dim_ambient
        eqs, facets = _facets(dim_ambient, vertices, rays)
        ineqs = tuple((a, b) for a, b, _ in facets)
        # lineality check: directions satisfying every constraint both ways
        lin_rows = [a for a, _ in ineqs] + [a for a, _ in eqs]
        lin = kernel_basis(mat(lin_rows if lin_rows else [zero_vec(dim_ambient)]))
        if lin:
            raise NonSCR(f"polyhedron contains a line in direction {lin[0]}")
        self.eqs = eqs
        self.ineqs = ineqs
        # In the cone over the polyhedron, a generator spans an extreme ray
        # exactly when no other generator lies on a strict superset of the
        # facets it lies on, counting t >= 0, which holds the rays only.
        level = 1 << len(facets)
        on = [sum(1 << k for k, (_, _, f) in enumerate(facets) if f >> g & 1)
              | (level if g >= len(vertices) else 0)
              for g in range(len(vertices) + len(rays))]
        kept = [g for g, s in enumerate(on) if not any(s != t and s & t == s for t in on)]
        self.vertices = tuple(vertices[g] for g in kept if g < len(vertices))
        self.rays = tuple(rays[g - len(vertices)] for g in kept if g >= len(vertices))
        if not self.vertices:
            raise NonSCR("generators have no extreme point")
        self._on = tuple(sum(1 << i for i, g in enumerate(kept) if f >> g & 1)
                         for _, _, f in facets)
        self.dim = dim_ambient - len(eqs)
        self._cache = {}

    @classmethod
    def _derived(cls, dim_ambient, vertices, rays, facets):
        """conv(vertices) + cone(rays), built from known facets.

        ``vertices`` and ``rays`` map bit positions to extreme generators,
        and ``facets`` holds one pair (a, on) per facet, ``on`` the bits of
        the generators on it and a.x <= c valid, with equality exactly on
        the facet, for some c.  The equations are those :func:`_facets`
        computes.  The projection u of a onto the direction space D agrees
        with a on D, so u.x <= c' is valid with equality exactly on the
        facet as well.  In D the normals of the facet's hyperplane form a
        line, and validity fixes the sign, so u and the normal in D that
        double description finds have one primitive vector.
        """
        order = sorted(vertices, key=vertices.get) + sorted(rays, key=rays.get)
        p = cls.__new__(cls)
        p.dim_ambient = dim_ambient
        p.vertices = tuple(vertices[g] for g in order[:len(vertices)])
        p.rays = tuple(rays[g] for g in order[len(vertices):])
        dir_basis = direction_space(p.vertices, p.rays)
        p.eqs = _equations(dim_ambient, p.vertices, dir_basis)
        p.dim = dim_ambient - len(p.eqs)
        if p.eqs and facets:
            gram_inv = mat_inverse([mat_vec(dir_basis, d) for d in dir_basis])
            facets = [(mat_vec(transpose(dir_basis), mat_vec(gram_inv, mat_vec(dir_basis, a))),
                       on) for a, on in facets]
        facets = sorted((primitive(a), sum(1 << j for j, g in enumerate(order) if on >> g & 1))
                        for a, on in facets)
        # b at the facet's first generator, a vertex
        p.ineqs = tuple((a, vdot(a, p.vertices[(on & -on).bit_length() - 1])) for a, on in facets)
        p._on = tuple(on for _, on in facets)
        p._cache = {}
        return p

    def key(self):
        return (self.vertices, self.rays)

    def same_as(self, other):
        return self.dim_ambient == other.dim_ambient and self.key() == other.key()

    def is_bounded(self):
        return not self.rays

    def contains_point(self, x):
        x = vec(x)
        return (all(sum(a[i] * x[i] for i in range(self.dim_ambient)) == bb for a, bb in self.eqs)
                and all(sum(a[i] * x[i] for i in range(self.dim_ambient)) <= bb for a, bb in self.ineqs))

    def recession_contains(self, direction):
        n = self.dim_ambient
        return (all(sum(a[i] * direction[i] for i in range(n)) == 0 for a, _ in self.eqs)
                and all(sum(a[i] * direction[i] for i in range(n)) <= 0 for a, _ in self.ineqs))

    def contains_poly(self, other):
        return (all(self.contains_point(v) for v in other.vertices)
                and all(self.recession_contains(r) for r in other.rays))

    def intersect(self, other):
        """The meet, of this polyhedron's kind: two cones meet in a cone."""
        out = _vrep_from_hrep(self.dim_ambient, self.eqs + other.eqs,
                              self.ineqs + other.ineqs)
        if out is None:
            return None
        p = type(self).__new__(type(self))
        Polyhedron.__init__(p, self.dim_ambient, *out)
        return p

    def _gens(self, mask):
        """(vertices, rays) with their bits set in ``mask``."""
        nv = len(self.vertices)
        return (tuple(v for i, v in enumerate(self.vertices) if mask >> i & 1),
                tuple(r for i, r in enumerate(self.rays) if mask >> (nv + i) & 1))

    def facet_keys(self):
        """Keys of the facets: the generators on each facet hyperplane.

        A face is spanned by the vertices and rays it contains, so these are
        the facets' canonical keys, known without building them.
        """
        return [self._gens(on) for on in self._on]

    def _face(self, mask):
        """The face whose generators have their bits set in ``mask``.

        Its facets are the inclusion-maximal sets mask & on_k, over the
        facets k, that are not the whole mask and hold a vertex.  In the face
        lattice of a pointed polyhedron the faces of a face F are the sets
        F & G for faces G, each G an intersection of facets, and the facets
        of F are its maximal proper nonempty faces; a nonempty face has a
        vertex.  On F, a_k.x <= b_k holds with equality exactly on F & G_k.
        """
        nv = len(self.vertices)
        cands = {}
        for (a, _), on in zip(self.ineqs, self._on):
            if on & mask != mask and on & mask & ((1 << nv) - 1):
                cands.setdefault(on & mask, a)
        facets = [(a, t) for t, a in cands.items()
                  if not any(t != u and t & u == t for u in cands)]
        gens = [(g, x) for g, x in enumerate(self.vertices + self.rays) if mask >> g & 1]
        nfv = (mask & ((1 << nv) - 1)).bit_count()
        return type(self)._derived(self.dim_ambient, dict(gens[:nfv]), dict(gens[nfv:]), facets)

    def faces(self, built=None):
        """All nonempty faces, this polyhedron included.

        ``built`` maps generator tuples (vertices, rays) to faces already
        built, for sharing the faces of the cells of one complex or the cones
        of one fan; faces missing from it are built and added.
        """
        built = {} if built is None else built
        built.setdefault((self.vertices, self.rays), self)
        seen = {}
        stack = [self]
        while stack:
            f = stack.pop()
            if (f.vertices, f.rays) in seen:
                continue
            seen[f.vertices, f.rays] = f
            for key, on in zip(f.facet_keys(), f._on):
                if key not in built:
                    built[key] = f._face(on)
                stack.append(built[key])
        return sorted(seen.values(), key=lambda p: (p.dim, p.key()))

    def is_face_of(self, other):
        if not other.contains_poly(self):
            return False
        n = other.dim_ambient
        tight = [(a, bb) for a, bb in other.ineqs
                 if all(sum(a[i] * v[i] for i in range(n)) == bb for v in self.vertices)
                 and all(sum(a[i] * r[i] for i in range(n)) == 0 for r in self.rays)]
        gv = tuple(v for v in other.vertices
                   if all(sum(a[i] * v[i] for i in range(n)) == bb for a, bb in tight))
        gr = tuple(r for r in other.rays
                   if all(sum(a[i] * r[i] for i in range(n)) == 0 for a, bb in tight))
        return (gv, gr) == (self.vertices, self.rays)

    def __repr__(self):
        return f"Polyhedron(V={list(self.vertices)}, R={list(self.rays)})"


class Cone(Polyhedron):
    """A strongly convex rational cone: the pointed polyhedron whose one
    vertex is the origin, keyed by its primitive extreme rays.  Its faces and
    its meets with cones are cones."""

    __slots__ = ()

    def __init__(self, dim_ambient, rays):
        super().__init__(dim_ambient, [zero_vec(dim_ambient)], rays)
        if len(self.vertices) != 1:
            raise NonSCR("cone is not strongly convex")

    # Bound on the class itself, so that a tracer that wraps this class's own
    # methods (perfbench/layertrace.py) finds it beside __init__.
    intersect = Polyhedron.intersect

    def key(self):
        return self.rays

    def span(self):
        return span_basis(self.rays)

    def __repr__(self):
        return f"Cone({list(self.rays)})"


def _separations(p, q):
    """Facets (a, b, on) of p, as in ``ineqs`` and ``_on``, with q on the far
    side: a.v >= b on the vertices of q and a.r >= 0 on its rays, so p and q
    meet inside the hyperplane a.x = b, if at all."""
    n = p.dim_ambient
    for (a, b), on in zip(p.ineqs, p._on):
        if all(sum(a[i] * v[i] for i in range(n)) >= b for v in q.vertices) and \
                all(sum(a[i] * r[i] for i in range(n)) >= 0 for r in q.rays):
            yield a, b, on


def _meet_certified(p, q):
    """Does a facet of p or of q prove that p and q are disjoint, or meet in
    their common face?

    Let H: a.x = b carry a facet of one with the other on the far side, so
    p & q lie in (H & p) & (H & q), the faces of p and q spanned by their
    generators on H.  If no vertex of the far cell is on H, that face of it
    is empty and p, q are disjoint.  If the generators on H are the common
    generators in both cells, both faces equal conv(V(p) & V(q)) +
    cone(R(p) & R(q)), which lies in p & q, so p & q is that face of both.
    """
    meet = common_face(p, q)
    for one, other in ((p, q), (q, p)):
        for a, b, on in _separations(one, other):
            far = (tuple(v for v in other.vertices if vdot(a, v) == b),
                   tuple(r for r in other.rays if vdot(a, r) == 0))
            if not far[0] or (far == meet and one._gens(on) == meet):
                return True
    return False


def _close_and_validate(items, kind, validate=True):
    """Face closure, the maximal members, and the common-face test.

    ``items`` are Polyhedron or Cone; returns the closed sorted list and the
    indices of the maximal ones.  Faces shared by several items are built
    once.  A member is maximal when it is not a proper face of an item; on
    a complex that is the same as being contained in no other member.

    Only pairs of maximal members are tested.  Let P, Q be maximal with
    P & Q = F a face of both (possibly empty), and take faces P' <= P and
    Q' <= Q.  Then P' & Q' = (P' & F) & (Q' & F), an intersection of two
    faces of F, so a face of F, hence of P and of Q, hence of P' and of Q'.
    Every member is a face of a maximal one, so this proves that every two
    members meet in a common face, with P = Q covering two faces of one
    cell.  Most pairs are settled by a separating facet
    (:func:`_meet_certified`); the rest are intersected exactly.
    """
    closed, built, below = {}, {}, set()
    for it in items:
        for f in it.faces(built):
            closed[f.key()] = f
            if f.key() != it.key():
                below.add(f.key())
    cells = sorted(closed.values(), key=lambda p: (p.dim, p.key()))
    maximal = tuple(i for i, p in enumerate(cells) if p.key() not in below)
    if validate:
        for i, j in itertools.combinations(maximal, 2):
            p, q = cells[i], cells[j]
            if _meet_certified(p, q):
                continue
            inter = p.intersect(q)
            if inter is not None and not (inter.is_face_of(p) and inter.is_face_of(q)):
                raise NotAComplex(
                    f"{kind} cells {p!r} and {q!r} meet in {inter!r}, not a common face")
    return tuple(cells), maximal


def direction_space(vertices, rays):
    """RREF basis of the directions of conv(vertices) + cone(rays)."""
    base = vertices[0]
    return span_basis([vsub(v, base) for v in vertices[1:]] + list(rays))


def common_face(p, q):
    """(vertices, rays) of the common face of two cells of one complex.

    In a complex, p and q meet in conv(V(p) & V(q)) + cone(R(p) & R(q)), and
    they are disjoint exactly when they share no vertex (None).  Two cones
    of one fan share their apex, so there the common rays give the common
    face.
    """
    qv = set(q.vertices)
    vs = tuple(v for v in p.vertices if v in qv)
    if not vs:
        return None
    qr = set(q.rays)
    return vs, tuple(r for r in p.rays if r in qr)


class _Closure:
    """What fans and complexes share: face-closed members in canonical order,
    the indices of the maximal ones, an index of the members by key, and the
    pairs of maximal members that meet."""

    __slots__ = ("rank", "maximal", "_index", "_cache")

    def _close(self, rank, items, kind, validate):
        members, self.maximal = _close_and_validate(items, kind, validate)
        self.rank = rank
        self._index = {m.key(): i for i, m in enumerate(members)}
        self._cache = {}
        return members

    def index(self, key):
        """Position of the member with this key, or None."""
        return self._index.get(key)

    def adjacency(self):
        """(p, q, span, meet) for each pair of positions p < q in ``maximal``
        whose members meet: ``meet`` is the key of their common face and
        ``span`` its direction space, one shared :class:`Span` per distinct
        space.  Two cones of a fan always meet, in the cone on their common
        rays, which is its key."""
        if "adj" not in self._cache:
            out, spans = [], {}
            fan = isinstance(self, Fan)
            maxs = self.max_cones() if fan else self.max_cells()
            for (p, a), (q, b) in itertools.combinations(enumerate(maxs), 2):
                meet = common_face(a, b)
                if meet is not None:
                    span = tuple(direction_space(*meet))
                    out.append((p, q, spans.setdefault(span, Span(span)),
                                meet[1] if fan else meet))
            self._cache["adj"] = tuple(out)
        return self._cache["adj"]

    def same_as(self, other):
        return self is other or (self.rank == other.rank
                                 and self._index.keys() == other._index.keys())

    def is_complete(self):
        if "complete" not in self._cache:
            self._cache["complete"] = self._complete_test()
        return self._cache["complete"]

    @staticmethod
    def _facets_paired(max_polys):
        """Does every facet of a maximal member lie in exactly two of them?"""
        count = {}
        for p in max_polys:
            for key in p.facet_keys():
                count[key] = count.get(key, 0) + 1
        return all(v == 2 for v in count.values())


class Fan(_Closure):
    """A finite collection of cones meeting along faces, face-closed.

    Regularity is tested against the lattice Z^rank.
    """

    __slots__ = ("cones",)

    def __init__(self, rank, cones, validate=True):
        self.cones = self._close(rank, cones, "fan", validate)

    def max_cones(self):
        return [self.cones[i] for i in self.maximal]

    def _complete_test(self):
        maxs = self.max_cones()
        if not maxs or any(c.dim != self.rank for c in maxs):
            return self.rank == 0 and len(self.cones) == 1
        return self.rank == 0 or self._facets_paired(maxs)

    def is_regular(self):
        if "regular" not in self._cache:
            self._cache["regular"] = all(rays_extend_to_basis(c.rays) for c in self.cones)
        return self._cache["regular"]

    def __repr__(self):
        return f"Fan(rank={self.rank}, {len(self.cones)} cones, {len(self.maximal)} maximal)"


class PolyComplex(_Closure):
    """A validated SCR polyhedral complex in N_R.

    Cells are face-closed and canonically sorted; ``vertices`` lists the
    0-cells in descending lexicographic order, which is the fixed vertex
    ordering used by every signed map downstream.
    """

    __slots__ = ("cells",)

    def __init__(self, rank, cells, validate=True):
        self.cells = self._close(rank, cells, "complex", validate)

    # -- basic queries ------------------------------------------------

    def max_cells(self):
        return [self.cells[i] for i in self.maximal]

    @property
    def vertices(self):
        """Pi(0), descending lexicographic."""
        if "vertices" not in self._cache:
            vs = [c.vertices[0] for c in self.cells if c.dim == 0]
            self._cache["vertices"] = tuple(sorted(vs, reverse=True))
        return self._cache["vertices"]

    @property
    def bounded_edges(self):
        """Bounded cells of Pi(1), in canonical cell order."""
        if "bedges" not in self._cache:
            self._cache["bedges"] = tuple(
                i for i, c in enumerate(self.cells) if c.dim == 1 and not c.rays)
        return self._cache["bedges"]

    def _complete_test(self):
        maxs = self.max_cells()
        if self.rank == 0:
            return bool(maxs)
        if not maxs or any(c.dim != self.rank for c in maxs):
            return False
        if not self._facets_paired(maxs):
            return False
        return recession_fan(self, _check_complete=False).is_complete()

    def is_regular(self):
        return cone_over(self).fan.is_regular()

    def find_cell(self, point):
        """Smallest cell containing the point, or None."""
        best = None
        for c in self.cells:
            if c.contains_point(point):
                if best is None or c.dim < best.dim:
                    best = c
        return best

    def max_cells_containing_vertex(self, v):
        """Maximal cells containing a vertex of the complex: those having it
        as a vertex."""
        return [i for i in self.maximal if v in self.cells[i].vertices]

    def __repr__(self):
        return (f"PolyComplex(rank={self.rank}, {len(self.cells)} cells, "
                f"{len(self.maximal)} maximal)")


def build_complex(cell_data, rank=None):
    """Validate raw cells into a PolyComplex.

    ``cell_data`` is a list of (vertices, rays) pairs or Polyhedron objects.
    Irrational input cannot occur (everything is Fraction); unpointed cells
    raise :class:`NonSCR`, bad intersections :class:`NotAComplex`, both with
    witnesses.
    """
    cells = []
    for item in cell_data:
        if isinstance(item, Cone):
            raise InputError(f"{item!r} is a cone, not a cell of a complex")
        if isinstance(item, Polyhedron):
            cells.append(item)
            continue
        verts, rays = item
        if rank is None:
            raise ValueError("rank required with raw vertex/ray data")
        cells.append(Polyhedron(rank, verts, rays))
    if rank is None:
        rank = cells[0].dim_ambient
    return PolyComplex(rank, cells)


class ConeOver:
    """The fan c(Pi) in N_R x R_{>=0} with the cells under its maximal cones.

    ``max_cells[p]`` is the maximal cell of Pi under the maximal cone
    ``fan.maximal[p]``, so a PP function on c(Pi) reads cell by cell as
    ``zip(max_cells, f.pieces)``.
    """

    __slots__ = ("fan", "max_cells")

    def __init__(self, fan, max_cells):
        self.fan = fan
        self.max_cells = max_cells


def _cone_over_rays(cell):
    """Sorted primitive rays of the cone over a cell, which is its key: the
    vertices and extreme rays of a pointed cell are all extreme."""
    rays = {primitive(tuple(v) + (Fraction(1),)) for v in cell.vertices}
    rays.update(tuple(r) + (Fraction(0),) for r in cell.rays)
    return tuple(sorted(rays))


def _cone_over_cell(cell):
    """The cone over a cell, read off the cell's facets.

    Every face of the cone over P that meets t > 0 is the cone over a face
    of P, so each facet a.x <= b of P gives the facet (a, -b).(y, t) <= 0.
    The face t = 0 is rec(P) x 0, a facet exactly when dim rec(P) = dim P.
    """
    n, nv = cell.dim_ambient, len(cell.vertices)
    top = nv + len(cell.rays)     # the apex's bit
    rays = {g: primitive(tuple(v) + (Fraction(1),)) for g, v in enumerate(cell.vertices)}
    rays.update((nv + g, tuple(r) + (Fraction(0),)) for g, r in enumerate(cell.rays))
    facets = [(a + (-b,), on | 1 << top) for (a, b), on in zip(cell.ineqs, cell._on)]
    if len(span_basis(cell.rays)) == cell.dim:
        facets.append((zero_vec(n) + (Fraction(-1),), (2 << top) - (1 << nv)))
    return Cone._derived(n + 1, {top: zero_vec(n + 1)}, rays, facets)


def cone_over(pc):
    """The fan c(Pi): cones over the cells plus their height-zero faces."""
    if "cone_over" in pc._cache:
        return pc._cache["cone_over"]
    n = pc.rank
    max_cones = [_cone_over_cell(pc.cells[i]) for i in pc.maximal]
    fan = Fan(n + 1, max_cones, validate=False)
    cell_at = {}
    for ci, cell in enumerate(pc.cells):
        idx = fan.index(_cone_over_rays(cell))
        if idx is None:
            raise NotAComplex("cone over a cell missing from the closure")
        cell_at[idx] = ci
    out = ConeOver(fan, tuple(cell_at[j] for j in fan.maximal))
    pc._cache["cone_over"] = out
    return out


def recession_fan(pc, _check_complete=True):
    """rec(Pi): the fan of recession cones of a complete complex."""
    if _check_complete and not pc.is_complete():
        raise IncompleteInput("recession fan needs a complete complex")
    key = "rec_fan"
    if key not in pc._cache:
        distinct = dict.fromkeys(c.rays for c in pc.max_cells())
        cones = [Cone(pc.rank, rays) for rays in distinct]
        pc._cache[key] = Fan(pc.rank, cones, validate=False)
    return pc._cache[key]


def rec_fan_as_complex(fan):
    """Read a complete fan as the canonical polyhedral complex: each maximal
    cone's fields make a plain polyhedron, keyed by vertices and rays."""
    cells = [Polyhedron.__new__(Polyhedron) for _ in fan.maximal]
    for p, c in zip(cells, fan.max_cones()):
        for name in Polyhedron.__slots__:
            setattr(p, name, getattr(c, name))
        p._cache = {}
    return PolyComplex(fan.rank, cells, validate=False)


class VertexChart:
    """The star fan Pi(v) under the identification (a, t) -> a - t v.

    ``max_cells`` lists the maximal cells of Pi containing v in the order of
    ``fan.maximal``: ``max_cells[p]`` is the cell whose cone at v is
    ``fan.maximal[p]``.  The chart keeps ambient N-coordinates (the fixed
    identification), so polynomials transport between charts with
    coefficients unchanged.
    """

    __slots__ = ("vertex", "multiplicity", "fan", "max_cells")

    def __init__(self, pc, v):
        n = pc.rank
        if v not in pc.vertices:
            raise NotAVertex(f"{v} is not a vertex of the complex")
        self.vertex = v
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        self.multiplicity = denom
        cells = pc.max_cells_containing_vertex(v)
        cones = [_chart_cone(v, pc.cells[i]) for i in cells]
        self.fan = Fan(n, cones, validate=False)
        cell_at = {self.fan.index(c.key()): i for i, c in zip(cells, cones)}
        self.max_cells = tuple(cell_at[j] for j in self.fan.maximal)


def _chart_cone(v, cell):
    """The cone at the vertex v of a cell containing it, read off the cell.

    The faces of the cone spanned by cell - v are those of the cell through
    v, so its facets are a.y <= 0 for the facets a.x <= b through v, and its
    extreme rays are the edges at v: the directions u - v and rays lying on
    a maximal set of those facets.  The apex takes v's bit.
    """
    g0 = cell.vertices.index(v)
    facets = [(a, on) for (a, _), on in zip(cell.ineqs, cell._on) if on >> g0 & 1]
    dirs = {g: primitive(vsub(u, v)) for g, u in enumerate(cell.vertices) if g != g0}
    dirs.update((len(cell.vertices) + g, r) for g, r in enumerate(cell.rays))
    tight = {g: sum(1 << k for k, (_, on) in enumerate(facets) if on >> g & 1) for g in dirs}
    edges = {g: dirs[g] for g, s in tight.items()
             if not any(s != t and s & t == s for t in tight.values())}
    return Cone._derived(cell.dim_ambient, {g0: zero_vec(cell.dim_ambient)}, edges, facets)


def vertex_chart(pc, v):
    v = vec(v)
    key = ("chart", v)
    if key not in pc._cache:
        pc._cache[key] = VertexChart(pc, v)
    return pc._cache[key]


def edge_data(pc, edge_cell):
    """Ordered endpoints and primitive edge directions of a bounded edge.

    Returns (v1, v2, ray_at_v1, ray_at_v2) with v1 > v2 in the fixed
    descending lexicographic order.
    """
    if isinstance(edge_cell, int):
        edge_cell = pc.cells[edge_cell]
    if edge_cell.dim != 1 or edge_cell.rays:
        raise UnboundedEdge(f"{edge_cell!r} is not a bounded edge")
    a, b = edge_cell.vertices
    v1, v2 = (a, b) if a > b else (b, a)
    return v1, v2, primitive(vsub(v2, v1)), primitive(vsub(v1, v2))


def quotient_projection(rank, rays):
    """Exact coordinates on N / (N cap span(rays)): a map sending x in N_R
    to its image in the quotient lattice's coordinates (the identity when
    there are no rays)."""
    if not rays:
        return tuple
    # saturated basis of N inside span(rays), then exact quotient coordinates:
    # with U.S.V = [I_s | 0] the last rank-s entries of x.V project N onto
    # the quotient
    comp = kernel_basis(mat(rays))
    if comp:
        sat = integer_kernel_basis([[int(x) for x in primitive(u)] for u in comp])
    else:
        sat = [tuple(Fraction(1 if i == j else 0) for j in range(rank)) for i in range(rank)]
    s = len(sat)
    _, _, V = smith_normal_form([[int(x) for x in row] for row in sat])

    def project(x):
        return tuple(sum(x[i] * V[i][j] for i in range(rank)) for j in range(s, rank))

    return project


def horizontal_star(pc, sigma):
    """The complex Pi(sigma) of projected cells, for a recession cone sigma."""
    if recession_fan(pc).index(sigma.key()) is None:
        raise NotARecessionCone(f"{sigma!r} is not a cone of rec(Pi)")
    n = pc.rank
    s = sigma.dim
    if s == 0:
        return pc
    project = quotient_projection(n, sigma.rays)
    cells = []
    for i in pc.maximal:
        cell = pc.cells[i]
        if not all(cell.recession_contains(r) for r in sigma.rays):
            continue
        verts = [project(v) for v in cell.vertices]
        rays = [project(r) for r in cell.rays]
        rays = [r for r in rays if not is_zero_vec(r)]
        cells.append(Polyhedron(n - s, verts, rays))
    return PolyComplex(n - s, cells)


class FanMap:
    """A subdivision map of fans: every source cone sits inside a target cone.
    ``_cache`` holds data derived from the map, such as its properness."""

    __slots__ = ("source", "target", "max_map", "_cache")

    def __init__(self, source, target, max_map):
        self.source = source
        self.target = target
        self.max_map = max_map  # source maximal position -> target maximal position
        self._cache = {}

    @classmethod
    def from_subdivision(cls, source, target):
        """The map sending each maximal source cone to the first maximal
        target cone holding it, or None if some cone has none."""
        tmax = target.max_cones()
        max_map = tuple(next((pos for pos, t in enumerate(tmax) if t.contains_poly(c)), None)
                        for c in source.max_cones())
        return None if None in max_map else cls(source, target, max_map)


class ModelMap:
    """A refinement Pi' >= Pi of complete complexes with equal recession fan."""

    __slots__ = ("source", "target", "fan_map", "cell_map", "_cache")

    def __init__(self, source, target, fan_map, cell_map):
        self.source = source
        self.target = target
        self.fan_map = fan_map
        self.cell_map = cell_map  # source maximal cell index -> target maximal cell index
        self._cache = {}

    def chart_map(self, v):
        """Fan map Pi'(v) -> Pi(v) between vertex charts at an old vertex."""
        v = vec(v)
        if ("chart", v) not in self._cache:
            src = vertex_chart(self.source, v)
            tgt = vertex_chart(self.target, v)
            fm = FanMap.from_subdivision(src.fan, tgt.fan)
            if fm is None:
                raise NotARefinement(f"charts at {v} are not nested")
            self._cache[("chart", v)] = fm
        return self._cache[("chart", v)]


def refines(finer, coarser):
    """The ModelMap witnessing c(finer) subdividing c(coarser), or None.

    It is kept in ``finer``'s cache with ``coarser`` itself, so the id in the
    key cannot pass to another complex while the entry lives.
    """
    key = ("refines", id(coarser))
    if key not in finer._cache:
        finer._cache[key] = (coarser, _model_map(finer, coarser))
    return finer._cache[key][1]


def _model_map(finer, coarser):
    if finer.rank != coarser.rank:
        return None
    if not (finer.is_complete() and coarser.is_complete()):
        return None
    if not recession_fan(finer).same_as(recession_fan(coarser)):
        return None
    co_f = cone_over(finer)
    co_c = cone_over(coarser)
    fm = FanMap.from_subdivision(co_f.fan, co_c.fan)
    if fm is None:
        return None
    # the cones over the maximal cells are the maximal cones of c(finer); the
    # fan map sends each to the cone over the coarse cell holding its cell
    hit = {i: co_c.max_cells[q] for i, q in zip(co_f.max_cells, fm.max_map)}
    return ModelMap(finer, coarser, fm, {i: hit[i] for i in finer.maximal})


def star_subdivision(pc, point):
    """Stellar subdivision of c(Pi) at the ray through (point, 1).

    Returns the subdivided complex; subdividing at an existing ray returns a
    complex with the same cells.  It is a complex by construction, so it is
    not validated again: every maximal cone of c(Pi) containing the new ray
    w is replaced by the joins of w with its facets not containing w, the
    others are kept, and this stellar subdivision of a fan at a ray of its
    support is a fan with the same support.  The new cells are its cones'
    slices at height one.
    """
    co = cone_over(pc)
    n = pc.rank
    if len(point) != n:
        raise InputError(f"the point has {len(point)} coordinates, "
                         f"the complex needs {n}")
    point = vec(point)
    if pc.find_cell(point) is None:
        raise PointOutsideSupport(f"{point} is outside the support")
    w = primitive(tuple(point) + (Fraction(1),))
    if any(c.dim == 1 and c.rays == (w,) for c in co.fan.cones):
        return PolyComplex(pc.rank, pc.max_cells(), validate=False)
    new_max = []
    for c in co.fan.max_cones():
        if not c.contains_point(w):
            new_max.append(c.rays)
            continue
        # w lies in c, so a facet a.x <= 0 misses w exactly when a.w < 0
        for (a, _), on in zip(c.ineqs, c._on):
            if sum(x * y for x, y in zip(a, w)) < 0:
                new_max.append(c._gens(on)[1] + (w,))
    cells = []
    for rays in new_max:
        verts = [vscale(1 / r[n], r[:n]) for r in rays if r[n] > 0]
        cells.append(Polyhedron(n, verts, [r[:n] for r in rays if r[n] == 0]))
    return PolyComplex(n, cells, validate=False)


def common_refinement(pc1, pc2):
    """Cell-wise intersection complex; refines both inputs.

    Regularity of the result is not guaranteed and must be queried by the
    caller via :meth:`PolyComplex.is_regular`.

    The result is a complex by construction, so it is not validated again.
    The faces of P & Q, for cells P of pc1 and Q of pc2, are the nonempty
    F & G with F <= P and G <= Q.  So (P & Q) & (P' & Q') = (P & P') &
    (Q & Q') is such an F & G for both P & Q and P' & Q', and the
    intersections form a complex.  Both inputs are complete, so the
    full-dimensional intersections cover N_R, and each lower-dimensional one
    is a face of a full-dimensional one that meets its relative interior.
    A pair with a separating facet meets in lower dimension and is skipped.
    """
    if pc1.rank != pc2.rank:
        raise RecessionMismatch("ambient ranks differ")
    if not recession_fan(pc1).same_as(recession_fan(pc2)):
        raise RecessionMismatch("recession fans differ")
    cells = []
    for i in pc1.maximal:
        for j in pc2.maximal:
            p, q = pc1.cells[i], pc2.cells[j]
            if any(_separations(p, q)) or any(_separations(q, p)):
                continue
            inter = p.intersect(q)
            if inter is not None and inter.dim == pc1.rank:
                cells.append(inter)
    return PolyComplex(pc1.rank, cells, validate=False)
