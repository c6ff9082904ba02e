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
mask of its generators on each facet, so faces, cones over cells, chart
cones and recession cones are read off the parent's facets and the face
lattice, and build their H-descriptions only when these are first read;
generators span a face when the facets holding them cut out just
them, and one facet-pairing test, :func:`_facets_paired`, decides both
completeness and a pushforward's properness.  Validation reads the
maximal members off a face walk that shares faces by tuples of generator
numbers, and certifies a complete input by its facets: when the maximal
members are full-dimensional, each facet lies in two of them on opposite
sides, and one generic point lies in exactly one, they tile N_R facet to
facet, hence face to face, and no pair is tested.  Any other input has its
pairs of maximal cells tested, which proves every pair of cells meets in a
common face; a facet of one cell with the other on its far side, read with
the facet masks, certifies nearly all pairs without intersecting them.
Stellar subdivisions and common refinements are complexes by construction
and are not validated again, and a refinement's cell map is read off the
fan map.
Once a complex or fan is validated, two of its cells meet in the convex hull
of their common vertices plus the cone on their common rays, and are
disjoint exactly when they share no vertex; two cones meet in the cone on
their common rays.  One adjacency serves fans and complexes alike: by
position, the pairs of maximal members whose agreement the gluing
conditions need, a spanning forest of each meet's star (on the models, the
pairs sharing a facet), with the span and key of each meet.  Stars and
cell/cone correspondences are read off the same vertex and ray sets, and
each face is built once per complex or fan.  Derived data is memoized by one
routine, :func:`~ppchow.polyring._memo`, keyed by builder and arguments, on
the object it derives from.
"""

from fractions import Fraction
from math import gcd, lcm
import itertools

from .errors import (IncompleteInput, InputError, NonSCR, NotAComplex,
                     NotARecessionCone, NotARefinement, NotAVertex,
                     PointOutsideSupport, RecessionMismatch, UnboundedEdge)
from .polyring import Span, _memo
from .qlinalg import (RowEchelon, column_echelon, is_zero_vec, kernel_basis,
                      mat, mat_inverse, mat_vec, primitive, primitive_ints,
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


def _bits(key, mask):
    """The entries of ``key`` at the bits set in ``mask``."""
    return tuple(k for g, k in enumerate(key) if mask >> g & 1)


def _check_length(kind, g, n):
    if len(g) != n:
        raise ValueError(f"{kind} ({', '.join(map(str, g))}) has length {len(g)} "
                         f"but dim_ambient is {n}")


class Polyhedron:
    """A pointed rational polyhedron conv(vertices) + cone(rays).

    Construction canonicalizes the generators to the extreme ones and finds
    an exact H-description on the way: ``eqs``, and ``ineqs`` with ``_on``
    parallel to it, each facet's mask of generators, vertices first.  Raises
    :class:`NonSCR` for inputs with no vertex or with a lineality direction.
    The face lattice reads ``_masks`` and ``_normals``, parallel to each
    other: each facet's mask and a normal a with a.x <= c valid and tight
    exactly on the facet (for a built polyhedron, ``_on`` and the normals of
    ``ineqs``).  A polyhedron derived from another (:meth:`_derived`) keeps
    only these, and builds its H-description when it is first read.
    ``_cache`` holds data derived from the polyhedron, such as a cone's dual
    forms.
    """

    __slots__ = ("dim_ambient", "vertices", "rays", "eqs", "ineqs", "dim", "_on",
                 "_masks", "_normals", "_cache")

    def __init__(self, dim_ambient, vertices, rays=()):
        vertices, rays = [vec(v) for v in vertices], [vec(r) for r in rays]
        for kind, g in [("vertex", v) for v in vertices] + [("ray", r) for r in rays]:
            _check_length(kind, g, dim_ambient)
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
        # extreme rays of the cone over the polyhedron, as the module says,
        # with t >= 0 a facet holding the rays only
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
        self._masks, self._normals = self._on, tuple(a for a, _ in ineqs)
        self.dim = dim_ambient - len(eqs)
        self._cache = {}

    @classmethod
    def _derived(cls, dim_ambient, dim, vertices, rays, facets):
        """conv(vertices) + cone(rays), of dimension ``dim``, built from
        known facets.

        ``vertices`` and ``rays`` map bit positions to extreme generators,
        and ``facets`` holds one pair (a, on) per facet, ``on`` the bits of
        the generators on it and a.x <= c valid, with equality exactly on
        the facet, for some c.  The pairs are kept as ``_normals`` and
        ``_masks``, renumbered to the polyhedron's own bits; the
        H-description waits for its first read (:meth:`__getattr__`).
        """
        order = sorted(vertices, key=vertices.get) + sorted(rays, key=rays.get)
        p = cls.__new__(cls)
        p.dim_ambient, p.dim = dim_ambient, dim
        p.vertices = tuple(vertices[g] for g in order[:len(vertices)])
        p.rays = tuple(rays[g] for g in order[len(vertices):])
        p._normals = tuple(a for a, _ in facets)
        p._masks = tuple(sum(1 << j for j, g in enumerate(order) if on >> g & 1)
                         for _, on in facets)
        p._cache = {}
        return p

    def __getattr__(self, name):
        """``eqs``, ``ineqs`` and ``_on`` of a derived polyhedron, built on
        first read from ``_normals`` and ``_masks`` and kept in their slots.

        Python calls this only while the slot is unset, so a built
        polyhedron, whose ``__init__`` sets the three, never gets here.  They
        are kept in the slots rather than by :func:`~ppchow.polyring._memo`:
        ``__init__`` finds them while it canonicalizes the generators, and
        a memo would have it either write the cache, which only ``_memo``
        does, or find them a second time.

        The equations are those :func:`_facets` computes, none when the
        polyhedron is full-dimensional.  The projection u of a normal a onto
        the direction space D agrees with a on D, so u.x <= c' is valid with
        equality exactly on the facet as well.  In D the normals of the
        facet's hyperplane form a line, and validity fixes the sign, so u and
        the normal in D that double description finds have one primitive
        vector; the facets are sorted by it, as ``__init__`` sorts them.
        """
        if name not in ("eqs", "ineqs", "_on"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.eqs, facets = (), zip(self._normals, self._masks)
        if self.dim < self.dim_ambient:
            dir_basis = direction_space(self.vertices, self.rays)
            self.eqs = _equations(self.dim_ambient, self.vertices, dir_basis)
            if self._normals:
                gram_inv = mat_inverse([mat_vec(dir_basis, d) for d in dir_basis])
                facets = [(mat_vec(transpose(dir_basis),
                                   mat_vec(gram_inv, mat_vec(dir_basis, a))), on)
                          for a, on in facets]
        facets = sorted((primitive(a), on) for a, on in facets)
        # b at the facet's first generator, a vertex
        self.ineqs = tuple((a, vdot(a, self.vertices[(on & -on).bit_length() - 1]))
                           for a, on in facets)
        self._on = tuple(on for _, on in facets)
        return getattr(self, name)

    def key(self):
        return (self.vertices, self.rays)

    def same_as(self, other):
        return self.dim_ambient == other.dim_ambient and self.key() == other.key()

    def contains_point(self, x):
        x = vec(x)
        _check_length("point", x, self.dim_ambient)
        return (all(sum(a[i] * x[i] for i in range(self.dim_ambient)) == bb for a, bb in self.eqs)
                and all(sum(a[i] * x[i] for i in range(self.dim_ambient)) <= bb for a, bb in self.ineqs))

    def recession_contains(self, direction):
        n = self.dim_ambient
        _check_length("direction", direction, n)
        return (all(sum(a[i] * direction[i] for i in range(n)) == 0 for a, _ in self.eqs)
                and all(sum(a[i] * direction[i] for i in range(n)) <= 0 for a, _ in self.ineqs))

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
        return [self._gens(on) for on in self._masks]

    def _face(self, mask):
        """The facet whose generators have their bits set in ``mask``.

        Its facets are the inclusion-maximal sets mask & on_k, over the
        facets k, that are not the whole mask and hold a vertex.  In the face
        lattice of a pointed polyhedron the faces of a face F are the sets
        F & G for faces G, each G an intersection of facets, and the facets
        of F are its maximal proper nonempty faces; a nonempty face has a
        vertex.  A normal a_k kept for the facet G_k gives a_k.x <= b_k on
        the polyhedron, so on F, with equality exactly where it holds on the
        polyhedron, that is on F & G_k: a_k, unprojected, is a normal of the
        facet F & G_k as :meth:`_derived` asks, and F has dimension one less.
        """
        nv = len(self.vertices)
        cands = {}
        for a, on in zip(self._normals, self._masks):
            if on & mask != mask and on & mask & ((1 << nv) - 1):
                cands.setdefault(on & mask, a)
        facets = [(a, t) for t, a in cands.items()
                  if not any(t != u and t & u == t for u in cands)]
        gens = [(g, x) for g, x in enumerate(self.vertices + self.rays) if mask >> g & 1]
        nfv = (mask & ((1 << nv) - 1)).bit_count()
        return type(self)._derived(self.dim_ambient, self.dim - 1, dict(gens[:nfv]),
                                   dict(gens[nfv:]), facets)

    def faces(self, built=None):
        """All nonempty faces, this polyhedron included: a dict from each
        face's id key to the face, this polyhedron's first.

        ``built`` = (ids, shared) shares the faces of the cells of one complex
        or the cones of one fan.  ``ids`` numbers the generators, (0, vertex)
        or (1, ray), and a face's id key is the tuple of its generators'
        numbers, vertices then rays, each in order; ``shared`` maps id keys
        to faces already built, and faces missing from it are built and
        added.  A face lists its parent's generators under the facet mask, in
        the parent's order (both sort them), so a facet's id key is read off
        its parent's by the mask: only this polyhedron's own generators are
        hashed.
        """
        ids, shared = ({}, {}) if built is None else built
        top = tuple(ids.setdefault(g, len(ids)) for g in itertools.chain(
            ((0, v) for v in self.vertices), ((1, r) for r in self.rays)))
        shared.setdefault(top, self)
        out = {top: self}
        stack = [(self, top)]
        while stack:
            f, key = stack.pop()
            for on in f._masks:
                sub = _bits(key, on)
                if sub in out:
                    continue
                face = shared.get(sub)
                if face is None:
                    face = shared[sub] = f._face(on)
                out[sub] = face
                stack.append((face, sub))
        return out

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


def _is_face(one, g):
    """Do the generators g = (vertices, rays) span a face of ``one``?  The
    facets of one holding all of g cut out the smallest face containing g,
    whose generators are those under the AND of their masks."""
    nv = len(one.vertices)
    mask = (sum(1 << i for i, v in enumerate(one.vertices) if v in g[0])
            | sum(1 << nv + i for i, r in enumerate(one.rays) if r in g[1]))
    face = -1
    for on in one._masks:
        if on & mask == mask:
            face &= on
    return one._gens(face) == g


def _meet_certified(p, q):
    """The generators (vertices, rays) of p & q when a facet of p or of q
    settles the pair, ((), ()) when it shows them disjoint; None otherwise.

    Let H: a.x = b carry a facet of one with the other on the far side, so
    p & q lies in H & other, the face of the other spanned by its generators
    G on H (the hull of G's vertices plus the cone on its rays).  If G holds
    no vertex, p and q are disjoint.  Otherwise, if G spans a face of one
    (:func:`_is_face`), that face is H & other, which then lies in p & q, so
    p & q = H & other is a face of both.  This covers G being the common
    generators of p and q and also all of one's generators on H.
    """
    for one, other in ((p, q), (q, p)):
        for a, b, _ in _separations(one, other):
            g = (tuple(v for v in other.vertices if vdot(a, v) == b),
                 tuple(r for r in other.rays if vdot(a, r) == 0))
            if not g[0]:
                return (), ()
            if _is_face(one, g):
                return g
    return None


def _side(p, x):
    """1 if x lies outside the full-dimensional polyhedron p, 0 on its
    boundary, -1 inside.  A facet's a.x <= b is read as a.(x - v) <= 0 at
    the facet's first generator v, a vertex."""
    side = -1
    for a, on in zip(p._normals, p._masks):
        v = p.vertices[(on & -on).bit_length() - 1]
        s = sum(c * (y - w) for c, y, w in zip(a, x, v))
        if s > 0:
            return 1
        if s == 0:
            side = 0
    return side


def _tiles(members, keys):
    """Do the members, maximal in a closure and with their id keys (see
    :meth:`Polyhedron.faces`), tile N_R facet to facet?  The certificate of
    :func:`_close_and_validate`: all full-dimensional, each facet's id key
    held by exactly two of them with normals of negative dot product, which
    on one hyperplane means opposite, and one point on no member's boundary
    inside exactly one of them.  The point is x0 + (t, t^2, ..., t^n) with
    x0 the first member's mean vertex plus its rays, inside that member, for
    t = 0, 1, 1/2, 1/3, ... in turn: a facet hyperplane a.x = b holds it
    for at most n values of t, as a != 0, so some t gives a point off every
    boundary.
    """
    if not members:
        return False
    n = members[0].dim_ambient
    if any(p.dim != n for p in members):
        return False
    normals = {}
    for p, key in zip(members, keys):
        for a, on in zip(p._normals, p._masks):
            normals.setdefault(_bits(key, on), []).append(a)
    if any(len(s) != 2 or sum(u * w for u, w in zip(*s)) >= 0 for s in normals.values()):
        return False
    first = members[0]
    x0 = [sum(v[i] for v in first.vertices) / len(first.vertices)
          + sum(r[i] for r in first.rays) for i in range(n)]
    sides, k = [-1] + [_side(p, x0) for p in members[1:]], 0
    while 0 in sides:
        k += 1
        x = [c + Fraction(1, k) ** (i + 1) for i, c in enumerate(x0)]
        sides = [_side(p, x) for p in members]
    return sides.count(-1) == 1


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

    No pair is tested when :func:`_tiles` certifies the maximal members:
    (i) all have dimension n, (ii) each facet lies in exactly two, with
    opposite normals, and (iii) one point, on no member's boundary, lies in
    exactly one.  Let d(y) count the members holding y, off the boundaries.

    (1) d is constant.  It is locally constant off the boundaries.  The
    points on two facet hyperplanes, the (n - 2)-skeleton among them, lie
    in finitely many affine spaces of codimension 2, whose complement is
    connected; so a generic path joins any two points off the boundaries
    and meets the boundaries at points y on one facet hyperplane H only,
    each in the relative interior of one facet of every member whose
    boundary holds y.  By (ii) these members pair off, the two of a pair
    holding that facet from opposite sides of H, so d is the same just
    before y and just after.  By (iii) d = 1, so the members cover N_R
    (their union is closed) with disjoint interiors, and by (ii) each facet
    of one is a facet of another: they tile N_R facet to facet.

    (2) Such a tiling is face to face.  At a point z, the tangent cones
    T(P) = cone(P - z) of the tiles P holding z tile R^n facet to facet: a
    facet T(F) of T(P), F a facet of P through z, is a facet of T(Q) for
    the other tile Q holding F.  A cone is L + T' with L its lineality
    space and T' pointed, so each of its facets has lineality space L;
    adjacent tangent cones share it, and the paths of (1) connect them by
    adjacency, so all share one space L(z).  The smallest face of a tile P holding z
    is P & (z + L(z)), and near z the affine space z + L(z) lies in every
    tile holding z.  Let P, Q meet in C, z in C's relative interior and F
    the smallest face of P holding z, so C <= F.  Were y in F not in Q, the
    segment [z, y] would leave Q at some w != y, in the relative interior of
    F; then F is the smallest face of P holding w, so near w the segment
    lies in Q, a contradiction.  So C = F, and likewise C is a face of Q,
    also where C has codimension 2 or more.

    Every other input, complete or not, runs the pairwise test in the same
    order, and a refusal names the same pair.
    """
    closed, built = {}, ({}, {})  # id key: (last face built, below an item?)
    for it in items:
        # the walk lists the item first and its proper faces after it
        for pos, (key, f) in enumerate(it.faces(built).items()):
            closed[key] = f, pos > 0 or closed.get(key, (f, False))[1]
    order = sorted(closed.items(), key=lambda kv: (kv[1][0].dim, kv[1][0].key()))
    cells = [f for _, (f, _) in order]
    maximal = tuple(i for i, (_, (_, below)) in enumerate(order) if not below)
    if validate and not _tiles([cells[i] for i in maximal], [order[i][0] for i in maximal]):
        for i, j in itertools.combinations(maximal, 2):
            p, q = cells[i], cells[j]
            if _meet_certified(p, q) is not None:
                continue
            inter = p.intersect(q)
            if inter is None:
                continue
            g = (inter.vertices, inter.rays)
            if not (_is_face(p, g) and _is_face(q, g)):
                raise NotAComplex(
                    f"{kind} cells {p!r} and {q!r} meet in {inter!r}, not a common face")
    return tuple(cells), maximal


def direction_space(vertices, rays):
    """RREF basis of the directions of conv(vertices) + cone(rays)."""
    base = vertices[0]
    return span_basis([vsub(v, base) for v in vertices[1:]] + list(rays))


def _join(parent, p, q):
    """Union-find: link the trees of p and q in ``parent``; were they apart?"""
    while p in parent:
        p = parent[p]
    while q in parent:
        q = parent[q]
    if p != q:
        parent[p] = q
    return p != q


def _facets_paired(members, rank, region=None):
    """Do the members, which meet in common faces and lie in the region,
    cover it?  The region is a full-dimensional polyhedron, or N_R if None.

    They do exactly when there is a member, all are full-dimensional, and
    each facet lies in two members or in one and inside a facet of the
    region.  A facet F of a member lies in a facet a.x <= b of the region or
    has its relative interior in the region's interior: a.x <= b holds on F,
    so equality at one relative interior point gives it on all of F.  Were
    a point z of the interior outside the support, a segment from a generic
    interior point of a member to z would stay in the interior, miss every
    face of dimension below rank - 1, and leave the support at a relative
    interior point of a facet; two members hold that facet, one on either
    side, and cover a ball around the point.  Conversely, on a cover, the
    points just past a facet F in the interior lie in a second member, which
    meets the first in a face containing F, so in F; past a facet inside one
    of the region's, none do.

    On members not known to meet in common faces the pairing proves no
    cover of degree 1: two copies of a complete complex pair every facet.
    The certificate of :func:`_close_and_validate` adds opposite sides for
    the two members of each facet and degree 1 at one generic point, which
    prove that they meet in common faces.
    """
    count = {}
    for p in members:
        for key in p.facet_keys():
            count[key] = count.get(key, 0) + 1
    walls = () if region is None else region.ineqs
    return bool(members) and all(p.dim == rank for p in members) and all(
        v == 2 or v == 1 and any(all(vdot(a, x) == b for x in key[0])
                                 and all(vdot(a, r) == 0 for r in key[1]) for a, b in walls)
        for key, v in count.items())


class _Closure:
    """What fans and complexes share: face-closed members in canonical order,
    the indices of the maximal ones, an index of the members by key, and the
    pairs of maximal members whose gluing conditions are needed."""

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

    @_memo
    def adjacency(self):
        """(p, q, span, meet) for the pairs of positions p < q in ``maximal``
        whose gluing conditions are needed: ``meet`` is the key of their
        common face and ``span`` its direction space, one shared :class:`Span`
        per distinct space.  Two cones of a fan meet in the cone on their
        common rays, which is its key.

        The pairs form a spanning forest of the star of every meet F.  The
        common faces are taken each after the faces containing it, which have
        more generators, and a pair meeting in F is kept when it joins two
        components of F's star that the kept pairs meeting in faces
        containing F do not join.  So any two members meeting in F are linked
        by kept pairs meeting in faces G containing F: pieces agreeing on
        span G agree on span F, and equality is transitive.  The same holds
        inside the star of any face, such as an edge star.  A pair meeting in
        a face of dimension rank - 1 is always kept, as no third member holds
        that face.  Members and meets are bitmasks of generators: a common
        face is an AND, containment a subset test.
        """
        fan = isinstance(self, Fan)
        bit = {}
        masks = [sum(bit.setdefault((kind, g), 1 << len(bit))
                     for kind, gens in enumerate((m.vertices, m.rays)) for g in gens)
                 for m in (self.max_cones() if fan else self.max_cells())]
        # two members meet exactly when they share a vertex
        vertex = sum(b for (kind, _), b in bit.items() if kind == 0)
        by_meet = {}
        for p, q in itertools.combinations(range(len(masks)), 2):
            if masks[p] & masks[q] & vertex:
                by_meet.setdefault(masks[p] & masks[q], []).append((p, q))
        kept = []
        for f in sorted(by_meet, key=int.bit_count, reverse=True):
            parent = {}
            for p, q in kept:
                if masks[p] & masks[q] & f == f:
                    _join(parent, p, q)
            kept += [(p, q) for p, q in by_meet[f] if _join(parent, p, q)]
        out, spans = [], {}
        for p, q in sorted(kept):
            meet = tuple(tuple(sorted(g for (k, g), b in bit.items()
                                      if k == kind and masks[p] & masks[q] & b))
                         for kind in (0, 1))
            span = tuple(direction_space(*meet))
            out.append((p, q, spans.setdefault(span, Span(span)),
                        meet[1] if fan else meet))
        return tuple(out)

    def same_as(self, other):
        return self is other or (self.rank == other.rank
                                 and self._index.keys() == other._index.keys())

    @_memo
    def is_complete(self):
        """Is the support all of N_R?  Decided by :func:`_facets_paired`."""
        maxs = self.max_cones() if isinstance(self, Fan) else self.max_cells()
        return _facets_paired(maxs, self.rank)


class Fan(_Closure):
    """A finite collection of cones meeting along faces, face-closed.

    Regularity is tested against the lattice Z^rank.  Members meet in common
    faces, so a member s inside a member c is a face of c, whose rays are the
    rays of c in s: a member holds a ray of the fan only as its own ray.
    """

    __slots__ = ("cones",)

    def __init__(self, rank, cones, validate=True):
        self.cones = self._close(rank, cones, "fan", validate)

    def max_cones(self):
        return [self.cones[i] for i in self.maximal]

    @_memo
    def is_regular(self):
        """Do every cone's rays extend to a basis of Z^rank?  Every cone is a
        face of a maximal one, and a face of a simplicial cone is spanned by
        a subset of its rays, which extends to a basis when they do; a
        non-simplicial maximal cone fails either way.  k rays extend iff
        they are independent and the gcd of their k x k minors is 1.  For
        (s, M, V) = column_echelon(rays), V keeps that gcd (Cauchy-Binet);
        s = k makes M = [L | 0], whose gcd is |det L| = prod |M_ii|."""
        for c in self.max_cones():
            s, M, _ = column_echelon(c.rays, self.rank)
            if s < len(c.rays) or any(abs(M[i][i]) != 1 for i in range(s)):
                return False
        return True

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
    @_memo
    def vertices(self):
        """Pi(0), descending lexicographic."""
        return tuple(sorted((c.vertices[0] for c in self.cells if c.dim == 0), reverse=True))

    @property
    @_memo
    def bounded_edges(self):
        """Bounded cells of Pi(1), in canonical cell order."""
        return tuple(i for i, c in enumerate(self.cells) if c.dim == 1 and not c.rays)

    def is_regular(self):
        return cone_over(self).fan.is_regular()

    def find_cell(self, point):
        """Smallest cell containing the point, or None.

        Every cell lies in a maximal one, so the point x lies in the support
        exactly when some maximal cell P holds it.  The facets of P tight at
        x cut out F, the smallest face of P holding x, spanned by the
        generators under the AND of their masks.  A cell C holding x meets P
        in a common face, which holds x and so contains F; F is then a face
        of C & P, hence of C.  So F, a cell as the complex is face-closed,
        is the one cell of least dimension holding x.
        """
        x = vec(point)
        for i in self.maximal:
            p = self.cells[i]
            if p.contains_point(x):
                face = -1
                for (a, b), on in zip(p.ineqs, p._on):
                    if vdot(a, x) == b:
                        face &= on
                return self.cells[self._index[p._gens(face)]]
        return None

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


def _cone_over_cell(cell):
    """The cone over a cell, read off the cell's facets.

    Every face of the cone over P that meets t > 0 is the cone over a face
    of P, so each facet a.x <= b of P gives the facet (a, -b).(y, t) <= 0.
    The face t = 0 is rec(P) x 0, a facet exactly when dim rec(P) = dim P.
    The cone has dimension dim P + 1.
    """
    n, nv = cell.dim_ambient, len(cell.vertices)
    top = nv + len(cell.rays)     # the apex's bit
    rays = {g: primitive(tuple(v) + (Fraction(1),)) for g, v in enumerate(cell.vertices)}
    rays.update((nv + g, tuple(r) + (Fraction(0),)) for g, r in enumerate(cell.rays))
    facets = [(a + (-b,), on | 1 << top) for (a, b), on in zip(cell.ineqs, cell._on)]
    if len(span_basis(cell.rays)) == cell.dim:
        facets.append((zero_vec(n) + (Fraction(-1),), (2 << top) - (1 << nv)))
    return Cone._derived(n + 1, cell.dim + 1, {top: zero_vec(n + 1)}, rays, facets)


@_memo
def cone_over(pc):
    """The fan c(Pi): cones over the cells plus their height-zero faces."""
    n = pc.rank
    max_cones = [_cone_over_cell(pc.cells[i]) for i in pc.maximal]
    fan = Fan(n + 1, max_cones, validate=False)
    cell_at = {fan.index(c.key()): i for i, c in zip(pc.maximal, max_cones)}
    return ConeOver(fan, tuple(cell_at[j] for j in fan.maximal))


@_memo
def recession_fan(pc):
    """rec(Pi): the fan of recession cones of a complete complex.

    The recession cone of a cell P, times 0, is the face t = 0 of the cone
    over P, which c(Pi) holds, of the same dimension.  That face lies in
    N_R x 0, so a normal a kept for one of its facets gives
    a.(r, 0) = a[:n].r for each of its points (r, 0): dropping the last
    coordinate of its rays and kept normals gives normals valid on the cone
    in N_R with equality exactly on its facets, as :meth:`Polyhedron._derived`
    asks.
    """
    if not pc.is_complete():
        raise IncompleteInput("recession fan needs a complete complex")
    n, fan = pc.rank, cone_over(pc).fan
    cones = []
    for rays in dict.fromkeys(c.rays for c in pc.max_cells()):
        face = fan.cones[fan.index(tuple(r + (Fraction(0),) for r in rays))]
        cones.append(Cone._derived(
            n, face.dim, {0: zero_vec(n)}, {1 + g: r[:n] for g, r in enumerate(face.rays)},
            [(a[:n], on) for a, on in zip(face._normals, face._masks)]))
    return Fan(n, cones, validate=False)


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
        self.multiplicity = lcm(*(x.denominator for x in v))
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
    a maximal set of those facets.  The apex takes v's bit, and the cone
    spans the cell's direction space, so it has the cell's dimension.
    """
    g0 = cell.vertices.index(v)
    facets = [(a, on) for (a, _), on in zip(cell.ineqs, cell._on) if on >> g0 & 1]
    dirs = {g: primitive(vsub(u, v)) for g, u in enumerate(cell.vertices) if g != g0}
    dirs.update((len(cell.vertices) + g, r) for g, r in enumerate(cell.rays))
    tight = {g: sum(1 << k for k, (_, on) in enumerate(facets) if on >> g & 1) for g in dirs}
    edges = {g: dirs[g] for g, s in tight.items()
             if not any(s != t and s & t == s for t in tight.values())}
    return Cone._derived(cell.dim_ambient, cell.dim, {g0: zero_vec(cell.dim_ambient)},
                         edges, facets)


def vertex_chart(pc, v):
    return _vertex_chart(pc, vec(v))


@_memo
def _vertex_chart(pc, v):
    return VertexChart(pc, v)


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
    """Exact coordinates on N / (N cap span(rays)), for integer rays: the
    map x -> (x V)[s:] with (s, M, V) = column_echelon(rays).  Its kernel on
    N = Z^rank, (Z^s x 0) V^-1, is saturated of rank s = dim span(rays) and
    holds the rays (the rows of M are zero past s), so it is
    N cap span(rays); V is onto, so the map takes the quotient
    isomorphically onto Z^(rank - s).  No rays give the identity."""
    s, _, V = column_echelon(rays, rank)

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
        target cone holding it, or None if some cone has none.

        A cone c lies in t when its rays do.  A source ray that is a ray of
        the target fan lies in t exactly when it is one of t's rays (see
        :class:`Fan`); only the other rays are tested against t.
        """
        tmax = target.max_cones()
        max_map = tuple(next((pos for pos, t in enumerate(tmax) if all(
            r in t.rays if target.index((r,)) is not None else t.contains_point(r)
            for r in c.rays)), None) for c in source.max_cones())
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

    @_memo
    def chart_map(self, v):
        """Fan map Pi'(v) -> Pi(v) between vertex charts at an old vertex v,
        given as the complexes list it."""
        src = vertex_chart(self.source, v)
        tgt = vertex_chart(self.target, v)
        fm = FanMap.from_subdivision(src.fan, tgt.fan)
        if fm is None:
            raise NotARefinement(f"charts at {v} are not nested")
        return fm


@_memo
def refines(finer, coarser):
    """The ModelMap witnessing c(finer) subdividing c(coarser), or None,
    kept in ``finer``'s cache under ``coarser`` itself."""
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
    if co.fan.index((w,)) is not None:
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
