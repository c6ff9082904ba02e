"""SCR polyhedral complexes, fans and the directed set of models.

All geometry is exact over Q.  Polyhedra are pointed (strongly convex
rational); complexes are face-closed lists of cells meeting along common
faces.  The cone over a complete complex, vertex charts, recession fans,
stellar subdivisions and common refinements are the raw material for the
piecewise-polynomial Chow calculus in the higher layers.

Conversions between V- and H-descriptions are brute force over generator
subsets; ambient ranks here are tiny (at most 3 on the shipped fixtures) so
nothing smarter is warranted.  They run only where no combinatorial answer
exists: building a polyhedron (its H-description), validation's pairwise
common-face test, :func:`common_refinement` (cells of two unrelated complexes
meet in new polyhedra), :func:`star_subdivision` (new cells), and the grid
oracle of the check suite, which must share no code with the bases.  Once a
complex or fan is validated, two of its cells meet in the convex hull of
their common vertices plus the cone on their common rays, and are disjoint
exactly when they share no vertex; two cones meet in the cone on their common
rays.  Adjacency, pairwise spans, stars and cell/cone correspondences are
read off those vertex and ray sets, and each face is built once per complex
or fan.
"""

from fractions import Fraction
from math import gcd
import itertools

from .errors import (IncompleteInput, NonSCR, NotAComplex, NotARecessionCone,
                     NotARefinement, NotAVertex, PointOutsideSupport,
                     RecessionMismatch, UnboundedEdge)
from .qlinalg import (integer_kernel_basis, is_zero_vec, kernel_basis, mat,
                      primitive, rank, rays_extend_to_basis,
                      smith_normal_form, solve, span_basis, vadd, vec, vscale,
                      vsub, zero_vec)


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


class Polyhedron:
    """A pointed rational polyhedron conv(vertices) + cone(rays).

    Construction canonicalizes the generators to the extreme ones and
    precomputes an exact H-description.  Raises :class:`NonSCR` for inputs
    with no vertex or with a lineality direction.
    """

    __slots__ = ("dim_ambient", "vertices", "rays", "eqs", "ineqs", "dim")

    def __init__(self, dim_ambient, vertices, rays=()):
        vertices = sorted({vec(v) for v in vertices})
        rays = sorted({primitive(r) for r in rays if not is_zero_vec(vec(r))})
        if not vertices:
            raise NonSCR("a pointed polyhedron needs at least one vertex")
        self.dim_ambient = dim_ambient
        eqs, ineqs = _hrep_from_generators(dim_ambient, vertices, rays)
        # lineality check: directions satisfying every constraint both ways
        lin_rows = [a for a, _ in ineqs] + [a for a, _ in eqs]
        lin = kernel_basis(mat(lin_rows)) if lin_rows else \
            ([tuple(Fraction(1 if i == j else 0) for j in range(dim_ambient))
              for i in range(dim_ambient)] if dim_ambient else [])
        if lin:
            raise NonSCR(f"polyhedron contains a line in direction {lin[0]}")
        self.eqs = eqs
        self.ineqs = ineqs
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
        self.vertices = tuple(keep_v)
        self.rays = tuple(keep_r)
        if not self.vertices:
            raise NonSCR("generators have no extreme point")
        self.dim = dim_ambient - len(eqs)

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

    def contains_poly(self, other):
        for v in other.vertices:
            if not self.contains_point(v):
                return False
        for r in other.rays:
            if any(sum(a[i] * r[i] for i in range(self.dim_ambient)) != 0 for a, _ in self.eqs):
                return False
            if any(sum(a[i] * r[i] for i in range(self.dim_ambient)) > 0 for a, _ in self.ineqs):
                return False
        return True

    def intersect(self, other):
        eqs = list(self.eqs) + list(other.eqs)
        ineqs = list(self.ineqs) + list(other.ineqs)
        out = _vrep_from_hrep(self.dim_ambient, eqs, ineqs)
        if out is None or not out[0]:
            return None
        return Polyhedron(self.dim_ambient, out[0], out[1])

    def facet_keys(self):
        """Keys of the facets: the generators on each facet hyperplane.

        A face is spanned by the vertices and rays it contains, so these are
        the facets' canonical keys, known without building them.
        """
        n = self.dim_ambient
        out = []
        for a, bb in self.ineqs:
            vs = tuple(v for v in self.vertices
                       if sum(a[i] * v[i] for i in range(n)) == bb)
            rs = tuple(r for r in self.rays
                       if sum(a[i] * r[i] for i in range(n)) == 0)
            if vs:
                out.append((vs, rs))
        return out

    def faces(self, built=None):
        """All nonempty faces, this polyhedron included.

        ``built`` maps keys to faces already built, for sharing the faces of
        the cells of one complex; faces missing from it are built and added.
        """
        built = {} if built is None else built
        built.setdefault(self.key(), self)
        seen = {}
        stack = [self]
        while stack:
            f = stack.pop()
            if f.key() in seen:
                continue
            seen[f.key()] = f
            for key in f.facet_keys():
                if key not in built:
                    built[key] = Polyhedron(self.dim_ambient, *key)
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
        return (gv, gr) == self.key()

    def __repr__(self):
        return f"Polyhedron(V={list(self.vertices)}, R={list(self.rays)})"


class Cone:
    """A strongly convex rational cone, stored by its primitive extreme rays.

    ``_cache`` holds data derived from the cone, such as its dual forms.
    """

    __slots__ = ("dim_ambient", "rays", "poly", "dim", "_cache")

    def __init__(self, dim_ambient, rays):
        poly = Polyhedron(dim_ambient, [zero_vec(dim_ambient)], rays)
        if len(poly.vertices) != 1:
            raise NonSCR("cone is not strongly convex")
        self._wrap(poly)

    @classmethod
    def _of_poly(cls, poly):
        """The cone whose polyhedron, apex at the origin, is already built."""
        cone = cls.__new__(cls)
        cone._wrap(poly)
        return cone

    def _wrap(self, poly):
        self.poly = poly
        self.dim_ambient = poly.dim_ambient
        self.rays = poly.rays
        self.dim = poly.dim
        self._cache = {}

    def key(self):
        return self.rays

    def same_as(self, other):
        return self.dim_ambient == other.dim_ambient and self.rays == other.rays

    def contains_point(self, x):
        return self.poly.contains_point(x)

    def contains_cone(self, other):
        return all(self.poly.contains_point(r) for r in other.rays)

    def span(self):
        return span_basis(self.rays)

    def intersect(self, other):
        p = self.poly.intersect(other.poly)
        if p is None:
            return None
        return Cone(self.dim_ambient, p.rays)

    def faces(self, built=None):
        """All faces, sorted like :meth:`Polyhedron.faces`; ``built`` shares
        the face polyhedra the same way."""
        return [Cone._of_poly(f) for f in self.poly.faces(built)]

    def is_face_of(self, other):
        return self.poly.is_face_of(other.poly)

    def __repr__(self):
        return f"Cone({list(self.rays)})"


def _contains(big, small):
    return big.contains_cone(small) if isinstance(big, Cone) else big.contains_poly(small)


def _close_and_validate(items, kind, validate=True):
    """Face closure plus the pairwise common-face test.

    ``items`` are Polyhedron or Cone; returns the closed sorted list and the
    indices of the maximal ones.  Faces shared by several items are built
    once.
    """
    closed, built = {}, {}
    for it in items:
        for f in it.faces(built):
            closed[f.key()] = f
    cells = sorted(closed.values(), key=lambda p: (p.dim, p.key()))
    if validate:
        for p, q in itertools.combinations(cells, 2):
            inter = p.intersect(q)
            if inter is None:
                continue
            if not (inter.is_face_of(p) and inter.is_face_of(q)):
                raise NotAComplex(
                    f"{kind} cells {p!r} and {q!r} meet in {inter!r}, not a common face")
    maximal = [i for i, p in enumerate(cells)
               if not any(i != j and _contains(cells[j], p) for j in range(len(cells)))]
    return tuple(cells), tuple(maximal)


def direction_space(vertices, rays):
    """RREF basis of the directions of conv(vertices) + cone(rays)."""
    base = vertices[0]
    return span_basis([vsub(v, base) for v in vertices[1:]] + list(rays))


def common_face(p, q):
    """(vertices, rays) of the common face of two cells of one complex.

    In a complex, p and q meet in conv(V(p) & V(q)) + cone(R(p) & R(q)), and
    they are disjoint exactly when they share no vertex (None).  The
    polyhedra of two cones of one fan share the apex, so there the common
    rays give the common face.
    """
    qv = set(q.vertices)
    vs = tuple(v for v in p.vertices if v in qv)
    if not vs:
        return None
    qr = set(q.rays)
    return vs, tuple(r for r in p.rays if r in qr)


class _Closure:
    """What fans and complexes share: face-closed members in canonical order,
    the indices of the maximal ones, and an index of the members by key."""

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
        return self.rank == 0 or self._facets_paired([c.poly for c in maxs])

    def is_regular(self):
        if "regular" not in self._cache:
            self._cache["regular"] = all(rays_extend_to_basis(c.rays) for c in self.cones)
        return self._cache["regular"]

    def smallest_containing(self, cone):
        best = None
        for c in self.cones:
            if c.contains_cone(cone):
                if best is None or c.dim < best.dim:
                    best = c
        return best

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

    def adjacency(self):
        """Pairs of maximal cells that meet, with the direction space of
        their common face and its (vertices, rays)."""
        if "adj" not in self._cache:
            out = []
            for i, j in itertools.combinations(self.maximal, 2):
                meet = common_face(self.cells[i], self.cells[j])
                if meet is not None:
                    out.append((i, j, tuple(direction_space(*meet)), meet))
            self._cache["adj"] = tuple(out)
        return self._cache["adj"]

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
    """The fan c(Pi) in N_R x R_{>=0} with the cell/cone correspondence."""

    __slots__ = ("complex", "fan", "cell_to_cone", "cone_to_cell", "horizontal")

    def __init__(self, complex_, fan, cell_to_cone, cone_to_cell, horizontal):
        self.complex = complex_
        self.fan = fan
        self.cell_to_cone = cell_to_cone      # cell index -> cone index
        self.cone_to_cell = cone_to_cell      # cone index -> cell index or None
        self.horizontal = horizontal          # cone indices inside {t = 0}


def _cone_over_rays(cell):
    """Sorted primitive rays of the cone over a cell, which is its key: the
    vertices and extreme rays of a pointed cell are all extreme."""
    rays = {primitive(tuple(v) + (Fraction(1),)) for v in cell.vertices}
    rays.update(tuple(r) + (Fraction(0),) for r in cell.rays)
    return tuple(sorted(rays))


def cone_over(pc):
    """The fan c(Pi): cones over the cells plus their height-zero faces."""
    if "cone_over" in pc._cache:
        return pc._cache["cone_over"]
    n = pc.rank
    max_cones = [Cone(n + 1, _cone_over_rays(pc.cells[i])) for i in pc.maximal]
    fan = Fan(n + 1, max_cones, validate=False)
    cell_to_cone = {}
    for ci, cell in enumerate(pc.cells):
        idx = fan.index(_cone_over_rays(cell))
        if idx is None:
            raise NotAComplex("cone over a cell missing from the closure")
        cell_to_cone[ci] = idx
    cone_to_cell = {v: k for k, v in cell_to_cone.items()}
    horizontal = tuple(i for i, c in enumerate(fan.cones)
                       if all(r[n] == 0 for r in c.rays))
    out = ConeOver(pc, fan, cell_to_cone, cone_to_cell, horizontal)
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
    """Read a complete fan as the canonical polyhedral complex."""
    cells = [Polyhedron(fan.rank, [zero_vec(fan.rank)], c.rays) for c in fan.max_cones()]
    return PolyComplex(fan.rank, cells, validate=False)


class VertexChart:
    """The star fan Pi(v) under the identification (a, t) -> a - t v.

    ``max_cells`` lists the maximal cells of Pi containing v, parallel to the
    maximal cones of ``fan``; the chart keeps ambient N-coordinates (the
    fixed identification), so polynomials transport between charts with
    coefficients unchanged.
    """

    __slots__ = ("complex", "vertex", "multiplicity", "fan", "max_cells",
                 "cell_to_cone")

    def __init__(self, pc, v):
        n = pc.rank
        if v not in pc.vertices:
            raise NotAVertex(f"{v} is not a vertex of the complex")
        self.complex = pc
        self.vertex = v
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        self.multiplicity = denom
        max_cells = pc.max_cells_containing_vertex(v)
        cones = [_chart_cone(v, pc.cells[i]) for i in max_cells]
        self.max_cells = tuple(max_cells)
        self.fan = Fan(n, cones, validate=False)
        self.cell_to_cone = {i: self.fan.index(c.key()) for i, c in zip(max_cells, cones)}


def _chart_cone(v, cell):
    """The cone at the vertex v of a cell containing it."""
    rays = [vsub(u, v) for u in cell.vertices if u != v] + list(cell.rays)
    return Cone(cell.dim_ambient, [primitive(r) for r in rays])


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
        if not all(cell_contains_recession(cell, r) for r in sigma.rays):
            continue
        verts = [project(v) for v in cell.vertices]
        rays = [project(r) for r in cell.rays]
        rays = [r for r in rays if not is_zero_vec(r)]
        cells.append(Polyhedron(n - s, verts, rays))
    return PolyComplex(n - s, cells)


def cell_contains_recession(cell, direction):
    return all(sum(a[i] * direction[i] for i in range(cell.dim_ambient)) == 0
               for a, _ in cell.eqs) and \
           all(sum(a[i] * direction[i] for i in range(cell.dim_ambient)) <= 0
               for a, _ in cell.ineqs)


class FanMap:
    """A subdivision map of fans: every source cone sits inside a target cone."""

    __slots__ = ("source", "target", "max_map")

    def __init__(self, source, target, max_map):
        self.source = source
        self.target = target
        self.max_map = max_map  # source maximal position -> target maximal position

    @classmethod
    def from_subdivision(cls, source, target):
        max_map = []
        for i in source.maximal:
            c = source.cones[i]
            hit = None
            for pos, j in enumerate(target.maximal):
                if target.cones[j].contains_cone(c):
                    hit = pos
                    break
            if hit is None:
                return None
            max_map.append(hit)
        return cls(source, target, tuple(max_map))

    def compose(self, other):
        """self after other: other maps A -> B, self maps B -> C."""
        if other.target is not self.source and not other.target.same_as(self.source):
            raise ValueError("fan maps do not compose")
        return FanMap(other.source, self.target,
                      tuple(self.max_map[q] for q in other.max_map))


class ModelMap:
    """A refinement Pi' >= Pi of complete complexes with equal recession fan."""

    __slots__ = ("source", "target", "fan_map", "cell_map", "_cache")

    def __init__(self, source, target, fan_map, cell_map):
        self.source = source
        self.target = target
        self.fan_map = fan_map
        self.cell_map = cell_map  # source maximal cell index -> target maximal cell index
        self._cache = {}

    def is_identity(self):
        return self.source.same_as(self.target)

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

    def compose(self, other):
        """self after other, for towers Pi'' >= Pi' >= Pi."""
        fm = self.fan_map.compose(other.fan_map)
        cell_map = {i: self.cell_map[j] for i, j in other.cell_map.items()}
        return ModelMap(other.source, self.target, fm, cell_map)


def refines(finer, coarser):
    """The ModelMap witnessing c(finer) subdividing c(coarser), or None."""
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
    cell_map = {}
    for i in finer.maximal:
        cell = finer.cells[i]
        hit = next((j for j in coarser.maximal
                    if coarser.cells[j].contains_poly(cell)), None)
        if hit is None:
            return None
        cell_map[i] = hit
    return ModelMap(finer, coarser, fm, cell_map)


def star_subdivision(pc, point=None, ray=None):
    """Stellar subdivision of c(Pi) at the ray through (point, 1) or at a ray.

    Returns the subdivided complex; subdividing at an existing ray returns a
    complex with the same cells.
    """
    co = cone_over(pc)
    n = pc.rank
    if ray is None:
        point = vec(point)
        if pc.find_cell(point) is None:
            raise PointOutsideSupport(f"{point} is outside the support")
        w = primitive(tuple(point) + (Fraction(1),))
    else:
        w = primitive(ray)
        if co.fan.smallest_containing(Cone(n + 1, [w])) is None:
            raise PointOutsideSupport(f"ray {w} is outside c(Pi)")
    if any(c.dim == 1 and c.rays == (w,) for c in co.fan.cones):
        return PolyComplex(pc.rank, pc.max_cells(), validate=False)
    new_max = []
    for c in co.fan.max_cones():
        if not c.contains_point(w):
            new_max.append(c)
            continue
        for f in c.faces():
            if f.dim == c.dim - 1 and not f.contains_point(w):
                new_max.append(Cone(n + 1, list(f.rays) + [w]))
    cells = []
    for c in new_max:
        verts = [vscale(1 / r[n], r[:n]) for r in c.rays if r[n] > 0]
        rays = [r[:n] for r in c.rays if r[n] == 0]
        cells.append(Polyhedron(n, verts, rays))
    return PolyComplex(n, cells)


def common_refinement(pc1, pc2):
    """Cell-wise intersection complex; refines both inputs.

    Regularity of the result is not guaranteed and must be queried by the
    caller via :meth:`PolyComplex.is_regular`.
    """
    if pc1.rank != pc2.rank:
        raise RecessionMismatch("ambient ranks differ")
    if not recession_fan(pc1).same_as(recession_fan(pc2)):
        raise RecessionMismatch("recession fans differ")
    cells = []
    for i in pc1.maximal:
        for j in pc2.maximal:
            inter = pc1.cells[i].intersect(pc2.cells[j])
            if inter is not None and inter.dim == pc1.rank:
                cells.append(inter)
    return PolyComplex(pc1.rank, cells)
