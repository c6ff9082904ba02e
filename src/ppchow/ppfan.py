"""Piecewise polynomial functions on fans.

A PPFunction keeps one ambient homogeneous polynomial per maximal cone; the
lower faces are determined by restriction, and validity means any two pieces
agree on the span of the cones' intersection.  The pairs of maximal cones,
by position, and the spans of their meets are the fan's ``adjacency``, the
one complexes have too, and validation is the search for disagreeing pieces
that affine piecewise polynomials run as well.  On a simplicial fan whose
maximal cones are full-dimensional, PP is the face ring: the Courant
functions phi_tau (1 on the primitive generator, 0 on the opposite facet)
generate everything, and their monomials over the cones give the graded
bases; other fans solve their gluing system.  Products, pullbacks along
subdivisions, pushforwards and the localization degree are all exact.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import FaceMismatch, InternalIdentityError, NotARay, NotProper, NotRegular
from .polyring import (HomogPoly, Piecewise, RatFun, _common_denominator,
                       _divide_out, _graded_polys, _memo, _times, gluing_kernel,
                       monomial_exponents, ratfun_sum_to_poly)
from .polyhedra import Cone, _facets_paired, cone_over, recession_fan
from .qlinalg import RowEchelon, mat, primitive, transpose, vec


class PPFunction(Piecewise):
    """A degree-k piecewise polynomial on a fan, stored on maximal cones:
    ``pieces[p]`` is the polynomial on the cone ``fan.maximal[p]``.

    ``validate=False`` skips the gluing check.  The program builds its
    unchecked results through :meth:`~ppchow.polyring.Piecewise._of`; the
    switch stays because ``perfbench/selftest.py`` plants faulty functions
    through it.
    """

    __slots__ = ()
    fan = Piecewise.domain

    def __init__(self, fan, degree, pieces, validate=True):
        pieces = tuple(pieces)
        if len(pieces) != len(fan.maximal):
            raise ValueError("need one piece per maximal cone")
        self.fan, self.degree = fan, degree
        self.pieces = _graded_polys(pieces, fan.rank, degree)
        if validate:
            bad = self.offending_pair()
            if bad is not None:
                i, j, inter = bad
                raise FaceMismatch(
                    f"pieces on cones {i} and {j} disagree on their common face {inter!r}",
                    witness=bad)

    def offending_pair(self):
        """(i, j, common face) for the first pair of pieces that disagree,
        the cones named by their position among the maximal ones."""
        bad = self._disagreement()
        return None if bad is None else (bad[0], bad[1], self.fan.cones[bad[2]])

    def __repr__(self):
        return f"PP(deg={self.degree}, pieces={list(self.pieces)})"


def zero_pp(fan, degree):
    return PPFunction._of(fan, degree, (HomogPoly.zero(fan.rank, degree),) * len(fan.maximal))


def constant_pp(fan, value):
    return PPFunction._of(fan, 0, (HomogPoly.constant(fan.rank, value),) * len(fan.maximal))


def _ray_vector(fan, ray):
    if isinstance(ray, Cone):
        if ray.dim != 1:
            raise NotARay(f"{ray!r} is not a ray")
        return ray.rays[0]
    return primitive(vec(ray))


@_memo
def dual_forms(cone, rank):
    """The forms phi_{tau,sigma} for a full-dimensional regular cone.

    Row i of the inverse ray matrix is the unique linear form that is 1 on
    the i-th primitive ray and 0 on the others.  The inverse is taken once
    per cone, as the right half of the RREF of [M | I], M the integer
    matrix whose columns are the rays.
    """
    if cone.dim != rank or len(cone.rays) != rank:
        raise NotRegular(f"cone {cone!r} is not full-dimensional simplicial")
    echelon = RowEchelon([int(r[i]) for r in cone.rays] + [int(i == j) for j in range(rank)]
                         for i in range(rank))
    if sorted(echelon.pivots) != list(range(rank)):
        raise NotRegular(f"cone {cone!r} is degenerate")
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    return tuple(HomogPoly._trusted(rank, 1, {u: Fraction(x, row[p])
                                              for u, x in zip(units, row[rank:]) if x})
                 for p, row in sorted(zip(echelon.pivots, echelon.rows)))


def phi_ray(fan, ray):
    """The canonical degree-one generator attached to a ray of a regular fan."""
    if not fan.is_regular():
        raise NotRegular("phi generators need a regular fan")
    return PPFunction._of(fan, 1, _phi_ray_pieces(fan, _ray_vector(fan, ray)))


@_memo
def _phi_ray_pieces(fan, v):
    """The pieces of phi_ray on the primitive ray v, which hold no reference
    to the fan that keeps them; a v that is no ray of the fan raises on
    every call."""
    if fan.index((v,)) is None:
        raise NotARay(f"{v} is not a ray of the fan")
    # a member holds a ray of the fan only as one of its own rays (see Fan)
    return tuple(dual_forms(c, fan.rank)[c.rays.index(v)] if v in c.rays
                 else HomogPoly.zero(fan.rank, 1) for c in fan.max_cones())


def phi_cone(fan, cone):
    """phi_sigma = product of phi_tau over the rays of sigma."""
    out = constant_pp(fan, 1)
    for r in cone.rays:
        out = out * phi_ray(fan, r)
    return out


def graded_basis(fan, k):
    """A Q-basis of the degree-k piecewise polynomials on the fan.

    One unknown polynomial per maximal cone, any two agreeing on the span of
    their intersection: the kernel K of that gluing system is the graded
    piece, and the basis is the one ``kernel_basis`` reads off its RREF,
    the vector of K that is 1 at f and 0 at the other free columns, for each
    free column f in turn.  A fan that is not simplicial, or whose maximal
    cones are not all full-dimensional, solves the system
    (:func:`~ppchow.polyring.gluing_kernel`).

    On a simplicial fan whose maximal cones are full-dimensional, PP is the
    face ring (Billera, 1989; Brion, 1996): the Courant function phi_rho is
    the dual form of the ray rho on each maximal cone holding it and zero on
    the others, and the products of phi_rho^a_rho over the rays of a cone
    sigma, each a_rho >= 1 and their sum k, over all cones sigma (the zero
    cone only when k = 0), are a basis of PP^k.  There are
    sum_sigma C(k - 1, dim sigma - 1) of them, the face ring's Hilbert
    function.  Each glues, as a product of functions that glue, so they
    span K, and this route builds them (:func:`_face_monomials`) in place
    of the system.

    Reducing them with the columns reversed gives ``kernel_basis``'s output
    exactly.  The free columns F of the gluing matrix are the complement of
    its leftmost greedy column basis.  The column matroid of K is the dual
    of the gluing matrix's, and the complement of a matroid's leftmost
    greedy basis is the rightmost greedy basis of the dual.  So the pivots
    of the reversed RREF of any spanning set of K are F, and its rows, each
    divided by its pivot entry, are vectors of K with the identity on F.
    Such a basis is unique, as F is a basis of K's matroid, and the rows
    sorted by pivot are in ``kernel_basis``'s order.  Every monomial must
    be kept by the elimination, so its rank is the Hilbert function; a
    dependent monomial raises :class:`InternalIdentityError`.
    """
    if all(c.dim == fan.rank and len(c.rays) == fan.rank for c in fan.max_cones()):
        polys = _face_ring_basis(fan, k)
    else:
        polys = gluing_kernel(fan.adjacency(), len(fan.maximal), fan.rank, k)
    return [PPFunction._of(fan, k, pieces) for pieces in polys]


def _face_ring_basis(fan, k):
    """The tuples of pieces of :func:`graded_basis` on a fan with full-
    dimensional simplicial maximal cones, from the reversed elimination of
    its face monomials."""
    monos = monomial_exponents(fan.rank, k)
    m, n = len(monos), len(fan.maximal)
    last = m * n - 1
    echelon = RowEchelon([])
    for row in _face_monomials(fan, k, monos):
        if not echelon.extend(row[::-1]):
            raise InternalIdentityError(
                f"a degree-{k} face monomial is dependent on the ones before it")
    out, zero = [], HomogPoly.zero(fan.rank, k)
    for c, row in sorted((last - c, row[::-1]) for c, row in zip(echelon.pivots, echelon.rows)):
        r = row[c]
        out.append(tuple(HomogPoly._trusted(fan.rank, k, {
            e: Fraction(x) if r == 1 else Fraction(x, r) for e, x in zip(monos, part) if x})
            if any(part) else zero for part in (row[t * m:t * m + m] for t in range(n))))
    return out


def _face_monomials(fan, k, monos):
    """Coordinates, in ``graded_basis``'s columns, of the degree-k face
    monomials of a fan whose maximal cones are full-dimensional and
    simplicial.  A cone is a set of rays of a maximal cone, a bitmask of
    the fan's rays; the maximal cones holding it are those whose subsets
    give that mask.  A monomial's piece on a holder is a product of the
    holder's dual forms, each product built once per call on the forms
    scaled to integers by the lcm d of their denominators, and divided by
    d^k once."""
    col = {e: c for c, e in enumerate(monos)}
    m, maxs, bit, holders = len(monos), fan.max_cones(), {}, {}
    for t, tau in enumerate(maxs):
        bits = [bit.setdefault(r, 1 << len(bit)) for r in tau.rays]
        # a cone's rays are taken in the order of their bits on every holder
        by_bit = sorted(range(fan.rank), key=bits.__getitem__)
        for d in range(0 if k == 0 else 1, min(k, fan.rank) + 1):
            for at in combinations(by_bit, d):
                holders.setdefault(sum(bits[i] for i in at), []).append((t, at))
    scaled, products = {}, {}

    def forms(t):
        """tau_t's dual forms times the lcm d of their denominators, and d^k."""
        if t not in scaled:
            fs = [f.coeffs for f in dual_forms(maxs[t], fan.rank)]
            d = lcm(*[c.denominator for f in fs for c in f.values()])
            scaled[t] = ([{x: c.numerator * (d // c.denominator) for x, c in f.items()}
                          for f in fs], d ** k)
        return scaled[t]

    def product(t, e):
        """d^|e| times the product of tau_t's dual forms to the powers e."""
        if (t, e) not in products:
            i = max((i for i, x in enumerate(e) if x), default=None)
            products[t, e] = {(0,) * fan.rank: 1} if i is None else _times(
                product(t, e[:i] + (e[i] - 1,) + e[i + 1:]), forms(t)[0][i])
        return products[t, e]

    for held in holders.values():
        d = len(held[0][1])
        for a in monomial_exponents(d, k - d):
            row = [0] * (m * len(maxs))
            for t, at in held:
                e = [0] * fan.rank
                for i, x in zip(at, a):
                    e[i] = x + 1
                scale = forms(t)[1] if k else 1
                for mono, x in product(t, tuple(e)).items():
                    row[t * m + col[mono]] = x if scale == 1 else Fraction(x, scale)
            yield row


def _system(basis, image):
    """A basis of a linear map's domain and one elimination of the m x n
    matrix A whose columns are the coordinates of the basis images, as
    :func:`_preimage` reads it: (basis, m, pivot rows, null rows).

    The rows of a :class:`~ppchow.qlinalg.RowEchelon` of [A | I] are split
    by their pivot.  A row with its pivot at a column c < n of A is kept as
    (c, its entry there, its I-part); a row with its pivot in the I-block,
    whose A-part is zero, as its I-part.  I-parts are (index, int) pairs of
    their nonzero entries.
    """
    n, A = len(basis), transpose(mat([image(b) for b in basis]))
    echelon = RowEchelon(row + tuple(int(i == j) for j in range(len(A)))
                         for i, row in enumerate(A))
    pivot_rows, null_rows = [], []
    for row, c in zip(echelon.rows, echelon.pivots):
        left = tuple((j, x) for j, x in enumerate(row[n:]) if x)
        if c < n:
            pivot_rows.append((c, row[c], left))
        else:
            null_rows.append(left)
    return basis, len(A), tuple(pivot_rows), tuple(null_rows)


def _preimage(system, target):
    """(the system's basis, coefficients on it of one preimage of ``target``,
    or None): ``solve``'s solution, free variables zero.  The one solver of
    coefficients on a basis, for cycles and the transfers alike.

    Each row of the elimination of [A | I] is [e A | e] for a row e of an
    invertible E: there are m rows, independent, in the row space of
    [A | I].  So A x = b iff (e A) x = e . b for every row.  A null row has
    e A = 0 and asks e . b = 0.  A pivot row's e A is zero at every other
    pivot column of A and nonzero at its own, c, so with the free variables
    zero it reads (e A)_c x_c = e . b, which fixes x_c.  The pivot columns
    span the column space of A, so a consistent target has a solution with
    the free variables zero, and only one, as they are independent.  Hence
    the target has a preimage iff every null row vanishes on it, and the
    pivot rows give the one ``solve`` returns, which also sets the free
    variables to zero.  The target is scaled to integers by the lcm d of
    its denominators, so a solve is integer dot products and one division
    per pivot.
    """
    basis, m, pivot_rows, null_rows = system
    if not basis:
        return basis, None if any(x != 0 for x in target) else ()
    target = vec(target)
    if len(target) != m:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    d = lcm(*[x.denominator for x in target])
    b = [x.numerator * (d // x.denominator) for x in target]
    if any(sum(x * b[j] for j, x in row) for row in null_rows):
        return basis, None
    sol = [Fraction(0)] * len(basis)
    for c, r, row in pivot_rows:
        sol[c] = Fraction(sum(x * b[j] for j, x in row), d * r)
    return basis, tuple(sol)


def pullback(fan_map, f):
    """(pi^* f) on the source: the piece over a cone is the piece of its image."""
    if not f.fan.same_as(fan_map.target):
        raise ValueError("function does not live on the map's target")
    pieces = tuple(f.pieces[fan_map.max_map[s]] for s in range(len(fan_map.source.maximal)))
    return PPFunction._of(fan_map.source, f.degree, pieces)


def pushforward(fan_map, f):
    """Pushforward along a proper subdivision of regular fans.

    On a maximal target cone sigma the value is
    (prod of sigma's dual forms) * sum over maximal source cones inside sigma
    of piece / (prod of the source cone's dual forms), summed exactly; a
    nonzero remainder in the division means the map was not a subdivision.
    The denominators and their lcm do not depend on f, so each split cone
    keeps them, with the numerator of each term but f's piece, on the map
    (:func:`_localization`).  A target cone that the map does not split
    keeps its one piece.
    Properness (equal supports) is certified on each target cone by pairing
    the facets of the source cones inside it (:func:`_facets_paired`), kept
    on the map, failing or not.
    """
    src, tgt = fan_map.source, fan_map.target
    if not f.fan.same_as(src):
        raise ValueError("function does not live on the map's source")
    if not (src.is_regular() and tgt.is_regular()):
        raise NotRegular("pushforward needs regular fans")
    pieces = []
    for t, tmax in enumerate(tgt.maximal):
        sigma = tgt.cones[tmax]
        # refuses a cone that is not full-dimensional, as the certificate needs
        dual_forms(sigma, tgt.rank)
        inside = _covering(fan_map, t)
        if inside is None:
            raise NotProper(f"source cones do not cover target cone {sigma!r}")
        if len(inside) == 1 and src.cones[src.maximal[inside[0]]].rays == sigma.rays:
            # sigma is not split: its term f_s * prod phi_sigma / prod phi_sigma is f_s
            pieces.append(f.pieces[inside[0]])
            continue
        factors, multipliers = _localization(fan_map, t)
        total = sum((f.pieces[s] * mult for s, mult in zip(inside, multipliers)),
                    HomogPoly.zero(tgt.rank, f.degree))
        pieces.append(_divide_out(total, factors, f.degree))
    return PPFunction._of(tgt, f.degree, tuple(pieces))


@_memo
def _covering(fan_map, t):
    """The positions of the maximal source cones inside the t-th maximal
    target cone, or None when they do not cover it."""
    src, tgt = fan_map.source, fan_map.target
    inside = tuple(s for s, u in enumerate(fan_map.max_map) if u == t)
    return inside if _facets_paired(src, inside, tgt.cones[tgt.maximal[t]]) else None


@_memo
def _localization(fan_map, t):
    """The part of the localization sum on the t-th maximal target cone
    sigma that does not depend on the function pushed: (the lcm of the
    denominators of the source cones inside sigma, as (linear form,
    multiplicity) pairs; per source cone s, in the order of
    :func:`_covering`, the multiplier M_s = prod phi_sigma * lcm / prod
    phi_s).  The pushed piece is sum f_s M_s divided by the lcm.  Ints and
    polynomials only, with no reference to the map that keeps them."""
    src, tgt = fan_map.source, fan_map.target
    num = HomogPoly.constant(tgt.rank, 1)
    for form in dual_forms(tgt.cones[tgt.maximal[t]], tgt.rank):
        num = num * form
    return _common_denominator([RatFun(num, dual_forms(src.cones[src.maximal[s]], tgt.rank))
                                for s in _covering(fan_map, t)])


def equivariant_degree(fan, f):
    """Localization sum over the fixed points of a regular fan.

    Returns the exact polynomial sum over maximal cones of
    piece / (product of the cone's dual forms); degree reasons force zero
    when f.degree < rank.  On a complete fan this is the equivariant degree;
    on the cone over a model it computes degrees of vertically supported
    classes, with any failure surfacing as :class:`NotPolynomial`.
    """
    if not fan.is_regular():
        raise NotRegular("degree needs a regular fan")
    terms = []
    for pos, i in enumerate(fan.maximal):
        terms.append(RatFun(f.pieces[pos], dual_forms(fan.cones[i], fan.rank)))
    return ratfun_sum_to_poly(terms, dim=fan.rank, degree=f.degree - fan.rank)


def restrict_to_height_zero(pc, f):
    """Restrict a PP function on c(Pi) to the horizontal subfan rec(Pi).

    The piece on a maximal recession cone is the piece of any maximal cone of
    c(Pi) above it with the height variable set to zero; face compatibility
    makes the choice immaterial.
    """
    fan = cone_over(pc).fan
    rec = recession_fan(pc)
    n = pc.rank
    images = [HomogPoly.variable(n, i) for i in range(n)] + [HomogPoly.zero(n, 1)]
    pieces = []
    for rmax in rec.maximal:
        # the lifted rays are rays of c(Pi), which a member holds only as
        # its own rays (see Fan)
        lift = {tuple(r) + (0,) for r in rec.cones[rmax].rays}
        pos = next(p for p, i in enumerate(fan.maximal) if lift <= set(fan.cones[i].rays))
        pieces.append(f.pieces[pos].substitute(images))
    return PPFunction._of(rec, f.degree, tuple(pieces))
